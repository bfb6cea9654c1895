(** NDJSON front-end: one job spec per input line, one result per output
    line, in input order.

    Job spec schema (all fields except ["estate"] optional):
    {v
    {"id":"j1",
     "estate":{"kind":"dataset","name":"enterprise1","scale":1.0},
     "dr":false, "eos":false, "fixed_charges":false,
     "omega":0.5, "reserve":0.3, "dr_server_cost":100.0,
     "milp":{"nodes":24,"time":60.0,"gap":0.005},
     "deadline_s":10.0, "degrade":true}
    v}

    Estate kinds ["dataset"] (fields [name], [scale], and for
    [name = "synthetic"] also [seed], [groups], [targets]) are resolved
    here; any other kind is offered to the [resolve] hook, which maps the
    estate object to a canonical key plus a builder — this is how the
    harness plugs line estates in without the service depending on it.

    Blank lines and lines starting with [#] are skipped. *)

type resolver = Json.t -> (string * (unit -> Etransform.Asis.t)) option

(** [job_of_json ?resolve j] decodes one job spec.  Unknown estate kinds
    without a resolver (or resolver miss) are errors, as are missing or
    ill-typed fields. *)
val job_of_json : ?resolve:resolver -> Json.t -> (Job.t, string) result

(** [job_of_line ?resolve line] parses then decodes. *)
val job_of_line : ?resolve:resolver -> string -> (Job.t, string) result

(** One NDJSON result line: id, fingerprint, code, cache hit/miss, spans,
    cost summary, solver status, and the placement vector. *)
val result_to_json : Pool.result -> Json.t

(** [result_to_line r] is [Json.to_string (result_to_json r)] byte for
    byte, but memoizes the rendered outcome details (the placement
    vector above all) per physically-shared outcome, so cache-hit
    responses skip re-serializing the plan.  This is the serializer the
    server and {!run_lines} use on their hot paths. *)
val result_to_line : Pool.result -> string

(** The result line for an unparseable input line, exactly as
    {!run_lines} emits it — the HTTP /batch route reuses it so its
    streams stay byte-compatible with the CLI. *)
val invalid_line : string -> Json.t

(** [true] for blank lines and [#] comments, which consume no output
    line. *)
val skippable : string -> bool

(** [run_lines pool ~read_line ~write] streams a batch through the pool
    in full duplex: a producer thread pulls lines from [read_line]
    ([None] = end of input) and submits jobs, while the calling thread
    awaits results in input order and hands each completed line (without
    trailing newline) to [write].  At most the pool's queue capacity is
    outstanding at once, so memory is bounded by the window, and results
    for completed predecessors are written even while [read_line] blocks
    — this is what lets the HTTP [/batch] route answer before the
    request body is fully consumed.  Lines that fail to parse produce an
    ["invalid"] result line (the batch keeps going).  If [write] raises
    (e.g. [EPIPE] on a closed pipe) the stream shuts down cleanly — the
    producer stops, every submitted ticket is drained — and the first
    write exception is re-raised.  Returns [(ok, degraded, failed)]
    counts, where [failed] includes invalid lines. *)
val run_lines :
  ?resolve:resolver ->
  Pool.t ->
  read_line:(unit -> string option) ->
  write:(string -> unit) ->
  int * int * int

(** [run pool ic oc] is {!run_lines} over channels: one result line per
    job is written (and flushed) to [oc] in input order as each
    completes, so long-lived pipes see output before [ic] reaches
    EOF. *)
val run : ?resolve:resolver -> Pool.t -> in_channel -> out_channel -> int * int * int
