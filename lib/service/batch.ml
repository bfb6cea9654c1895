open Etransform

type resolver = Json.t -> (string * (unit -> Asis.t)) option

let ( let* ) = Result.bind

let field_float j key default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S must be a number" key))

let field_int j key default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" key))

let field_bool j key default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %S must be a boolean" key))

let field_str j key default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must be a string" key))

let opt_field f j key =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some _ -> Result.map Option.some (f j key 0.0)

let estate_of_json ?resolve j =
  match Json.member "estate" j with
  | None -> Error "missing \"estate\""
  | Some ej -> (
      match Option.bind (Json.member "kind" ej) Json.to_str with
      | Some "dataset" ->
          let* name = field_str ej "name" "" in
          if name = "" then Error "dataset estate needs a \"name\""
          else
            let* scale = field_float ej "scale" 1.0 in
            let* seed = field_int ej "seed" 42 in
            let* groups = field_int ej "groups" 50 in
            let* targets = field_int ej "targets" 6 in
            Ok (Job.Dataset { name; scale; seed; groups; targets })
      | Some kind -> (
          match resolve with
          | None ->
              Error (Printf.sprintf "no resolver for estate kind %S" kind)
          | Some resolve -> (
              match resolve ej with
              | Some (key, build) -> Ok (Job.Inline { key; build })
              | None ->
                  Error (Printf.sprintf "unresolved estate kind %S" kind)))
      | None -> Error "estate needs a string \"kind\"")

let milp_of_json j =
  match Json.member "milp" j with
  | None -> Ok Job.no_overrides
  | Some mj ->
      let int_opt key =
        match Json.member key mj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_int v with
            | Some i -> Ok (Some i)
            | None -> Error (Printf.sprintf "milp field %S must be an integer" key))
      in
      let float_opt key =
        match Json.member key mj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_float v with
            | Some f -> Ok (Some f)
            | None -> Error (Printf.sprintf "milp field %S must be a number" key))
      in
      let bool_opt key =
        match Json.member key mj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_bool v with
            | Some b -> Ok (Some b)
            | None -> Error (Printf.sprintf "milp field %S must be a boolean" key))
      in
      let* node_limit = int_opt "nodes" in
      let* time_limit = float_opt "time" in
      let* gap_tol = float_opt "gap" in
      let* branching =
        match Json.member "branching" mj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Option.bind (Json.to_str v) Lp.Branching.strategy_of_string with
            | Some s -> Ok (Some s)
            | None ->
                Error
                  "milp field \"branching\" must be \"most-fractional\", \
                   \"pseudocost\" or \"reliability\"")
      in
      let* pump = bool_opt "pump" in
      let* cuts = bool_opt "cuts" in
      Ok { Job.node_limit; time_limit; gap_tol; branching; pump; cuts }

let scenario_of_json j =
  match Json.member "scenario" j with
  | None -> Ok Job.no_scenario
  | Some sj ->
      let float_opt key =
        match Json.member key sj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_float v with
            | Some f -> Ok (Some f)
            | None ->
                Error (Printf.sprintf "scenario field %S must be a number" key))
      in
      let int_opt key =
        match Json.member key sj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_int v with
            | Some i -> Ok (Some i)
            | None ->
                Error
                  (Printf.sprintf "scenario field %S must be an integer" key))
      in
      let* radius_km = float_opt "radius_km" in
      let* max_concurrent = int_opt "max_concurrent" in
      let* warning_s = float_opt "warning_s" in
      let* link_mb_s = float_opt "link_mb_s" in
      let* max_latency_ms = float_opt "max_latency_ms" in
      Ok
        { Job.radius_km; max_concurrent; warning_s; link_mb_s; max_latency_ms }

let job_of_json ?resolve j =
  match j with
  | Json.Obj _ ->
      let* estate = estate_of_json ?resolve j in
      let* id = field_str j "id" "" in
      let* dr = field_bool j "dr" false in
      let* economies_of_scale = field_bool j "eos" false in
      let* fixed_charges = field_bool j "fixed_charges" false in
      let* omega = opt_field field_float j "omega" in
      let* reserve = opt_field field_float j "reserve" in
      let* dr_server_cost = opt_field field_float j "dr_server_cost" in
      let* milp = milp_of_json j in
      let* scenario = scenario_of_json j in
      let* deadline_s = opt_field field_float j "deadline_s" in
      let* degrade = field_bool j "degrade" true in
      Ok
        {
          Job.id;
          estate;
          dr;
          economies_of_scale;
          fixed_charges;
          omega;
          reserve;
          dr_server_cost;
          milp;
          scenario;
          deadline_s;
          degrade;
        }
  | _ -> Error "job spec must be a JSON object"

let job_of_line ?resolve line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok j -> job_of_json ?resolve j

let result_base_fields (r : Pool.result) =
  let code =
    match r.Pool.code with
    | Pool.Solved -> "ok"
    | Pool.Degraded -> "degraded"
    | Pool.Failed -> "failed"
  in
  [
    ("id", Json.Str r.Pool.job.Job.id);
    ("fp", Json.Str r.Pool.fingerprint);
    ("code", Json.Str code);
    ("cache", Json.Str (if r.Pool.cache_hit then "hit" else "miss"));
    ("queue_s", Json.Num r.Pool.queue_s);
    ("solve_s", Json.Num r.Pool.solve_s);
  ]

let result_details_fields (o : Etransform.Solver.outcome) =
  let s = o.Solver.summary in
  [
    ("total", Json.Num (Evaluate.total s.Evaluate.cost));
    ("operational", Json.Num (Evaluate.operational s.Evaluate.cost));
    ("dcs_used", Json.Num (float_of_int s.Evaluate.dcs_used));
    ("violations", Json.Num (float_of_int s.Evaluate.violations));
    ("status", Json.Str (Lp.Status.to_string o.Solver.milp_status));
    ("gap", Json.Num o.Solver.milp_gap);
    ("nodes", Json.Num (float_of_int o.Solver.nodes));
    ( "placement",
      Json.List
        (Array.to_list
           (Array.map
              (fun j -> Json.Num (float_of_int j))
              o.Solver.placement.Placement.primary)) );
  ]

let result_reason_fields (r : Pool.result) =
  match r.Pool.reason with
  | None -> []
  | Some m -> [ ("reason", Json.Str m) ]

let result_to_json (r : Pool.result) =
  let details =
    match r.Pool.outcome with
    | None -> []
    | Some o -> result_details_fields o
  in
  Json.Obj (result_base_fields r @ details @ result_reason_fields r)

(* Serialized result line, the hot path for /solve and /batch answers.
   Rendering the outcome details — the placement array above all —
   dominates serialization cost and is byte-identical for every cache
   hit of the same plan (the plan cache shares outcome values
   physically), so the rendered fragment is memoized per outcome.  The
   per-request fields (id, timings, cache bit, reason) are rendered
   fresh each time.  Output is byte-equal to
   [Json.to_string (result_to_json r)]. *)
let details_memo : (Etransform.Solver.outcome * string) option Atomic.t =
  Atomic.make None

(* "{...}" -> the fields between the braces *)
let strip_obj s = String.sub s 1 (String.length s - 2)

let details_fragment o =
  match Atomic.get details_memo with
  | Some (o', s) when o' == o -> s
  | _ ->
      let s =
        "," ^ strip_obj (Json.to_string (Json.Obj (result_details_fields o)))
      in
      Atomic.set details_memo (Some (o, s));
      s

let result_to_line (r : Pool.result) =
  let details =
    match r.Pool.outcome with None -> "" | Some o -> details_fragment o
  in
  let reason =
    match result_reason_fields r with
    | [] -> ""
    | l -> "," ^ strip_obj (Json.to_string (Json.Obj l))
  in
  "{" ^ strip_obj (Json.to_string (Json.Obj (result_base_fields r)))
  ^ details ^ reason ^ "}"

let skippable line =
  let line = String.trim line in
  line = "" || line.[0] = '#'

let invalid_line msg =
  Json.Obj
    [
      ("id", Json.Str "");
      ("code", Json.Str "invalid");
      ("reason", Json.Str msg);
    ]

(* Parse failures must not shift the one-line-in/one-line-out alignment:
   every kept input line yields exactly one output line.

   The stream is full-duplex: a producer thread reads lines and submits
   jobs while the calling thread awaits tickets in input order and writes
   result lines.  Reading and writing never wait on each other, so a
   client that pauses mid-input (an HTTP request trickling its chunked
   body, an operator typing specs interactively) still sees every
   completed predecessor's result immediately — and a sliding window of
   at most the pool's queue capacity bounds memory by the window, not
   the input size. *)
let run_lines ?resolve pool ~read_line ~write =
  let ok = ref 0 and degraded = ref 0 and failed = ref 0 in
  let window = max 1 (Pool.queue_capacity pool) in
  let m = Mutex.create () in
  let not_full = Condition.create () and not_empty = Condition.create () in
  let pending : (Pool.ticket, string) result Queue.t = Queue.create () in
  let done_reading = ref false in
  (* Set when the writer dies (e.g. EPIPE on a closed pipe): the producer
     stops reading and the consumer keeps draining tickets without
     writing, so neither side can strand the other. *)
  let aborted = ref false in
  let push item =
    Mutex.lock m;
    while Queue.length pending >= window && not !aborted do
      Condition.wait not_full m
    done;
    if not !aborted then begin
      Queue.push item pending;
      Condition.signal not_empty
    end;
    Mutex.unlock m
  in
  let producer () =
    (try
       let rec loop () =
         if !aborted then ()
         else
           match read_line () with
           | None -> ()
           | Some line ->
               if not (skippable line) then
                 push
                   (match job_of_line ?resolve line with
                   | Error msg -> Error msg
                   | Ok job -> Ok (Pool.submit pool job));
               loop ()
       in
       loop ()
     with exn ->
       push (Error ("input error: " ^ Printexc.to_string exn)));
    Mutex.lock m;
    done_reading := true;
    Condition.broadcast not_empty;
    Mutex.unlock m
  in
  let emit item =
    let line =
      match item with
      | Error msg ->
          incr failed;
          Json.to_string (invalid_line msg)
      | Ok ticket ->
          let r = Pool.await ticket in
          (match r.Pool.code with
          | Pool.Solved -> incr ok
          | Pool.Degraded -> incr degraded
          | Pool.Failed -> incr failed);
          result_to_line r
    in
    if not !aborted then write line
  in
  let producer_thread = Thread.create producer () in
  let write_error = ref None in
  let rec consume () =
    Mutex.lock m;
    while Queue.is_empty pending && not !done_reading do
      Condition.wait not_empty m
    done;
    match Queue.take_opt pending with
    | None -> Mutex.unlock m
    | Some item ->
        Condition.signal not_full;
        Mutex.unlock m;
        (try emit item
         with exn ->
           (* Remember the first writer failure; keep draining so the
              producer's window pushes unblock and every ticket resolves. *)
           if !write_error = None then write_error := Some exn;
           Mutex.lock m;
           aborted := true;
           Condition.broadcast not_full;
           Mutex.unlock m);
        consume ()
  in
  consume ();
  Thread.join producer_thread;
  (match !write_error with Some exn -> raise exn | None -> ());
  (!ok, !degraded, !failed)

let run ?resolve pool ic oc =
  run_lines ?resolve pool
    ~read_line:(fun () ->
      match input_line ic with
      | line -> Some line
      | exception End_of_file -> None)
    ~write:(fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)
