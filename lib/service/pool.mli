(** Concurrent planning pool: a bounded FIFO job queue drained by OCaml 5
    domains, each solving one job at a time, fronted by the content-addressed {!Cache} and instrumented
    through {!Trace}.

    Submitting a {!Job.t} yields a ticket; {!await} blocks until the job
    ran.  Each job is checked against the cache first (hits skip the MILP
    entirely), then solved with {!Etransform.Solver.consolidate} or
    {!Etransform.Dr_planner.plan}.  Per-job deadlines bound the wall clock
    spent from submission: an expired deadline skips the MILP, and a
    deadline that arrives mid-queue caps the solver's time budget to the
    time remaining.

    Degradation: with [job.degrade] (the default), an expired deadline or a
    solver exception falls back to the greedy planner
    ({!Etransform.Greedy.plan} / [plan_dr], the same stage-2 path
    {!Etransform.Dr_planner} uses when the MILP finds no incumbent) and the
    result is tagged [Degraded] rather than failing the batch.  Only clean
    [Solved] outcomes from a full (deadline-uncapped) solver budget enter
    the cache, so a degraded or budget-starved plan is never served to a
    later identical job.

    Every job is deterministic given its spec, so a pool with any worker
    count returns results identical to a sequential run; only completion
    order (and hence trace interleaving) differs. *)

type code =
  | Solved           (** full engine result (fresh or cached) *)
  | Degraded         (** greedy fallback after deadline/solver failure *)
  | Failed           (** no plan: [degrade] off, or the fallback failed too *)

type result = {
  job : Job.t;
  fingerprint : string;
  outcome : Etransform.Solver.outcome option;  (** [None] iff [Failed] *)
  code : code;
  reason : string option;  (** why the job degraded or failed *)
  cache_hit : bool;
  cache_tier : string option;
      (** which tier answered a hit: ["memory"], ["disk"] or ["peer"];
          [None] on misses *)
  queue_s : float;         (** submission → start of execution *)
  build_s : float;         (** estate + model construction *)
  solve_s : float;         (** engine time (0 on cache hits) *)
}

type t

type ticket

(** [create ()] spawns [workers] domains ([0] = run jobs inline in the
    submitting thread — fully sequential and deterministic in submission
    order).  [queue_capacity] bounds the backlog; submission blocks when
    full.  [cache_capacity] sizes the in-memory plan cache; [tiers] adds
    backing cache tiers behind it (disk store, peer lookup — see
    {!Tiered}). *)
val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?tiers:Tiered.tier list ->
  ?trace:Trace.t ->
  unit -> t

val workers : t -> int
val queue_capacity : t -> int
val cache : t -> Etransform.Solver.outcome Cache.t

(** The full tiered cache front ({!cache} is just its memory tier). *)
val tiered : t -> Tiered.t

(** The trace sink the pool was created with ({!Trace.null} by default) —
    lets layered drivers (sweeps above all) emit their own summary events
    into the same stream. *)
val trace : t -> Trace.t

(** Jobs currently waiting in the queue (excludes the ones workers are
    executing).  Always [0] on inline ([workers = 0]) pools. *)
val queue_depth : t -> int

(** [submit t job] enqueues the job (blocking while the queue is full).
    Raises [Invalid_argument] after {!shutdown}. *)
val submit : t -> Job.t -> ticket

(** [try_submit t job] is [submit] without the blocking: [None] when the
    queue is full right now — the HTTP front-end turns that into a [503]
    instead of stalling its accept loop.  Inline pools always accept. *)
val try_submit : t -> Job.t -> ticket option

(** [await ticket] blocks until the job completed. *)
val await : ticket -> result

(** [poll ticket] is [Some result] iff the job already completed; never
    blocks. *)
val poll : ticket -> result option

(** [on_complete ticket f] runs [f result] once the job completes:
    immediately (in the calling thread) when it already has, otherwise
    from the thread that resolves the ticket — a worker domain, so [f]
    must be quick and thread-safe.  This is the completion hook the
    event-driven HTTP reactor uses to get woken through its self-pipe
    instead of parking a thread in {!await}.  Hooks run outside the
    ticket lock, in registration order; exceptions are swallowed. *)
val on_complete : ticket -> (result -> unit) -> unit

(** [run_batch t jobs] submits every job and returns results in submission
    order; also emits a ["batch"] trace summary. *)
val run_batch : t -> Job.t list -> result list

(** [stream_batch t jobs ~f] is {!run_batch} but delivers each result to
    [f] as soon as it (and all its predecessors) completed, preserving
    submission order. *)
val stream_batch : t -> Job.t list -> f:(result -> unit) -> unit

(** Drain the queue and join the worker domains.  Idempotent. *)
val shutdown : t -> unit

(** [clamp_workers ~what n] caps a worker-count flag at
    [Domain.recommended_domain_count ()], printing a one-line [what]-tagged
    warning on stderr when it clamps.  Oversubscribing domains on a
    machine with fewer cores only adds scheduler thrash — front-end flags
    ([--workers]) should pass through here before reaching a pool. *)
val clamp_workers : what:string -> int -> int

(** [with_pool f] runs [f] over a fresh pool and always shuts it down. *)
val with_pool :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?tiers:Tiered.tier list ->
  ?trace:Trace.t ->
  (t -> 'a) -> 'a
