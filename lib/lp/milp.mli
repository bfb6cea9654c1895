(** Mixed-integer linear programming by LP-based branch-and-bound.

    The solver runs best-bound branch-and-bound over the bounded-variable
    simplex of {!Simplex}.  Before the tree opens the root is worked hard:
    {!Cuts} appends Gomory mixed-integer and knapsack-cover cutting planes
    ([root_cuts]), a dive-and-fix heuristic and the {!Fpump} feasibility
    pump ([pump]) hunt for an early incumbent, and the tree then branches
    under a {!Branching} strategy (pseudocost / reliability with
    strong-branching warmup by default) instead of blind most-fractional
    selection.  A feasible plan is almost always returned together with
    the LP lower bound and the resulting optimality gap.

    With [warm_start] (the default) every branch-and-bound node carries its
    parent's optimal basis and the node LP is reoptimized by the dual
    simplex instead of solved from scratch; the solver falls back to a cold
    solve per node whenever the warm path struggles, so statuses are
    unchanged and objectives agree to solver tolerance.

    The tree search is sequential and deterministic: one best-first
    frontier ({!Wsdeque}), nodes pruned against the incumbent when they
    are popped.  A solve runs on the calling domain only; parallelism
    belongs one level up, where the service pool solves independent jobs
    on separate domains. *)

type options = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 5000) *)
  time_limit : float;
      (** CPU-seconds budget ([Sys.time]), [infinity] = none.  [Sys.time]
          is process CPU time, so every domain of the process advances
          it: solves running concurrently on other domains (the service
          pool's workers) consume this budget faster than wall clock. *)
  gap_tol : float;         (** stop when relative gap falls below this *)
  int_tol : float;         (** integrality tolerance on LP values *)
  dive_first : bool;       (** seed the incumbent by diving at the root *)
  warm_start : bool;
      (** reoptimize node LPs from the parent basis (default [true]) *)
  presolve : bool;
      (** run {!Presolve} reductions on cold basis-free node LPs — the
          root and the dives — when the model is large enough (at least
          64 rows) for the reduction to pay for itself (default [true]) *)
  core : Simplex.core;
      (** simplex engine for node LPs (default {!Simplex.Sparse}) *)
  branch_strategy : Branching.strategy;
      (** branching-variable selection (default {!Branching.Reliability}) *)
  strong_branching_nvars : int;
      (** strong-branching probes per node during warmup (default 8) *)
  strong_branching_nsteps : int;
      (** warmup window in tree nodes for {!Branching.Pseudocost}
          (default 8); {!Branching.Reliability} instead re-probes any
          variable with fewer than {!Branching.reliability_threshold}
          observations, regardless of the window *)
  pump : bool;
      (** run the {!Fpump} feasibility pump at the root when diving left
          no incumbent (default [true]) *)
  root_cuts : bool;
      (** strengthen the root with {!Cuts} separation rounds before the
          tree opens (default [true]) *)
  log : bool;              (** emit progress on the [lp.milp] log source *)
}

val default_options : options

type result = {
  status : Status.t;
  x : float array;         (** best integer point found (empty if none) *)
  relax_x : float array;
  (** root LP relaxation optimum, before cuts (empty when the root LP
      did not solve to optimality) — lets callers run rounding
      heuristics against the relaxation without re-solving it *)
  obj : float;             (** its objective, user direction *)
  bound : float;           (** proven bound on the optimum, user direction *)
  gap : float;             (** relative gap between [obj] and [bound] *)
  nodes : int;             (** branch-and-bound nodes explored *)
  cuts : int;              (** cutting planes appended at the root *)
  lp_iterations : int;     (** total simplex iterations *)
}

(** [solve m] solves the model, honouring integrality marks on variables. *)
val solve : ?options:options -> Model.t -> result

(** [relax m] solves the LP relaxation only. *)
val relax : ?max_iters:int -> ?core:Simplex.core -> Model.t -> Simplex.result

(** [integral ?tol m x] is true when all integer-marked variables of [m]
    take integer values in [x]. *)
val integral : ?tol:float -> Model.t -> float array -> bool
