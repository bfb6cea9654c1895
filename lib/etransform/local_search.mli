(** Plan polishing by single-group reassignments and pairwise swaps, scored
    with the exact evaluator.

    The MILP objective linearizes the volume-discount curve; a short local
    search against {!Evaluate} recovers most of the gap, and it also repairs
    plans produced under node/time budgets.

    Candidates are screened incrementally: a move touches at most four DCs,
    so their capacity and the cost change are computed from per-DC loads,
    backup pools and site costs plus the moved groups' WAN and latency
    terms.  Only candidates that fit and improve the cost (within a
    rounding bound) are built and confirmed by {!Placement.validate} and
    {!Evaluate}.  Both screens are necessary conditions for that exact
    test, so the accepted moves and the returned plan are the same as
    scoring every candidate with the full evaluator. *)

(** [improve asis plan] hill-climbs until a fixed point or [max_rounds];
    returns the improved plan and the number of accepted moves.  Moves that
    would violate capacity, allowed-DC, shared-risk or secondary-distinct
    constraints are never proposed.  [may_place group dc] adds external
    admissibility (pins/forbids from the iterative interface); [omega]
    enforces the business-impact spread on primaries. *)
val improve :
  ?max_rounds:int -> ?swaps:bool -> ?may_place:(int -> int -> bool) ->
  ?omega:float -> Asis.t -> Placement.t -> Placement.t * int
