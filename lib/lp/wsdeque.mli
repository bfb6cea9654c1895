(** The best-first frontier of the branch-and-bound tree search.

    A min-max interval heap keyed by [float]: {!Milp} pushes open nodes
    under their parent's objective key (lower = better bound) and pops
    the best one with {!pop_min}; after a node or time limit {!min_key}
    is the best bound left open.  Not thread-safe. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> key:float -> 'a -> unit

(** Remove the entry with the smallest key (ties broken arbitrarily). *)
val pop_min : 'a t -> (float * 'a) option

(** Smallest key present without removing it. *)
val min_key : 'a t -> float option
