(** Two-phase primal simplex with dual-simplex warm starts, for linear
    programs with bounded variables.

    Two interchangeable engines share the frame layout, basis format and
    tolerances.  The default {!Sparse} engine is a revised simplex: the
    matrix lives in compressed column form, the basis inverse is a
    product of eta factors with periodic refactorization, and pricing
    touches nonzeros only.  The legacy {!Dense} engine pivots a flat
    tableau ({!Tableau}).  Both support variables resting at either bound
    (so binary upper bounds cost no extra rows), equality / inequality
    rows (slacks are added internally), a slack-plus-structural crash
    basis that usually skips phase 1 outright, Dantzig pricing with a
    Bland anti-cycling fallback, and produce a dual certificate that
    {!check_certificate} can verify independently.

    A solve can export its optimal {!basis} and a later solve over the
    {e same rows} but different bounds can restart from it: a
    bounded-variable dual simplex repairs the bound violations, which
    after a single branch-and-bound bound change is typically a handful of
    pivots instead of a full cold solve.  A sparse basis carries the
    factorization that produced it, so a restart over the physically same
    rows array only recomputes the basic values; any other restart
    refactorizes.  Warm solves fall back to the cold path automatically
    when the saved basis is singular or the reoptimization struggles
    numerically. *)

type input = {
  nvars : int;
  lo : float array;     (** length [nvars]; [neg_infinity] allowed *)
  hi : float array;     (** length [nvars]; [infinity] allowed *)
  obj : float array;    (** length [nvars] *)
  obj_const : float;
  minimize : bool;
  rows : ((int * float) array * Model.sense * float) array;
      (** sparse rows: (terms, sense, rhs) *)
}

(** Column status: a nonbasic column rests at one of its bounds (or at 0
    when free); a basic column's value lives in its row. *)
type cstat = Basic | At_lower | At_upper | Free_nb

(** A sparse basis factorization: the compiled rows, the eta file and the
    column basic in each row. *)
type factor

(** A restart point.  [vbasis.(i)] is the column basic in row [i];
    [vstat.(j)] is the resting status of every column (structural, slack
    and artificial).  Only valid for inputs with the same row structure as
    the solve that produced it — bounds and objective may differ.
    [factor] is the sparse engine's factorization of [vbasis] (dense
    bases have none).  A warm solve reuses it only when its input's
    [rows] is physically the array the factor was built from (as in
    [{ input with lo; hi }]); otherwise, or with [factor = None], the
    basis is refactorized from scratch. *)
type basis = {
  vbasis : int array;
  vstat : cstat array;
  factor : factor option;
}

type result = {
  status : Status.t;
  x : float array;           (** structural variable values, length [nvars] *)
  obj_value : float;         (** in the user's optimization direction *)
  duals : float array;       (** one multiplier per row, min convention *)
  reduced_costs : float array;  (** per structural variable, min convention *)
  iterations : int;
  basis : basis option;
      (** final basis, present when requested and [status = Optimal] *)
  warm_started : bool;
      (** whether this result came from the dual-simplex warm path (false
          when a warm attempt fell back to the cold solver) *)
}

(** [of_model m] compiles a {!Model.t}, ignoring integrality marks. *)
val of_model : Model.t -> input

(** Which pivot engine to run.  Bases are interchangeable between the
    two: both use the same column layout and basis format. *)
type core = Dense | Sparse

(** [solve input] runs the two-phase primal simplex.  With [~warm] the
    solver instead restarts from the given basis (see {!basis} for when
    its factor is reused) and reoptimizes with the dual simplex (falling
    back to a cold solve on failure); warm solves always export their
    basis.  With [~want_basis:true] a cold solve skips fixed-column
    elimination and exports its final basis so children can warm start.
    [~core] selects the engine (default {!Sparse}). *)
val solve :
  ?max_iters:int -> ?warm:basis -> ?want_basis:bool -> ?core:core ->
  input -> result

(** [inverse_rows input b] factors [b] over [input]'s rows as a warm
    solve would and returns the column basic in each row of that
    factorization (refactorization may permute rows, so use these, not
    [b.vbasis]) and a function mapping [r] to row [r] of B⁻¹ (one BTRAN
    of e_r).  [None] when [b] does not fit the rows or is singular. *)
val inverse_rows : input -> basis -> (int array * (int -> float array)) option

(** [check_certificate input result] re-verifies, from scratch, that
    [result] is a valid optimum of [input]: primal feasibility, the sign
    conditions on reduced costs, and the strong-duality identity.  Returns
    error strings; empty means the certificate holds.  Only meaningful when
    [result.status = Optimal]. *)
val check_certificate : ?tol:float -> input -> result -> string list

(** [feasible ?tol input x] checks bounds and rows at the point [x]. *)
val feasible : ?tol:float -> input -> float array -> bool
