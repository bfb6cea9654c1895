(* Differential oracles over the solver stack.

   Ground truth comes from three independent sources: exhaustive
   enumeration of small integer lattices, the self-checking dual
   certificate ([Simplex.check_certificate], strong duality +
   complementary slackness re-verified from scratch), and pairwise
   agreement between configurations that must be semantically equivalent
   (dense vs sparse core, presolve on/off, warm vs cold starts, worker
   counts). *)

open Check

let tol = 1e-6

let close a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs b)

let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Evaluate a spec row-by-row at an assignment (exact for the dyadic
   data the generators produce). *)
let row_value terms (x : float array) =
  Array.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0.0 terms

let point_feasible (spec : Gen_lp.spec) x =
  let ok = ref true in
  Array.iteri
    (fun j (lo, hi, _) -> if x.(j) < lo -. tol || x.(j) > hi +. tol then ok := false)
    spec.Gen_lp.vars;
  Array.iter
    (fun (terms, sense, rhs) ->
      let v = row_value terms x in
      match sense with
      | Lp.Model.Le -> if v > rhs +. tol then ok := false
      | Lp.Model.Ge -> if v < rhs -. tol then ok := false
      | Lp.Model.Eq -> if Float.abs (v -. rhs) > tol then ok := false)
    spec.Gen_lp.rows;
  !ok

let objective (spec : Gen_lp.spec) x =
  let acc = ref 0.0 in
  Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) spec.Gen_lp.obj;
  !acc

(* ---------------------------------------------------- enumeration oracle *)

(* Walk the whole integer lattice of a small all-integer box.  The
   generator caps the box at 5^5 points, so this is exact ground truth. *)
let enumerate (spec : Gen_lp.spec) =
  let n = Array.length spec.Gen_lp.vars in
  let x = Array.make n 0.0 in
  let best = ref None in
  let better obj =
    match !best with
    | None -> true
    | Some (b, _) -> if spec.Gen_lp.minimize then obj < b else obj > b
  in
  let rec go j =
    if j = n then begin
      if point_feasible spec x then begin
        let obj = objective spec x in
        if better obj then best := Some (obj, Array.copy x)
      end
    end
    else begin
      let lo, hi, _ = spec.Gen_lp.vars.(j) in
      let v = ref lo in
      while !v <= hi do
        x.(j) <- !v;
        go (j + 1);
        v := !v +. 1.0
      done
    end
  in
  go 0;
  !best

let exhaustive_options =
  { Lp.Milp.default_options with Lp.Milp.node_limit = 200_000 }

let milp_vs_enumeration spec =
  let res = Lp.Milp.solve ~options:exhaustive_options (Gen_lp.to_model spec) in
  match enumerate spec with
  | None ->
      if res.Lp.Milp.status = Lp.Status.Infeasible then Ok ()
      else
        failf "enumeration says infeasible, solver returned %s"
          (Lp.Status.to_string res.Lp.Milp.status)
  | Some (best, witness) -> (
      match res.Lp.Milp.status with
      | Lp.Status.Optimal ->
          if not (point_feasible spec res.Lp.Milp.x) then
            failf "solver point violates its own constraints (obj %g)"
              res.Lp.Milp.obj
          else if not (close (objective spec res.Lp.Milp.x) res.Lp.Milp.obj)
          then
            failf "reported objective %g but the point evaluates to %g"
              res.Lp.Milp.obj
              (objective spec res.Lp.Milp.x)
          else if not (close res.Lp.Milp.obj best) then
            failf "solver objective %g, enumeration ground truth %g (at %s)"
              res.Lp.Milp.obj best
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") witness)))
          else Ok ()
      | st ->
          failf "enumeration found optimum %g, solver returned %s" best
            (Lp.Status.to_string st))

(* ------------------------------------------------------ duality oracle *)

let lp_certificate spec =
  let input = Lp.Simplex.of_model (Gen_lp.to_model spec) in
  let r = Lp.Simplex.solve input in
  match r.Lp.Simplex.status with
  | Lp.Status.Optimal -> (
      if not (Lp.Simplex.feasible input r.Lp.Simplex.x) then
        failf "optimal point infeasible (obj %g)" r.Lp.Simplex.obj_value
      else
        match Lp.Simplex.check_certificate input r with
        | [] -> Ok ()
        | errs ->
            failf "certificate rejected: %s" (String.concat "; " errs))
  | Lp.Status.Infeasible -> (
      (* Cross-check the verdict with the other engine. *)
      let d = Lp.Simplex.solve ~core:Lp.Simplex.Dense input in
      match d.Lp.Simplex.status with
      | Lp.Status.Infeasible -> Ok ()
      | st ->
          failf "sparse says infeasible, dense says %s" (Lp.Status.to_string st))
  | st -> failf "unexpected status %s on a bounded LP" (Lp.Status.to_string st)

let core_equivalence spec =
  let input = Lp.Simplex.of_model (Gen_lp.to_model spec) in
  let s = Lp.Simplex.solve ~core:Lp.Simplex.Sparse input in
  let d = Lp.Simplex.solve ~core:Lp.Simplex.Dense input in
  if s.Lp.Simplex.status <> d.Lp.Simplex.status then
    failf "status disagrees: sparse %s, dense %s"
      (Lp.Status.to_string s.Lp.Simplex.status)
      (Lp.Status.to_string d.Lp.Simplex.status)
  else if
    s.Lp.Simplex.status = Lp.Status.Optimal
    && not (close s.Lp.Simplex.obj_value d.Lp.Simplex.obj_value)
  then
    failf "objective disagrees: sparse %g, dense %g" s.Lp.Simplex.obj_value
      d.Lp.Simplex.obj_value
  else Ok ()

let presolve_equivalence spec =
  let input = Lp.Simplex.of_model (Gen_lp.to_model spec) in
  let p = Lp.Presolve.solve input in
  let b = Lp.Simplex.solve input in
  if p.Lp.Simplex.status <> b.Lp.Simplex.status then
    failf "status disagrees: presolve %s, direct %s"
      (Lp.Status.to_string p.Lp.Simplex.status)
      (Lp.Status.to_string b.Lp.Simplex.status)
  else if p.Lp.Simplex.status <> Lp.Status.Optimal then Ok ()
  else if not (close p.Lp.Simplex.obj_value b.Lp.Simplex.obj_value) then
    failf "objective disagrees: presolve %g, direct %g" p.Lp.Simplex.obj_value
      b.Lp.Simplex.obj_value
  else if not (Lp.Simplex.feasible input p.Lp.Simplex.x) then
    failf "postsolved point violates the original input"
  else
    match Lp.Simplex.check_certificate input p with
    | [] -> Ok ()
    | errs ->
        failf "postsolved certificate rejected: %s" (String.concat "; " errs)

(* ----------------------------------------------- factor reuse oracle *)

(* Two successive box tightenings, each re-solved warm both from the
   basis as exported (which carries the sparse factorization of these
   rows) and from the same basis with the factor stripped (which forces a
   refactorization): both answers must certify against the tightened LP
   and agree on status and objective.  Each step halves the distance to
   the lower bound of the variable sitting farthest above it. *)
let warm_factor_reuse spec =
  let input = Lp.Simplex.of_model (Gen_lp.to_model spec) in
  let tighten (inp : Lp.Simplex.input) (r : Lp.Simplex.result) =
    let best = ref (-1) and gap = ref 1e-6 in
    Array.iteri
      (fun j lo ->
        let d = r.Lp.Simplex.x.(j) -. lo in
        if d > !gap then begin
          best := j;
          gap := d
        end)
      inp.Lp.Simplex.lo;
    if !best < 0 then None
    else begin
      let hi = Array.copy inp.Lp.Simplex.hi in
      hi.(!best) <- inp.Lp.Simplex.lo.(!best) +. (!gap /. 2.0);
      Some { inp with Lp.Simplex.hi }
    end
  in
  let certified tag inp (r : Lp.Simplex.result) =
    match Lp.Simplex.check_certificate inp r with
    | [] -> Ok ()
    | errs -> failf "%s certificate rejected: %s" tag (String.concat "; " errs)
  in
  let rec step k inp (r : Lp.Simplex.result) =
    match (r.Lp.Simplex.status, r.Lp.Simplex.basis) with
    | Lp.Status.Optimal, Some b when k > 0 -> (
        match tighten inp r with
        | None -> Ok ()
        | Some inp' -> (
            let c = Lp.Simplex.solve ~warm:b inp' in
            let s =
              Lp.Simplex.solve ~warm:{ b with Lp.Simplex.factor = None } inp'
            in
            if c.Lp.Simplex.status <> s.Lp.Simplex.status then
              failf "status disagrees: carried %s, stripped %s"
                (Lp.Status.to_string c.Lp.Simplex.status)
                (Lp.Status.to_string s.Lp.Simplex.status)
            else if c.Lp.Simplex.status <> Lp.Status.Optimal then Ok ()
            else if not (close c.Lp.Simplex.obj_value s.Lp.Simplex.obj_value)
            then
              failf "objective disagrees: carried %g, stripped %g"
                c.Lp.Simplex.obj_value s.Lp.Simplex.obj_value
            else
              match (certified "carried" inp' c, certified "stripped" inp' s) with
              | Ok (), Ok () -> step (k - 1) inp' c
              | (Error _ as e), _ | _, (Error _ as e) -> e))
    | _ -> Ok ()
  in
  step 2 input (Lp.Simplex.solve ~want_basis:true input)

(* ------------------------------------- cross-configuration MILP oracle *)

let milp_config_equivalence spec =
  let model = Gen_lp.to_model spec in
  let base = { Lp.Milp.default_options with Lp.Milp.node_limit = 50_000 } in
  let variants =
    [
      ("warm+sparse", base);
      ("cold", { base with Lp.Milp.warm_start = false });
      ("dense", { base with Lp.Milp.core = Lp.Simplex.Dense });
      ("no-presolve", { base with Lp.Milp.presolve = false });
      ("no-dive", { base with Lp.Milp.dive_first = false });
    ]
    (* Full branching matrix: every selection strategy crossed with the
       root heuristics on and off.  The optimum must not depend on how
       the tree picks variables, whether the pump seeds an incumbent, or
       whether cut rounds tighten the root — only the node counts may
       differ.  This is the oracle that catches an unsound cut (cuts off
       an integer point: some matrix cell finds a worse "optimum") or a
       pump/dive point accepted without being feasible (some cell finds
       a better one). *)
    @ List.concat_map
        (fun (bname, strat) ->
          List.concat_map
            (fun pump ->
              List.map
                (fun root_cuts ->
                  ( Printf.sprintf "%s%s%s" bname
                      (if pump then "+pump" else "-pump")
                      (if root_cuts then "+cuts" else "-cuts"),
                    { base with Lp.Milp.branch_strategy = strat; pump; root_cuts }
                  ))
                [ true; false ])
            [ true; false ])
        [
          ("mf", Lp.Branching.Most_fractional);
          ("pseudo", Lp.Branching.Pseudocost);
          ("rel", Lp.Branching.Reliability);
        ]
  in
  let results =
    List.map
      (fun (name, options) -> (name, Lp.Milp.solve ~options model))
      variants
  in
  let _, ref_r = List.hd results in
  let rec check = function
    | [] -> Ok ()
    | (name, r) :: rest ->
        if r.Lp.Milp.status <> ref_r.Lp.Milp.status then
          failf "%s status %s, warm+sparse status %s" name
            (Lp.Status.to_string r.Lp.Milp.status)
            (Lp.Status.to_string ref_r.Lp.Milp.status)
        else if
          r.Lp.Milp.status = Lp.Status.Optimal
          && not (close r.Lp.Milp.obj ref_r.Lp.Milp.obj)
        then
          failf "%s objective %g, warm+sparse objective %g" name
            r.Lp.Milp.obj ref_r.Lp.Milp.obj
        else check rest
  in
  check (List.tl results)

(* ------------------------------------------- pool worker-count oracle *)

(* Random batches of line-estate scenarios through the service pool at
   workers 0 (inline, fully deterministic) vs 2 and 4: result lines must
   be identical once delivery-only fields (timings, cache disposition)
   are stripped. *)

type pool_case = { penalties : float list; frac : float; workers : int }

let pp_pool_case ppf c =
  Format.fprintf ppf "penalties=[%s] frac_at_0=%g workers=%d"
    (String.concat ";" (List.map (Printf.sprintf "%g") c.penalties))
    c.frac c.workers

let gen_pool_case : pool_case Gen.t =
 fun rng ->
  let penalties =
    Gen.list ~max:2 (Gen.choose [ 0.0; 40.0; 80.0; 120.0 ]) rng
  in
  let penalties = if penalties = [] then [ 0.0 ] else penalties in
  {
    penalties;
    frac = Gen.choose [ 0.25; 0.5; 0.75 ] rng;
    workers = Gen.choose [ 2; 4 ] rng;
  }

let arb_pool_case =
  Check.arb ~pp:pp_pool_case
    ~shrink:(fun c ->
      match c.penalties with
      | _ :: (_ :: _ as rest) -> Seq.return { c with penalties = rest }
      | _ -> Seq.empty)
    gen_pool_case

let strip_delivery json =
  match json with
  | Service.Json.Obj fields ->
      Service.Json.Obj
        (List.filter
           (fun (k, _) ->
             k <> "queue_s" && k <> "solve_s" && k <> "cache")
           fields)
  | j -> j

let pool_lines ~workers jobs =
  Service.Pool.with_pool ~workers ~cache_capacity:16 (fun pool ->
      List.map
        (fun r ->
          Service.Json.to_string (strip_delivery (Service.Batch.result_to_json r)))
        (Service.Pool.run_batch pool jobs))

let pool_workers_equivalence c =
  let jobs =
    List.map
      (fun p ->
        Service.Job.v
          ~milp:
            {
              Service.Job.no_overrides with
              Service.Job.node_limit = Some 2;
              time_limit = Some 20.0;
            }
          (Harness.Line_jobs.estate ~penalty:p
             {
               Harness.Line_estate.default with
               Harness.Line_estate.n_groups = 10;
               frac_at_0 = c.frac;
             }))
      c.penalties
  in
  let seq = pool_lines ~workers:0 jobs in
  let par = pool_lines ~workers:c.workers jobs in
  if List.length seq <> List.length par then
    failf "line counts differ: %d sequential vs %d at workers=%d"
      (List.length seq) (List.length par) c.workers
  else
    let rec cmp i = function
      | [], [] -> Ok ()
      | a :: ra, b :: rb ->
          if a <> b then
            failf "line %d differs at workers=%d:\n  seq: %s\n  par: %s" i
              c.workers a b
          else cmp (i + 1) (ra, rb)
      | _ -> assert false
    in
    cmp 0 (seq, par)

(* ---------------------------------------------------------- the suite *)

let props =
  [
    prop ~count:60 ~smoke_count:12 "milp_vs_enumeration" Gen_lp.arb_milp_small
      milp_vs_enumeration;
    prop ~count:90 ~smoke_count:18 "lp_certificate" Gen_lp.arb_lp_bounded
      lp_certificate;
    prop ~count:70 ~smoke_count:14 "core_equivalence" Gen_lp.arb_lp_bounded
      core_equivalence;
    prop ~count:70 ~smoke_count:14 "presolve_equivalence" Gen_lp.arb_lp_bounded
      presolve_equivalence;
    prop ~count:70 ~smoke_count:14 "warm_factor_reuse" Gen_lp.arb_lp_bounded
      warm_factor_reuse;
    prop ~count:40 ~smoke_count:8 "milp_config_equivalence"
      Gen_lp.arb_milp_mixed milp_config_equivalence;
    prop ~count:4 ~smoke_count:1 "pool_workers_equivalence" arb_pool_case
      pool_workers_equivalence;
  ]
