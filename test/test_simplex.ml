(* Unit and property tests for the bounded-variable two-phase simplex. *)

open Lp

let check_float = Alcotest.(check (float 1e-6))

let solve_model m = Simplex.solve (Simplex.of_model m)

(* Every exhaustive check runs against both engines: the dense tableau and
   the sparse revised simplex must agree while both are maintained. *)
let both_cores = [ ("dense", Simplex.Dense); ("sparse", Simplex.Sparse) ]

let assert_optimal ?(tol = 1e-6) m expected =
  let input = Simplex.of_model m in
  List.iter
    (fun (tag, core) ->
      let r = Simplex.solve ~core input in
      Alcotest.(check string)
        (tag ^ " status") "optimal"
        (Status.to_string r.Simplex.status);
      Alcotest.(check (float tol)) (tag ^ " objective") expected r.Simplex.obj_value;
      match Simplex.check_certificate input r with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s certificate: %s" tag (String.concat "; " errs))
    both_cores

(* Classic textbook LP: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. *)
let test_textbook () =
  let m = Model.create ~name:"textbook" () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_le m "c1" (Model.Linexpr.var x) 4.0;
  Model.add_le m "c2" (Model.Linexpr.term 2.0 y) 12.0;
  Model.add_le m "c3"
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 2.0 y))
    18.0;
  Model.set_objective m ~minimize:false
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 5.0 y));
  let r = solve_model m in
  check_float "objective" 36.0 r.Simplex.obj_value;
  check_float "x" 2.0 r.Simplex.x.(0);
  check_float "y" 6.0 r.Simplex.x.(1)

let test_equality_rows () =
  (* min x + 2y s.t. x + y = 10, x - y = 2  ->  x=6, y=4, obj=14 *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_eq m "sum" Model.Linexpr.(add (var x) (var y)) 10.0;
  Model.add_eq m "diff" Model.Linexpr.(sub (var x) (var y)) 2.0;
  Model.set_objective m Model.Linexpr.(add (var x) (term 2.0 y));
  let r = solve_model m in
  check_float "obj" 14.0 r.Simplex.obj_value;
  check_float "x" 6.0 r.Simplex.x.(0);
  check_float "y" 4.0 r.Simplex.x.(1)

let test_bound_flip () =
  (* max x + y with box [0,1]^2 and x + y <= 1.5: needs a nonbasic var to
     ride to its upper bound. *)
  let m = Model.create () in
  let x = Model.add_var m ~hi:1.0 "x" and y = Model.add_var m ~hi:1.0 "y" in
  Model.add_le m "c" Model.Linexpr.(add (var x) (var y)) 1.5;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  let r = solve_model m in
  check_float "obj" 1.5 r.Simplex.obj_value

let test_negative_lower_bounds () =
  (* min x + y with x,y in [-2, 3] and x + y >= -1 -> obj -1. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:(-2.0) ~hi:3.0 "x"
  and y = Model.add_var m ~lo:(-2.0) ~hi:3.0 "y" in
  Model.add_ge m "c" Model.Linexpr.(add (var x) (var y)) (-1.0);
  Model.set_objective m Model.Linexpr.(add (var x) (var y));
  assert_optimal m (-1.0)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~hi:1.0 "x" in
  Model.add_ge m "c" (Model.Linexpr.var x) 5.0;
  Model.set_objective m (Model.Linexpr.var x);
  let r = solve_model m in
  Alcotest.(check string)
    "status" "infeasible"
    (Status.to_string r.Simplex.status)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.add_ge m "c" (Model.Linexpr.var x) 1.0;
  Model.set_objective m ~minimize:false (Model.Linexpr.var x);
  let r = solve_model m in
  Alcotest.(check string) "status" "unbounded" (Status.to_string r.Simplex.status)

let test_fixed_variable () =
  let m = Model.create () in
  let x = Model.add_var m ~lo:2.0 ~hi:2.0 "x" in
  let y = Model.add_var m ~hi:10.0 "y" in
  Model.add_le m "c" Model.Linexpr.(add (var x) (var y)) 7.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  assert_optimal m 7.0

let test_degenerate () =
  (* Multiple constraints tight at the optimum; exercises anti-cycling. *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_le m "c1" Model.Linexpr.(add (var x) (var y)) 1.0;
  Model.add_le m "c2" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 2.0;
  Model.add_le m "c3" Model.Linexpr.(add (term 3.0 x) (term 3.0 y)) 3.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  assert_optimal m 1.0

let test_redundant_equalities () =
  (* Linearly dependent equality rows leave an artificial stuck in the
     basis; the solver must cope. *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_eq m "e1" Model.Linexpr.(add (var x) (var y)) 4.0;
  Model.add_eq m "e2" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 8.0;
  Model.set_objective m Model.Linexpr.(add (term 3.0 x) (var y));
  assert_optimal m 4.0

let test_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var m ~hi:2.0 "x" in
  Model.set_objective m Model.Linexpr.(add (var x) (constant 100.0));
  assert_optimal m 100.0

let test_free_variable () =
  (* min y s.t. y >= x - 3, y >= -x + 1, x free: optimum x=2, y=-1. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:neg_infinity ~hi:infinity "x" in
  let y = Model.add_var m ~lo:(-100.0) "y" in
  Model.add_ge m "c1" Model.Linexpr.(sub (var y) (var x)) (-3.0);
  Model.add_ge m "c2" Model.Linexpr.(add (var y) (var x)) 1.0;
  Model.set_objective m (Model.Linexpr.var y);
  assert_optimal m (-1.0)

let test_duals_transportation () =
  (* 2x2 transportation problem: ship 4 at cost 1, 1 at cost 2, 5 at cost 1
     -> 11.  The certificate check exercises dual recovery. *)
  let m = Model.create () in
  let x = Array.init 4 (fun i -> Model.add_var m (Printf.sprintf "x%d" i)) in
  (* supplies 5, 5; demands 4, 6; costs 1 2 / 3 1 *)
  Model.add_le m "s0" Model.Linexpr.(add (var x.(0)) (var x.(1))) 5.0;
  Model.add_le m "s1" Model.Linexpr.(add (var x.(2)) (var x.(3))) 5.0;
  Model.add_ge m "d0" Model.Linexpr.(add (var x.(0)) (var x.(2))) 4.0;
  Model.add_ge m "d1" Model.Linexpr.(add (var x.(1)) (var x.(3))) 6.0;
  Model.set_objective m
    Model.Linexpr.(
      sum [ var x.(0); term 2.0 x.(1); term 3.0 x.(2); var x.(3) ]);
  assert_optimal m 11.0

(* Random feasible-by-construction LPs must solve to optimality with a
   verifiable KKT certificate and beat the seed point. *)
let prop_random_feasible =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* rows = int_range 1 6 in
      let* x0 = list_repeat n (float_bound_inclusive 3.0) in
      let* objc = list_repeat n (float_range (-4.0) 4.0) in
      let* coeffs = list_repeat (rows * n) (float_range (-5.0) 5.0) in
      let* senses = list_repeat rows (int_range 0 2) in
      return (n, rows, Array.of_list x0, Array.of_list objc, Array.of_list coeffs, Array.of_list senses))
  in
  QCheck2.Test.make ~name:"random feasible LPs solve optimally" ~count:150 gen
    (fun (n, rows, x0, objc, coeffs, senses) ->
      let m = Model.create () in
      let vars =
        Array.init n (fun i -> Model.add_var m ~hi:5.0 (Printf.sprintf "v%d" i))
      in
      for r = 0 to rows - 1 do
        let e = ref Model.Linexpr.zero in
        let lhs = ref 0.0 in
        for j = 0 to n - 1 do
          let c = coeffs.((r * n) + j) in
          e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
          lhs := !lhs +. (c *. x0.(j))
        done;
        (match senses.(r) with
        | 0 -> Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 1.0)
        | 1 -> Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 1.0)
        | _ -> Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs)
      done;
      let obj =
        Model.Linexpr.sum
          (List.init n (fun j -> Model.Linexpr.term objc.(j) vars.(j)))
      in
      Model.set_objective m obj;
      let input = Simplex.of_model m in
      let r = Simplex.solve input in
      if r.Simplex.status <> Status.Optimal then
        QCheck2.Test.fail_reportf "status %s" (Status.to_string r.Simplex.status);
      let obj_at_x0 =
        Array.to_list (Array.mapi (fun j c -> c *. x0.(j)) objc)
        |> List.fold_left ( +. ) 0.0
      in
      if r.Simplex.obj_value > obj_at_x0 +. 1e-6 then
        QCheck2.Test.fail_reportf "optimum %g worse than seed %g"
          r.Simplex.obj_value obj_at_x0;
      (match Simplex.check_certificate input r with
      | [] -> ()
      | errs -> QCheck2.Test.fail_reportf "certificate: %s" (String.concat "; " errs));
      (* The dense engine must reach the same optimum with its own valid
         certificate. *)
      let rd = Simplex.solve ~core:Simplex.Dense input in
      if rd.Simplex.status <> Status.Optimal then
        QCheck2.Test.fail_reportf "dense status %s"
          (Status.to_string rd.Simplex.status);
      if Float.abs (rd.Simplex.obj_value -. r.Simplex.obj_value) > 1e-6 then
        QCheck2.Test.fail_reportf "dense %g vs sparse %g" rd.Simplex.obj_value
          r.Simplex.obj_value;
      (match Simplex.check_certificate input rd with
      | [] -> ()
      | errs ->
          QCheck2.Test.fail_reportf "dense certificate: %s"
            (String.concat "; " errs));
      true)

(* ---- eta-file drift --------------------------------------------------- *)

(* A dense random LP (row [r] is an equality when [eq r]) solved by the
   sparse engine: the returned point must satisfy the rows to tight
   absolute tolerance, so any drift the product-form update accumulated
   and the refactorizations failed to kill would show up here. *)
let check_eta_drift ~seed ~n ~rows ~eq =
  let rng = Datasets.Prng.create seed in
  let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 0.0 3.0) in
  let m = Model.create ~name:"drift" () in
  let vars =
    Array.init n (fun i -> Model.add_var m ~hi:10.0 (Printf.sprintf "v%d" i))
  in
  let coeffs = Array.make_matrix rows n 0.0 in
  for r = 0 to rows - 1 do
    let e = ref Model.Linexpr.zero in
    let lhs = ref 0.0 in
    for j = 0 to n - 1 do
      let c = Datasets.Prng.range rng (-5.0) 5.0 in
      coeffs.(r).(j) <- c;
      e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
      lhs := !lhs +. (c *. x0.(j))
    done;
    if eq r then Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs
    else if r mod 3 = 1 then
      Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 0.5)
    else Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 0.5)
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (List.init n (fun j ->
            Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) vars.(j))));
  let input = Simplex.of_model m in
  let r = Simplex.solve ~core:Simplex.Sparse input in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Simplex.status);
  Alcotest.(check bool)
    "pivot sequence is long" true
    (r.Simplex.iterations > 30);
  let residual = ref 0.0 in
  Array.iteri
    (fun ri (terms, sense, rhs) ->
      ignore terms;
      let act = ref 0.0 in
      for j = 0 to n - 1 do
        act := !act +. (coeffs.(ri).(j) *. r.Simplex.x.(j))
      done;
      let v =
        match sense with
        | Model.Eq -> Float.abs (!act -. rhs)
        | Model.Le -> Float.max 0.0 (!act -. rhs)
        | Model.Ge -> Float.max 0.0 (rhs -. !act)
      in
      if v > !residual then residual := v)
    input.Simplex.rows;
  if !residual >= 1e-8 then
    Alcotest.failf "row residual %.3e exceeds 1e-8" !residual

let test_eta_refactorization_drift () =
  (* Large enough that the crash basis plus the pivot sequence far exceeds
     the refactorization cadence, so the eta file is rebuilt mid-solve. *)
  check_eta_drift ~seed:99 ~n:80 ~rows:50 ~eq:(fun r -> r mod 3 = 0);
  (* 150 dense equality rows: the basis has more than 128 non-unit
     columns, so a refactorization alone writes more etas than the update
     cadence and a long eta file is carried between refactorizations. *)
  check_eta_drift ~seed:7 ~n:200 ~rows:150 ~eq:(fun _ -> true)

(* ---- dual-simplex warm starts ---------------------------------------- *)

let textbook_input ~hiy =
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m ~hi:hiy "y" in
  Model.add_le m "c1" (Model.Linexpr.var x) 4.0;
  Model.add_le m "c2" (Model.Linexpr.term 2.0 y) 12.0;
  Model.add_le m "c3"
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 2.0 y))
    18.0;
  Model.set_objective m ~minimize:false
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 5.0 y));
  Simplex.of_model m

let test_warm_reopt_tightened () =
  (* Solve the textbook LP, save its basis, tighten y's upper bound below
     the optimal y = 6, and reoptimize warm: the dual simplex must land on
     the new optimum x = 10/3, y = 4 -> 30 without a cold restart. *)
  let base = textbook_input ~hiy:infinity in
  let r0 = Simplex.solve ~want_basis:true base in
  Alcotest.(check string) "base status" "optimal"
    (Status.to_string r0.Simplex.status);
  check_float "base obj" 36.0 r0.Simplex.obj_value;
  let basis =
    match r0.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "no basis exported"
  in
  let tightened = textbook_input ~hiy:4.0 in
  let rw = Simplex.solve ~warm:basis tightened in
  let rf = Simplex.solve tightened in
  Alcotest.(check string) "warm status" "optimal"
    (Status.to_string rw.Simplex.status);
  Alcotest.(check bool) "dual path used" true rw.Simplex.warm_started;
  check_float "warm obj" 30.0 rw.Simplex.obj_value;
  check_float "matches fresh" rf.Simplex.obj_value rw.Simplex.obj_value;
  check_float "warm x" rf.Simplex.x.(0) rw.Simplex.x.(0);
  check_float "warm y" rf.Simplex.x.(1) rw.Simplex.x.(1);
  (match Simplex.check_certificate tightened rw with
  | [] -> ()
  | errs -> Alcotest.failf "warm certificate: %s" (String.concat "; " errs))

let test_warm_detects_infeasible () =
  (* min x + y s.t. x + y >= 5 on [0,3]^2 is feasible; shrinking the box to
     [0,1]^2 makes it infeasible, which the warm path must certify. *)
  let build hi =
    let m = Model.create () in
    let x = Model.add_var m ~hi "x" and y = Model.add_var m ~hi "y" in
    Model.add_ge m "c" Model.Linexpr.(add (var x) (var y)) 5.0;
    Model.set_objective m Model.Linexpr.(add (var x) (var y));
    Simplex.of_model m
  in
  let r0 = Simplex.solve ~want_basis:true (build 3.0) in
  Alcotest.(check string) "base status" "optimal"
    (Status.to_string r0.Simplex.status);
  let basis = Option.get r0.Simplex.basis in
  let rw = Simplex.solve ~warm:basis (build 1.0) in
  Alcotest.(check string) "warm status" "infeasible"
    (Status.to_string rw.Simplex.status)

let test_warm_random_bound_changes () =
  (* Feasible-by-construction random LPs: save the optimal basis, tighten a
     random variable's upper bound, and check the warm reoptimization
     agrees with a fresh solve on status and objective.  At least some of
     the cases must actually take the dual path (not fall back cold). *)
  let rng = Datasets.Prng.create 42 in
  let warm_hits = ref 0 in
  for _case = 1 to 60 do
    let n = 2 + Datasets.Prng.int rng 5 in
    let rows = 1 + Datasets.Prng.int rng 5 in
    let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 0.0 3.0) in
    let m = Model.create () in
    let vars =
      Array.init n (fun i -> Model.add_var m ~hi:5.0 (Printf.sprintf "v%d" i))
    in
    for r = 0 to rows - 1 do
      let e = ref Model.Linexpr.zero in
      let lhs = ref 0.0 in
      for j = 0 to n - 1 do
        let c = Datasets.Prng.range rng (-5.0) 5.0 in
        e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
        lhs := !lhs +. (c *. x0.(j))
      done;
      match Datasets.Prng.int rng 3 with
      | 0 -> Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 1.0)
      | 1 -> Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 1.0)
      | _ -> Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs
    done;
    Model.set_objective m
      (Model.Linexpr.sum
         (List.init n (fun j ->
              Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) vars.(j))));
    let input = Simplex.of_model m in
    let r0 = Simplex.solve ~want_basis:true input in
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Status.Optimal, Some basis ->
        let j = Datasets.Prng.int rng n in
        let hi' = Array.copy input.Simplex.hi in
        hi'.(j) <- Datasets.Prng.range rng 0.0 4.0;
        (* [tightened] shares [input]'s rows, so [basis] brings its
           factorization along; the stripped copy must refactorize. *)
        let tightened = { input with Simplex.hi = hi' } in
        let rw = Simplex.solve ~warm:basis tightened in
        let rs =
          Simplex.solve ~warm:{ basis with Simplex.factor = None } tightened
        in
        let rf = Simplex.solve tightened in
        List.iter
          (fun (tag, r) ->
            if r.Simplex.status <> rf.Simplex.status then
              Alcotest.failf "status mismatch: %s %s, fresh %s" tag
                (Status.to_string r.Simplex.status)
                (Status.to_string rf.Simplex.status);
            if r.Simplex.status = Status.Optimal then begin
              if Float.abs (r.Simplex.obj_value -. rf.Simplex.obj_value) > 1e-6
              then
                Alcotest.failf "objective mismatch: %s %.9g, fresh %.9g" tag
                  r.Simplex.obj_value rf.Simplex.obj_value;
              match Simplex.check_certificate tightened r with
              | [] -> ()
              | errs ->
                  Alcotest.failf "%s certificate: %s" tag
                    (String.concat "; " errs)
            end)
          [ ("carried", rw); ("stripped", rs) ];
        if rw.Simplex.warm_started then incr warm_hits
    | _ -> ()
  done;
  Alcotest.(check bool) "dual path exercised" true (!warm_hits > 0)

(* One warm repair long enough to cross a refactorization: the dual
   loop prices its ratio test from duals BTRAN'd through the eta file
   each pivot, on both sides of a refactorization, and the repaired
   optimum must still certify and agree with a cold solve.  150 rows
   around a known feasible point x0; then every box shrinks to
   [x0 - 0.2, x0 + 0.2], which keeps x0 feasible but moves most basic
   variables out of bounds at once. *)
let test_warm_dual_across_refactor () =
  let rng = Datasets.Prng.create 2024 in
  let n = 240 and rows = 150 in
  let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 1.0 9.0) in
  let m = Model.create ~name:"dual-refactor" () in
  let vars =
    Array.init n (fun i -> Model.add_var m ~hi:10.0 (Printf.sprintf "v%d" i))
  in
  for r = 0 to rows - 1 do
    let e = ref Model.Linexpr.zero and lhs = ref 0.0 in
    for _ = 1 to 12 do
      let j = Datasets.Prng.int rng n in
      let c = Datasets.Prng.range rng (-5.0) 5.0 in
      e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
      lhs := !lhs +. (c *. x0.(j))
    done;
    match r mod 3 with
    | 0 -> Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 2.0)
    | 1 -> Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 2.0)
    | _ -> Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (List.init n (fun j ->
            Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) vars.(j))));
  let input = Simplex.of_model m in
  let r0 = Simplex.solve ~want_basis:true input in
  Alcotest.(check string) "base status" "optimal"
    (Status.to_string r0.Simplex.status);
  let basis = Option.get r0.Simplex.basis in
  let lo = Array.map (fun v -> Float.max 0.0 (v -. 0.2)) x0
  and hi = Array.map (fun v -> Float.min 10.0 (v +. 0.2)) x0 in
  let changed = ref 0 in
  Array.iteri
    (fun j v ->
      if r0.Simplex.x.(j) < v || r0.Simplex.x.(j) > hi.(j) then incr changed)
    lo;
  Alcotest.(check bool) ">= 100 variables pushed out of their box" true
    (!changed >= 100);
  let tightened = { input with Simplex.lo; hi } in
  let rw = Simplex.solve ~warm:basis tightened in
  let rc = Simplex.solve tightened in
  Alcotest.(check bool) "dual path used" true rw.Simplex.warm_started;
  Alcotest.(check bool)
    (Printf.sprintf "repair crosses the refactor cadence (%d pivots)"
       rw.Simplex.iterations)
    true
    (rw.Simplex.iterations > 128);
  Alcotest.(check string) "warm status" "optimal"
    (Status.to_string rw.Simplex.status);
  (match Simplex.check_certificate tightened rw with
  | [] -> ()
  | errs -> Alcotest.failf "warm certificate: %s" (String.concat "; " errs));
  let rel =
    Float.abs (rw.Simplex.obj_value -. rc.Simplex.obj_value)
    /. Float.max 1.0 (Float.abs rc.Simplex.obj_value)
  in
  if rel > 1e-9 then
    Alcotest.failf "warm %.12g vs cold %.12g" rw.Simplex.obj_value
      rc.Simplex.obj_value

let test_warm_factor_needs_same_rows () =
  (* A factor is tied to the physical rows array it was built from: a
     copy with one coefficient changed (3x + 2y <= 18 becomes
     3x + 4y <= 18) must refactorize, and the answer must certify against
     the new rows.  Reusing the stale factor would return the old vertex
     x = 2, y = 6, which violates the new row. *)
  let base = textbook_input ~hiy:infinity in
  let r0 = Simplex.solve ~want_basis:true base in
  let basis = Option.get r0.Simplex.basis in
  Alcotest.(check bool) "sparse basis carries a factor" true
    (Option.is_some basis.Simplex.factor);
  let rows = Array.copy base.Simplex.rows in
  let terms, sense, rhs = rows.(2) in
  rows.(2) <- (Array.map (fun (j, c) -> (j, if j = 1 then 4.0 else c)) terms,
               sense, rhs);
  let changed = { base with Simplex.rows } in
  let rw = Simplex.solve ~warm:basis changed in
  Alcotest.(check string) "status" "optimal" (Status.to_string rw.Simplex.status);
  check_float "objective" 22.5 rw.Simplex.obj_value;
  match Simplex.check_certificate changed rw with
  | [] -> ()
  | errs -> Alcotest.failf "certificate: %s" (String.concat "; " errs)

(* Branch-and-bound's own use of the warm path, on a consolidation model
   whose saved basis does not pair row i with a column nonzero in row i:
   the refactorization has to permute the basis-to-row assignment, or
   every down-branch silently re-solves cold.  [core] is the engine under
   test; the checks hold for any engine that production may select. *)
let check_warm_branches ~core model =
  let input = Simplex.of_model model in
  let r0 = Simplex.solve ~core ~want_basis:true input in
  Alcotest.(check string) "root status" "optimal"
    (Status.to_string r0.Simplex.status);
  let basis = Option.get r0.Simplex.basis in
  let branches = ref 0 in
  List.iter
    (fun (v : Model.var) ->
      let j = v.Model.id in
      let xj = r0.Simplex.x.(j) in
      if Float.abs (xj -. Float.round xj) > 1e-6 then begin
        incr branches;
        let hi = Array.copy input.Simplex.hi in
        hi.(j) <- Float.floor xj;
        let down = { input with Simplex.hi } in
        let rw = Simplex.solve ~core ~warm:basis down in
        let rc = Simplex.solve ~core down in
        let tag = Printf.sprintf "x%d <= %g" j hi.(j) in
        Alcotest.(check bool)
          (tag ^ " warm started") true rw.Simplex.warm_started;
        Alcotest.(check (float 1e-6))
          (tag ^ " objective") rc.Simplex.obj_value rw.Simplex.obj_value;
        match Simplex.check_certificate down rw with
        | [] -> ()
        | errs ->
            Alcotest.failf "%s certificate: %s" tag (String.concat "; " errs)
      end)
    (Model.integer_vars model);
  Alcotest.(check bool) "root is fractional" true (!branches > 0)

let test_warm_branches_consolidation () =
  let asis =
    Datasets.Synth.generate
      {
        Datasets.Synth.default with
        Datasets.Synth.seed = 7;
        n_groups = 10;
        n_targets = 6;
        n_current = 6;
        total_servers = 80;
      }
  in
  let built =
    Etransform.Lp_builder.build
      ~options:
        {
          Etransform.Lp_builder.default_options with
          Etransform.Lp_builder.economies_of_scale = true;
          fixed_charges = true;
        }
      asis
  in
  Alcotest.(check int) "rows" 52
    (Model.num_constrs built.Etransform.Lp_builder.model);
  List.iter
    (fun (_, core) -> check_warm_branches ~core built.Etransform.Lp_builder.model)
    both_cores

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "textbook max LP" `Quick test_textbook;
    Alcotest.test_case "equality rows" `Quick test_equality_rows;
    Alcotest.test_case "bound flip to upper" `Quick test_bound_flip;
    Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
    Alcotest.test_case "infeasible detection" `Quick test_infeasible;
    Alcotest.test_case "unbounded detection" `Quick test_unbounded;
    Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
    Alcotest.test_case "degenerate constraints" `Quick test_degenerate;
    Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
    Alcotest.test_case "objective constant" `Quick test_objective_constant;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "transportation duals" `Quick test_duals_transportation;
    Alcotest.test_case "warm reopt after tightening" `Quick
      test_warm_reopt_tightened;
    Alcotest.test_case "warm detects infeasible" `Quick
      test_warm_detects_infeasible;
    Alcotest.test_case "warm random bound changes" `Quick
      test_warm_random_bound_changes;
    Alcotest.test_case "warm factor needs the same rows" `Quick
      test_warm_factor_needs_same_rows;
    Alcotest.test_case "warm dual repair across a refactorization" `Quick
      test_warm_dual_across_refactor;
    Alcotest.test_case "eta refactorization drift" `Quick
      test_eta_refactorization_drift;
    Alcotest.test_case "warm branches on a consolidation model" `Quick
      test_warm_branches_consolidation;
    q prop_random_feasible;
  ]
