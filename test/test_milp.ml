(* Branch-and-bound MILP tests, including brute-force cross-checks. *)

open Lp

let le = Model.Linexpr.sum

let test_knapsack_small () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binaries: best is b+c = 20
     (weight 6); a+c only reaches 17. *)
  let m = Model.create ~name:"knapsack" () in
  let a = Model.add_var m ~binary:true "a"
  and b = Model.add_var m ~binary:true "b"
  and c = Model.add_var m ~binary:true "c" in
  Model.add_le m "w"
    (le Model.Linexpr.[ term 3.0 a; term 4.0 b; term 2.0 c ])
    6.0;
  Model.set_objective m ~minimize:false
    (le Model.Linexpr.[ term 10.0 a; term 13.0 b; term 7.0 c ]);
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 20.0 r.Milp.obj;
  Alcotest.(check (float 1e-9)) "gap" 0.0 r.Milp.gap

let test_integer_general () =
  (* max x + y, 2x + y <= 7, x + 3y <= 9, x,y integer >= 0 -> (2.4,2.2) LP,
     integer optimum 5 at e.g. (3,1) or (2,2)... check: 2x+y<=7, x+3y<=9.
     (3,1): 7<=7, 6<=9 ok sum 4. (2,2): 6<=7, 8<=9 sum 4. (1,2): sum 3.
     LP opt: x=2.4,y=2.2 sum 4.6 -> integer best is 4. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~hi:10.0 "x"
  and y = Model.add_var m ~integer:true ~hi:10.0 "y" in
  Model.add_le m "c1" Model.Linexpr.(add (term 2.0 x) (var y)) 7.0;
  Model.add_le m "c2" Model.Linexpr.(add (var x) (term 3.0 y)) 9.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 4.0 r.Milp.obj

let test_infeasible_integrality () =
  (* 0.4 <= x <= 0.6 with x integer has no integral point. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~lo:0.4 ~hi:0.6 "x" in
  Model.set_objective m (Model.Linexpr.var x);
  let r = Milp.solve m in
  Alcotest.(check string) "status" "infeasible" (Status.to_string r.Milp.status)

let test_mixed () =
  (* min 3y + x s.t. x >= 1.3, x <= 2.7, y binary, y >= x - 2 (so x > 2
     forces y). Optimum: x = 1.3, y = 0 -> 1.3. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:1.3 ~hi:2.7 "x" in
  let y = Model.add_var m ~binary:true "y" in
  Model.add_ge m "link" Model.Linexpr.(sub (term 1.0 y) (term 0.5 x)) (-1.0);
  Model.set_objective m Model.Linexpr.(add (term 3.0 y) (var x));
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 1.3 r.Milp.obj

let test_node_limit_returns_feasible () =
  (* With a crippled node budget the dive heuristic must still produce an
     integer-feasible incumbent. *)
  let m = Model.create () in
  let n = 10 in
  let xs =
    Array.init n (fun i -> Model.add_var m ~binary:true (Printf.sprintf "x%d" i))
  in
  let weights = Array.init n (fun i -> float_of_int (((i * 7) mod 5) + 1)) in
  let values = Array.init n (fun i -> float_of_int (((i * 11) mod 7) + 1)) in
  Model.add_le m "w"
    (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term weights.(i) x) xs)))
    12.0;
  Model.set_objective m ~minimize:false
    (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term values.(i) x) xs)));
  let r =
    Milp.solve ~options:{ Milp.default_options with Milp.node_limit = 1 } m
  in
  Alcotest.(check bool) "has point" true (Array.length r.Milp.x > 0);
  Alcotest.(check bool) "integral" true (Milp.integral m r.Milp.x);
  Alcotest.(check bool) "bound sane" true (r.Milp.bound >= r.Milp.obj -. 1e-6)

let brute_force_knapsack weights values cap =
  let n = Array.length weights in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0.0 and v = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w +. weights.(i);
        v := !v +. values.(i)
      end
    done;
    if !w <= cap && !v > !best then best := !v
  done;
  !best

let prop_knapsack_matches_brute_force =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 3 10 in
      let* ws = list_repeat n (int_range 1 9) in
      let* vs = list_repeat n (int_range 1 9) in
      let* cap = int_range 5 25 in
      return (Array.of_list ws, Array.of_list vs, cap))
  in
  QCheck2.Test.make ~name:"binary knapsack matches brute force" ~count:60 gen
    (fun (ws, vs, cap) ->
      let n = Array.length ws in
      let m = Model.create () in
      let xs =
        Array.init n (fun i ->
            Model.add_var m ~binary:true (Printf.sprintf "x%d" i))
      in
      Model.add_le m "w"
        (le
           (Array.to_list
              (Array.mapi
                 (fun i x -> Model.Linexpr.term (float_of_int ws.(i)) x)
                 xs)))
        (float_of_int cap);
      Model.set_objective m ~minimize:false
        (le
           (Array.to_list
              (Array.mapi
                 (fun i x -> Model.Linexpr.term (float_of_int vs.(i)) x)
                 xs)));
      let expected =
        brute_force_knapsack
          (Array.map float_of_int ws)
          (Array.map float_of_int vs)
          (float_of_int cap)
      in
      (* Both node-LP engines must reach the brute-force optimum. *)
      List.iter
        (fun core ->
          let r =
            Milp.solve ~options:{ Milp.default_options with Milp.core } m
          in
          if r.Milp.status <> Status.Optimal then
            QCheck2.Test.fail_reportf "status %s"
              (Status.to_string r.Milp.status);
          if Float.abs (r.Milp.obj -. expected) > 1e-6 then
            QCheck2.Test.fail_reportf "milp %g, brute force %g" r.Milp.obj
              expected)
        [ Simplex.Dense; Simplex.Sparse ];
      true)

(* Small generalized-assignment instances: the exact shape used by the
   consolidation planner (assignment rows + capacity rows). *)
let prop_assignment_matches_brute_force =
  let gen =
    QCheck2.Gen.(
      let* groups = int_range 2 6 in
      let* dcs = int_range 2 3 in
      let* sizes = list_repeat groups (int_range 1 4) in
      let* costs = list_repeat (groups * dcs) (int_range 1 20) in
      let* cap = int_range 6 14 in
      return (groups, dcs, Array.of_list sizes, Array.of_list costs, float_of_int cap))
  in
  QCheck2.Test.make ~name:"assignment MILP matches brute force" ~count:60 gen
    (fun (groups, dcs, sizes, costs, cap) ->
      let m = Model.create () in
      let x =
        Array.init groups (fun i ->
            Array.init dcs (fun j ->
                Model.add_var m ~binary:true (Printf.sprintf "x_%d_%d" i j)))
      in
      for i = 0 to groups - 1 do
        Model.add_eq m
          (Printf.sprintf "assign%d" i)
          (le (Array.to_list (Array.map Model.Linexpr.var x.(i))))
          1.0
      done;
      for j = 0 to dcs - 1 do
        Model.add_le m
          (Printf.sprintf "cap%d" j)
          (le
             (List.init groups (fun i ->
                  Model.Linexpr.term (float_of_int sizes.(i)) x.(i).(j))))
          cap
      done;
      Model.set_objective m
        (le
           (List.concat_map
              (fun i ->
                List.init dcs (fun j ->
                    Model.Linexpr.term
                      (float_of_int costs.((i * dcs) + j))
                      x.(i).(j)))
              (List.init groups Fun.id)));
      (* Brute force over dcs^groups assignments. *)
      let best = ref infinity in
      let assign = Array.make groups 0 in
      let rec enum i =
        if i = groups then begin
          let load = Array.make dcs 0.0 in
          let cost = ref 0.0 in
          for g = 0 to groups - 1 do
            load.(assign.(g)) <- load.(assign.(g)) +. float_of_int sizes.(g);
            cost := !cost +. float_of_int costs.((g * dcs) + assign.(g))
          done;
          if Array.for_all (fun l -> l <= cap) load && !cost < !best then
            best := !cost
        end
        else
          for j = 0 to dcs - 1 do
            assign.(i) <- j;
            enum (i + 1)
          done
      in
      enum 0;
      List.iter
        (fun core ->
          let r =
            Milp.solve ~options:{ Milp.default_options with Milp.core } m
          in
          match (r.Milp.status, !best = infinity) with
          | Status.Infeasible, true -> ()
          | Status.Infeasible, false ->
              QCheck2.Test.fail_reportf
                "milp infeasible but brute force found %g" !best
          | Status.Optimal, true ->
              QCheck2.Test.fail_reportf
                "milp optimal %g but instance infeasible" r.Milp.obj
          | Status.Optimal, false ->
              if Float.abs (r.Milp.obj -. !best) > 1e-6 then
                QCheck2.Test.fail_reportf "milp %g, brute force %g" r.Milp.obj
                  !best
          | s, _ -> QCheck2.Test.fail_reportf "status %s" (Status.to_string s))
        [ Simplex.Dense; Simplex.Sparse ];
      true)

(* Random generalized-assignment MILPs for the warm-start / parallel
   agreement checks: eq assignment rows + tight capacity rows give
   fractional relaxations, so the branch-and-bound tree is real. *)
let random_gap rng =
  let groups = 3 + Datasets.Prng.int rng 5 in
  let dcs = 2 + Datasets.Prng.int rng 2 in
  let m = Model.create () in
  let x =
    Array.init groups (fun i ->
        Array.init dcs (fun j ->
            Model.add_var m ~binary:true (Printf.sprintf "x_%d_%d" i j)))
  in
  let sizes =
    Array.init groups (fun _ -> 1.0 +. Datasets.Prng.range rng 0.0 4.0)
  in
  for i = 0 to groups - 1 do
    Model.add_eq m
      (Printf.sprintf "assign%d" i)
      (le (Array.to_list (Array.map Model.Linexpr.var x.(i))))
      1.0
  done;
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let cap =
    (* Usually tight but feasible; occasionally infeasible, which both
       solver configurations must classify identically. *)
    total /. float_of_int dcs *. Datasets.Prng.range rng 0.95 1.4
  in
  for j = 0 to dcs - 1 do
    Model.add_le m
      (Printf.sprintf "cap%d" j)
      (le
         (List.init groups (fun i -> Model.Linexpr.term sizes.(i) x.(i).(j))))
      cap
  done;
  Model.set_objective m
    (le
       (List.concat_map
          (fun i ->
            List.init dcs (fun j ->
                Model.Linexpr.term
                  (1.0 +. Datasets.Prng.range rng 0.0 9.0)
                  x.(i).(j)))
          (List.init groups Fun.id)));
  m

let agree name a b =
  if a.Milp.status <> b.Milp.status then
    Alcotest.failf "%s: status mismatch %s vs %s" name
      (Status.to_string a.Milp.status)
      (Status.to_string b.Milp.status);
  if
    a.Milp.status = Status.Optimal
    && Float.abs (a.Milp.obj -. b.Milp.obj)
       > 1e-6 *. (1.0 +. Float.abs a.Milp.obj)
  then Alcotest.failf "%s: objective mismatch %.9g vs %.9g" name a.Milp.obj b.Milp.obj

let test_warm_matches_cold () =
  (* >= 50 seeded random MILPs: the warm-started solver must agree with the
     cold-started one on status and objective.  Diving is off so the tree
     (and with it the dual warm path) is actually exercised. *)
  let rng = Datasets.Prng.create 2024 in
  let trees = ref 0 in
  for case = 1 to 55 do
    let m = random_gap rng in
    let cold =
      Milp.solve
        ~options:
          { Milp.default_options with
            Milp.warm_start = false; dive_first = false }
        m
    in
    let warm =
      Milp.solve
        ~options:{ Milp.default_options with Milp.dive_first = false }
        m
    in
    agree (Printf.sprintf "case %d" case) cold warm;
    if warm.Milp.nodes > 1 then incr trees
  done;
  Alcotest.(check bool) "some instances branched" true (!trees > 0)

let test_zero_deadline () =
  (* A zero or near-zero deadline must still terminate with a
     well-formed result. *)
  let rng = Datasets.Prng.create 31_337 in
  for case = 1 to 3 do
    let m = random_gap rng in
    List.iter
      (fun deadline ->
        let r =
          Milp.solve
            ~options:{ Milp.default_options with Milp.time_limit = deadline }
            m
        in
        match r.Milp.status with
        | Status.Optimal | Status.Feasible | Status.Time_limit
        | Status.Node_limit | Status.Infeasible | Status.Iteration_limit ->
            ()
        | s ->
            Alcotest.failf "case %d deadline %g: unexpected status %s" case
              deadline (Status.to_string s))
      [ 0.0; 1e-9; 1e-4 ]
  done

(* Random interleavings of push/pop_min against a sorted-list multiset
   model of the tree frontier.  Only keys are compared: entries with
   equal keys may surface in any order. *)
let test_deque_model () =
  let rng = Datasets.Prng.create 0xD0E5 in
  for _ = 1 to 50 do
    let q = Wsdeque.create () in
    let model = ref [] in
    for _ = 1 to 200 do
      match Datasets.Prng.int rng 4 with
      | 0 | 1 ->
          let k = float_of_int (Datasets.Prng.int rng 20) in
          Wsdeque.push q ~key:k ();
          model := List.sort compare (k :: !model)
      | _ -> (
          Alcotest.(check (option (float 0.0)))
            "min_key matches model"
            (match !model with [] -> None | m :: _ -> Some m)
            (Wsdeque.min_key q);
          match (Wsdeque.pop_min q, !model) with
          | None, [] -> ()
          | Some (k, ()), m :: rest ->
              Alcotest.(check (float 0.0)) "min matches model" m k;
              model := rest
          | Some _, [] -> Alcotest.fail "pop_min from empty model"
          | None, _ -> Alcotest.fail "pop_min lost an entry")
    done;
    List.iter
      (fun m ->
        match Wsdeque.pop_min q with
        | Some (k, ()) -> Alcotest.(check (float 0.0)) "drain min" m k
        | None -> Alcotest.fail "drain lost an entry")
      !model;
    Alcotest.(check bool) "drained" true (Wsdeque.pop_min q = None)
  done

let test_pump_cycle_terminates () =
  (* Crafted cycling instance: 2x + 2y = 1 over binaries has a fractional
     relaxation (x + y = 1/2) and NO integral point, so the pump can never
     succeed — every distance LP lands on a vertex like (1/2, 0), whose
     rounding repeats an earlier target and trips the rounding-history
     cycle detector.  The run must still terminate (perturbation plus the
     round budget and stall cap), must not report Integral, and must be
     deterministic from round counts down to the returned iterate. *)
  let m = Model.create ~name:"pump_cycle" () in
  let x = Model.add_var m ~binary:true "x"
  and y = Model.add_var m ~binary:true "y" in
  Model.add_eq m "half" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 1.0;
  Model.set_objective m ~minimize:true Model.Linexpr.(add (var x) (var y));
  let input = Simplex.of_model m in
  let root = Simplex.solve input in
  Alcotest.(check string) "relaxation solves" "optimal"
    (Status.to_string root.Simplex.status);
  let rounds = ref 0 in
  let solve inp =
    incr rounds;
    if !rounds > 200 then Alcotest.fail "pump did not terminate";
    Simplex.solve inp
  in
  let run () =
    rounds := 0;
    let outcome =
      Fpump.run ~solve ~input ~int_ids:[ 0; 1 ] ~int_tol:1e-9
        ~start:root.Simplex.x
        ~stop:(fun () -> false)
        ~max_rounds:40 ()
    in
    (outcome, !rounds)
  in
  let o1, n1 = run () in
  let o2, n2 = run () in
  (match o1 with
  | Fpump.Integral _ -> Alcotest.fail "no integral point exists"
  | Fpump.Near p ->
      Alcotest.(check bool) "near iterate satisfies the relaxation" true
        (Simplex.feasible input p)
  | Fpump.Failed -> ());
  Alcotest.(check int) "deterministic round count" n1 n2;
  match (o1, o2) with
  | Fpump.Near p1, Fpump.Near p2 ->
      Alcotest.(check bool) "deterministic iterate" true (p1 = p2)
  | Fpump.Failed, Fpump.Failed -> ()
  | _ -> Alcotest.fail "outcome shape differs between identical runs"

let test_relax_reports_fractional () =
  let m = Model.create () in
  let x = Model.add_var m ~binary:true "x" in
  Model.add_le m "c" (Model.Linexpr.term 2.0 x) 1.0;
  Model.set_objective m ~minimize:false (Model.Linexpr.var x);
  let r = Milp.relax m in
  Alcotest.(check (float 1e-9)) "fractional root" 0.5 r.Simplex.x.(0);
  Alcotest.(check bool) "not integral" false (Milp.integral m r.Simplex.x)

(* Gomory separation reads tableau rows off the sparse factorization, so
   it has no row cap: on 400 pairs of rows 2 x_i + x_j <= 11 (j the
   partner of i, x integer in [0, 10], maximize the sum; 800 rows) the
   relaxation sits at x_i = 11/3 and a cut round must add Gomory rows
   that keep the integer point alternating 4, 3 feasible. *)
let test_gomory_past_768_rows () =
  let n = 800 in
  let m = Model.create ~name:"pairs" () in
  let x =
    Array.init n (fun i ->
        Model.add_var m ~hi:10.0 ~integer:true (Printf.sprintf "x%d" i))
  in
  for i = 0 to n - 1 do
    Model.add_le m (Printf.sprintf "c%d" i)
      Model.Linexpr.(add (term 2.0 x.(i)) (var x.(i lxor 1)))
      11.0
  done;
  Model.set_objective m ~minimize:false
    (Model.Linexpr.sum (Array.to_list (Array.map Model.Linexpr.var x)));
  let input = Simplex.of_model m in
  let integer = Array.make n true in
  match
    Cuts.strengthen
      ~solve:(fun ?warm inp -> Simplex.solve ?warm ~want_basis:true inp)
      ~integer ~int_tol:1e-6 ~max_rounds:1
      ~stop:(fun () -> false)
      input
  with
  | None -> Alcotest.fail "no cut separated on an 800-row model"
  | Some (input', r, stats) ->
      Alcotest.(check bool) "gomory cuts added" true (stats.Cuts.gomory > 0);
      Alcotest.(check string) "cut LP optimal" "optimal"
        (Status.to_string r.Simplex.status);
      let alternating = Array.init n (fun i -> if i mod 2 = 0 then 4.0 else 3.0) in
      Alcotest.(check bool) "integer point survives the cuts" true
        (Simplex.feasible input' alternating)

(* The duplicate filter [Cuts.strengthen] runs must keep exactly the cuts
   the former string key kept.  [cut_key] is that key, verbatim: sense,
   rhs and every (index, coefficient) printed at %.9g. *)
let cut_key (terms, sense, rhs) =
  let b = Buffer.create 64 in
  (match sense with
  | Model.Le -> Buffer.add_char b 'L'
  | Model.Ge -> Buffer.add_char b 'G'
  | Model.Eq -> Buffer.add_char b 'E');
  Buffer.add_string b (Printf.sprintf "%.9g" rhs);
  Array.iter
    (fun (j, c) -> Buffer.add_string b (Printf.sprintf ";%d:%.9g" j c))
    terms;
  Buffer.contents b

(* A stream mixing fresh cuts with variants of earlier ones: exact
   repeats, coefficients and rhs perturbed in the 9th or 10th
   significant digit, rhs 0.0 against -0.0, the same coefficients on a
   shifted support, the other sense, and coefficients moved a few ulps
   around a 9-digit rounding tie or just below a power of ten, then
   nudged by single ulps. *)
let cut_stream rng len =
  let open Datasets.Prng in
  let fresh () =
    let k = 1 + int rng 6 in
    let support = List.sort_uniq compare (List.init k (fun _ -> int rng 40)) in
    let terms =
      Array.of_list
        (List.map
           (fun j ->
             (j, if int rng 4 = 0 then 1.0 else range rng (-50.0) 50.0))
           support)
    in
    let sense = if int rng 2 = 0 then Model.Le else Model.Ge in
    let rhs = if int rng 3 = 0 then 0.0 else range rng (-20.0) 20.0 in
    (terms, sense, rhs)
  in
  let perturb v =
    (* one unit in the 9th or 10th significant digit, either sign *)
    let digit = if int rng 2 = 0 then 1e-8 else 1e-9 in
    let sign = if int rng 2 = 0 then 1.0 else -1.0 in
    if v = 0.0 then sign *. digit else v *. (1.0 +. (sign *. digit))
  in
  let rec ulps k v =
    if k = 0 then v
    else if k > 0 then ulps (k - 1) (Float.succ v)
    else ulps (k + 1) (Float.pred v)
  in
  let near_tie v =
    let a = Float.max 1e-6 (Float.abs v) in
    let scale = 10.0 ** (8.0 -. Float.floor (Float.log10 a)) in
    let m =
      if int rng 3 = 0 then 9.999999995 *. (10.0 ** Float.floor (Float.log10 a))
      else (Float.floor (a *. scale) +. 0.5) /. scale
    in
    ulps (int rng 5 - 2) (if v < 0.0 then -.m else m)
  in
  let out = ref [] in
  for _ = 1 to len do
    let cut =
      match !out with
      | [] -> fresh ()
      | prev -> (
          let terms, sense, rhs = pick rng (Array.of_list prev) in
          let retouch f =
            let t = Array.copy terms in
            let i = int rng (Array.length t) in
            t.(i) <- (fst t.(i), f (snd t.(i)));
            (t, sense, rhs)
          in
          match int rng 9 with
          | 0 -> fresh ()
          | 1 -> (terms, sense, rhs)
          | 2 -> (Array.map (fun (j, c) -> (j, perturb c)) terms, sense, rhs)
          | 3 -> retouch perturb
          | 4 -> (terms, sense, if rhs = 0.0 then -.rhs else perturb rhs)
          | 5 -> (Array.map (fun (j, c) -> (j + 1, c)) terms, sense, rhs)
          | 6 ->
              ( terms,
                (match sense with Model.Le -> Model.Ge | _ -> Model.Le),
                rhs )
          | 7 -> retouch near_tie
          | _ -> retouch (ulps (if int rng 2 = 0 then 1 else -1)))
    in
    out := cut :: !out
  done;
  List.rev !out

let test_cut_filter_matches_string_key () =
  let near_dups = ref 0 and kept = ref 0 in
  for seed = 1 to 60 do
    let rng = Datasets.Prng.create seed in
    let stream = cut_stream rng 300 in
    let novel = Cuts.novel () in
    let seen = Hashtbl.create 64 and exact = Hashtbl.create 64 in
    List.iteri
      (fun i cut ->
        let k = cut_key cut in
        let expect = not (Hashtbl.mem seen k) in
        Hashtbl.replace seen k ();
        (* drops the bit patterns alone would have kept *)
        let terms, sense, rhs = cut in
        let bits =
          ( Array.map (fun (j, c) -> (j, Int64.bits_of_float c)) terms,
            sense,
            Int64.bits_of_float rhs )
        in
        if (not expect) && not (Hashtbl.mem exact bits) then incr near_dups;
        Hashtbl.replace exact bits ();
        if expect then incr kept;
        let got = novel cut in
        if got <> expect then
          Alcotest.failf "seed %d, cut %d (%s): filter %s, string key %s" seed
            i k
            (if got then "keeps" else "drops")
            (if expect then "keeps" else "drops"))
      stream
  done;
  Alcotest.(check bool) "streams hold near-duplicates" true (!near_dups > 0);
  Alcotest.(check bool) "streams hold kept cuts" true (!kept > 0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "small knapsack" `Quick test_knapsack_small;
    Alcotest.test_case "general integers" `Quick test_integer_general;
    Alcotest.test_case "integrality infeasible" `Quick test_infeasible_integrality;
    Alcotest.test_case "mixed integer-continuous" `Quick test_mixed;
    Alcotest.test_case "node limit still feasible" `Quick test_node_limit_returns_feasible;
    Alcotest.test_case "relaxation is fractional" `Quick test_relax_reports_fractional;
    Alcotest.test_case "pump cycle detection terminates" `Quick
      test_pump_cycle_terminates;
    Alcotest.test_case "warm start matches cold start" `Quick
      test_warm_matches_cold;
    Alcotest.test_case "zero deadline still joins all domains" `Quick
      test_zero_deadline;
    Alcotest.test_case "wsdeque: multiset model" `Quick test_deque_model;
    Alcotest.test_case "gomory cuts past 768 rows" `Quick
      test_gomory_past_768_rows;
    Alcotest.test_case "cut filter keeps what the string key kept" `Quick
      test_cut_filter_matches_string_key;
    q prop_knapsack_matches_brute_force;
    q prop_assignment_matches_brute_force;
  ]
