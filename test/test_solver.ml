(* The end-to-end consolidation engine: optimality on small instances,
   robustness under budgets, local search, and the LP-rounding fallback. *)

open Etransform

let test_beats_baselines () =
  let asis = Fixtures.synthetic ~seed:1 ~groups:30 ~targets:5 () in
  let o = Solver.consolidate asis in
  let e = Evaluate.total o.Solver.summary.Evaluate.cost in
  let g = Evaluate.total (Evaluate.plan asis (Greedy.plan asis)).Evaluate.cost in
  let m = Evaluate.total (Evaluate.plan asis (Manual.plan asis)).Evaluate.cost in
  Alcotest.(check bool) "beats or ties greedy" true (e <= g +. 1e-6);
  Alcotest.(check bool) "beats or ties manual" true (e <= m +. 1e-6)

let test_feasible_outcome () =
  let asis = Fixtures.synthetic ~seed:2 () in
  let o = Solver.consolidate asis in
  Alcotest.(check (list string)) "placement feasible" []
    (Placement.validate asis o.Solver.placement)

let test_rejects_invalid_asis () =
  let asis = Fixtures.asis () in
  let broken = { asis with Asis.current_placement = [| 0 |] } in
  Alcotest.(check bool) "raises on invalid input" true
    (try
       ignore (Solver.consolidate broken);
       false
     with Invalid_argument _ -> true)

let test_budget_still_feasible () =
  let asis = Fixtures.synthetic ~seed:3 ~groups:40 ~targets:6 () in
  let milp =
    { Solver.default_milp_options with Lp.Milp.node_limit = 1; time_limit = 5.0 }
  in
  let o = Solver.consolidate ~milp asis in
  Alcotest.(check (list string)) "feasible under tiny budget" []
    (Placement.validate asis o.Solver.placement)

let test_local_search_improves_or_ties () =
  let asis = Fixtures.synthetic ~seed:4 ~groups:30 ~targets:5 () in
  let without = Solver.consolidate ~local_search:false asis in
  let with_ls = Solver.consolidate ~local_search:true asis in
  Alcotest.(check bool) "local search never hurts" true
    (Evaluate.total with_ls.Solver.summary.Evaluate.cost
    <= Evaluate.total without.Solver.summary.Evaluate.cost +. 1e-6)

let test_local_search_fixes_bad_plan () =
  let asis = Fixtures.asis () in
  (* Start from a deliberately bad plan: latency-sensitive groups on the
     wrong coasts. *)
  let bad = Placement.non_dr [| 1; 0; 2; 2 |] in
  let improved, moves = Local_search.improve asis bad in
  Alcotest.(check bool) "made moves" true (moves > 0);
  let before = Evaluate.total (Evaluate.plan asis bad).Evaluate.cost in
  let after = Evaluate.total (Evaluate.plan asis improved).Evaluate.cost in
  Alcotest.(check bool) "cost decreased" true (after < before)

let test_local_search_respects_constraints () =
  let asis = Fixtures.asis () in
  let g0 = { (Fixtures.group_0 ()) with App_group.allowed_dcs = Some [| 1 |] } in
  let groups = Array.copy asis.Asis.groups in
  groups.(0) <- g0;
  let asis = { asis with Asis.groups = groups } in
  let start = Placement.non_dr [| 1; 0; 2; 2 |] in
  let improved, _ = Local_search.improve asis start in
  Alcotest.(check int) "pinned group stays" 1 improved.Placement.primary.(0)

(* The full-evaluation hill-climber that [Local_search.improve] replaced,
   kept verbatim as the reference for its incremental screen: every
   candidate is built as a plan, validated and recosted over the estate. *)
let reference_improve ?(max_rounds = 6) ?(swaps = true)
    ?(may_place = fun _ _ -> true) ?omega asis (plan : Placement.t) =
  let plan_cost asis p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
  let feasible asis p = Placement.validate asis p = [] in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let omega_ok (p : Placement.t) =
    match omega with
    | None -> true
    | Some w ->
        let counts = Array.make n 0 in
        Array.iter (fun j -> counts.(j) <- counts.(j) + 1) p.Placement.primary;
        Array.for_all
          (fun c -> float_of_int c <= (w *. float_of_int m) +. 1e-9)
          counts
  in
  let current = ref plan in
  let cost = ref (plan_cost asis plan) in
  let moves = ref 0 in
  let try_plan p' =
    if feasible asis p' && omega_ok p' then begin
      let c' = plan_cost asis p' in
      if c' < !cost -. 1e-6 then begin
        current := p';
        cost := c';
        incr moves;
        true
      end
      else false
    end
    else false
  in
  let round () =
    let improved = ref false in
    (* Single-group reassignment of the primary site. *)
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let p = !current in
        if p.Placement.primary.(i) <> j
           && App_group.allowed asis.Asis.groups.(i) j
           && may_place i j
        then begin
          let primary = Array.copy p.Placement.primary in
          primary.(i) <- j;
          (* Keep the secondary distinct from the new primary. *)
          let secondary =
            match p.Placement.secondary with
            | None -> None
            | Some sec ->
                let sec = Array.copy sec in
                if sec.(i) = j then sec.(i) <- p.Placement.primary.(i);
                Some sec
          in
          let p' = { p with Placement.primary; secondary } in
          if try_plan p' then improved := true
        end
      done
    done;
    (* Secondary-site reassignment for DR plans. *)
    (match !current.Placement.secondary with
    | None -> ()
    | Some _ ->
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            let p = !current in
            match p.Placement.secondary with
            | Some sec when sec.(i) <> j && p.Placement.primary.(i) <> j ->
                let sec' = Array.copy sec in
                sec'.(i) <- j;
                let p' = { p with Placement.secondary = Some sec' } in
                if try_plan p' then improved := true
            | _ -> ()
          done
        done);
    (* Pairwise swaps unstick capacity-tight instances. *)
    if swaps then
      for i = 0 to m - 1 do
        for k = i + 1 to m - 1 do
          let p = !current in
          let ji = p.Placement.primary.(i) and jk = p.Placement.primary.(k) in
          if ji <> jk
             && App_group.allowed asis.Asis.groups.(i) jk
             && App_group.allowed asis.Asis.groups.(k) ji
             && may_place i jk && may_place k ji
          then begin
            let primary = Array.copy p.Placement.primary in
            primary.(i) <- jk;
            primary.(k) <- ji;
            let p' = { p with Placement.primary } in
            if try_plan p' then improved := true
          end
        done
      done;
    !improved
  in
  let rec loop r = if r > 0 && round () then loop (r - 1) in
  loop max_rounds;
  (!current, !moves)

(* A seeded estate for the differential test: optionally with shared-risk
   pairs, and optionally with target capacities cut to [headroom] times
   the servers (shares kept, every site still fits the largest group). *)
let differential_estate ~seed ~avoid ~headroom =
  let asis =
    Fixtures.synthetic ~seed ~groups:(10 + (seed mod 9)) ~targets:(4 + (seed mod 3)) ()
  in
  let m = Asis.num_groups asis in
  let rng = Random.State.make [| seed |] in
  let groups =
    Array.mapi
      (fun i (g : App_group.t) ->
        if avoid && i mod 3 = 0 then
          { g with App_group.colocate_avoid =
                     [ (i + 1 + Random.State.int rng (m - 1)) mod m ] }
        else g)
      asis.Asis.groups
  in
  let targets =
    match headroom with
    | None -> asis.Asis.targets
    | Some f ->
        let total = float_of_int (Asis.total_servers asis) in
        let cap = float_of_int (Asis.total_target_capacity asis) in
        let largest =
          Array.fold_left (fun a (g : App_group.t) -> max a g.App_group.servers) 0
            groups
        in
        Array.map
          (fun (dc : Data_center.t) ->
            let share = float_of_int dc.Data_center.capacity /. cap in
            { dc with Data_center.capacity =
                        max largest (int_of_float (Float.ceil (f *. total *. share))) })
          asis.Asis.targets
  in
  { asis with Asis.groups; targets }

(* A random plan that ignores capacity and shared risk, so the search
   starts infeasible more often than not. *)
let random_plan asis rng ~dr =
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let primary = Array.init m (fun _ -> Random.State.int rng n) in
  if dr then
    Placement.with_dr ~primary
      ~secondary:(Array.map (fun a -> (a + 1 + Random.State.int rng (n - 1)) mod n) primary)
      ()
  else Placement.non_dr primary

let test_local_search_matches_reference () =
  let kinds = Array.make 6 0 in
  for seed = 1 to 96 do
    let asis =
      differential_estate ~seed ~avoid:(seed mod 2 = 0)
        ~headroom:(match seed mod 3 with 0 -> None | 1 -> Some 1.15 | _ -> Some 1.6)
    in
    let rng = Random.State.make [| seed; 7 |] in
    let greedy f = try Some (f asis) with Failure _ -> None in
    let dedicated (p : Placement.t) = { p with Placement.dedicated_backups = true } in
    let starts =
      [
        greedy Greedy.plan;
        greedy Greedy.plan_dr;
        Option.map dedicated (greedy Greedy.plan_dr);
        Some (random_plan asis rng ~dr:false);
        Some (random_plan asis rng ~dr:true);
        Some (dedicated (random_plan asis rng ~dr:true));
      ]
    in
    List.iteri
      (fun kind start ->
        match start with
        | None -> ()
        | Some (start : Placement.t) ->
            let swaps = seed mod 2 = 1 in
            let omega = if seed mod 4 < 2 then None else Some 0.4 in
            let may_place =
              if seed mod 5 < 2 then fun _ _ -> true
              else
                let pinned = start.Placement.primary.(0) in
                fun i j -> (i <> 0 || j = pinned) && not (i mod 4 = 1 && j = seed mod 3)
            in
            let expected = reference_improve ~swaps ~may_place ?omega asis start in
            let got = Local_search.improve ~swaps ~may_place ?omega asis start in
            if got <> expected then
              Alcotest.failf "seed %d, start %d: %d moves, reference %d" seed kind
                (snd got) (snd expected);
            kinds.(kind) <- kinds.(kind) + snd got)
      starts
  done;
  (* Every kind of start must actually move, or the comparison is vacuous. *)
  Array.iteri
    (fun kind moves ->
      if moves = 0 then Alcotest.failf "start kind %d never moved" kind)
    kinds

let test_solver_optimal_small () =
  (* On the fixture the engine must land on the global optimum of the exact
     (flat-pricing) cost: compare against exhaustive search over plans. *)
  let asis = Fixtures.asis () in
  let o = Solver.consolidate asis in
  let best = ref infinity in
  let assign = Array.make 4 0 in
  let rec enum i =
    if i = 4 then begin
      let p = Placement.non_dr (Array.copy assign) in
      if Placement.validate asis p = [] then begin
        let c = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
        if c < !best then best := c
      end
    end
    else
      for j = 0 to 2 do
        assign.(i) <- j;
        enum (i + 1)
      done
  in
  enum 0;
  Alcotest.(check (float 1e-6)) "global optimum" !best
    (Evaluate.total o.Solver.summary.Evaluate.cost)

let test_gap_reported () =
  let asis = Fixtures.synthetic ~seed:5 () in
  let o = Solver.consolidate asis in
  Alcotest.(check bool) "gap in [0,1]" true
    (o.Solver.milp_gap >= 0.0 && o.Solver.milp_gap <= 1.0)

let prop_solver_never_worse_than_greedy =
  QCheck2.Test.make ~name:"engine never loses to greedy" ~count:12
    QCheck2.Gen.(int_range 0 3000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed ~groups:20 ~targets:4 () in
      let o = Solver.consolidate asis in
      let e = Evaluate.total o.Solver.summary.Evaluate.cost in
      let g = Evaluate.total (Evaluate.plan asis (Greedy.plan asis)).Evaluate.cost in
      e <= g +. 1e-6)

let suite =
  [
    Alcotest.test_case "beats baselines" `Quick test_beats_baselines;
    Alcotest.test_case "feasible outcome" `Quick test_feasible_outcome;
    Alcotest.test_case "rejects invalid as-is" `Quick test_rejects_invalid_asis;
    Alcotest.test_case "tiny budgets stay feasible" `Quick test_budget_still_feasible;
    Alcotest.test_case "local search monotone" `Quick test_local_search_improves_or_ties;
    Alcotest.test_case "local search repairs" `Quick test_local_search_fixes_bad_plan;
    Alcotest.test_case "local search respects constraints" `Quick test_local_search_respects_constraints;
    Alcotest.test_case "local search matches full evaluation" `Quick test_local_search_matches_reference;
    Alcotest.test_case "optimal on fixture" `Quick test_solver_optimal_small;
    Alcotest.test_case "gap reported" `Quick test_gap_reported;
    QCheck_alcotest.to_alcotest prop_solver_never_worse_than_greedy;
  ]
