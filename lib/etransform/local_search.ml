let plan_cost asis p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost

let feasible asis p = Placement.validate asis p = []

let improve ?(max_rounds = 6) ?(swaps = true) ?(may_place = fun _ _ -> true)
    ?omega asis (plan : Placement.t) =
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
  (* The incremental screen.  A move changes the sites of at most two
     groups, so it touches at most four DCs: the moved groups' old and new
     primaries and secondaries.  Their loads decide capacity exactly as
     [Placement.validate] does, and their site costs plus the moved groups'
     WAN and latency terms give the cost change without recosting the
     estate.  Both are necessary conditions for the exact accept test in
     [try_plan], so the screen only skips candidates it would reject. *)
  let dcs = asis.Asis.targets in
  let group_term =
    Array.init m (fun i ->
        Array.map
          (fun dc ->
            Cost_model.wan_cost asis ~group:i dc
            +. Cost_model.latency_penalty asis ~group:i dc)
          dcs)
  in
  let per_server = Array.map (Cost_model.power_labor_per_server asis) dcs in
  (* Tables for the current plan: primary servers per DC, backup servers
     per DC (dedicated pools) or by (primary, secondary) DC (shared pools),
     and each DC's site cost. *)
  let prim = Array.make n 0 and pool = Array.make n 0.0 in
  let pair = Array.make_matrix n n 0.0 and site = Array.make n 0.0 in
  let dedicated = plan.Placement.dedicated_backups in
  (* Everything [Evaluate.cost_over] charges to one DC: space on the
     discount curve, power, labor and the fixed charge for all servers
     hosted there, plus the backup servers' capital cost. *)
  let site_cost j servers bk =
    let all = float_of_int servers +. bk in
    let capex = asis.Asis.params.Asis.dr_server_cost *. bk in
    if all > 0.0 then
      Data_center.space_cost dcs.(j) all
      +. (all *. per_server.(j))
      +. dcs.(j).Data_center.rates.Data_center.fixed_monthly +. capex
    else capex
  in
  (* [shift i a b sign] adds ([sign] = 1) or removes ([sign] = -1) group
     [i] at primary [a] and secondary [b] ([b] < 0: no secondary).  Sums of
     whole server counts are exact in floating point, so a shift and its
     inverse restore the tables bit for bit. *)
  let shift i a b sign =
    let w = sign * asis.Asis.groups.(i).App_group.servers in
    prim.(a) <- prim.(a) + w;
    if b >= 0 then
      if dedicated then pool.(b) <- pool.(b) +. float_of_int w
      else pair.(a).(b) <- pair.(a).(b) +. float_of_int w
  in
  let backups j =
    if dedicated then pool.(j)
    else begin
      let worst = ref 0.0 in
      for a = 0 to n - 1 do
        if pair.(a).(j) > !worst then worst := pair.(a).(j)
      done;
      !worst
    end
  in
  let sec_of (p : Placement.t) i =
    match p.Placement.secondary with None -> -1 | Some sec -> sec.(i)
  in
  let rebuild (p : Placement.t) =
    Array.fill prim 0 n 0;
    Array.fill pool 0 n 0.0;
    Array.iter (fun row -> Array.fill row 0 n 0.0) pair;
    Array.iteri (fun i a -> shift i a (sec_of p i) 1) p.Placement.primary;
    for j = 0 to n - 1 do
      site.(j) <- site_cost j prim.(j) (backups j)
    done
  in
  rebuild plan;
  (* Site-cost change over the touched DCs [d0..d3] (negative entries and
     repeats are skipped) with the move applied to the tables, or
     [infinity] if one of them would exceed its capacity. *)
  let site_delta d0 d1 d2 d3 =
    let delta = ref 0.0 in
    let visit d =
      if Float.is_finite !delta then begin
        let bk = backups d in
        let cap = float_of_int dcs.(d).Data_center.capacity in
        if float_of_int prim.(d) +. bk > cap +. 1e-9 then delta := infinity
        else delta := !delta +. site_cost d prim.(d) bk -. site.(d)
      end
    in
    if d0 >= 0 then visit d0;
    if d1 >= 0 && d1 <> d0 then visit d1;
    if d2 >= 0 && d2 <> d0 && d2 <> d1 then visit d2;
    if d3 >= 0 && d3 <> d0 && d3 <> d1 && d3 <> d2 then visit d3;
    !delta
  in
  (* A rounding bound on the gap between [delta] and the exact evaluator's
     difference; every cost term is non-negative and at most [!cost] for
     any move that could be accepted. *)
  let promising delta = delta < -1e-6 +. (1e-9 *. (1.0 +. Float.abs !cost)) in
  let try_plan p' =
    if feasible asis p' && omega_ok p' then begin
      let c' = plan_cost asis p' in
      if c' < !cost -. 1e-6 then begin
        current := p';
        cost := c';
        incr moves;
        rebuild p';
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
          let a = p.Placement.primary.(i) and s = sec_of p i in
          (* Keep the secondary distinct from the new primary. *)
          let s' = if s = j then a else s in
          shift i a s (-1);
          shift i j s' 1;
          let delta = site_delta a j s s' in
          shift i j s' (-1);
          shift i a s 1;
          if promising (delta +. group_term.(i).(j) -. group_term.(i).(a))
          then begin
            let primary = Array.copy p.Placement.primary in
            primary.(i) <- j;
            let secondary =
              Option.map
                (fun sec ->
                  let sec = Array.copy sec in
                  sec.(i) <- s';
                  sec)
                p.Placement.secondary
            in
            let p' = { p with Placement.primary; secondary } in
            if try_plan p' then improved := true
          end
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
                let a = p.Placement.primary.(i) and s = sec.(i) in
                shift i a s (-1);
                shift i a j 1;
                let delta = site_delta s j (-1) (-1) in
                shift i a j (-1);
                shift i a s 1;
                if promising delta then begin
                  let sec' = Array.copy sec in
                  sec'.(i) <- j;
                  let p' = { p with Placement.secondary = Some sec' } in
                  if try_plan p' then improved := true
                end
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
            let si = sec_of p i and sk = sec_of p k in
            shift i ji si (-1);
            shift i jk si 1;
            shift k jk sk (-1);
            shift k ji sk 1;
            let delta = site_delta ji jk si sk in
            shift k ji sk (-1);
            shift k jk sk 1;
            shift i jk si (-1);
            shift i ji si 1;
            let g = group_term in
            if
              promising
                (delta +. g.(i).(jk) -. g.(i).(ji) +. g.(k).(ji) -. g.(k).(jk))
            then begin
              let primary = Array.copy p.Placement.primary in
              primary.(i) <- jk;
              primary.(k) <- ji;
              let p' = { p with Placement.primary } in
              if try_plan p' then improved := true
            end
          end
        done
      done;
    !improved
  in
  let rec loop r = if r > 0 && round () then loop (r - 1) in
  loop max_rounds;
  (!current, !moves)
