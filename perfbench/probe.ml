(* In-process layer probes: the run's own jobs timed through each layer's
   public functions, one call at a time on an otherwise idle host (the
   daemon has stopped by then).  Every timed call is also kept as a span
   so the traced run can write it out. *)

open Etransform
module Job = Service.Job
module Pool = Service.Pool

let now = Unix.gettimeofday

let spans : (string * string * float * float) list ref = ref []

(* [timed ~root name f] runs [f], records a span under [root], and
   returns the result with its duration in seconds. *)
let timed ~root name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  spans := (root, name, t0, t1) :: !spans;
  (r, t1 -. t0)

type job_probe = {
  job : Job.t;
  rows : int;
  cols : int;
  nnz : int;
  build_ms : float;
  root_ms : float;
  root_iters : int;
  milp_ms : float;
  milp : Lp.Milp.result;
  plan_ms : float;          (* the pool's build + solve for the whole job *)
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  result : Pool.result;     (* the job solved alone on one domain *)
  eval_us : float;
}

let builder_options (job : Job.t) =
  {
    Lp_builder.default_options with
    Lp_builder.economies_of_scale = job.Job.economies_of_scale;
    fixed_charges = job.Job.fixed_charges && not job.Job.dr;
    omega = job.Job.omega;
    max_latency_ms = job.Job.scenario.Job.max_latency_ms;
  }

let nnz model =
  Array.fold_left
    (fun acc c -> acc + Array.length (Lp.Model.row_terms c))
    0 (Lp.Model.constrs model)

(* For DR jobs the builder and MILP probes time the stage-1 consolidation
   model (primaries with the spread), the part of the DR planner that
   goes through [Lp_builder] and [Lp.Milp] directly. *)
let run pool (job : Job.t) =
  let root = job.Job.id in
  let asis = Job.build_estate job in
  let built, build_s =
    timed ~root "builder.build" (fun () ->
        Lp_builder.build ~options:(builder_options job) asis)
  in
  let model = built.Lp_builder.model in
  let options = Job.milp_options job in
  let relax, root_s =
    timed ~root "simplex.root" (fun () ->
        Lp.Milp.relax ~core:options.Lp.Milp.core model)
  in
  let g0 = Gc.quick_stat () in
  let milp, milp_s =
    timed ~root "milp.solve" (fun () -> Lp.Milp.solve ~options model)
  in
  let g1 = Gc.quick_stat () in
  let result, _ =
    timed ~root "pool.solve" (fun () -> List.hd (Pool.run_batch pool [ job ]))
  in
  let eval_us =
    match result.Pool.outcome with
    | None -> 0.0
    | Some o ->
        let _, s =
          timed ~root "evaluate.plan" (fun () ->
              for _ = 1 to 20 do
                ignore (Evaluate.plan asis o.Solver.placement)
              done)
        in
        s /. 20.0 *. 1e6
  in
  {
    job;
    rows = Lp.Model.num_constrs model;
    cols = Lp.Model.num_vars model;
    nnz = nnz model;
    build_ms = build_s *. 1e3;
    root_ms = root_s *. 1e3;
    root_iters = relax.Lp.Simplex.iterations;
    milp_ms = milp_s *. 1e3;
    milp;
    plan_ms = (result.Pool.build_s +. result.Pool.solve_s) *. 1e3;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    result;
    eval_us;
  }

(* The same MILP alone, then on two domains at once: the slowdown a
   second pool worker inflicts on a solve. *)
let pair_slowdown (job : Job.t) =
  let asis = Job.build_estate job in
  let options = Job.milp_options job in
  let once () =
    let built = Lp_builder.build ~options:(builder_options job) asis in
    let t0 = now () in
    ignore (Lp.Milp.solve ~options built.Lp_builder.model);
    now () -. t0
  in
  (* Small solves repeat until each side runs for a while, so domain
     start-up does not dominate. *)
  let reps = max 1 (int_of_float (0.05 /. Float.max 1e-6 (once ()))) in
  let solve () =
    let t = ref 0.0 in
    for _ = 1 to reps do t := !t +. once () done;
    !t
  in
  let alone, _ = timed ~root:"pair" "milp.alone" (fun () -> Float.min (solve ()) (solve ())) in
  let go = Atomic.make false in
  let both, _ =
    timed ~root:"pair" "milp.pair" (fun () ->
        let ds =
          List.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  while not (Atomic.get go) do Domain.cpu_relax () done;
                  solve ()))
        in
        Atomic.set go true;
        List.map Domain.join ds)
  in
  List.fold_left ( +. ) 0.0 both /. 2.0 /. alone
