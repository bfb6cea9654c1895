(* End-to-end benchmark of the eTransform planning daemon.

     perfbench/run.sh --workload plan_cold|serve_open|sweep_dr \
                      --seed N --seconds S --trace 0|1
     perfbench/run.sh --self-check

   Each run spawns bin/etransform_server as a child (workers = nproc, a
   fresh --cache-dir), drives it over at most nproc keep-alive
   connections from this single-threaded client, checks every answer
   with [Oracle], prints every metric with its unit, and ends with one
   JSON line.  --trace 0 reports the end-to-end metrics; --trace 1 runs
   the workload untraced and then traced (the daemon's --trace JSONL),
   replays the run's keys for cache-tier hits, probes each layer
   in-process, and reports the per-layer metrics together with the
   end-to-end metric each one should move.

   Every run reports every end-to-end metric.  They are defined for the
   workload that names them (plan_* on plan_cold, serve_* on serve_open,
   sweep_* on sweep_dr); on the other workloads they take their
   closed-loop meaning: plan_jobs_per_min and sweep_points_per_s count
   planning jobs answered (a sweep point is one), plan_latency_p50_s and
   serve_p50/p99_ms are request latency percentiles (the "p99" being the
   highest percentile with ten samples beyond it), sweep_first_point_s
   is the median time to the first answer line, and serve_max_rps is the
   completed request rate of the closed loop.

   serve_open is not listed in BENCHMARK.json: on a shared two-vCPU host
   its sub-millisecond latencies moved by more than the largest allowed
   bound between runs of one seed (nominal p99 4.6 to 11.9 ms), so it
   runs by hand and in --self-check, where all of its answers are
   checked.

   Inputs, schedule and results are written under .perfbench_out/ so a
   run can be replayed with `etransform_cli batch` or curl. *)

module Json = Service.Json
module Job = Service.Job
module Pool = Service.Pool

let resolve = Harness.Line_jobs.resolve
let now = Unix.gettimeofday

(* ------------------------------------------------------------- stats *)

(* Nearest-rank percentile; 0 on an empty sample. *)
let pct xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = pct xs 50.0
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* The latency of a failed request: it misses every limit. *)
let missed = 1e6

(* -------------------------------------------------------------- host *)

let read_or path default = try Proc.read_file path with Sys_error _ -> default

(* A fixed single-core integer and float loop; its time tells hosts apart
   so a drifting figure can be explained, never excused. *)
let calibrate () =
  let once () =
    let t0 = now () in
    let x = ref 0x1234567 and f = ref 1.0 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      f := !f +. (float_of_int (!x land 1023) /. float_of_int (i + 1))
    done;
    ignore (Sys.opaque_identity !f);
    (now () -. t0) *. 1e3
  in
  median [ once (); once (); once () ]

(* Calibration time on the host the bounds were first measured on. *)
let reference_calib_ms = 140.0

let nproc = Domain.recommended_domain_count ()

let host_info calib =
  let cpu =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"model name" l then
          Some (String.trim (List.nth (String.split_on_char ':' l) 1))
        else None)
      (String.split_on_char '\n' (read_or "/proc/cpuinfo" ""))
  in
  [
    ("nproc", Json.Num (float_of_int nproc));
    ("cpu", Json.Str (Option.value ~default:"unknown" cpu));
    ("kernel", Json.Str (String.trim (read_or "/proc/sys/kernel/osrelease" "unknown")));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("calib_ms", Json.Num calib);
  ]

(* ------------------------------------------------------------ config *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  out : string;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Replace the "id" value of a generated job line. *)
let with_id id line =
  let prefix = {|{"id":"|} in
  let close = String.index_from line (String.length prefix) '"' in
  prefix ^ id ^ String.sub line close (String.length line - close)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ---------------------------------------------------------- requests *)

type req = {
  id : string;
  path : string;
  body : string;
  step : int;                  (* ladder step, open loop only *)
  mutable due : float;         (* when it should have been sent *)
  mutable sent : float;
  mutable first : float;       (* first answer line *)
  mutable fin : float;
  mutable status : int;
  mutable resp : string;
  mutable lines : string list; (* answer lines, in order *)
  mutable ok : bool;           (* 200 and accepted by the oracle *)
  mutable jobs : int;          (* planning jobs answered *)
}

let mk_req ~id ~path ?(step = 0) body =
  { id; path; body; step; due = 0.0; sent = 0.0; first = 0.0; fin = 0.0;
    status = 0; resp = ""; lines = []; ok = false; jobs = 0 }

let submit c r =
  Client.send c ~meth:"POST" ~path:r.path
    ~on_line:(fun _ l -> r.lines <- l :: r.lines)
    ~on_done:(fun resp ->
      r.status <- resp.Client.status;
      r.resp <- resp.Client.body;
      r.first <- resp.Client.t_first;
      r.fin <- resp.Client.t_done;
      r.lines <- List.rev r.lines)
    r.body;
  r.sent <- now ();
  Client.flush_out c

let drain conns ~deadline =
  while List.exists (fun c -> Client.pending c > 0) conns && now () < deadline do
    Client.poll conns ~until:(Float.min deadline (now () +. 0.25))
  done

(* Closed loop: each connection sends its next request as soon as the
   previous answer is complete, until [seconds] pass (and the number sent
   is a whole number of [cycle]s, so every run sees the same mix) or
   [next] runs dry; in-flight requests then finish. *)
let closed_loop ~port ~clients ~seconds ?(cycle = 1) next =
  let conns = List.init clients (fun _ -> Client.connect port) in
  let reqs = ref [] and sent = ref 0 in
  let stop = now () +. seconds in
  let dry = ref false in
  let rec loop () =
    List.iter
      (fun c ->
        if Client.pending c = 0 && (now () < stop || !sent mod cycle <> 0) && not !dry then
          match next () with
          | None -> dry := true
          | Some r ->
              reqs := r :: !reqs;
              incr sent;
              r.due <- now ();
              submit c r)
      conns;
    if List.exists (fun c -> Client.pending c > 0) conns then begin
      Client.poll conns ~until:(now () +. 0.25);
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> List.iter Client.close conns) loop;
  List.rev !reqs

(* Open loop: requests go out when due whatever the state of earlier
   ones, pipelined on the connection with the fewest outstanding. *)
let open_loop ~port ~conns:n (arrivals : (float * req) list) =
  let conns = List.init n (fun _ -> Client.connect port) in
  let t0 = now () +. 0.05 in
  let least () =
    List.fold_left
      (fun a c -> if Client.pending c < Client.pending a then c else a)
      (List.hd conns) conns
  in
  let rec go = function
    | [] -> ()
    | (due, r) :: rest as todo ->
        let due = t0 +. due in
        if now () >= due then begin
          r.due <- due;
          submit (least ()) r;
          go rest
        end
        else begin
          Client.poll conns ~until:due;
          go todo
        end
  in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close conns)
    (fun () ->
      go arrivals;
      drain conns ~deadline:(now () +. 60.0));
  List.map snd arrivals

let list_source items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
        rest := tl;
        Some r

(* ---------------------------------------------------------- workloads *)

let workloads = [ "plan_cold"; "serve_open"; "sweep_dr" ]

let id_of line = Option.get (Oracle.str "id" (Result.get_ok (Json.parse line)))

(* The next request of a closed-loop workload. *)
let request_source cfg =
  let path, next =
    match cfg.workload with
    | "plan_cold" -> ("/solve", Gen.plan_stream ~seed:cfg.seed)
    | _ -> ("/sweep", Gen.sweep_stream ~seed:cfg.seed)
  in
  fun () ->
    let line = next () in
    Some (mk_req ~id:(id_of line) ~path line)

let arrivals cfg ~seconds =
  List.mapi
    (fun k (a : Gen.arrival) ->
      let id = Printf.sprintf "r%d" k in
      (a.Gen.due, mk_req ~id ~path:"/solve" ~step:a.Gen.step (with_id id a.Gen.line)))
    (Gen.schedule ~seed:cfg.seed ~seconds)

(* Pre-warm, part of set-up: the catalogue for serve_open (so its keys
   answer from the tiers), one case-study solve per worker for plan_cold
   and one DR sweep for sweep_dr, on keys the run never asks for (so the
   timed run starts on a daemon whose code paths have run).  Solver work
   dominates these, which keeps setup_s clear of process-start jitter. *)
let prewarm cfg port =
  let expect_ok what (r : Client.response) =
    if r.Client.status <> 200 then
      failwith (Printf.sprintf "pre-warm %s: HTTP %d" what r.Client.status)
  in
  match cfg.workload with
  | "serve_open" ->
      let body = String.concat "\n" (Array.to_list (Gen.catalogue ~seed:cfg.seed)) ^ "\n" in
      let r = Client.call ~port ~meth:"POST" ~path:"/batch" body in
      expect_ok "catalogue" r;
      let ok =
        List.filter
          (fun l -> l <> "" && Oracle.str "code" (Result.get_ok (Json.parse l)) = Some "ok")
          (String.split_on_char '\n' r.Client.body)
      in
      if List.length ok <> Gen.catalogue_size then failwith "pre-warm: catalogue not solved"
  | "sweep_dr" ->
      expect_ok "sweep"
        (Client.call ~port ~meth:"POST" ~path:"/sweep"
           ({|{"id":"warm","estate":{"kind":"dataset","name":"florida","scale":0.1},"dr":true,|}
           ^ Gen.milp ~nodes:4 ~budget:600.0
           ^ {|,"grid":{"radius_km":[300,150],"omega":[0.4,0.6]}}|}))
  | _ ->
      for i = 1 to nproc do
        expect_ok "solve"
          (Client.call ~port ~meth:"POST" ~path:"/solve"
             (Printf.sprintf
                {|{"id":"warm-%d","estate":{"kind":"dataset","name":"enterprise1","scale":0.35},"eos":true,"fixed_charges":true,%s}|}
                i (Gen.milp ~nodes:3 ~budget:(600.0 -. float_of_int i))))
      done

type phase = {
  reqs : req list;
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  ctx : int;
  hwm_mb : float;
  scrape0 : (string * float) list;
  scrape1 : (string * float) list;
  cache_dir : string;
}

(* One measured phase: [setups] fresh daemons are set up and timed (the
   last one is measured), the workload runs for [seconds], and the daemon
   is sampled and stopped. *)
let run_phase cfg ~name ~seconds ~setups ?trace_file () =
  let setup k =
    let cache_dir = Filename.concat cfg.out (Printf.sprintf "%s-cache-%d" name k) in
    rm_rf cache_dir;
    let t0 = now () in
    let d =
      Proc.spawn ~workers:nproc ~cache:Gen.lru_size ~cache_dir ?trace:trace_file
        ~log:(Filename.concat cfg.out (name ^ "-daemon.log")) ()
    in
    prewarm cfg d.Proc.port;
    (d, now () -. t0, cache_dir)
  in
  let rec setups_from k times =
    let d, dt, dir = setup k in
    if k < setups then begin
      Proc.shutdown d;
      rm_rf dir;
      setups_from (k + 1) (dt :: times)
    end
    else (d, dir, dt :: times)
  in
  let d, cache_dir, times = setups_from 1 [] in
  let port = d.Proc.port in
  let scrape0 = Proc.scrape d and p0 = Proc.sample d in
  let t0 = now () in
  let clients = min 2 nproc in
  let reqs =
    match cfg.workload with
    | "serve_open" -> open_loop ~port ~conns:clients (arrivals cfg ~seconds)
    | "plan_cold" ->
        closed_loop ~port ~clients ~seconds ~cycle:(Array.length Gen.templates)
          (request_source cfg)
    | _ ->
        closed_loop ~port ~clients:1 ~seconds ~cycle:(Gen.sweeps_per_estate * Gen.sweep_estates)
          (request_source cfg)
  in
  let wall_s = now () -. t0 in
  let p1 = Proc.sample d and scrape1 = Proc.scrape d in
  Proc.shutdown d;
  {
    reqs;
    setup_s = median times;
    wall_s;
    cpu_s = p1.Proc.cpu_s -. p0.Proc.cpu_s;
    ctx = p1.Proc.ctx - p0.Proc.ctx;
    hwm_mb = p1.Proc.hwm_mb;
    scrape0;
    scrape1;
    cache_dir;
  }

(* ------------------------------------------------------------ oracle *)

let parse_job line =
  match Service.Batch.job_of_line ~resolve line with
  | Ok j -> j
  | Error e -> failwith ("generated job does not parse: " ^ e)

let sweep_request body =
  match Result.bind (Json.parse body) (Service.Sweep.request_of_json ~resolve) with
  | Ok (base, grid) -> (base, grid)
  | Error e -> failwith ("generated sweep does not parse: " ^ e)

(* Checks every request; returns the sweep points it saw. *)
let verify oracle reqs =
  List.concat_map
    (fun r ->
      if r.status <> 200 then begin
        Oracle.fail oracle (Printf.sprintf "%s: HTTP %d" r.id r.status);
        []
      end
      else if r.path = "/sweep" then begin
        let base, grid = sweep_request r.body in
        let points = Service.Sweep.expand base grid in
        let pts = Oracle.check_sweep oracle ~points r.lines in
        r.ok <- List.length pts = List.length points;
        r.jobs <- List.length pts;
        pts
      end
      else begin
        (match Oracle.parse_line oracle ~what:r.id r.resp with
        | Some j ->
            if Oracle.check_result oracle ~job:(parse_job r.body) j <> None then begin
              r.ok <- true;
              r.jobs <- 1
            end
        | None -> ());
        []
      end)
    reqs

(* --------------------------------------------------------- end to end *)

let latency_s r = if r.ok then r.fin -. r.due else missed

(* The highest percentile, at most 99, with ten samples beyond it: the
   nominal serve_open step supports p99, a closed loop of a hundred
   requests p90. *)
let tail_pct n = Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int (max 10 n))))

let e2e ?(show = false) cfg oracle (ph : phase) =
  let reqs = ph.reqs in
  let start = List.fold_left (fun a r -> Float.min a r.due) infinity reqs in
  let stop = List.fold_left (fun a r -> Float.max a r.fin) 0.0 reqs in
  let wall = Float.max 1e-9 (stop -. start) in
  let jobs = float_of_int (List.fold_left (fun a r -> a + r.jobs) 0 reqs) in
  let lat_ms rs = List.map (fun r -> latency_s r *. 1e3) rs in
  let serve_reqs, max_rps =
    if cfg.workload = "serve_open" then
      let step_of i = List.filter (fun r -> r.step = i) reqs in
      let met i =
        let rs = step_of i in
        let n = List.length rs in
        (* A growing backlog shows as a slow last quarter. *)
        let tail = List.filteri (fun k _ -> k >= n * 3 / 4) rs in
        n > 0
        && pct (lat_ms rs) 99.0 <= Gen.limit_ms
        && median (lat_ms tail) <= Gen.limit_ms
      in
      let steps = List.mapi (fun i (rate, _) -> (i, rate)) Gen.ladder in
      if show then
        List.iter
          (fun (i, rate) ->
            let rs = step_of i in
            Printf.printf
              "# step %6.0f/s: %5d requests, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, %s\n"
              rate (List.length rs) (median (lat_ms rs)) (pct (lat_ms rs) 99.0)
              (pct (List.map (fun r -> (r.sent -. r.due) *. 1e3) rs) 99.0)
              (if met i then "met" else "missed"))
          steps;
      ( step_of (fst (List.find (fun (_, r) -> r = Gen.nominal_rps) steps)),
        List.fold_left (fun acc (i, rate) -> if met i then Float.max acc rate else acc) 0.0 steps )
    else (reqs, float_of_int (List.length reqs) /. wall)
  in
  let first_s r = if r.ok then r.first -. r.due else missed in
  [
    ("setup_s", ph.setup_s, "s");
    ("server_rss_mb", ph.hwm_mb, "MB");
    ("plan_jobs_per_min", jobs /. wall *. 60.0, "1/min");
    ("plan_latency_p50_s", median (List.map latency_s serve_reqs), "s");
    ("plan_cost_ratio", Oracle.geomean_ratio oracle, "ratio");
    ("serve_p50_ms", median (lat_ms serve_reqs), "ms");
    ("serve_p99_ms", pct (lat_ms serve_reqs) (tail_pct (List.length serve_reqs)), "ms");
    ("serve_max_rps", max_rps, "1/s");
    ("sweep_points_per_s", jobs /. wall, "1/s");
    ("sweep_first_point_s", median (List.map first_s serve_reqs), "s");
  ]

(* --------------------------------------------------------- per layer *)

(* Each per-layer metric: unit, better, and the end-to-end metric (and
   workload) it should move. *)
let layers =
  [
    ("loadgen.late_p99_ms", "ms", "lower", "validity of the open loop only");
    ("server.self_us_p50", "us", "lower", "serve_p50_ms on serve_open (~0% of plan_cold)");
    ("server.self_us_p99", "us", "lower", "serve_p99_ms on serve_open (~0% of plan_cold)");
    ("server.cpu_s_per_kreq", "s", "lower", "serve_max_rps on serve_open");
    ("server.ctx_switches_per_req", "count", "lower", "serve_p99_ms on serve_open");
    ("http.non2xx", "count", "lower", "failed_frac");
    ("http.response_bytes_p50", "B", "lower", "serve_p50_ms on serve_open");
    ("pool.queue_ms_p50", "ms", "lower", "serve_p99_ms on serve_open; plan_latency_p50_s on plan_cold");
    ("pool.queue_ms_p99", "ms", "lower", "serve_p99_ms on serve_open; plan_latency_p50_s on plan_cold");
    ("pool.busy_frac", "frac", "higher", "plan_jobs_per_min on plan_cold; sweep_points_per_s on sweep_dr");
    ("pool.jobs_degraded", "count", "lower", "failed_frac");
    ("pool.jobs_failed", "count", "lower", "failed_frac");
    ("cache.hit_frac.memory", "frac", "higher", "serve_p50_ms on serve_open; sweep_points_per_s on sweep_dr");
    ("cache.hit_frac.disk", "frac", "higher", "serve_p50_ms on serve_open; sweep_points_per_s on sweep_dr");
    ("cache.miss_frac", "frac", "lower", "serve_p50_ms on serve_open; sweep_points_per_s on sweep_dr");
    ("cache.hit_memory_us_p50", "us", "lower", "serve_p50_ms on serve_open");
    ("cache.hit_disk_us_p50", "us", "lower", "serve_p50_ms on serve_open");
    ("cache.miss_ms_p50", "ms", "lower", "serve_p50_ms on serve_open");
    ("store.find_us_p50", "us", "lower", "serve_p50_ms on serve_open");
    ("store.add_us_p50", "us", "lower", "serve_p50_ms on serve_open");
    ("codec.decode_us_p50", "us", "lower", "serve_p50_ms on serve_open");
    ("store.disk_bytes_per_plan", "B", "lower", "setup_s; watch when trading read cost for space");
    ("job.fingerprint_us_p50", "us", "lower", "serve_p50_ms on serve_open (negligible on plan_cold)");
    ("batch.decode_us_p50", "us", "lower", "serve_p50_ms on serve_open (negligible on plan_cold)");
    ("batch.encode_us_p50", "us", "lower", "serve_p50_ms on serve_open (negligible on plan_cold)");
    ("sweep.inflight_mean", "count", "higher", "sweep_points_per_s on sweep_dr");
    ("sweep.hit_frac", "frac", "higher", "sweep_points_per_s on sweep_dr");
    ("scenario.score_us_per_point", "us", "lower", "sweep_first_point_s on sweep_dr");
    ("pareto.frontier_us", "us", "lower", "sweep_first_point_s on sweep_dr");
    ("builder.build_ms_p50", "ms", "lower", "plan_latency_p50_s on plan_cold");
    ("model.rows", "count", "lower", "plan_latency_p50_s on plan_cold");
    ("model.cols", "count", "lower", "plan_latency_p50_s on plan_cold");
    ("model.nnz", "count", "lower", "plan_latency_p50_s on plan_cold");
    ("solver.polish_ms", "ms", "lower", "plan_latency_p50_s on plan_cold");
    ("evaluate.us_p50", "us", "lower", "plan_latency_p50_s on plan_cold");
    ("simplex.root_ms", "ms", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("simplex.root_iters", "count", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("simplex.us_per_iter", "us", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("milp.solve_ms", "ms", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("milp.nodes", "count", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("milp.lp_iterations", "count", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("milp.cuts", "count", "lower", "plan_latency_p50_s and plan_jobs_per_min on plan_cold");
    ("milp.gap_mean", "frac", "lower", "plan_latency_p50_s on plan_cold; plan_cost_ratio");
    ("milp.concurrency_plan_mismatch", "count", "lower", "plan_cost_ratio on plan_cold");
    ("gc.minor_words_per_iter", "count", "lower", "plan_jobs_per_min on plan_cold (less on sweep_points_per_s)");
    ("gc.minor_collections", "count", "lower", "plan_jobs_per_min on plan_cold (less on sweep_points_per_s)");
    ("gc.major_collections", "count", "lower", "plan_jobs_per_min on plan_cold (less on sweep_points_per_s)");
    ("solver.pair_slowdown", "ratio", "lower", "plan_jobs_per_min on plan_cold (less on sweep_points_per_s)");
    ("trace.overhead_frac", "frac", "lower", "the untraced run of every end-to-end metric");
    ("failed_frac", "frac", "lower", "every end-to-end metric: a failure misses every limit");
    ("host.calib_ms", "ms", "lower", "explains host drift in every metric");
  ]

type span = { queue : float; build : float; solve : float; tier : string; code : string }

let read_trace path =
  let tbl = Hashtbl.create 1024 in
  if Sys.file_exists path then
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok j when Oracle.str "event" j = Some "job" ->
            let f k = Option.value ~default:0.0 (Oracle.flt k j) in
            Hashtbl.replace tbl
              (Option.value ~default:"" (Oracle.str "id" j))
              {
                queue = f "queue_s";
                build = f "build_s";
                solve = f "solve_s";
                tier =
                  (if Oracle.str "cache" j = Some "hit" then
                     Option.value ~default:"memory" (Oracle.str "tier" j)
                   else "miss");
                code = Option.value ~default:"" (Oracle.str "code" j);
              }
        | _ -> ())
      (String.split_on_char '\n' (Proc.read_file path));
  tbl

(* The /solve body of one sweep point, so the hit replay can ask for it
   alone; kept only when it fingerprints like the point. *)
let point_body (base_line : string) (job : Job.t) =
  match Json.parse base_line with
  | Ok (Json.Obj fields) ->
      let keep =
        List.filter (fun (k, _) -> not (List.mem k [ "id"; "grid"; "omega"; "scenario" ])) fields
      in
      let opt k = Option.map (fun v -> (k, Json.Num v)) in
      let scen = job.Job.scenario in
      let scenario =
        List.filter_map Fun.id
          [ opt "radius_km" scen.Job.radius_km; opt "warning_s" scen.Job.warning_s ]
      in
      let body =
        Json.to_string
          (Json.Obj
             ((("id", Json.Str job.Job.id) :: keep)
             @ List.filter_map Fun.id [ opt "omega" job.Job.omega ]
             @ if scenario = [] then [] else [ ("scenario", Json.Obj scenario) ]))
      in
      if Job.fingerprint (parse_job body) = Job.fingerprint job then Some body else None
  | _ -> None

(* Distinct /solve bodies of the run, first occurrence per fingerprint. *)
let replay_bodies reqs ~limit =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add body =
    let fp = Job.fingerprint (parse_job body) in
    if (not (Hashtbl.mem seen fp)) && Hashtbl.length seen < limit then begin
      Hashtbl.replace seen fp ();
      out := body :: !out
    end
  in
  List.iter
    (fun r ->
      if r.ok then
        if r.path = "/sweep" then
          let base, grid = sweep_request r.body in
          List.iter
            (fun (_, job) -> Option.iter add (point_body r.body job))
            (Service.Sweep.expand base grid)
        else add r.body)
    reqs;
  List.rev !out

(* The jobs of the run, one per fingerprint, for the in-process probes. *)
let probe_jobs reqs ~limit =
  List.map parse_job (replay_bodies reqs ~limit)

let time_us ?(reps = 1) f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps *. 1e6

let per_layer cfg ~calib =
  let half = cfg.seconds /. 2.0 in
  let oracle = Oracle.create () in
  (* Untraced, then traced: the difference is the tracing overhead. *)
  let u = run_phase cfg ~name:"untraced" ~seconds:half ~setups:1 () in
  ignore (verify oracle u.reqs);
  let trace_file = Filename.concat cfg.out "traced-trace.jsonl" in
  let t = run_phase cfg ~name:"traced" ~seconds:half ~setups:1 ~trace_file () in
  let sweep_pts = verify oracle t.reqs in
  (* Hit replay: the run's keys again on a restarted daemon over the same
     store, once answered from disk and once from memory. *)
  let replay_file = Filename.concat cfg.out "replay-trace.jsonl" in
  let bodies = replay_bodies t.reqs ~limit:Gen.lru_size in
  let d =
    Proc.spawn ~workers:nproc ~cache:Gen.lru_size ~cache_dir:t.cache_dir ~trace:replay_file
      ~log:(Filename.concat cfg.out "replay-daemon.log") ()
  in
  let pass k =
    closed_loop ~port:d.Proc.port ~clients:1 ~seconds:infinity
      (list_source
         (List.map
            (fun body ->
              let id = Printf.sprintf "h%d-%s" k (id_of body) in
              mk_req ~id ~path:"/solve" (with_id id body))
            bodies))
  in
  let h = pass 1 @ pass 2 in
  Proc.shutdown d;
  ignore (verify oracle h);
  let tr = read_trace trace_file and hr = read_trace replay_file in
  let span_of r =
    match Hashtbl.find_opt tr r.id with Some s -> Some s | None -> Hashtbl.find_opt hr r.id
  in
  (* Request spans: client latency from the write, the traced pool spans
     inside it, and the server's self time as the remainder.  On
     serve_open only the nominal step counts: the top of the ladder is
     meant to queue. *)
  let measured = List.filter (fun r -> cfg.workload <> "serve_open" || r.step = 0) t.reqs in
  let solved = List.filter (fun r -> r.ok && r.path = "/solve") (measured @ h) in
  let with_spans = List.filter_map (fun r -> Option.map (fun s -> (r, s)) (span_of r)) solved in
  let self r s = r.fin -. r.sent -. (s.queue +. s.build +. s.solve) in
  let unaccounted = List.length (List.filter (fun (r, s) -> self r s < 0.0) with_spans) in
  let hits = List.filter (fun (_, s) -> s.tier <> "miss") with_spans in
  let self_us = List.map (fun (r, s) -> self r s *. 1e6) hits in
  let tier_lat tier scale =
    median
      (List.filter_map
         (fun (r, s) -> if s.tier = tier then Some ((r.fin -. r.sent) *. scale) else None)
         with_spans)
  in
  let events = Hashtbl.fold (fun _ s acc -> s :: acc) tr [] in
  let lookups result tier =
    List.fold_left
      (fun acc (k, v) ->
        let has s = contains k s in
        if String.starts_with ~prefix:"etransform_cache_lookups_total{" k
           && has (Printf.sprintf {|result="%s"|} result)
           && has (Printf.sprintf {|tier="%s"|} tier)
        then acc +. v -. Option.value ~default:0.0 (List.assoc_opt k t.scrape0)
        else acc)
      0.0 t.scrape1
  in
  let lookups_total = Float.max 1.0 (lookups "hit" "memory" +. lookups "miss" "memory") in
  let non2xx =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"etransform_http_requests_total{" k
           && not (contains k {|status="2|})
        then acc +. v -. Option.value ~default:0.0 (List.assoc_opt k t.scrape0)
        else acc)
      0.0 t.scrape1
  in
  let n_http = float_of_int (List.length t.reqs) in
  (* In-process probes over the run's own jobs, on an idle host. *)
  let pool = Pool.create ~workers:0 ~cache_capacity:0 () in
  let probe_deadline = now () +. 8.0 in
  let probes =
    List.filter_map
      (fun job -> if now () < probe_deadline then Some (Probe.run pool job) else None)
      (probe_jobs t.reqs ~limit:8)
  in
  Pool.shutdown pool;
  let pm f = median (List.map f probes) in
  let fi = float_of_int in
  let results = List.map (fun p -> p.Probe.result) probes in
  let outcomes = List.filter_map (fun r -> r.Pool.outcome) results in
  (* Cache tiers and their codec, on the probes' own plans. *)
  let store_dir = Filename.concat cfg.out "probe-store" in
  rm_rf store_dir;
  let store = Cluster.Store.open_ ~dir:store_dir in
  let encoded = List.mapi (fun i o -> (Printf.sprintf "k%d" i, Cluster.Codec.encode o)) outcomes in
  let add_us = List.map (fun (k, v) -> time_us (fun () -> Cluster.Store.add store k v)) encoded in
  let find_us = List.map (fun (k, _) -> time_us ~reps:20 (fun () -> Cluster.Store.find store k)) encoded in
  let decode_us = List.map (fun (_, v) -> time_us ~reps:20 (fun () -> Cluster.Codec.decode v)) encoded in
  Cluster.Store.close store;
  let run_store = Cluster.Store.open_ ~dir:t.cache_dir in
  let bytes_per_plan =
    fi (Cluster.Store.bytes run_store) /. fi (max 1 (Cluster.Store.length run_store))
  in
  Cluster.Store.close run_store;
  let bodies_all = List.map (fun r -> r.body) (List.filter (fun r -> r.path = "/solve") t.reqs) @ bodies in
  let jobs_all = List.map parse_job bodies_all in
  let fp_us = List.map (fun j -> time_us ~reps:20 (fun () -> Job.fingerprint j)) jobs_all in
  let decode_line_us =
    List.map (fun b -> time_us ~reps:20 (fun () -> Service.Batch.job_of_line ~resolve b)) bodies_all
  in
  (* Alternating results defeat the one-entry render memo: the cold
     encode a miss pays. *)
  let encode_us =
    List.map (fun r -> time_us (fun () -> Service.Batch.result_to_line r)) (results @ results)
  in
  let grid =
    match List.find_opt (fun r -> r.path = "/sweep") t.reqs with
    | Some r -> snd (sweep_request r.body)
    | None -> Service.Sweep.empty_grid
  in
  (* Each plan is scored in a context over its own estate (under the
     run's first grid); the first, untimed call builds it. *)
  let scored =
    List.map
      (fun r ->
        let ctx = Service.Sweep.ctx r.Pool.job grid in
        let tag = r.Pool.job.Job.id in
        let p = Service.Sweep.point ctx ~tag r in
        (time_us (fun () -> Service.Sweep.point ctx ~tag r), p))
      results
  in
  let pareto_in =
    if sweep_pts <> [] then List.map snd sweep_pts
    else
      List.filter_map
        (fun (_, (p : Service.Sweep.point)) ->
          match (p.Service.Sweep.cost, p.Service.Sweep.resilience) with
          | Some cost, Some resilience ->
              Some { Scenario.Pareto.cost; resilience; tag = p.Service.Sweep.tag }
          | _ -> None)
        scored
  in
  let frontier_us = time_us ~reps:200 (fun () -> Scenario.Pareto.frontier pareto_in) in
  let pair =
    let sorted = List.sort (fun a b -> compare a.Probe.milp_ms b.Probe.milp_ms) probes in
    Probe.pair_slowdown (List.nth sorted (List.length sorted / 2)).Probe.job
  in
  let mismatches =
    List.length
      (List.filter
         (fun (r : Pool.result) ->
           match (r.Pool.outcome, Hashtbl.find_opt oracle.Oracle.totals r.Pool.fingerprint) with
           | Some o, Some daemon ->
               not
                 (Oracle.close_to daemon
                    (Etransform.Evaluate.total o.Etransform.Solver.summary.Etransform.Evaluate.cost))
           | _ -> false)
         results)
  in
  let headline (ph : phase) =
    let m = e2e cfg oracle ph in
    let get k = let _, v, _ = List.find (fun (n, _, _) -> n = k) m in v in
    match cfg.workload with
    | "plan_cold" -> 1.0 /. get "plan_jobs_per_min"
    | "serve_open" -> get "serve_p50_ms"
    | _ -> 1.0 /. get "sweep_points_per_s"
  in
  let all_reqs = u.reqs @ t.reqs @ h in
  let failed = List.length (List.filter (fun r -> not r.ok) all_reqs) in
  let iters = sum (List.map (fun p -> fi p.Probe.milp.Lp.Milp.lp_iterations) probes) in
  let metrics =
    [
      ("loadgen.late_p99_ms", pct (List.map (fun r -> (r.sent -. r.due) *. 1e3) t.reqs) 99.0);
      ("server.self_us_p50", median self_us);
      ("server.self_us_p99", pct self_us 99.0);
      ("server.cpu_s_per_kreq", t.cpu_s /. (n_http /. 1000.0));
      ("server.ctx_switches_per_req", fi t.ctx /. n_http);
      ("http.non2xx", non2xx);
      ( "http.response_bytes_p50",
        median (List.map (fun r -> fi (String.length r.resp)) t.reqs) );
      ("pool.queue_ms_p50", median (List.map (fun s -> s.queue *. 1e3) events));
      ("pool.queue_ms_p99", pct (List.map (fun s -> s.queue *. 1e3) events) 99.0);
      ( "pool.busy_frac",
        sum (List.map (fun s -> s.build +. s.solve) events) /. (t.wall_s *. fi nproc) );
      ("pool.jobs_degraded", fi (List.length (List.filter (fun s -> s.code = "degraded") events)));
      ("pool.jobs_failed", fi (List.length (List.filter (fun s -> s.code = "failed") events)));
      ("cache.hit_frac.memory", lookups "hit" "memory" /. lookups_total);
      ("cache.hit_frac.disk", lookups "hit" "disk" /. lookups_total);
      ( "cache.miss_frac",
        (lookups_total -. lookups "hit" "memory" -. lookups "hit" "disk") /. lookups_total );
      ("cache.hit_memory_us_p50", tier_lat "memory" 1e6);
      ("cache.hit_disk_us_p50", tier_lat "disk" 1e6);
      ( "cache.miss_ms_p50",
        (* Sweeps miss inside /sweep requests: their traced pool time. *)
        if List.exists (fun (_, s) -> s.tier = "miss") with_spans then tier_lat "miss" 1e3
        else
          median
            (List.filter_map
               (fun s -> if s.tier = "miss" then Some ((s.queue +. s.build +. s.solve) *. 1e3) else None)
               events) );
      ("store.find_us_p50", median find_us);
      ("store.add_us_p50", median add_us);
      ("codec.decode_us_p50", median decode_us);
      ("store.disk_bytes_per_plan", bytes_per_plan);
      ("job.fingerprint_us_p50", median fp_us);
      ("batch.decode_us_p50", median decode_line_us);
      ("batch.encode_us_p50", median encode_us);
      ( "sweep.inflight_mean",
        sum (List.map (fun s -> s.queue +. s.build +. s.solve) events) /. t.wall_s );
      ( "sweep.hit_frac",
        fi (List.length (List.filter (fun s -> s.tier <> "miss") events))
        /. fi (max 1 (List.length events)) );
      ("scenario.score_us_per_point", median (List.map fst scored));
      ("pareto.frontier_us", frontier_us);
      ("builder.build_ms_p50", pm (fun p -> p.Probe.build_ms));
      ("model.rows", pm (fun p -> fi p.Probe.rows));
      ("model.cols", pm (fun p -> fi p.Probe.cols));
      ("model.nnz", pm (fun p -> fi p.Probe.nnz));
      ("solver.polish_ms", pm (fun p -> p.Probe.plan_ms -. p.Probe.build_ms -. p.Probe.milp_ms));
      ("evaluate.us_p50", pm (fun p -> p.Probe.eval_us));
      ("simplex.root_ms", pm (fun p -> p.Probe.root_ms));
      ("simplex.root_iters", pm (fun p -> fi p.Probe.root_iters));
      ( "simplex.us_per_iter",
        sum (List.map (fun p -> p.Probe.root_ms) probes) *. 1e3
        /. Float.max 1.0 (sum (List.map (fun p -> fi p.Probe.root_iters) probes)) );
      ("milp.solve_ms", pm (fun p -> p.Probe.milp_ms));
      ("milp.nodes", pm (fun p -> fi p.Probe.milp.Lp.Milp.nodes));
      ("milp.lp_iterations", pm (fun p -> fi p.Probe.milp.Lp.Milp.lp_iterations));
      ("milp.cuts", pm (fun p -> fi p.Probe.milp.Lp.Milp.cuts));
      ( "milp.gap_mean",
        mean
          (List.filter Float.is_finite (List.map (fun p -> p.Probe.milp.Lp.Milp.gap) probes)) );
      ("milp.concurrency_plan_mismatch", fi mismatches);
      ("gc.minor_words_per_iter", sum (List.map (fun p -> p.Probe.minor_words) probes) /. Float.max 1.0 iters);
      ("gc.minor_collections", mean (List.map (fun p -> fi p.Probe.minor_gcs) probes));
      ("gc.major_collections", mean (List.map (fun p -> fi p.Probe.major_gcs) probes));
      ("solver.pair_slowdown", pair);
      ("trace.overhead_frac", (headline t /. headline u) -. 1.0);
      ("failed_frac", fi failed /. fi (max 1 (List.length all_reqs)));
      ("host.calib_ms", calib);
    ]
  in
  (* Spans: one trace per request (root = the request, children = the
     daemon's queue/build/solve spans laid end to end from the write,
     server self time = the remainder), plus the probe calls. *)
  let buf = Buffer.create 65536 in
  let span ~trace ~name ~parent t0 t1 =
    Buffer.add_string buf
      (Json.to_string
         (Json.Obj
            [ ("trace", Json.Str trace); ("span", Json.Str name);
              ("parent", match parent with None -> Json.Null | Some p -> Json.Str p);
              ("start", Json.Num t0); ("end", Json.Num t1) ]));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (r, s) ->
      span ~trace:r.id ~name:"request" ~parent:None r.sent r.fin;
      let a = r.sent +. s.queue in
      let b = a +. s.build in
      let c = b +. s.solve in
      span ~trace:r.id ~name:"pool.queue" ~parent:(Some "request") r.sent a;
      span ~trace:r.id ~name:"job.build" ~parent:(Some "request") a b;
      span ~trace:r.id ~name:("job.solve." ^ s.tier) ~parent:(Some "request") b c;
      span ~trace:r.id ~name:"server.self" ~parent:(Some "request") c r.fin)
    with_spans;
  List.iter
    (fun (root, name, t0, t1) -> span ~trace:("probe:" ^ root) ~name ~parent:None t0 t1)
    (List.rev !Probe.spans);
  write_file (Filename.concat cfg.out "spans.jsonl") (Buffer.contents buf);
  (* Self time by layer over the traced requests. *)
  let tot f = sum (List.map (fun (r, s) -> f r s) with_spans) in
  let lat = tot (fun r _ -> r.fin -. r.sent) in
  Printf.printf "# self time over %d traced requests (%d whose spans exceed their latency)\n"
    (List.length with_spans) unaccounted;
  List.iter
    (fun (name, v, target) ->
      Printf.printf "#   %-12s %9.3f s %5.1f%%  -> %s\n" name v
        (100.0 *. v /. Float.max 1e-9 lat) target)
    [
      ("server.self", tot self, "serve_p50_ms, serve_p99_ms on serve_open");
      ("pool.queue", tot (fun _ s -> s.queue), "serve_p99_ms on serve_open, plan_latency_p50_s on plan_cold");
      ("job.build", tot (fun _ s -> s.build), "plan_latency_p50_s on plan_cold");
      ("job.solve", tot (fun _ s -> s.solve), "plan_latency_p50_s, plan_jobs_per_min on plan_cold");
    ];
  Printf.printf "# probed jobs: id groups rows cols nnz nodes milp_ms\n";
  List.iter
    (fun p ->
      Printf.printf "#   %s %d %d %d %d %d %.1f\n" p.Probe.job.Job.id
        (Etransform.Asis.num_groups (Job.build_estate p.Probe.job))
        p.Probe.rows p.Probe.cols p.Probe.nnz p.Probe.milp.Lp.Milp.nodes p.Probe.milp_ms)
    probes;
  (oracle, all_reqs, List.map (fun (n, v) ->
       let _, unit, _, _ = List.find (fun (m, _, _, _) -> m = n) layers in
       (n, v, unit)) metrics)

(* ------------------------------------------------------------ output *)

let normalised ~calib unit v =
  match unit with
  | "s" | "ms" | "us" -> v *. reference_calib_ms /. calib
  | "1/s" | "1/min" -> v *. calib /. reference_calib_ms
  | _ -> v

let target name =
  match List.find_opt (fun (n, _, _, _) -> n = name) layers with
  | Some (_, _, _, t) -> "  -> " ^ t
  | None -> ""

let report cfg ~calib ~trace (oracle : Oracle.t) reqs metrics =
  let attempted = List.length reqs in
  let failed = List.length (List.filter (fun r -> not r.ok) reqs) in
  let correct = oracle.Oracle.violations = [] && failed = 0 in
  List.iter (fun v -> Printf.printf "# VIOLATION %s\n" v) (List.rev oracle.Oracle.violations);
  Printf.printf "# %s seed %d, %g s, trace %b: %d requests, %d failed (failed_frac %g)\n"
    cfg.workload cfg.seed cfg.seconds trace attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%-32s %14.6g %-6s (host-normalised %.6g)%s\n" name v unit
        (normalised ~calib unit v) (target name))
    metrics;
  let finite v = if Float.is_finite v then v else missed in
  let metrics_json =
    Json.Obj
      (List.map
         (fun (name, v, unit) ->
           (name, Json.Obj [ ("value", Json.Num (finite v)); ("unit", Json.Str unit) ]))
         metrics)
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics_json);
      ]
  in
  write_file (Filename.concat cfg.out "result.json")
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.Str cfg.workload); ("seed", Json.Num (float_of_int cfg.seed));
            ("host", Json.Obj (host_info calib)); ("result", result) ])
    ^ "\n");
  print_endline (Json.to_string result);
  correct

(* Inputs beside the result, for replay: the request bodies in send
   order, and for serve_open the arrival schedule. *)
let write_inputs cfg reqs =
  let solves, sweeps = List.partition (fun r -> r.path = "/solve") reqs in
  let lines rs = String.concat "" (List.map (fun r -> r.body ^ "\n") rs) in
  write_file (Filename.concat cfg.out "jobs.ndjson") (lines solves);
  write_file (Filename.concat cfg.out "sweeps.ndjson") (lines sweeps);
  if cfg.workload = "serve_open" then
    write_file (Filename.concat cfg.out "schedule.tsv")
      (String.concat ""
         (List.map (fun r -> Printf.sprintf "%.6f\t%d\t%s\n" r.due r.step r.id) solves))

let run cfg ~trace =
  mkdir_p cfg.out;
  let calib = calibrate () in
  Printf.printf "# host: %s\n" (Json.to_string (Json.Obj (host_info calib)));
  if nproc < 1 || min 2 nproc > nproc then failwith "client connections would exceed nproc";
  let oracle, reqs, metrics =
    if trace then per_layer cfg ~calib
    else begin
      let ph = run_phase cfg ~name:"run" ~seconds:cfg.seconds ~setups:5 () in
      let oracle = Oracle.create () in
      ignore (verify oracle ph.reqs);
      (oracle, ph.reqs, e2e ~show:true cfg oracle ph)
    end
  in
  write_inputs cfg reqs;
  report cfg ~calib ~trace oracle reqs metrics

(* ---------------------------------------------------------- self-check *)

(* Short runs of every workload on two seeds (every answer must pass the
   oracle), input generation must be a function of the seed, and
   BENCHMARK.json must name exactly the metrics this program prints. *)
let self_check () =
  let problems = ref [] in
  let check what ok = if not ok then problems := what :: !problems in
  let inputs seed =
    let p = Gen.plan_stream ~seed and s = Gen.sweep_stream ~seed in
    List.init 12 (fun _ -> p ())
    @ List.init 6 (fun _ -> s ())
    @ List.map (fun (a : Gen.arrival) -> a.Gen.line) (Gen.schedule ~seed ~seconds:2.0)
  in
  check "same seed, same inputs" (inputs 1 = inputs 1);
  check "other seed, other inputs" (inputs 1 <> inputs 2);
  (match Json.parse (Proc.read_file "BENCHMARK.json") with
  | Ok j ->
      let names k =
        match Json.member k j with
        | Some (Json.List l) -> List.filter_map (Oracle.str "name") l
        | _ -> []
      in
      check "BENCHMARK.json per_layer = the layers printed here"
        (names "per_layer" = List.map (fun (n, _, _, _) -> n) layers);
      let m = e2e { workload = "plan_cold"; seed = 0; seconds = 0.0; out = "" } (Oracle.create ())
          { reqs = []; setup_s = 0.0; wall_s = 0.0; cpu_s = 0.0; ctx = 0; hwm_mb = 0.0;
            scrape0 = []; scrape1 = []; cache_dir = "" } in
      check "BENCHMARK.json end_to_end = the metrics printed here"
        (names "end_to_end" = List.map (fun (n, _, _) -> n) m)
  | Error e -> check ("BENCHMARK.json: " ^ e) false);
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          let cfg = { workload; seed; seconds = 3.0;
                      out = Printf.sprintf ".perfbench_out/self-check/%s-%d" workload seed } in
          mkdir_p cfg.out;
          let ph = run_phase cfg ~name:"run" ~seconds:cfg.seconds ~setups:1 () in
          let oracle = Oracle.create () in
          ignore (verify oracle ph.reqs);
          let failed = List.length (List.filter (fun r -> not r.ok) ph.reqs) in
          Printf.printf "# self-check %s seed %d: %d requests, %d failed, %d violations\n%!"
            workload seed (List.length ph.reqs) failed (List.length oracle.Oracle.violations);
          List.iter (fun v -> Printf.printf "#   %s\n" v) oracle.Oracle.violations;
          check (Printf.sprintf "%s seed %d answers" workload seed)
            (failed = 0 && oracle.Oracle.violations = [] && ph.reqs <> []))
        [ 1; 2 ])
    workloads;
  List.iter (fun p -> Printf.printf "# self-check FAILED: %s\n" p) (List.rev !problems);
  !problems = []

let usage () =
  prerr_endline
    "usage: etb --workload plan_cold|serve_open|sweep_dr --seed N --seconds S --trace 0|1\n\
    \       etb --self-check";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Stopped from outside: stop the daemon too, and print no result. *)
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             Proc.stop_all ();
             exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  (* A large minor heap and a lazier major GC keep the client's own
     collections from delaying the open-loop schedule. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 lsl 20; space_overhead = 400 };
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k && k <> "--self-check" ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let code =
    try
      if args = [ "--self-check" ] then if self_check () then 0 else 1
      else
        let o = opts [] args in
        let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
        let workload = get "--workload" in
        if not (List.mem workload workloads) then usage ();
        let seed = int_of_string (get "--seed") in
        let seconds = float_of_string (get "--seconds") in
        let trace = get "--trace" = "1" in
        let out =
          Printf.sprintf ".perfbench_out/%s-seed%d-trace%d" workload seed (if trace then 1 else 0)
        in
        rm_rf out;
        if run { workload; seed; seconds; out } ~trace then 0 else 1
    with e ->
      Proc.stop_all ();
      Printf.eprintf "etb: %s\n%s%!" (Printexc.to_string e) (Printexc.get_backtrace ());
      2
  in
  Proc.stop_all ();
  exit code
