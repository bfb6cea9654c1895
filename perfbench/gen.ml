(* Seeded workload generation.  Every request the daemon sees is a JSON
   line built here from the workload seed; the same seed yields the same
   lines, so any run can be replayed from the files [Etb] writes beside
   its result. *)

module Prng = Datasets.Prng

let num f = Printf.sprintf "%.6g" f

(* Node-limited solves with a zero gap target and a CPU budget that never
   binds: the node limit alone ends the search, so plans are
   deterministic and the oracle can compare them across runs.  The budget
   still enters the job fingerprint, which is how a repeated case study
   stays a distinct cache key. *)
let milp ~nodes ~budget =
  Printf.sprintf {|"milp":{"nodes":%d,"time":%s,"gap":1e-9}|} nodes (num budget)

(* ------------------------------------------------------------ plan_cold *)

(* The paper's case studies at reduced scale, each sized so the MILP is
   nearly all of its time: Enterprise1, Florida and Federal with economies
   of scale and fixed charges, Enterprise1 and Florida DR with a
   business-impact spread, and seeded synthetic estates.  One cycle holds
   every template once in a seeded order, so every seed offers the same
   solver mix and plan_jobs_per_min compares across seeds; the seed draws
   the order and the synthetic estate, whose solve time it can move from
   milliseconds to most of a second.  Three templates of similar solve
   time sit in the middle of the mix, so the median job does not depend
   on where the synthetic one falls. *)
let templates =
  [|
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"enterprise1","scale":0.35},"eos":true,"fixed_charges":true,%s|}
        (milp ~nodes:3 ~budget));
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"enterprise1","scale":0.4},"eos":true,"fixed_charges":true,%s|}
        (milp ~nodes:3 ~budget));
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"florida","scale":0.25},"eos":true,"fixed_charges":true,%s|}
        (milp ~nodes:3 ~budget));
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"federal","scale":0.025},"eos":true,"fixed_charges":true,%s|}
        (milp ~nodes:6 ~budget));
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"enterprise1","scale":0.15},"dr":true,"omega":0.5,%s|}
        (milp ~nodes:6 ~budget));
    (fun ~budget _ ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"florida","scale":0.2},"dr":true,"omega":0.5,%s|}
        (milp ~nodes:12 ~budget));
    (fun ~budget rng ->
      Printf.sprintf
        {|"estate":{"kind":"dataset","name":"synthetic","seed":%d,"groups":10,"targets":6},"eos":true,"fixed_charges":true,%s|}
        (1 + Prng.int rng 1_000_000) (milp ~nodes:6 ~budget));
  |]

(* An endless seeded stream of distinct plan_cold job lines. *)
let plan_stream ~seed =
  let rng = Prng.create ((seed * 7919) + 1) in
  let k = ref 0 and cycle = ref [||] in
  fun () ->
    if !k mod Array.length templates = 0 then begin
      cycle := Array.copy templates;
      Prng.shuffle rng !cycle
    end;
    let t = !cycle.(!k mod Array.length templates) in
    let body = t ~budget:(600.0 +. float_of_int !k) rng in
    let line = Printf.sprintf {|{"id":"plan-%d",%s}|} !k body in
    incr k;
    line

(* ----------------------------------------------------------- serve_open *)

(* Small line estates (the §VI-D topology): solves take milliseconds, so
   the reactor, HTTP, fingerprint and cache tiers carry the time. *)
let line_job ~id ~groups ~frac ~penalty ~space =
  Printf.sprintf
    {|{"id":"%s","estate":{"kind":"line","n_groups":%d,"frac_at_0":%s,"penalty":%s,"base_space":%s},%s}|}
    id groups (num frac) (num penalty) (num space)
    (milp ~nodes:4 ~budget:600.0)

let catalogue_size = 256
let lru_size = 64

(* [catalogue ~seed] is [catalogue_size] distinct keys; [fresh k] is
   the k-th never-seen key: a what-if on a new space price, disjoint from
   the catalogue by construction (its price lies outside the catalogue's
   range).  Fresh keys share one shape, so their solves cost alike and the
   p99 they set does not hinge on which estates a seed draws. *)
let catalogue ~seed =
  let rng = Prng.create ((seed * 104729) + 3) in
  Array.init catalogue_size (fun i ->
      line_job ~id:(Printf.sprintf "cat-%d" i)
        ~groups:(6 + Prng.int rng 5)
        ~frac:(float_of_int (Prng.int rng 20) /. 20.0)
        ~penalty:(float_of_int (20 * Prng.int rng 5))
        ~space:(80.0 +. float_of_int i))

let fresh k =
  line_job ~id:(Printf.sprintf "new-%d" k) ~groups:12 ~frac:0.5 ~penalty:0.0
    ~space:(1000.0 +. float_of_int k)

(* The rate ladder: (requests per second, share of the run).  The nominal
   step is the longest, so its p99 has at least ten samples beyond it. *)
let nominal_rps = 250.0

let ladder = [ (250.0, 0.6); (1000.0, 0.1); (4000.0, 0.15); (16000.0, 0.15) ]

(* Latency limit on a step's p99 for the step to count as met.  Misses
   solve in a few milliseconds, so a step only misses the limit when
   requests queue. *)
let limit_ms = 100.0
let fresh_share = 0.02

type arrival = { due : float; step : int; line : string }

(* Poisson arrivals per step; keys Zipf(1)-drawn over the catalogue, a
   [fresh_share] of them never seen before. *)
let schedule ~seed ~seconds =
  let rng = Prng.create ((seed * 31337) + 5) in
  let cat = catalogue ~seed in
  let n = Array.length cat in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  (* Zipf rank -> catalogue slot, seeded so hot keys differ across seeds. *)
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let zipf () =
    let u = Prng.float rng *. !acc in
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bs (mid + 1) hi else bs lo mid
    in
    cat.(perm.(bs 0 (n - 1)))
  in
  let fresh_k = ref 0 in
  let t0 = ref 0.0 in
  List.concat
    (List.mapi
       (fun step (rate, share) ->
         let stop = !t0 +. (share *. seconds) in
         let rec go t acc =
           let t = t -. (log (1.0 -. Prng.float rng) /. rate) in
           if t >= stop then List.rev acc
           else
             let a =
               if Prng.float rng < fresh_share then begin
                 incr fresh_k;
                 { due = t; step; line = fresh !fresh_k }
               end
               else { due = t; step; line = zipf () }
             in
             go t (a :: acc)
         in
         let l = go !t0 [] in
         t0 := stop;
         l)
       ladder)

(* ------------------------------------------------------------- sweep_dr *)

(* DR parameter grids (radius x warning x omega, §VI-E/F and E7) over
   reduced-scale Florida and seeded synthetic DR estates, alternating.
   Consecutive sweeps on one estate slide the radius window by one value,
   so each shares half its points with the one before; the new radius
   comes first, so the first streamed point is a solve, not a cache hit.
   One cycle visits [sweep_estates] estates, each for [sweeps_per_estate]
   sweeps: the same Florida scales and synthetic-estate seeds for every
   workload seed, which draws their order.  DR solve time varies a lot
   between estates, so a fixed set per cycle is what keeps
   sweep_points_per_s comparable across seeds.  Each cycle repeats the
   estates at a new business-impact spread, so no sweep recurs. *)
let sweeps_per_estate = 4
let sweep_estates = 16
let radii = [| 150.0; 300.0; 600.0; 1200.0; 2400.0 |]

let sweep_stream ~seed =
  let rng = Prng.create ((seed * 7727) + 11) in
  let florida k = Printf.sprintf {|{"kind":"dataset","name":"florida","scale":%s}|} (num (0.11 +. (0.005 *. float_of_int k))) in
  let synthetic k =
    Printf.sprintf {|{"kind":"dataset","name":"synthetic","seed":%d,"groups":14,"targets":6}|}
      (1 + (k * 7919))
  in
  let half = sweep_estates / 2 in
  let order = ref [||] in
  let i = ref 0 in
  fun () ->
    let cycle = !i / (sweeps_per_estate * sweep_estates) in
    let g = !i / sweeps_per_estate mod sweep_estates and j = !i mod sweeps_per_estate in
    if g = 0 && j = 0 then begin
      let fl = Array.init half florida and sy = Array.init half synthetic in
      Prng.shuffle rng fl;
      Prng.shuffle rng sy;
      order := Array.init sweep_estates (fun k -> if k mod 2 = 0 then fl.(k / 2) else sy.(k / 2))
    end;
    let line =
      Printf.sprintf
        {|{"id":"sweep-%d","estate":%s,"dr":true,%s,"grid":{"radius_km":[%s,%s],"warning_s":[null,14400],"omega":[%s,0.6]}}|}
        !i !order.(g) (milp ~nodes:4 ~budget:600.0) (num radii.(j + 1)) (num radii.(j))
        (num (0.4 -. (0.001 *. float_of_int cycle)))
    in
    incr i;
    line
