(* The correctness oracle: every answer the daemon gives is checked
   against the benchmark's own recomputation with the repository's
   libraries, never against another answer of the daemon alone. *)

open Etransform
module Json = Service.Json
module Job = Service.Job

type t = {
  estates : (string, Asis.t) Hashtbl.t;   (* estate key -> built estate *)
  first : (string, string) Hashtbl.t;     (* fingerprint -> first answer *)
  ratios : (string, float) Hashtbl.t;     (* fingerprint -> total / greedy *)
  totals : (string, float) Hashtbl.t;     (* fingerprint -> reported total *)
  mutable violations : string list;
}

let create () =
  {
    estates = Hashtbl.create 64;
    first = Hashtbl.create 256;
    ratios = Hashtbl.create 256;
    totals = Hashtbl.create 256;
    violations = [];
  }

let fail t msg = t.violations <- msg :: t.violations

let estate t (job : Job.t) =
  let key =
    Job.estate_key job.Job.estate ^ "|"
    ^ Option.fold ~none:"-" ~some:(Printf.sprintf "%h") job.Job.dr_server_cost
  in
  match Hashtbl.find_opt t.estates key with
  | Some a -> a
  | None ->
      let a = Job.build_estate job in
      Hashtbl.replace t.estates key a;
      a

let str k j = Option.bind (Json.member k j) Json.to_str
let flt k j = Option.bind (Json.member k j) Json.to_float

(* The answer with its per-request fields removed: what must be
   byte-equal across every answer for one fingerprint. *)
let delivery_fields = [ "id"; "cache"; "queue_s"; "solve_s"; "tag"; "resilience" ]

let normalized = function
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> not (List.mem k delivery_fields)) fields))
  | j -> Json.to_string j

let close_to a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

(* Checks one result object for [job]; returns its total when it holds. *)
let check_result t ~(job : Job.t) (j : Json.t) =
  let id = job.Job.id in
  let bad msg =
    fail t (Printf.sprintf "%s: %s" id msg);
    None
  in
  let fp = Job.fingerprint job in
  match (str "code" j, str "status" j, flt "total" j, Json.member "placement" j) with
  | Some "ok", Some status, Some total, Some (Json.List cells) -> (
      if status = "time-limit" then bad "MILP status time-limit"
      else if str "fp" j <> Some fp then bad "fingerprint differs from the job's"
      else
        let asis = estate t job in
        let primary = Array.of_list (List.filter_map Json.to_int cells) in
        if Array.length primary <> Asis.num_groups asis then
          bad "placement length differs from the estate's groups"
        else
          let p = Placement.non_dr primary in
          match Placement.validate asis p with
          | _ :: _ as errs -> bad ("infeasible placement: " ^ String.concat "; " errs)
          | [] -> (
              let own = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
              (* DR answers carry only the primaries, so the recompute is a
                 lower bound there: backups only add cost. *)
              if (not job.Job.dr) && not (close_to total own) then
                bad (Printf.sprintf "total %.6f but recomputed %.6f" total own)
              else if job.Job.dr && total < own -. (1e-6 *. Float.abs own) then
                bad (Printf.sprintf "DR total %.6f below its primaries' %.6f" total own)
              else
                let norm = normalized j in
                match Hashtbl.find_opt t.first fp with
                | Some f when f <> norm -> bad "answer differs from the first for its fingerprint"
                | Some _ -> Some total
                | None ->
                    Hashtbl.replace t.first fp norm;
                    Hashtbl.replace t.totals fp total;
                    let greedy =
                      Evaluate.total
                        (Evaluate.plan asis
                           (if job.Job.dr then Greedy.plan_dr asis else Greedy.plan asis))
                          .Evaluate.cost
                    in
                    Hashtbl.replace t.ratios fp (total /. greedy);
                    Some total))
  | Some code, _, _, _ when code <> "ok" -> bad ("code " ^ code)
  | _ -> bad "malformed result"

let parse_line t ~what line =
  match Json.parse line with
  | Ok j -> Some j
  | Error e ->
      fail t (Printf.sprintf "%s: unparseable answer (%s)" what e);
      None

(* One /sweep answer: a point line per grid point in grid order, then the
   frontier line, which must equal the Pareto frontier of the points. *)
let check_sweep t ~(points : (string * Job.t) list) lines =
  let n = List.length points in
  if List.length lines <> n + 1 then begin
    fail t (Printf.sprintf "sweep: %d lines for %d points" (List.length lines) n);
    []
  end
  else
    let point_lines = List.filteri (fun i _ -> i < n) lines in
    let frontier_line = List.nth lines n in
    let pts =
      List.filter_map
        (fun ((tag, job), line) ->
          match parse_line t ~what:job.Job.id line with
          | None -> None
          | Some j -> (
              if str "tag" j <> Some tag then begin
                fail t (job.Job.id ^ ": point out of grid order");
                None
              end
              else
                match (check_result t ~job j, flt "resilience" j) with
                | Some cost, Some resilience ->
                    Some (j, { Scenario.Pareto.cost; resilience; tag })
                | Some _, None ->
                    fail t (job.Job.id ^ ": point without resilience");
                    None
                | None, _ -> None))
        (List.combine points point_lines)
    in
    (match parse_line t ~what:"frontier" frontier_line with
    | Some fj -> (
        match Json.member "frontier" fj with
        | Some (Json.List fs) ->
            let got =
              List.map
                (fun f -> (str "tag" f, flt "cost" f, flt "resilience" f))
                fs
            in
            let want =
              List.map
                (fun (p : Scenario.Pareto.point) ->
                  (Some p.tag, Some p.cost, Some p.resilience))
                (Scenario.Pareto.frontier (List.map snd pts))
            in
            if List.length pts = n && got <> want then
              fail t "sweep: frontier line differs from the points' Pareto frontier"
        | _ -> fail t "sweep: no frontier in the last line")
    | None -> ());
    pts

let geomean_ratio t =
  let n = Hashtbl.length t.ratios in
  if n = 0 then 0.0
  else
    exp (Hashtbl.fold (fun _ r acc -> acc +. log r) t.ratios 0.0 /. float_of_int n)
