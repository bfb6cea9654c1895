(* The daemon under test as a child process: spawn, wait for /healthz,
   scrape /metrics, sample /proc/<pid>, and stop. *)

type t = { pid : int; port : int; log : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let exe = "_build/default/bin/etransform_server.exe"

(* The port from the daemon's "listening on ADDR:PORT" line. *)
let find_port log =
  List.find_map
    (fun l ->
      try Scanf.sscanf l "etransform_server: listening on %[^:]:%d" (fun _ p -> Some p)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' log)

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Every child this process started, so an exception anywhere still
   stops them before exit. *)
let live : t list ref = ref []

let stop_all () =
  List.iter stop !live;
  live := []

let spawn ~workers ~cache ~cache_dir ?trace ~log () =
  let args =
    [ exe; "--port"; "0"; "--workers"; string_of_int workers;
      "--cache"; string_of_int cache; "--cache-dir"; cache_dir;
      "--drain-timeout"; "5" ]
    @ match trace with None -> [] | Some f -> [ "--trace"; f ]
  in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr err
  in
  Unix.close err;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec await_port () =
    match find_port (read_file log) with
    | Some port -> port
    | None ->
        if Unix.gettimeofday () > deadline then begin
          stop { pid; port = 0; log };
          failwith ("daemon did not start: " ^ read_file log)
        end;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("daemon exited at start: " ^ read_file log));
        Unix.sleepf 0.002;
        await_port ()
  in
  let port = await_port () in
  let t = { pid; port; log } in
  live := t :: !live;
  let rec healthy () =
    match Client.call ~port ~meth:"GET" ~path:"/healthz" "" with
    | { Client.status = 200; _ } -> ()
    | _ | (exception Unix.Unix_error _) ->
        if Unix.gettimeofday () > deadline then failwith "daemon never healthy";
        Unix.sleepf 0.002;
        healthy ()
  in
  healthy ();
  t

let shutdown t =
  stop t;
  live := List.filter (fun u -> u.pid <> t.pid) !live

(* ------------------------------------------------------------- /proc *)

type proc = {
  cpu_s : float;       (** utime + stime *)
  ctx : int;           (** voluntary + involuntary switches, all threads *)
  hwm_mb : float;      (** VmHWM *)
}

let clk_tck = 100.0

let status_field text key =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:key l then
        let v = String.sub l (String.length key) (String.length l - String.length key) in
        let v = String.trim v in
        let v = match String.index_opt v ' ' with Some i -> String.sub v 0 i | None -> v in
        int_of_string_opt v
      else None)
    (String.split_on_char '\n' text)

let sample t =
  let base = Printf.sprintf "/proc/%d" t.pid in
  let stat = read_file (base ^ "/stat") in
  (* Fields after the parenthesised command name; utime and stime are the
     12th and 13th of them. *)
  let rest = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  let cpu_s = (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck in
  let ctx =
    Array.fold_left
      (fun acc task ->
        match read_file (Printf.sprintf "%s/task/%s/status" base task) with
        | s ->
            acc
            + Option.value ~default:0 (status_field s "voluntary_ctxt_switches:")
            + Option.value ~default:0 (status_field s "nonvoluntary_ctxt_switches:")
        | exception Sys_error _ -> acc)
      0 (Sys.readdir (base ^ "/task"))
  in
  let hwm_kb =
    Option.value ~default:0 (status_field (read_file (base ^ "/status")) "VmHWM:")
  in
  { cpu_s; ctx; hwm_mb = float_of_int hwm_kb /. 1024.0 }

(* ---------------------------------------------------------- /metrics *)

(* Prometheus text -> (name{labels}, value) pairs. *)
let scrape t =
  let r = Client.call ~port:t.port ~meth:"GET" ~path:"/metrics" "" in
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | None -> None
        | Some i ->
            Option.map
              (fun v -> (String.sub l 0 i, v))
              (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))))
    (String.split_on_char '\n' r.Client.body)
