(* Single-threaded HTTP/1.1 load client over non-blocking keep-alive
   connections.  One [select] loop drives every connection, so the
   benchmark's own CPU use stays on one thread and the open-loop schedule
   is never delayed by a blocked reader: requests are written when due,
   pipelined behind any still in flight, and responses are matched to
   requests in order.  Content-Length and chunked bodies are both
   understood; [on_line] sees each body line as it arrives, which is how
   streamed sweep points are timed. *)

type response = {
  status : int;
  body : string;
  t_first : float;  (** first body line seen *)
  t_done : float;
}

type request = {
  on_line : float -> string -> unit;
  on_done : response -> unit;
}

type parse =
  | Status_line
  | Headers of int * int option * bool  (* status, content-length, chunked *)
  | Body_len of int * int               (* status, remaining *)
  | Chunk_size of int
  | Chunk_data of int * int             (* status, remaining *)
  | Chunk_crlf of int
  | Trailers of int

type conn = {
  fd : Unix.file_descr;
  mutable out : string list;   (* pending writes, oldest first *)
  mutable out_off : int;
  inflight : request Queue.t;  (* written or queued, awaiting a response *)
  ibuf : Buffer.t;             (* unconsumed input *)
  body : Buffer.t;
  mutable line_start : int;    (* start of the current partial line in body *)
  mutable t_first : float;
  mutable state : parse;
  mutable closed : bool;
}

let now = Unix.gettimeofday

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    out = [];
    out_off = 0;
    inflight = Queue.create ();
    ibuf = Buffer.create 65536;
    body = Buffer.create 65536;
    line_start = 0;
    t_first = 0.0;
    state = Status_line;
    closed = false;
  }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let encode ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let send c ~meth ~path ?(on_line = fun _ _ -> ()) ~on_done body =
  Queue.push { on_line; on_done } c.inflight;
  c.out <- c.out @ [ encode ~meth ~path body ]

let pending c = Queue.length c.inflight

let wants_write c = c.out <> []

let flush_out c =
  let rec go () =
    match c.out with
    | [] -> ()
    | s :: rest -> (
        let len = String.length s - c.out_off in
        match Unix.write_substring c.fd s c.out_off len with
        | n when n = len ->
            c.out <- rest;
            c.out_off <- 0;
            go ()
        | n -> c.out_off <- c.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ())
  in
  go ()

exception Protocol of string

(* Split off complete body lines for [on_line]. *)
let scan_lines c =
  let b = Buffer.contents c.body in
  let rec go i =
    match String.index_from_opt b i '\n' with
    | Some j ->
        let t = now () in
        if c.t_first = 0.0 then c.t_first <- t;
        (Queue.peek c.inflight).on_line t (String.sub b i (j - i));
        go (j + 1)
    | None -> c.line_start <- i
  in
  go c.line_start

let finish c status =
  let r = Queue.pop c.inflight in
  let t = now () in
  let body = Buffer.contents c.body in
  if c.line_start < String.length body then begin
    if c.t_first = 0.0 then c.t_first <- t;
    r.on_line t (String.sub body c.line_start (String.length body - c.line_start))
  end;
  let t_first = if c.t_first = 0.0 then t else c.t_first in
  Buffer.clear c.body;
  c.line_start <- 0;
  c.t_first <- 0.0;
  c.state <- Status_line;
  r.on_done { status; body; t_first; t_done = t }

(* Consume as much of [ibuf] as the parser can; returns unconsumed data. *)
let parse c =
  let data = Buffer.contents c.ibuf in
  let n = String.length data in
  let pos = ref 0 in
  let line () =
    match String.index_from_opt data !pos '\n' with
    | None -> None
    | Some j ->
        let l = String.sub data !pos (j - !pos) in
        pos := j + 1;
        let len = String.length l in
        Some (if len > 0 && l.[len - 1] = '\r' then String.sub l 0 (len - 1) else l)
  in
  let rec step () =
    match c.state with
    | Status_line -> (
        match line () with
        | None -> ()
        | Some "" -> step ()
        | Some l -> (
            match String.split_on_char ' ' l with
            | _ :: code :: _ ->
                c.state <- Headers (int_of_string code, None, false);
                step ()
            | _ -> raise (Protocol ("bad status line: " ^ l))))
    | Headers (st, len, chunked) -> (
        match line () with
        | None -> ()
        | Some "" ->
            c.state <-
              (if chunked then Chunk_size st
               else
                 match len with
                 | Some l -> Body_len (st, l)
                 | None -> raise (Protocol "response without length"));
            (match c.state with Body_len (st, 0) -> finish c st | _ -> ());
            step ()
        | Some h ->
            let h' = String.lowercase_ascii h in
            let value () =
              String.trim (String.sub h (String.index h ':' + 1)
                             (String.length h - String.index h ':' - 1))
            in
            if String.starts_with ~prefix:"content-length:" h' then
              c.state <- Headers (st, Some (int_of_string (value ())), chunked)
            else if String.starts_with ~prefix:"transfer-encoding:" h' then
              c.state <- Headers (st, len, String.lowercase_ascii (value ()) = "chunked");
            step ())
    | Body_len (st, rem) ->
        let k = min rem (n - !pos) in
        Buffer.add_substring c.body data !pos k;
        pos := !pos + k;
        if k = rem then finish c st
        else c.state <- Body_len (st, rem - k);
        if k > 0 then step ()
    | Chunk_size st -> (
        match line () with
        | None -> ()
        | Some l ->
            let hex = match String.index_opt l ';' with
              | Some i -> String.sub l 0 i | None -> l in
            let size = int_of_string ("0x" ^ String.trim hex) in
            c.state <- (if size = 0 then Trailers st else Chunk_data (st, size));
            step ())
    | Chunk_data (st, rem) ->
        let k = min rem (n - !pos) in
        Buffer.add_substring c.body data !pos k;
        pos := !pos + k;
        if k > 0 then scan_lines c;
        if k = rem then c.state <- Chunk_crlf st
        else c.state <- Chunk_data (st, rem - k);
        if k > 0 then step ()
    | Chunk_crlf st -> (
        match line () with
        | None -> ()
        | Some _ ->
            c.state <- Chunk_size st;
            step ())
    | Trailers st -> (
        match line () with
        | None -> ()
        | Some "" ->
            finish c st;
            step ()
        | Some _ -> step ())
  in
  step ();
  Buffer.clear c.ibuf;
  Buffer.add_substring c.ibuf data !pos (n - !pos)

let chunk = Bytes.create 65536

let on_readable c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise (Protocol "connection closed by server")
  | k ->
      Buffer.add_subbytes c.ibuf chunk 0 k;
      parse c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* One turn of the event loop: wait until a connection is readable or
   writable, or [until] (absolute time) passes. *)
let poll conns ~until =
  List.iter (fun c -> if wants_write c then flush_out c) conns;
  let rd = List.filter_map (fun c -> if pending c > 0 then Some c.fd else None) conns in
  let wr = List.filter_map (fun c -> if wants_write c then Some c.fd else None) conns in
  let timeout = Float.max 0.0 (until -. now ()) in
  if rd = [] && wr = [] then (if timeout > 0.0 then Unix.sleepf timeout)
  else
    match Unix.select rd wr [] timeout with
    | r, w, _ ->
        List.iter
          (fun c ->
            if List.mem c.fd w then flush_out c;
            if List.mem c.fd r then on_readable c)
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Blocking convenience for set-up and scrapes: one request on its own
   short-lived connection. *)
let call ~port ~meth ~path ?(on_line = fun _ _ -> ()) body =
  let c = connect port in
  let result = ref None in
  send c ~meth ~path ~on_line ~on_done:(fun r -> result := Some r) body;
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      while !result = None do
        poll [ c ] ~until:(now () +. 1.0)
      done;
      Option.get !result)
