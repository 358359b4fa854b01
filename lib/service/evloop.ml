(* Shared plumbing for the select()-based single-thread loops: the
   server (server.ml) and the routing proxy (router.ml) speak the same
   two wire formats over the same kind of connection, move bytes through
   growable byte windows, and live under the same select() descriptor
   budget.  Everything here is wire handling, request decoding included;
   each process keeps one request handler. *)

(* A contiguous window [off, off+len) into a growable buffer.  The read
   side appends socket bytes at the tail and the parser consumes from the
   head; the write side appends serialised responses and the flusher
   consumes what [write] accepted.  Compaction is deferred until a grow
   or a full drain, so steady-state pipelining moves bytes, not buffers. *)
type iobuf = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let iobuf_create n = { buf = Bytes.create n; off = 0; len = 0 }

let iobuf_compact b =
  if b.off > 0 then begin
    Bytes.blit b.buf b.off b.buf 0 b.len;
    b.off <- 0
  end

let iobuf_ensure b extra =
  if b.off + b.len + extra > Bytes.length b.buf then begin
    iobuf_compact b;
    if b.len + extra > Bytes.length b.buf then begin
      let cap = ref (max 4096 (Bytes.length b.buf)) in
      while b.len + extra > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit b.buf 0 nb 0 b.len;
      b.buf <- nb
    end
  end

let iobuf_add_string b s =
  let n = String.length s in
  iobuf_ensure b n;
  Bytes.blit_string s 0 b.buf (b.off + b.len) n;
  b.len <- b.len + n

let iobuf_consume b n =
  b.off <- b.off + n;
  b.len <- b.len - n;
  if b.len = 0 then b.off <- 0

(* back-pressure: a connection that stops reading its responses stops
   being read from until its output drains *)
let max_wbuf = 4 lsl 20

(* a /1 line (or a half-received frame) may not grow without bound *)
let max_rbuf = 8 lsl 20

let read_chunk = 65536

(* glibc's [Unix.select] silently ignores descriptors >= FD_SETSIZE
   (1024 on Linux): past that, a connection is simply never reported
   readable and the loop wedges without an error.  Every loop clamps its
   connection cap against this at startup instead of discovering it in
   production. *)
let fd_setsize = 1024

(* stdin/out/err, cache and log descriptors, and slack for short-lived
   fds (accept-then-reject, probes mid-handshake) *)
let fd_headroom = 32

(* Bind one listener.  Raises [Failure] with an operator-readable
   message; callers surface it as a startup [Error]. *)
let bind_address addr =
  match addr with
  | Protocol.Unix_socket path ->
    if Sys.file_exists path then begin
      (* replace a stale socket file, but never steal a live server's *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then failwith (Printf.sprintf "%s: a server is already listening" path);
      try Sys.remove path with Sys_error _ -> ()
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* the socket is the admission door; it must be *born* owner-only —
       chmod after bind would leave a umask-dependent window in which other
       local users could connect (doc/SERVICE.md discusses sharing) *)
    let old_umask = Unix.umask 0o177 in
    Fun.protect
      ~finally:(fun () -> ignore (Unix.umask old_umask))
      (fun () -> Unix.bind fd (Unix.ADDR_UNIX path));
    Unix.chmod path 0o600;
    Unix.listen fd 64;
    fd
  | Protocol.Tcp (host, port) -> (
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | [] -> failwith (Printf.sprintf "cannot resolve %s:%d" host port)
    | ais ->
      (* try every resolved address — IPv4 or IPv6 — and keep the first
         that binds *)
      let rec go last = function
        | [] ->
          let detail =
            match last with
            | Some (Unix.Unix_error (e, _, _)) -> ": " ^ Unix.error_message e
            | _ -> ""
          in
          failwith (Printf.sprintf "cannot bind %s:%d%s" host port detail)
        | ai :: rest -> (
          match
            let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol in
            (try
               Unix.setsockopt fd Unix.SO_REUSEADDR true;
               Unix.bind fd ai.Unix.ai_addr;
               Unix.listen fd 64
             with e ->
               (try Unix.close fd with Unix.Unix_error _ -> ());
               raise e);
            fd
          with
          | fd -> fd
          | exception (Unix.Unix_error _ as e) -> go (Some e) rest)
      in
      go None ais)

(* [Ok cap] or a startup error naming the budget, for a loop that will
   select over [cap] connections plus [reserved] loop-owned descriptors
   (listeners, wake pipe, backend connections). *)
let check_fd_budget ~reserved cap =
  let budget = fd_setsize - fd_headroom - reserved in
  if cap < 1 then Error "max connections must be >= 1"
  else if cap > budget then
    Error
      (Printf.sprintf
         "max connections %d exceeds the select() budget: FD_SETSIZE %d - %d reserved \
          descriptors - %d headroom = %d (select silently breaks past FD_SETSIZE; run more \
          processes behind dda route instead)"
         cap fd_setsize reserved fd_headroom budget)
  else Ok cap

let close_listeners listeners =
  List.iter
    (fun (lfd, addr) ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match addr with
      | Protocol.Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
      | Protocol.Tcp _ -> ())
    listeners

let bind_listeners addrs =
  (* a client hanging up must surface as EPIPE on write, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let bound = ref [] in
  match List.iter (fun addr -> bound := (bind_address addr, addr) :: !bound) addrs with
  | () ->
    List.iter (fun (lfd, _) -> Unix.set_nonblock lfd) !bound;
    Ok !bound
  | exception (Failure msg | Sys_error msg) ->
    close_listeners !bound;
    Error msg
  | exception Unix.Unix_error (err, fn, arg) ->
    close_listeners !bound;
    Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))

let wake_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let wake w =
  try ignore (Unix.write_substring w "x" 0 1)
  with Unix.Unix_error _ -> ()  (* full pipe already wakes; closed pipe = shutdown *)

let drain_wake r =
  let scratch = Bytes.create 256 in
  let rec go () =
    match Unix.read r scratch 0 (Bytes.length scratch) with
    | n when n = Bytes.length scratch -> go ()
    | _ | (exception Unix.Unix_error _) -> ()
  in
  go ()

let set_stream_opts addr fd =
  Unix.set_nonblock fd;
  match addr with
  | Protocol.Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Protocol.Unix_socket _ -> ()

let fill fd b =
  iobuf_ensure b read_chunk;
  match Unix.read fd b.buf (b.off + b.len) (Bytes.length b.buf - b.off - b.len) with
  | 0 -> `Eof
  | n ->
    b.len <- b.len + n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
  | exception Unix.Unix_error _ -> `Error

let write_out fd b =
  let rec go () =
    if b.len = 0 then true
    else
      match Unix.write fd b.buf b.off b.len with
      | n when n > 0 ->
        iobuf_consume b n;
        go ()
      | _ | (exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)) -> true
      | exception Unix.Unix_error _ -> false
  in
  go ()

type frame = Frame of string | Partial | Bad_length of int

let take_frame b =
  if b.len < 4 then Partial
  else
    let len = Protocol.frame_length (Bytes.sub_string b.buf b.off 4) in
    if len < 1 || len > Protocol.max_frame then Bad_length len
    else if b.len < 4 + len then Partial  (* len <= max_frame bounds the wait *)
    else begin
      let payload = Bytes.sub_string b.buf (b.off + 4) len in
      iobuf_consume b (4 + len);
      Frame payload
    end

type mode = Detecting | Json_lines | Binary

type conn = {
  fd : Unix.file_descr;
  mutable mode : mode;
  rbuf : iobuf;
  wbuf : iobuf;
  mutable inflight : int;
  mutable eof : bool;
  mutable dead : bool;
  mutable closed : bool;
}

let conn fd =
  { fd; mode = Detecting; rbuf = iobuf_create 4096; wbuf = iobuf_create 4096; inflight = 0;
    eof = false; dead = false; closed = false }

(* responses only append; the loop flushes after every batch of events,
   so a response goes out in the round that produced it *)
let append c s = if not (c.dead || c.closed) then iobuf_add_string c.wbuf s

let respond c resp =
  if not (c.dead || c.closed) then
    match c.mode with
    | Binary -> iobuf_add_string c.wbuf (Protocol.encode_response_frame resp)
    | Detecting | Json_lines -> iobuf_add_string c.wbuf (Protocol.response_to_json resp ^ "\n")

let answer c ~id status = respond c { Protocol.rid = id; status; queue_ms = 0.; total_ms = 0. }

(* answer once, stop reading, close after the output flushes: a corrupt
   length or an endless line cannot be resynchronised *)
let fatal c reason =
  answer c ~id:"" (Protocol.Error reason);
  c.eof <- true;
  iobuf_consume c.rbuf c.rbuf.len

(* index of '\n' in buf[from, limit), or -1 *)
let find_nl buf from limit =
  let i = ref from in
  while !i < limit && Bytes.get buf !i <> '\n' do
    incr i
  done;
  if !i < limit then !i else -1

let feed c ~on_line ~on_frame =
  let b = c.rbuf in
  let rec go () =
    match c.mode with
    | Detecting ->
      if b.len > 0 then begin
        let n = min b.len 4 in
        if Bytes.sub_string b.buf b.off n <> String.sub Protocol.magic 0 n then begin
          c.mode <- Json_lines;
          go ()
        end
        else if b.len >= 4 then begin
          iobuf_consume b 4;
          c.mode <- Binary;
          (* echo the magic: the client's cue that /2 is negotiated *)
          iobuf_add_string c.wbuf Protocol.magic;
          go ()
        end
        (* else: a strict prefix of the magic — wait for the next bytes *)
      end
    | Json_lines ->
      let nl = find_nl b.buf b.off (b.off + b.len) in
      if nl >= 0 then begin
        let line = Bytes.sub_string b.buf b.off (nl - b.off) in
        iobuf_consume b (nl - b.off + 1);
        if String.trim line <> "" then on_line line;
        if not c.eof then go ()
      end
      else if b.len > max_rbuf then
        fatal c (Printf.sprintf "request line exceeds %d bytes" max_rbuf)
    | Binary -> (
      match take_frame b with
      | Frame payload ->
        on_frame payload;
        if not c.eof then go ()
      | Partial -> ()
      | Bad_length len ->
        fatal c (Printf.sprintf "bad frame length %d (1 ..= %d)" len Protocol.max_frame))
  in
  go ()

(* the one request decoder of both front wires: each process hands its
   single handler a decoded request, whatever format delivered it *)
let read c ~on_request ~on_crash =
  match fill c.fd c.rbuf with
  | `Data -> (
    (* no single request may take the loop thread (and with it every
       connection) down: an unexpected exception fails this connection
       only *)
    try
      feed c
        ~on_line:(fun line -> on_request (Protocol.parse_request line))
        ~on_frame:(fun payload -> on_request (Protocol.decode_request_payload payload))
    with e -> fatal c (on_crash e))
  | `Again -> ()
  | `Eof -> c.eof <- true
  | `Error ->
    c.eof <- true;
    c.dead <- true

let flush c =
  if (not (c.dead || c.closed)) && not (write_out c.fd c.wbuf) then begin
    (* EPIPE et al.: requests already admitted still retire cleanly, only
       the reply is lost with the connection *)
    c.dead <- true;
    iobuf_consume c.wbuf c.wbuf.len
  end

let select_sets conns =
  List.fold_left
    (fun (rs, ws) c ->
      ( (if (not c.eof) && c.wbuf.len < max_wbuf then c.fd :: rs else rs),
        if c.wbuf.len > 0 then c.fd :: ws else ws ))
    ([], []) conns

(* this round's output, plus whatever select says is writable again *)
let flush_ready conns writable =
  List.iter (fun c -> if c.wbuf.len > 0 || List.memq c.fd writable then flush c) conns

let accept (lfd, addr) ~room add =
  let rec go () =
    if room () then
      match Unix.accept lfd with
      | fd, _ ->
        set_stream_opts addr fd;
        add (conn fd);
        go ()
      | exception Unix.Unix_error _ -> ()  (* EAGAIN: the backlog is empty *)
  in
  go ()

let close_conn c =
  c.closed <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let reap conns =
  List.filter
    (fun c ->
      let finished = c.dead || (c.eof && c.inflight = 0 && c.wbuf.len = 0) in
      if finished then close_conn c;
      not finished)
    conns
