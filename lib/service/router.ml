(* Consistent-hash verdict routing (see router.mli for the design).

   One thread owns everything: a select() loop multiplexing the front
   listeners, every front connection (both wire formats) and one
   pipelined /2 connection per backend.  The only other thread is the
   prober, which performs blocking Client.connect calls (with the PR-8
   timeout) off the loop and hands negotiated descriptors back through a
   mutex-protected mailbox plus the wake pipe.

   Front requests arrive decoded (Evloop.read), whichever wire carried
   them; a forward re-encodes its decide under a router-assigned id, and
   the response comes back by swapping the client's id into the raw
   frame. *)

module Spec = Dda_batch.Spec
module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
module FQ = Stdlib.Queue
open Evloop

let c_requests = T.counter "router.requests"
let c_forwarded = T.counter "router.forwarded"
let c_retries = T.counter "router.retries"
let c_ejections = T.counter "router.ejections"
let c_readmissions = T.counter "router.readmissions"
let c_errors = T.counter "router.errors"

(* ------------------------------------------------------------------ *)
(* The hash ring                                                        *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  type t = { points : (int * string) array; members : string list }

  (* 63 bits of MD5: plenty of spread, deterministic across runs and
     processes (routing must agree between restarts and replicas) *)
  let hash s =
    let d = Digest.string s in
    let v = ref 0 in
    for i = 0 to 7 do
      v := (!v lsl 8) lor Char.code d.[i]
    done;
    !v land max_int

  let make ?(replicas = 101) members =
    let members = List.sort_uniq compare members in
    let pts =
      List.concat_map
        (fun m ->
          List.init (max 1 replicas) (fun i -> (hash (Printf.sprintf "%s#%d" m i), m)))
        members
    in
    let points = Array.of_list pts in
    Array.sort compare points;
    { points; members }

  let lookup t key =
    let n = Array.length t.points in
    if n = 0 then None
    else begin
      let h = hash key in
      (* first point clockwise from h, wrapping past the top *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
      done;
      Some (snd t.points.(if !lo = n then 0 else !lo))
    end

  let members t = t.members
end

(* ------------------------------------------------------------------ *)
(* Configuration and state                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  listen : Protocol.address list;
  backends : Protocol.address list;
  replicas : int;
  max_connections : int;
  conn_limit : int;
  backend_window : int;
  backend_backlog : int;
  connect_timeout : float;
  probe_interval : float;
  probe_timeout : float;
  retry : bool;
  window_s : int;
}

let default_config =
  {
    listen = [];
    backends = [];
    replicas = 101;
    max_connections = 512;
    conn_limit = 64;
    backend_window = 8;
    backend_backlog = 1024;
    connect_timeout = 2.0;
    probe_interval = 1.0;
    probe_timeout = 3.0;
    retry = true;
    window_s = 60;
  }

type stats = {
  connections : int;
  requests : int;
  forwarded : int;
  retries : int;
  ejections : int;
  readmissions : int;
  rejected : int;
  errors : int;
  backends_up : int;
}

(* one admitted decide in flight between a front and a backend *)
type fwd = {
  f_front : conn;
  f_id : string;  (* the client's id, restored on the way back *)
  f_req : Protocol.decide;  (* the request, under the router-assigned id *)
  mutable f_sent : float;  (* monotonic, for the latency window *)
  mutable f_attempts : int;  (* sends so far; retry allows a second *)
}

type bstate = Up | Ejected

type backend = {
  b_idx : int;
  b_addr : Protocol.address;
  b_name : string;
  mutable b_state : bstate;
  mutable b_fd : Unix.file_descr option;
  mutable b_rbuf : iobuf;
  mutable b_wbuf : iobuf;
  b_inflight : (string, fwd) Hashtbl.t;  (* rid -> fwd *)
  b_queue : fwd FQ.t;  (* admitted, waiting for window space *)
  mutable b_next_try : float;  (* monotonic: next readmission attempt *)
  mutable b_backoff : float;
  mutable b_connecting : bool;  (* a prober dial is outstanding *)
  mutable b_probe : (string * float) option;  (* outstanding probe id, sent at *)
  mutable b_last_probe : float;
  mutable b_forwarded : int;
  mutable b_ejections : int;
}

let initial_backoff = 0.25
let max_backoff = 8.0

type t = {
  cfg : config;
  backends : backend array;
  mutable ring : Ring.t;  (* over Up backends only; rebuilt on membership change *)
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  m : Mutex.t;  (* stats below + the prober mailbox *)
  cv : Condition.t;  (* the prober sleeps here *)
  mutable want : int list;  (* backend indices to dial *)
  mutable adopted : (int * (Unix.file_descr, string) result) list;
  mutable prober_stop : bool;
  mutable s_connections : int;
  mutable s_requests : int;
  mutable s_forwarded : int;
  mutable s_retries : int;
  mutable s_ejections : int;
  mutable s_readmissions : int;
  mutable s_rejected : int;
  mutable s_errors : int;
  mutable s_decides : int;
  mutable s_pings : int;
  mutable s_stats_rpc : int;
  mutable s_health_rpc : int;
  mutable rid_seq : int;
  window : T.Window.t;
  t0_mono : float;
  mutable loop_thread : Thread.t option;
  mutable prober_thread : Thread.t option;
}

let up_count t =
  Array.fold_left (fun a b -> if b.b_state = Up then a + 1 else a) 0 t.backends

let rebuild_ring t =
  let up =
    Array.to_list t.backends
    |> List.filter_map (fun b -> if b.b_state = Up then Some b.b_name else None)
  in
  t.ring <- Ring.make ~replicas:t.cfg.replicas up

let backend_by_name t name =
  let found = ref None in
  Array.iter (fun b -> if !found = None && b.b_name = name then found := Some b) t.backends;
  match !found with Some b -> b | None -> assert false (* ring members come from t.backends *)

let stats t =
  Mutex.lock t.m;
  let s =
    {
      connections = t.s_connections;
      requests = t.s_requests;
      forwarded = t.s_forwarded;
      retries = t.s_retries;
      ejections = t.s_ejections;
      readmissions = t.s_readmissions;
      rejected = t.s_rejected;
      errors = t.s_errors;
      backends_up = up_count t;
    }
  in
  Mutex.unlock t.m;
  s

let bump t f =
  Mutex.lock t.m;
  f t;
  Mutex.unlock t.m

let count_error t =
  bump t (fun t -> t.s_errors <- t.s_errors + 1);
  T.incr c_errors

(* ------------------------------------------------------------------ *)
(* Forwarding                                                           *)
(* ------------------------------------------------------------------ *)

let fresh_rid t =
  t.rid_seq <- t.rid_seq + 1;
  Printf.sprintf "r%x" t.rid_seq

let send_fwd t b fwd =
  fwd.f_sent <- T.monotonic ();
  fwd.f_attempts <- fwd.f_attempts + 1;
  Hashtbl.replace b.b_inflight fwd.f_req.Protocol.id fwd;
  iobuf_add_string b.b_wbuf (Protocol.encode_request_frame (Protocol.Decide fwd.f_req));
  b.b_forwarded <- b.b_forwarded + 1;
  bump t (fun t -> t.s_forwarded <- t.s_forwarded + 1);
  T.incr c_forwarded

let pump t b =
  while
    b.b_state = Up
    && Hashtbl.length b.b_inflight < t.cfg.backend_window
    && not (FQ.is_empty b.b_queue)
  do
    send_fwd t b (FQ.pop b.b_queue)
  done

let retire_fwd t fwd =
  fwd.f_front.inflight <- fwd.f_front.inflight - 1;
  T.Window.observe t.window ((T.monotonic () -. fwd.f_sent) *. 1000.)

(* the ring key: the textual spec identity — stable across retries and
   restarts, and computable without building the machine or graph
   (router.mli) *)
let route_key (d : Protocol.decide) =
  String.concat "\x00"
    [ d.Protocol.protocol; d.Protocol.graph; Spec.regime_name d.Protocol.regime;
      string_of_int d.Protocol.max_configs ]

(* route (or re-route) an admitted forward; [Error] when no backend can
   take it — the caller answers the front *)
let route_fwd t fwd =
  match Ring.lookup t.ring (route_key fwd.f_req) with
  | None -> Error (Protocol.Rejected "no_backends")
  | Some name ->
    let b = backend_by_name t name in
    if Hashtbl.length b.b_inflight + FQ.length b.b_queue
       >= t.cfg.backend_window + t.cfg.backend_backlog
    then Error (Protocol.Rejected "router_backlog")
    else begin
      FQ.push fwd b.b_queue;
      pump t b;
      Ok ()
    end

let admit_decide t conn (d : Protocol.decide) =
  let id = d.Protocol.id in
  bump t (fun t -> t.s_decides <- t.s_decides + 1);
  if Atomic.get t.stop then begin
    bump t (fun t -> t.s_rejected <- t.s_rejected + 1);
    answer conn ~id (Protocol.Rejected "draining")
  end
  else if conn.inflight >= t.cfg.conn_limit then begin
    (* one pipelining front must not monopolise every backend's window
       and backlog — same admission rule as the server's conn_limit *)
    bump t (fun t -> t.s_rejected <- t.s_rejected + 1);
    answer conn ~id (Protocol.Rejected "connection_limit")
  end
  else begin
    let fwd =
      {
        f_front = conn;
        f_id = id;
        f_req = { d with Protocol.id = fresh_rid t };
        f_sent = 0.;
        f_attempts = 0;
      }
    in
    conn.inflight <- conn.inflight + 1;
    match route_fwd t fwd with
    | Ok () -> ()
    | Error status ->
      conn.inflight <- conn.inflight - 1;
      bump t (fun t -> t.s_rejected <- t.s_rejected + 1);
      answer conn ~id status
  end

(* ------------------------------------------------------------------ *)
(* Ejection, retry, readmission                                         *)
(* ------------------------------------------------------------------ *)

let close_backend_fd b =
  (match b.b_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  b.b_fd <- None;
  b.b_rbuf <- iobuf_create 4096;
  b.b_wbuf <- iobuf_create 4096

(* the backend is gone: drop it from the ring and re-disposition every
   forward it owed.  Never-sent forwards re-route freely; sent ones get
   exactly one retry onto the new ring (decide is idempotent), a second
   loss is answered [error:backend_unavailable]. *)
let eject t b =
  if b.b_state = Up then begin
    b.b_state <- Ejected;
    b.b_probe <- None;
    b.b_backoff <- initial_backoff;
    b.b_next_try <- T.monotonic ();
    b.b_ejections <- b.b_ejections + 1;
    bump t (fun t -> t.s_ejections <- t.s_ejections + 1);
    T.incr c_ejections;
    close_backend_fd b;
    rebuild_ring t;
    let owed = Hashtbl.fold (fun _ f acc -> f :: acc) b.b_inflight [] in
    Hashtbl.reset b.b_inflight;
    let owed = ref owed in
    while not (FQ.is_empty b.b_queue) do
      owed := FQ.pop b.b_queue :: !owed
    done;
    List.iter
      (fun f ->
        let fail () =
          f.f_front.inflight <- f.f_front.inflight - 1;
          count_error t;
          answer f.f_front ~id:f.f_id (Protocol.Error "backend_unavailable")
        in
        if f.f_attempts = 0 || (t.cfg.retry && f.f_attempts = 1) then begin
          if f.f_attempts = 1 then begin
            bump t (fun t -> t.s_retries <- t.s_retries + 1);
            T.incr c_retries
          end;
          match route_fwd t f with Ok () -> () | Error _ -> fail ()
        end
        else fail ())
      !owed
  end

let adopt_results t =
  Mutex.lock t.m;
  let adopted = t.adopted in
  t.adopted <- [];
  Mutex.unlock t.m;
  List.iter
    (fun (idx, res) ->
      let b = t.backends.(idx) in
      b.b_connecting <- false;
      match res with
      | Ok fd ->
        if Atomic.get t.stop || b.b_state = Up then begin
          (* draining, or a duplicate dial raced a readmission *)
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          set_stream_opts b.b_addr fd;
          b.b_fd <- Some fd;
          b.b_state <- Up;
          b.b_backoff <- initial_backoff;
          b.b_probe <- None;
          b.b_last_probe <- T.monotonic ();
          bump t (fun t -> t.s_readmissions <- t.s_readmissions + 1);
          T.incr c_readmissions;
          rebuild_ring t
        end
      | Error _ ->
        b.b_backoff <- Float.min (b.b_backoff *. 2.) max_backoff;
        b.b_next_try <- T.monotonic () +. b.b_backoff)
    adopted

(* probes ride the forwarding connection, so an answered probe also
   vouches for the path the real traffic takes *)
let probe_seq = ref 0

let tick t now =
  Array.iter
    (fun b ->
      match b.b_state with
      | Up -> (
        match b.b_probe with
        | Some (_, sent) when now -. sent > t.cfg.probe_timeout -> eject t b
        | Some _ -> ()
        | None ->
          if now -. b.b_last_probe >= t.cfg.probe_interval then begin
            incr probe_seq;
            let id = Printf.sprintf "!p%x" !probe_seq in
            b.b_probe <- Some (id, now);
            b.b_last_probe <- now;
            iobuf_add_string b.b_wbuf (Protocol.encode_request_frame (Protocol.Health id))
          end)
      | Ejected ->
        if (not b.b_connecting) && (not (Atomic.get t.stop)) && now >= b.b_next_try
        then begin
          b.b_connecting <- true;
          Mutex.lock t.m;
          t.want <- b.b_idx :: t.want;
          Condition.signal t.cv;
          Mutex.unlock t.m
        end)
    t.backends

let prober t () =
  let rec loop () =
    Mutex.lock t.m;
    while t.want = [] && not t.prober_stop do
      Condition.wait t.cv t.m
    done;
    if t.prober_stop then Mutex.unlock t.m
    else begin
      let idx = List.hd t.want in
      t.want <- List.tl t.want;
      Mutex.unlock t.m;
      let b = t.backends.(idx) in
      (* blocking dial with the PR-8 timeout, off the loop thread; the
         negotiated fd is adopted by the loop (Client.fd), never rpc'd *)
      let res =
        match Client.connect ~version:2 ~timeout:t.cfg.connect_timeout b.b_addr with
        | Ok c -> Ok (Client.fd c)
        | Error e -> Error e
      in
      Mutex.lock t.m;
      t.adopted <- (idx, res) :: t.adopted;
      Mutex.unlock t.m;
      wake t.wake_w;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Stats and health                                                     *)
(* ------------------------------------------------------------------ *)

let health_of t =
  if Atomic.get t.stop then "draining"
  else if up_count t = 0 then "overloaded"
  else "ok"

let stats_doc t fronts =
  let uptime = T.monotonic () -. t.t0_mono in
  Mutex.lock t.m;
  let decides = t.s_decides
  and pings = t.s_pings
  and stats_rpc = t.s_stats_rpc
  and health_rpc = t.s_health_rpc in
  Mutex.unlock t.m;
  let live = List.filter (fun c -> not c.closed) fronts in
  let inflight =
    Array.fold_left (fun a bk -> a + Hashtbl.length bk.b_inflight) 0 t.backends
  in
  let queued = Array.fold_left (fun a bk -> a + FQ.length bk.b_queue) 0 t.backends in
  let backend bk =
    Printf.sprintf
      "{\"addr\":\"%s\",\"state\":\"%s\",\"inflight\":%d,\"queued\":%d,\"forwarded\":%d,\"ejections\":%d}"
      (Json.escape bk.b_name)
      (match bk.b_state with Up -> "up" | Ejected -> "ejected")
      (Hashtbl.length bk.b_inflight) (FQ.length bk.b_queue) bk.b_forwarded bk.b_ejections
  in
  let backends = String.concat "," (Array.to_list (Array.map backend t.backends)) in
  Stats_view.document ~health:(health_of t) ~window:t.window
    ~members:[ ("backends", "[" ^ backends ^ "]") ]
  @@ fun g ->
  let gi name v = g name (string_of_int v) in
  g "service.uptime_s" (Printf.sprintf "%.3f" uptime);
  gi "service.active_connections" (List.length live);
  gi "service.inflight" inflight;
  gi "service.backlog_bytes" (List.fold_left (fun a c -> a + c.wbuf.len) 0 live);
  gi "service.draining" (if Atomic.get t.stop then 1 else 0);
  gi "router.backends" (Array.length t.backends);
  gi "router.backends_up" (up_count t);
  gi "router.queued" queued;
  gi "service.verb.decide" decides;
  gi "service.verb.ping" pings;
  gi "service.verb.stats" stats_rpc;
  gi "service.verb.health" health_rpc

(* ------------------------------------------------------------------ *)
(* Front request handling                                               *)
(* ------------------------------------------------------------------ *)

(* one request from either wire, decoded by Evloop.read *)
let handle_front t fronts conn parsed =
  bump t (fun t -> t.s_requests <- t.s_requests + 1);
  T.incr c_requests;
  match parsed with
  | Error (e : Protocol.parse_error) ->
    count_error t;
    answer conn ~id:e.Protocol.err_id (Protocol.Error e.Protocol.err_reason)
  | Ok (Protocol.Ping id) ->
    bump t (fun t -> t.s_pings <- t.s_pings + 1);
    answer conn ~id Protocol.Pong
  | Ok (Protocol.Stats id) ->
    bump t (fun t -> t.s_stats_rpc <- t.s_stats_rpc + 1);
    answer conn ~id (Protocol.Stats_doc (stats_doc t fronts))
  | Ok (Protocol.Health id) ->
    bump t (fun t -> t.s_health_rpc <- t.s_health_rpc + 1);
    answer conn ~id (Protocol.Health_state (health_of t))
  | Ok (Protocol.Decide d) ->
    (* a /1 line can carry fields no /2 frame can (str16 caps each string
       at 65535 bytes and u32 each number, while lines run to max_rbuf);
       re-encoding such a decide for the backend wire would raise
       [Invalid_argument] out of the loop thread, or wrap a number (a
       budget of 2^32 + 1 would reach the backend as 1), so answer the
       protocol error here instead *)
    let long = function Some s -> String.length s > 0xffff | None -> false in
    let big = function Some n -> n > 0xffff_ffff | None -> false in
    if long (Some d.Protocol.protocol) || long (Some d.Protocol.graph) || long d.Protocol.trace
       || big (Some d.Protocol.max_configs) || big d.Protocol.deadline_ms
    then begin
      count_error t;
      answer conn ~id:d.Protocol.id
        (Protocol.Error
           (Printf.sprintf "decide field exceeds the %s limit (65535 bytes, 32-bit numbers)"
              Protocol.schema2))
    end
    else admit_decide t conn d

(* ------------------------------------------------------------------ *)
(* Backend responses                                                    *)
(* ------------------------------------------------------------------ *)

let relay_response t b payload =
  match Protocol.payload_id payload with
  | None -> eject t b  (* the stream is corrupt; resync by reconnecting *)
  | Some rid -> (
    match b.b_probe with
    | Some (pid, _) when pid = rid -> b.b_probe <- None
    | _ -> (
      match Hashtbl.find_opt b.b_inflight rid with
      | None -> ()  (* answer to a forward this conn no longer owes *)
      | Some fwd ->
        Hashtbl.remove b.b_inflight rid;
        retire_fwd t fwd;
        (match fwd.f_front.mode with
        | Binary ->
          (* raw pass-through: restore the client id, keep the body *)
          let body = Option.value ~default:"" (Protocol.payload_body payload) in
          append fwd.f_front
            (Protocol.reframe ~tag:(Protocol.payload_tag payload) ~id:fwd.f_id ~body)
        | Detecting | Json_lines -> (
          match Protocol.decode_response_payload payload with
          | Ok r -> respond fwd.f_front { r with Protocol.rid = fwd.f_id }
          | Error e ->
            answer fwd.f_front ~id:fwd.f_id
              (Protocol.Error ("router: backend response: " ^ e))));
        pump t b))

let parse_backend t b =
  let rec go () =
    match take_frame b.b_rbuf with
    | Frame payload ->
      relay_response t b payload;
      if b.b_state = Up then go ()
    | Partial -> ()
    | Bad_length _ -> eject t b
  in
  go ()

let read_backend t b =
  match b.b_fd with
  | None -> ()
  | Some fd -> (
    match fill fd b.b_rbuf with
    | `Data -> parse_backend t b
    | `Again -> ()
    | `Eof | `Error -> eject t b)

let flush_backend t b =
  match b.b_fd with
  | Some fd -> if not (write_out fd b.b_wbuf) then eject t b
  | None -> ()

let read_front t fronts conn =
  read conn ~on_request:(handle_front t fronts conn) ~on_crash:(fun e ->
      count_error t;
      "router: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The loop                                                             *)
(* ------------------------------------------------------------------ *)

let event_loop t listeners () =
  let fronts = ref [] in
  let room () = List.length !fronts < t.cfg.max_connections in
  let add conn =
    fronts := conn :: !fronts;
    bump t (fun t -> t.s_connections <- t.s_connections + 1)
  in
  let inflight_total () =
    Array.fold_left
      (fun a b -> a + Hashtbl.length b.b_inflight + FQ.length b.b_queue)
      0 t.backends
  in
  let rec loop () =
    let stopping = Atomic.get t.stop in
    if
      stopping
      && inflight_total () = 0
      && List.for_all (fun c -> c.wbuf.len = 0 || c.dead) !fronts
      && Array.for_all (fun b -> b.b_wbuf.len = 0 || b.b_state = Ejected) t.backends
    then ()  (* drained *)
    else begin
      let frfds, fwfds = select_sets !fronts in
      let rfds =
        t.wake_r
        :: ((if room () then List.map fst listeners else [])
           @ frfds
           @ (Array.to_list t.backends
             |> List.filter_map (fun b -> if b.b_state = Up then b.b_fd else None)))
      in
      let wfds =
        fwfds
        @ (Array.to_list t.backends
          |> List.filter_map (fun b ->
                 if b.b_state = Up && b.b_wbuf.len > 0 then b.b_fd else None))
      in
      (match Unix.select rfds wfds [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        if List.memq t.wake_r readable then drain_wake t.wake_r;
        adopt_results t;
        List.iter (fun l -> if List.memq (fst l) readable then accept l ~room add) listeners;
        Array.iter
          (fun b ->
            match b.b_fd with
            | Some fd when List.memq fd readable -> read_backend t b
            | _ -> ())
          t.backends;
        List.iter (fun c -> if List.memq c.fd readable then read_front t !fronts c) !fronts;
        tick t (T.monotonic ());
        Array.iter
          (fun b ->
            match b.b_fd with
            | Some fd when b.b_wbuf.len > 0 || List.memq fd writable -> flush_backend t b
            | _ -> ())
          t.backends;
        flush_ready !fronts writable;
        fronts := reap !fronts);
      loop ()
    end
  in
  loop ();
  close_listeners listeners;
  List.iter close_conn !fronts;
  Array.iter (fun b -> close_backend_fd b) t.backends

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start cfg =
  if cfg.listen = [] then Error "router: no listen addresses"
  else if cfg.backends = [] then Error "router: no backends"
  else begin
    let backends = List.sort_uniq compare cfg.backends in
    match
      check_fd_budget
        ~reserved:(List.length cfg.listen + 2 + List.length backends)
        cfg.max_connections
    with
    | Error e -> Error ("router: " ^ e)
    | Ok _ -> (
      let cfg =
        {
          cfg with
          backends;
          replicas = max 1 cfg.replicas;
          conn_limit = max 1 cfg.conn_limit;
          backend_window = max 1 cfg.backend_window;
          backend_backlog = max 1 cfg.backend_backlog;
          window_s = max 1 cfg.window_s;
        }
      in
      match bind_listeners cfg.listen with
      | Error _ as e -> e
      | Ok listeners ->
        let wake_r, wake_w = wake_pipe () in
        let now = T.monotonic () in
        let bks =
          Array.of_list cfg.backends
          |> Array.mapi (fun i addr ->
                 {
                   b_idx = i;
                   b_addr = addr;
                   b_name = Protocol.address_to_string addr;
                   b_state = Ejected;
                   b_fd = None;
                   b_rbuf = iobuf_create 4096;
                   b_wbuf = iobuf_create 4096;
                   b_inflight = Hashtbl.create 64;
                   b_queue = FQ.create ();
                   b_next_try = now;
                   b_backoff = initial_backoff;
                   b_connecting = false;
                   b_probe = None;
                   b_last_probe = now;
                   b_forwarded = 0;
                   b_ejections = 0;
                 })
        in
        (* dial every backend before serving: a live fleet is Up at
           return; an unreachable member starts ejected on its backoff
           schedule (never a startup error — the ring heals) *)
        Array.iter
          (fun b ->
            match Client.connect ~version:2 ~timeout:cfg.connect_timeout b.b_addr with
            | Ok c ->
              let fd = Client.fd c in
              set_stream_opts b.b_addr fd;
              b.b_fd <- Some fd;
              b.b_state <- Up
            | Error _ -> b.b_next_try <- T.monotonic () +. initial_backoff)
          bks;
        let t =
          {
            cfg;
            backends = bks;
            ring = Ring.make ~replicas:cfg.replicas [];
            stop = Atomic.make false;
            wake_r;
            wake_w;
            m = Mutex.create ();
            cv = Condition.create ();
            want = [];
            adopted = [];
            prober_stop = false;
            s_connections = 0;
            s_requests = 0;
            s_forwarded = 0;
            s_retries = 0;
            s_ejections = 0;
            s_readmissions = 0;
            s_rejected = 0;
            s_errors = 0;
            s_decides = 0;
            s_pings = 0;
            s_stats_rpc = 0;
            s_health_rpc = 0;
            rid_seq = 0;
            window = T.Window.create ~window_s:cfg.window_s "service.window.latency_ms";
            t0_mono = now;
            loop_thread = None;
            prober_thread = None;
          }
        in
        rebuild_ring t;
        t.prober_thread <- Some (Thread.create (prober t) ());
        t.loop_thread <- Some (Thread.create (event_loop t listeners) ());
        Ok t)
  end

let drain t =
  Atomic.set t.stop true;
  wake t.wake_w

let wait t =
  (match t.loop_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock t.m;
  t.prober_stop <- true;
  Condition.signal t.cv;
  Mutex.unlock t.m;
  (match t.prober_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  stats t
