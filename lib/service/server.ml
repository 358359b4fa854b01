module Store = Dda_batch.Store
module Batch = Dda_batch.Batch
module Spec = Dda_batch.Spec
module Decide = Dda_verify.Decide
module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
open Evloop

let c_conns = T.counter "service.connections"
let c_requests = T.counter "service.requests"
let c_hits = T.counter "service.hits"
let c_rejected = T.counter "service.rejected"
let c_bounded = T.counter "service.bounded"
let c_errors = T.counter "service.errors"
let c_qpeak = T.counter "service.queue.peak"
let h_latency = T.histogram "service.latency_ms"

type config = {
  addresses : Protocol.address list;
  cache : Store.t option;
  workers : int;
  queue_capacity : int;
  conn_limit : int;
  max_connections : int;
  max_configs_cap : int;
  default_deadline_ms : int option;
  window_s : int;
  access_log : string option;
  log_sample : int;
  slow_ms : float option;
}

let default_config =
  {
    addresses = [];
    cache = None;
    workers = 2;
    queue_capacity = 64;
    conn_limit = 8;
    max_connections = 512;
    max_configs_cap = 2_000_000;
    default_deadline_ms = None;
    window_s = 60;
    access_log = None;
    log_sample = 1;
    slow_ms = None;
  }

type stats = {
  connections : int;
  accepted : int;
  served : int;
  hits : int;
  computed : int;
  bounded : int;
  rejected : int;
  errors : int;
  pings : int;
}

type pending = {
  p_req : Protocol.decide;
  p_conn : conn;
  p_admitted : float;  (* monotonic: latency arithmetic only *)
  p_deadline : float option;  (* absolute wall-clock *)
}

(* A miss handed to a worker: the request's memoised plan runs there. *)
type work = { wk_pending : pending; wk_plan : Batch.plan }

type work_result =
  | W_decision of Batch.computed
  | W_deadline
  | W_error of string

(* Access-log line staging: a flat byte arena with a cursor.  [Buffer] plus
   [out_channel] costs close to a microsecond per line (channel locking,
   [Printf] float formatting), which is real money at memo-hit rates, so
   lines are formatted with hand-rolled primitives into this arena and
   shipped to the writer thread as whole chunks. *)
type al_arena = { mutable ab : Bytes.t; mutable ap : int }

type t = {
  cfg : config;
  work : work Queue.t;  (* loop -> workers *)
  done_q : (work * work_result) Queue.t;  (* workers -> loop *)
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers and [drain] nudge [select] *)
  wake_w : Unix.file_descr;
  m : Mutex.t;  (* guards the counters below (loop writes, [stats] reads) *)
  mutable s_connections : int;
  mutable s_accepted : int;
  mutable s_served : int;
  mutable s_hits : int;
  mutable s_computed : int;
  mutable s_bounded : int;
  mutable s_rejected : int;
  mutable s_errors : int;
  mutable s_pings : int;
  mutable s_decides : int;  (* decide requests seen (admitted or rejected) *)
  mutable s_stats_rpc : int;
  mutable s_health_rpc : int;
  mutable pending : int;  (* admitted but not yet answered; loop-owned *)
  t0_mono : float;  (* monotonic at start: uptime *)
  window : T.Window.t;  (* sliding latency window (ms) for live quantiles *)
  al_fd : Unix.file_descr option;  (* JSONL access log; writer thread writes *)
  al_arena : al_arena;  (* loop-thread line staging *)
  al_scratch : al_arena;  (* cached-timestamp formatting scratch *)
  al_chunks : string list Atomic.t;  (* full chunks: loop pushes, writer drains *)
  al_stop : bool Atomic.t;  (* loop exited: writer drains once more, ends *)
  mutable al_seq : int;  (* loggable requests seen, for --log-sample *)
  mutable al_ts : float;  (* wall second currently formatted in [al_ts_str] *)
  mutable al_ts_str : string;
  mutable al_now : float;  (* recent wall clock for log timestamps *)
  mutable al_round : int;  (* loop rounds, to throttle the clock read *)
  mutable al_last : float;  (* wall time (al_now) of the last chunk hand-off *)
  mutable al_writer : Thread.t option;
  mutable loop_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
}

let draining t = Atomic.get t.stop

let stats t =
  Mutex.lock t.m;
  let s =
    {
      connections = t.s_connections;
      accepted = t.s_accepted;
      served = t.s_served;
      hits = t.s_hits;
      computed = t.s_computed;
      bounded = t.s_bounded;
      rejected = t.s_rejected;
      errors = t.s_errors;
      pings = t.s_pings;
    }
  in
  Mutex.unlock t.m;
  s

let expired p now = match p.p_deadline with Some d -> now > d | None -> false

(* --- Access log ----------------------------------------------------- *)

let al_ensure a n =
  if a.ap + n > Bytes.length a.ab then begin
    let nb = Bytes.create (max (2 * Bytes.length a.ab) (a.ap + n)) in
    Bytes.blit a.ab 0 nb 0 a.ap;
    a.ab <- nb
  end

let al_s a s =
  let n = String.length s in
  al_ensure a n;
  Bytes.blit_string s 0 a.ab a.ap n;
  a.ap <- a.ap + n

let al_c a c =
  al_ensure a 1;
  Bytes.unsafe_set a.ab a.ap c;
  a.ap <- a.ap + 1

(* Fixed-point decimal append with [dp] fractional digits (clamped at 0 —
   the latency split is non-negative by construction).  [Printf.sprintf
   "%.3f"] three times per line costs more than a warm memo hit, so the
   digits are emitted by hand. *)
let al_fixed a v dp =
  let scale = if dp = 3 then 1_000 else 1_000_000 in
  let x = int_of_float ((v *. float_of_int scale) +. 0.5) in
  let x = if x < 0 then 0 else x in
  let ip0 = x / scale in
  let fp0 = x - (ip0 * scale) in
  al_ensure a 26;
  let nd = ref 1
  and p = ref 10 in
  while ip0 >= !p && !nd < 19 do
    incr nd;
    p := !p * 10
  done;
  let i = ref (a.ap + !nd - 1)
  and ip = ref ip0 in
  for _ = 1 to !nd do
    Bytes.unsafe_set a.ab !i (Char.unsafe_chr (48 + (!ip mod 10)));
    decr i;
    ip := !ip / 10
  done;
  a.ap <- a.ap + !nd;
  Bytes.unsafe_set a.ab a.ap '.';
  a.ap <- a.ap + 1;
  let j = ref (a.ap + dp - 1)
  and fp = ref fp0 in
  for _ = 1 to dp do
    Bytes.unsafe_set a.ab !j (Char.unsafe_chr (48 + (!fp mod 10)));
    decr j;
    fp := !fp / 10
  done;
  a.ap <- a.ap + dp

(* JSON string append for client-supplied bytes (request ids, trace ids):
   scan first and only pay [Json.escape] when a quote, backslash or
   control byte actually appears.  Server-chosen fields (verb, status,
   tier, fingerprint keys) are clean by construction and written raw. *)
let al_jstr a s =
  al_c a '"';
  let clean = ref true in
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    if c < 0x20 || c = 0x22 || c = 0x5c then clean := false
  done;
  if !clean then al_s a s else al_s a (Json.escape s);
  al_c a '"'

let rec al_push q s =
  let cur = Atomic.get q in
  if not (Atomic.compare_and_set q cur (s :: cur)) then al_push q s

(* hand the staged lines to the writer as one immutable chunk *)
let al_hand_off t =
  let a = t.al_arena in
  if a.ap > 0 then begin
    let s = Bytes.sub_string a.ab 0 a.ap in
    a.ap <- 0;
    al_push t.al_chunks s;
    t.al_last <- t.al_now
  end

(* Chunks are large because every [write] carries a fixed in-kernel cost
   (journal, block allocation) in the ~100us range, and on a small box that
   CPU time comes straight out of the serving budget: at 8KB chunks a busy
   log was measured costing ~5% of warm rps, at 64KB it disappears into the
   noise floor. *)
let al_chunk_bytes = 65536

(* The writer thread does nothing but blocking [Unix.write]s.  On a
   throttled disk an 8KB append can block for ~50us; a systhread in a
   blocking section releases the runtime lock for that wait, so the disk
   time overlaps with serving even on a single core.  (A writer {e domain}
   is measurably worse there: it joins every minor-GC sync.) *)
let al_writer_loop t () =
  match t.al_fd with
  | None -> ()
  | Some fd ->
    let write_all s =
      let n = String.length s in
      let rec w off =
        if off < n then
          match Unix.write_substring fd s off (n - off) with
          | k -> w (off + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> w off
          | exception Unix.Unix_error _ -> ()  (* sink gone: drop, keep serving *)
      in
      w 0
    in
    let rec go () =
      (* the loop thread is the only producer, so reversing one drained
         batch restores exact FIFO order *)
      let batch = List.rev (Atomic.exchange t.al_chunks []) in
      List.iter write_all batch;
      if Atomic.get t.al_stop then
        (* the loop handed off its last chunk before setting the flag *)
        List.iter write_all (List.rev (Atomic.exchange t.al_chunks []))
      else begin
        if batch = [] then Thread.delay 0.01;
        go ()
      end
    in
    go ()

(* One strict-JSON object per loggable request, formatted inline on the
   loop thread (~150ns) and shipped in chunks.  Loop-thread only, so the
   sample counter and the arena need no locking.  [--slow-ms] filters
   first; [--log-sample] then keeps every Nth of what survived, so the two
   compose (sample among the slow ones). *)
let log_line t ~verb ~id ?key ?tier ?trace ~status ~queue_ms ~compute_ms ~total_ms () =
  match t.al_fd with
  | None -> ()
  | Some _ ->
    let slow_ok = match t.cfg.slow_ms with None -> true | Some th -> total_ms >= th in
    if slow_ok then begin
      t.al_seq <- t.al_seq + 1;
      if t.cfg.log_sample <= 1 || t.al_seq mod t.cfg.log_sample = 0 then begin
        let a = t.al_arena in
        al_s a "{\"ts\":";
        (* wall clock, captured once per loop round and re-formatted only
           when it changes: correlates with external logs *)
        if t.al_now <> t.al_ts then begin
          t.al_ts <- t.al_now;
          t.al_scratch.ap <- 0;
          al_fixed t.al_scratch t.al_now 6;
          t.al_ts_str <- Bytes.sub_string t.al_scratch.ab 0 t.al_scratch.ap
        end;
        al_s a t.al_ts_str;
        al_s a ",\"verb\":\"";
        al_s a verb;
        al_s a "\",\"id\":";
        al_jstr a id;
        al_s a ",\"status\":\"";
        al_s a status;
        al_c a '"';
        (match key with
        | Some k ->
          al_s a ",\"key\":\"";
          al_s a k;
          al_c a '"'
        | None -> ());
        (match tier with
        | Some ti ->
          al_s a ",\"tier\":\"";
          al_s a ti;
          al_c a '"'
        | None -> ());
        (match trace with
        | Some tr ->
          al_s a ",\"trace\":";
          al_jstr a tr
        | None -> ());
        al_s a ",\"queue_ms\":";
        al_fixed a queue_ms 3;
        al_s a ",\"compute_ms\":";
        al_fixed a compute_ms 3;
        al_s a ",\"total_ms\":";
        al_fixed a total_ms 3;
        al_s a "}\n";
        if a.ap >= al_chunk_bytes then al_hand_off t
      end
    end

(* A response to an *admitted* request: retires it from the pending count
   and feeds stats, the latency window, telemetry and the access log.
   [compute_s] is the worker wall-clock (0 when none ran), subtracted from
   the total to report the queueing share.  [tier] names what answered a
   cached request (mem | disk | family | coalesced).  Loop-thread only. *)
let respond_admitted t p ?(compute_s = 0.) ?key ?tier status =
  let total_ms = (T.monotonic () -. p.p_admitted) *. 1000. in
  let queue_ms = Float.max 0. (total_ms -. (compute_s *. 1000.)) in
  respond p.p_conn { Protocol.rid = p.p_req.Protocol.id; status; queue_ms; total_ms };
  p.p_conn.inflight <- p.p_conn.inflight - 1;
  Mutex.lock t.m;
  t.pending <- t.pending - 1;
  t.s_served <- t.s_served + 1;
  (match status with
  | Protocol.Verdict v ->
    if v.cached then t.s_hits <- t.s_hits + 1 else t.s_computed <- t.s_computed + 1
  | Protocol.Bounded _ -> t.s_bounded <- t.s_bounded + 1
  | Protocol.Error _ -> t.s_errors <- t.s_errors + 1
  | Protocol.Rejected _ | Protocol.Pong | Protocol.Stats_doc _ | Protocol.Health_state _ -> ());
  Mutex.unlock t.m;
  T.Window.observe t.window total_ms;
  if T.enabled () then begin
    (match status with
    | Protocol.Verdict v -> if v.cached then T.incr c_hits
    | Protocol.Bounded _ -> T.incr c_bounded
    | Protocol.Error _ -> T.incr c_errors
    | _ -> ());
    T.observe h_latency (int_of_float total_ms);
    T.record_span "service.request"
      ~args:
        [ ("id", T.S p.p_req.Protocol.id); ("status", T.S (Protocol.status_name status)) ]
      ~seconds:(total_ms /. 1000.)
  end;
  log_line t ~verb:"decide" ~id:p.p_req.Protocol.id ?key
    ~tier:(Option.value ~default:"none" tier) ?trace:p.p_req.Protocol.trace
    ~status:(Protocol.status_name status) ~queue_ms ~compute_ms:(compute_s *. 1000.) ~total_ms ()

(* ------------------------------------------------------------------ *)
(* Workers: the only actors that explore                                 *)
(* ------------------------------------------------------------------ *)

let worker_loop t () =
  let rec loop () =
    match Queue.pop t.work with
    | None -> ()
    | Some w ->
      (* no store access here: workers never touch the cache — the loop
         thread records, so the store sees one writer per process *)
      let r =
        if expired w.wk_pending (Unix.gettimeofday ()) then W_deadline
        else
          match Batch.compute w.wk_plan with
          | Ok c -> W_decision c
          | Error msg -> W_error msg
          | exception e -> W_error (Printexc.to_string e)
      in
      Queue.force_push t.done_q (w, r);
      wake t.wake_w;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request handling (all on the loop thread)                             *)
(* ------------------------------------------------------------------ *)

(* the wire status of a decision, fresh or from a tier ([d.cached]) *)
let status_of_decision (d : Batch.decision) =
  match d.Batch.result with
  | Batch.Verdict v ->
    let verdict =
      match v with
      | Decide.Accepts -> "accepts"
      | Decide.Rejects -> "rejects"
      | Decide.Inconsistent _ -> "inconsistent"
    in
    Protocol.Verdict
      { verdict; cached = d.Batch.cached; configs = d.Batch.configs; seconds = d.Batch.seconds }
  | Batch.Bounded n -> Protocol.Bounded { reason = "budget"; configs = n }

(* workload diversity bounds the plan memo in practice; reset is the
   backstop against a client streaming unboundedly many distinct specs *)
let max_spec_memo = 8192

(* Everything the event loop owns and mutates without locking.  Bundled in
   one record (rather than threaded as separate arguments) because the
   [stats] verb needs a view over all of it — active connections, write
   backlogs — from inside request handling. *)
type loop_state = {
  ls_memo : (string * string list, string) Hashtbl.t;  (* (protocol, alphabet) -> machine fp *)
  ls_plans : (string, Batch.plan) Hashtbl.t;
      (* spec ident -> plan.  Building one costs a graph parse, a machine
         build and two fingerprints — far more than serving a warm hit — so
         the steady-state warm path never parses a spec at all. *)
  ls_waiters : (string, pending list) Hashtbl.t;  (* cache key -> coalesced misses *)
  mutable ls_conns : conn list;
}

let spec_ident (d : Protocol.decide) max_configs =
  String.concat "\x00"
    [ d.Protocol.protocol; d.Protocol.graph; Spec.regime_name d.Protocol.regime;
      string_of_int max_configs ]

let plan_of t ls (d : Protocol.decide) max_configs =
  let sid = spec_ident d max_configs in
  match Hashtbl.find_opt ls.ls_plans sid with
  | Some pl -> Ok pl
  | None ->
    let job =
      { Batch.protocol = d.Protocol.protocol; graph = d.Protocol.graph;
        regime = d.Protocol.regime; max_configs }
    in
    Result.map
      (fun pl ->
        if Hashtbl.length ls.ls_plans >= max_spec_memo then Hashtbl.reset ls.ls_plans;
        Hashtbl.add ls.ls_plans sid pl;
        pl)
      (Batch.resolve ?cache:t.cfg.cache ls.ls_memo job)

(* the cache key a plan is logged and coalesced under; none without a cache *)
let key_of t (pl : Batch.plan) = Option.map (fun _ -> pl.Batch.key) t.cfg.cache

let handle_incoming t ls p =
  let now = Unix.gettimeofday () in
  if expired p now then respond_admitted t p (Protocol.Bounded { reason = "deadline"; configs = 0 })
  else
    let max_configs = min p.p_req.Protocol.max_configs t.cfg.max_configs_cap in
    match plan_of t ls p.p_req max_configs with
    | Error msg -> respond_admitted t p (Protocol.Error msg)
    | Ok pl -> (
      let key = key_of t pl in
      match Option.bind t.cfg.cache (fun store -> Batch.lookup store pl) with
      | Some (e, tier) -> respond_admitted t p ?key ~tier:(Batch.tier_name tier)
          (status_of_decision (Batch.of_entry e))
      | None -> (
        let enqueue () = Queue.force_push t.work { wk_pending = p; wk_plan = pl } in
        match key with
        | Some k -> (
          (* coalesce identical concurrent misses: one computation per
             cache key in flight; everyone else waits for its result
             instead of occupying another worker *)
          match Hashtbl.find_opt ls.ls_waiters k with
          | Some l -> Hashtbl.replace ls.ls_waiters k (l @ [ p ])
          | None ->
            Hashtbl.add ls.ls_waiters k [];
            enqueue ())
        | None -> enqueue ()))

let handle_done t ls w r =
  let waiters = ls.ls_waiters in
  let p = w.wk_pending in
  let wkey = key_of t w.wk_plan in
  let coalesced =
    match wkey with
    | None -> []
    | Some key -> (
      match Hashtbl.find_opt waiters key with
      | None -> []
      | Some l ->
        Hashtbl.remove waiters key;
        l)
  in
  (* the computation never produced a result (deadline, exception): answer
     the primary, then promote the oldest still-live waiter to a fresh
     computation — its deadline may be laxer than the one that lapsed *)
  let requeue_waiters () =
    let rec go = function
      | [] -> ()
      | wp :: rest ->
        if expired wp (Unix.gettimeofday ()) then begin
          respond_admitted t wp (Protocol.Bounded { reason = "deadline"; configs = 0 });
          go rest
        end
        else begin
          Option.iter (fun k -> Hashtbl.add waiters k rest) wkey;
          Queue.force_push t.work { w with wk_pending = wp }
        end
    in
    go coalesced
  in
  match r with
  | W_deadline ->
    respond_admitted t p ?key:wkey (Protocol.Bounded { reason = "deadline"; configs = 0 });
    requeue_waiters ()
  | W_error msg ->
    respond_admitted t p ?key:wkey (Protocol.Error msg);
    requeue_waiters ()
  | W_decision ((d, _) as c) ->
    (* persist on the loop thread: the store never sees concurrent writers
       from this process (budget bounds are deterministic and cacheable;
       deadline expiries never reach this arm) *)
    Option.iter (fun store -> Batch.record store w.wk_plan c) t.cfg.cache;
    respond_admitted t p ~compute_s:d.Batch.seconds ?key:wkey (status_of_decision d);
    (* waiters are answered from the just-stored result — a cache hit in
       every observable sense (their own deadlines still apply) *)
    let waiter_status = status_of_decision { d with Batch.cached = true } in
    List.iter
      (fun wp ->
        if expired wp (Unix.gettimeofday ()) then
          respond_admitted t wp ?key:wkey (Protocol.Bounded { reason = "deadline"; configs = 0 })
        else respond_admitted t wp ?key:wkey ~tier:"coalesced" waiter_status)
      coalesced

let reject_now t conn (d : Protocol.decide) reason =
  Mutex.lock t.m;
  t.s_rejected <- t.s_rejected + 1;
  Mutex.unlock t.m;
  T.incr c_rejected;
  answer conn ~id:d.Protocol.id (Protocol.Rejected reason);
  log_line t ~verb:"decide" ~id:d.Protocol.id ?trace:d.Protocol.trace ~status:"rejected"
    ~queue_ms:0. ~compute_ms:0. ~total_ms:0. ()

(* --- Live stats (the dda.stats/1 document) ---------------------------- *)

(* Cheap by construction: three field reads, no allocation beyond the
   response itself, and never touches the work queue. *)
let health_of t =
  if Atomic.get t.stop then "draining"
  else if t.pending >= t.cfg.queue_capacity then "overloaded"
  else "ok"

(* Built inline on the loop thread, which owns [ls] — active connections
   and write backlogs are read race-free and the verb costs no worker
   round-trip.  Gauge names are registered in [Telemetry.Registry.gauges];
   [Telemetry.validate_stats] checks the whole document. *)
let stats_doc t ls =
  let uptime = T.monotonic () -. t.t0_mono in
  Mutex.lock t.m;
  let accepted = t.s_accepted
  and served = t.s_served
  and computed = t.s_computed
  and decides = t.s_decides
  and pings = t.s_pings
  and stats_rpc = t.s_stats_rpc
  and health_rpc = t.s_health_rpc in
  Mutex.unlock t.m;
  let live = List.filter (fun c -> not c.closed) ls.ls_conns in
  let active = List.length live in
  let backlog = List.fold_left (fun a c -> a + c.wbuf.len) 0 live in
  Stats_view.document ~health:(health_of t) ~window:t.window @@ fun g ->
  let gi name v = g name (string_of_int v) in
  g "service.uptime_s" (Printf.sprintf "%.3f" uptime);
  gi "service.active_connections" active;
  gi "service.queue_depth" (Queue.length t.work);
  gi "service.inflight" t.pending;
  gi "service.backlog_bytes" backlog;
  gi "service.draining" (if Atomic.get t.stop then 1 else 0);
  gi "service.accepted" accepted;
  gi "service.served" served;
  gi "service.computed" computed;
  gi "service.verb.decide" decides;
  gi "service.verb.ping" pings;
  gi "service.verb.stats" stats_rpc;
  gi "service.verb.health" health_rpc;
  (* external-memory engine residency: live while a budgeted decide runs *)
  gi "engine.resident_bytes" (Dda_verify.Arena.resident_bytes ());
  gi "engine.spill.segments" (Dda_verify.Arena.spill_segments ());
  (match t.cfg.cache with
  | None -> ()
  | Some store -> (
    match Store.memo_stats store with
    | None -> ()
    | Some ms ->
      gi "service.mem_cache.size" ms.Dda_batch.Lru.size;
      gi "service.mem_cache.capacity" ms.Dda_batch.Lru.capacity;
      gi "service.mem_cache.hits" ms.Dda_batch.Lru.hits;
      gi "service.mem_cache.misses" ms.Dda_batch.Lru.misses;
      gi "service.mem_cache.evictions" ms.Dda_batch.Lru.evictions;
      let looked = ms.Dda_batch.Lru.hits + ms.Dda_batch.Lru.misses in
      if looked > 0 then
        g "service.mem_cache.hit_rate"
          (Printf.sprintf "%.6f" (float_of_int ms.Dda_batch.Lru.hits /. float_of_int looked))))

let count_error t =
  Mutex.lock t.m;
  t.s_errors <- t.s_errors + 1;
  Mutex.unlock t.m;
  T.incr c_errors

(* One parsed (or unparsable) request from either wire format. *)
let handle_request t ls conn parsed =
  match parsed with
  | Error (e : Protocol.parse_error) ->
    count_error t;
    answer conn ~id:e.Protocol.err_id (Protocol.Error e.Protocol.err_reason);
    log_line t ~verb:"invalid" ~id:e.Protocol.err_id ~status:"error" ~queue_ms:0. ~compute_ms:0.
      ~total_ms:0. ()
  | Ok (Protocol.Ping id) ->
    Mutex.lock t.m;
    t.s_pings <- t.s_pings + 1;
    Mutex.unlock t.m;
    answer conn ~id Protocol.Pong;
    log_line t ~verb:"ping" ~id ~status:"pong" ~queue_ms:0. ~compute_ms:0. ~total_ms:0. ()
  | Ok (Protocol.Stats id) ->
    Mutex.lock t.m;
    t.s_stats_rpc <- t.s_stats_rpc + 1;
    Mutex.unlock t.m;
    answer conn ~id (Protocol.Stats_doc (stats_doc t ls));
    log_line t ~verb:"stats" ~id ~status:"stats" ~queue_ms:0. ~compute_ms:0. ~total_ms:0. ()
  | Ok (Protocol.Health id) ->
    Mutex.lock t.m;
    t.s_health_rpc <- t.s_health_rpc + 1;
    Mutex.unlock t.m;
    answer conn ~id (Protocol.Health_state (health_of t));
    log_line t ~verb:"health" ~id ~status:"health" ~queue_ms:0. ~compute_ms:0. ~total_ms:0. ()
  | Ok (Protocol.Decide d) -> (
    T.incr c_requests;
    Mutex.lock t.m;
    t.s_decides <- t.s_decides + 1;
    Mutex.unlock t.m;
    let now_wall = Unix.gettimeofday () in
    let deadline_ms =
      match d.Protocol.deadline_ms with Some ms -> Some ms | None -> t.cfg.default_deadline_ms
    in
    let p =
      {
        p_req = d;
        p_conn = conn;
        (* latency on the monotonic clock; the deadline stays wall-clock
           absolute (it is an externally-meaningful instant) *)
        p_admitted = T.monotonic ();
        p_deadline = Option.map (fun ms -> now_wall +. (float_of_int ms /. 1000.)) deadline_ms;
      }
    in
    (* admission control: the bound covers the whole backlog — queued AND
       being computed — and is enforced before any parsing of specs *)
    let admission =
      if Atomic.get t.stop then `Reject "draining"
      else if conn.inflight >= t.cfg.conn_limit then `Reject "connection_limit"
      else if t.pending >= t.cfg.queue_capacity then `Reject "queue_full"
      else begin
        Mutex.lock t.m;
        t.s_accepted <- t.s_accepted + 1;
        t.pending <- t.pending + 1;
        Mutex.unlock t.m;
        conn.inflight <- conn.inflight + 1;
        `Admitted t.pending
      end
    in
    match admission with
    | `Admitted depth ->
      if T.enabled () then begin
        T.max_gauge c_qpeak depth;
        T.emit_value "service.queue" depth
      end;
      handle_incoming t ls p
    | `Reject reason -> reject_now t conn d reason)

(* ------------------------------------------------------------------ *)
(* The event loop                                                        *)
(* ------------------------------------------------------------------ *)

let read_conn t ls conn =
  read conn ~on_request:(handle_request t ls conn) ~on_crash:(fun e ->
      count_error t;
      "server: " ^ Printexc.to_string e)

let event_loop t listeners () =
  let ls =
    {
      ls_memo = Hashtbl.create 16;
      ls_plans = Hashtbl.create 256;
      (* cache key -> admitted misses awaiting an identical in-flight
         computation; loop-private, so no locking *)
      ls_waiters = Hashtbl.create 16;
      ls_conns = [];
    }
  in
  let drain_done () =
    let rec go () =
      match Queue.try_pop t.done_q with
      | Some (w, r) ->
        handle_done t ls w r;
        go ()
      | None -> ()
    in
    go ()
  in
  let room () = List.length ls.ls_conns < t.cfg.max_connections in
  let add conn =
    ls.ls_conns <- conn :: ls.ls_conns;
    Mutex.lock t.m;
    t.s_connections <- t.s_connections + 1;
    Mutex.unlock t.m;
    T.incr c_conns
  in
  let rec loop () =
    let stopping = Atomic.get t.stop in
    (* listeners stay open while draining: new decide requests are
       rejected [draining], but health probes can still connect and watch
       the drain progress — the answered [health:"draining"] is how
       orchestrators distinguish a graceful exit from a hang *)
    if stopping && t.pending = 0 && List.for_all (fun c -> c.wbuf.len = 0 || c.dead) ls.ls_conns
    then ()  (* drained: every admitted request answered and flushed *)
    else begin
      (* past the connection cap, leave the listeners out of the select
         set: pending connects wait in the kernel backlog instead of
         pushing descriptors past the FD_SETSIZE budget *)
      let crfds, wfds = select_sets ls.ls_conns in
      let rfds = t.wake_r :: ((if room () then List.map fst listeners else []) @ crfds) in
      (match Unix.select rfds wfds [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        (* one wall-clock read covers every line this round logs *)
        (* ~ms-accurate is plenty for a log timestamp, so the wall clock is
           read every 32nd round rather than on each of the (very many)
           select returns *)
        (match t.al_fd with
        | Some _ ->
          t.al_round <- t.al_round + 1;
          if t.al_round land 31 = 0 then t.al_now <- Unix.gettimeofday ()
        | None -> ());
        if List.memq t.wake_r readable then drain_wake t.wake_r;
        (* retire completions first: frees admission slots before new reads *)
        drain_done ();
        List.iter (fun l -> if List.memq (fst l) readable then accept l ~room add) listeners;
        List.iter (fun c -> if List.memq c.fd readable then read_conn t ls c) ls.ls_conns;
        drain_done ();
        flush_ready ls.ls_conns writable;
        ls.ls_conns <- reap ls.ls_conns);
      (* staged access-log lines leave on size or age, so the writer gets
         few large chunks under load and `tail -f` stays live when idle *)
      (match t.al_fd with
      | Some _ when t.al_arena.ap > 0 ->
        if t.al_arena.ap >= al_chunk_bytes || t.al_now -. t.al_last > 0.25 then
          al_hand_off t
      | _ -> ());
      loop ()
    end
  in
  loop ();
  (* no admitted work remains; retire the workers, then the sockets *)
  Queue.close t.work;
  close_listeners listeners;
  List.iter close_conn ls.ls_conns;
  (* the writer sees the flag only after draining one more batch, so every
     chunk handed off before this point reaches the file before close *)
  al_hand_off t;
  Atomic.set t.al_stop true;
  (match t.al_writer with
  | Some th ->
    Thread.join th;
    t.al_writer <- None
  | None -> ());
  match t.al_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                             *)
(* ------------------------------------------------------------------ *)

let start cfg =
  if cfg.addresses = [] then Error "service: no listen addresses"
  else begin
    match
      (* reserved: one listener per address plus the wake pipe's two ends *)
      check_fd_budget ~reserved:(List.length cfg.addresses + 2) cfg.max_connections
    with
    | Error e -> Error ("service: " ^ e)
    | Ok _ ->
    match bind_listeners cfg.addresses with
    | Error _ as e -> e
    | Ok listeners -> (
      match
        (* append: an operator's log survives restarts; tests use fresh
           paths.  Opened before the actors so a bad path fails [start]. *)
        Option.map
          (fun path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644)
          cfg.access_log
      with
      | exception Unix.Unix_error (err, _, _) ->
        close_listeners listeners;
        Error ("access log: " ^ Unix.error_message err)
      | al_fd ->
        let wake_r, wake_w = wake_pipe () in
        let t =
          {
            cfg =
              {
                cfg with
                workers = max 1 cfg.workers;
                queue_capacity = max 1 cfg.queue_capacity;
                window_s = max 1 cfg.window_s;
                log_sample = max 1 cfg.log_sample;
              };
            work = Queue.create ~capacity:max_int;
            done_q = Queue.create ~capacity:max_int;
            stop = Atomic.make false;
            wake_r;
            wake_w;
            m = Mutex.create ();
            s_connections = 0;
            s_accepted = 0;
            s_served = 0;
            s_hits = 0;
            s_computed = 0;
            s_bounded = 0;
            s_rejected = 0;
            s_errors = 0;
            s_pings = 0;
            s_decides = 0;
            s_stats_rpc = 0;
            s_health_rpc = 0;
            pending = 0;
            t0_mono = T.monotonic ();
            window = T.Window.create ~window_s:(max 1 cfg.window_s) "service.window.latency_ms";
            al_fd;
            al_arena = { ab = Bytes.create (2 * al_chunk_bytes) ; ap = 0 };
            al_scratch = { ab = Bytes.create 32; ap = 0 };
            al_chunks = Atomic.make [];
            al_stop = Atomic.make false;
            al_seq = 0;
            al_ts = Float.nan (* forces the first timestamp format *);
            al_ts_str = "";
            al_now = Unix.gettimeofday ();
            al_round = 0;
            al_last = Unix.gettimeofday ();
            al_writer = None;
            loop_thread = None;
            worker_domains = [];
          }
        in
        (match t.al_fd with
        | Some _ -> t.al_writer <- Some (Thread.create (al_writer_loop t) ())
        | None -> ());
        t.worker_domains <- List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (worker_loop t));
        t.loop_thread <- Some (Thread.create (event_loop t listeners) ());
        Ok t)
  end

let drain t =
  Atomic.set t.stop true;
  wake t.wake_w

let wait t =
  (match t.loop_thread with Some th -> Thread.join th | None -> ());
  List.iter Domain.join t.worker_domains;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  stats t
