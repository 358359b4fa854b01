(* The verification service (lib/service): protocol round-trips and
   structured errors, the bounded admission queue, and live servers on
   throwaway Unix sockets — overload rejection, deadline expiry, and the
   no-drop guarantee of graceful drain. *)

module Sproto = Dda_service.Protocol
module Squeue = Dda_service.Queue
module Server = Dda_service.Server
module Client = Dda_service.Client
module Store = Dda_batch.Store
module Batch = Dda_batch.Batch
module Spec = Dda_batch.Spec

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- scratch dirs and sockets ---------------------------------------------- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_test_svc.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A server on a throwaway socket; drained and awaited on the way out so no
   worker domain survives the test. *)
let with_server cfg f =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "s.sock" in
  let cfg = { cfg with Server.addresses = [ Sproto.Unix_socket sock ] } in
  match Server.start cfg with
  | Error e -> Alcotest.failf "server failed to start: %s" e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () ->
        Server.drain srv;
        ignore (Server.wait srv);
        rm_rf dir)
      (fun () -> f sock srv)

(* ~0.2s of real exploration — long enough to hold a worker while a burst
   arrives, short enough to keep the suite quick *)
let slow_job =
  {
    Batch.protocol = "weak-majority-bounded:2";
    graph = "line:abbab";
    regime = Spec.Pseudo_stochastic;
    max_configs = 4_000_000;
  }

let quick_job =
  {
    Batch.protocol = "exists:a";
    graph = "cycle:abb";
    regime = Spec.Pseudo_stochastic;
    max_configs = 10_000;
  }

let decide_of ?deadline_ms ?trace ~id (job : Batch.job) =
  Sproto.Decide
    {
      Sproto.id;
      protocol = job.Batch.protocol;
      graph = job.Batch.graph;
      regime = job.Batch.regime;
      max_configs = job.Batch.max_configs;
      deadline_ms;
      trace;
    }

(* --- protocol: round-trips --------------------------------------------------- *)

let test_request_roundtrip () =
  let d =
    {
      Sproto.id = "r-1";
      protocol = "threshold:a,2";
      graph = "cycle:aab";
      regime = Spec.Adversarial;
      max_configs = 5000;
      deadline_ms = Some 250;
      trace = Some "t-42";
    }
  in
  (match Sproto.parse_request (Sproto.request_to_json (Sproto.Decide d)) with
  | Ok (Sproto.Decide d') ->
    Alcotest.(check string) "id" d.Sproto.id d'.Sproto.id;
    Alcotest.(check string) "protocol" d.Sproto.protocol d'.Sproto.protocol;
    Alcotest.(check string) "graph" d.Sproto.graph d'.Sproto.graph;
    Alcotest.(check bool) "regime" true (d'.Sproto.regime = Spec.Adversarial);
    Alcotest.(check int) "max_configs" 5000 d'.Sproto.max_configs;
    Alcotest.(check (option int)) "deadline" (Some 250) d'.Sproto.deadline_ms
  | Ok _ -> Alcotest.fail "decide parsed as something else"
  | Error e -> Alcotest.failf "decide round-trip failed: %s" e.Sproto.err_reason);
  (match Sproto.parse_request (Sproto.request_to_json (Sproto.Ping "p-7")) with
  | Ok (Sproto.Ping id) -> Alcotest.(check string) "ping id" "p-7" id
  | _ -> Alcotest.fail "ping round-trip failed");
  (* defaults: no regime/max_configs/deadline in the document *)
  match
    Sproto.parse_request ~default_max_configs:777
      {|{"schema":"dda.service/1","id":"d","op":"decide","protocol":"exists:a","graph":"cycle:abb"}|}
  with
  | Ok (Sproto.Decide d) ->
    Alcotest.(check bool) "default regime F" true (d.Sproto.regime = Spec.Pseudo_stochastic);
    Alcotest.(check int) "default budget" 777 d.Sproto.max_configs;
    Alcotest.(check (option int)) "no deadline" None d.Sproto.deadline_ms
  | _ -> Alcotest.fail "defaulting decide failed"

let response_roundtrip status =
  let r = { Sproto.rid = "x-1"; status; queue_ms = 1.5; total_ms = 3.25 } in
  match Sproto.parse_response (Sproto.response_to_json r) with
  | Ok r' ->
    Alcotest.(check string) "rid" "x-1" r'.Sproto.rid;
    Alcotest.(check string) "status kind" (Sproto.status_name status)
      (Sproto.status_name r'.Sproto.status)
  | Error e -> Alcotest.failf "%s response does not round-trip: %s" (Sproto.status_name status) e

let test_response_roundtrip () =
  response_roundtrip
    (Sproto.Verdict { verdict = "accepts"; cached = true; configs = 42; seconds = 0.007 });
  response_roundtrip (Sproto.Bounded { reason = "deadline"; configs = 0 });
  response_roundtrip (Sproto.Rejected "queue_full");
  response_roundtrip (Sproto.Error "graph: bad spec");
  response_roundtrip Sproto.Pong;
  (* payload fields survive *)
  match
    Sproto.parse_response
      (Sproto.response_to_json
         {
           Sproto.rid = "v";
           status = Sproto.Verdict { verdict = "rejects"; cached = true; configs = 9; seconds = 0.5 };
           queue_ms = 0.;
           total_ms = 1.;
         })
  with
  | Ok { Sproto.status = Sproto.Verdict v; _ } ->
    Alcotest.(check string) "verdict" "rejects" v.verdict;
    Alcotest.(check bool) "cached" true v.cached;
    Alcotest.(check int) "configs" 9 v.configs
  | _ -> Alcotest.fail "verdict payload lost"

let test_protocol_rejects () =
  let err line =
    match Sproto.parse_request line with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" line
    | Error e -> e
  in
  let e = err "not json at all" in
  Alcotest.(check bool) "malformed JSON reported" true (contains "malformed JSON" e.Sproto.err_reason);
  Alcotest.(check string) "no id recoverable" "" e.Sproto.err_id;
  let e = err {|{"schema":"dda.service/9","id":"z","op":"ping"}|} in
  Alcotest.(check bool) "unsupported schema reported" true
    (contains "unsupported schema" e.Sproto.err_reason);
  Alcotest.(check string) "id recovered from bad-schema request" "z" e.Sproto.err_id;
  let e = err {|{"id":"y","op":"ping"}|} in
  Alcotest.(check bool) "missing schema reported" true (contains "schema" e.Sproto.err_reason);
  let e = err {|{"schema":"dda.service/1","id":"u","op":"frobnicate"}|} in
  Alcotest.(check bool) "unknown op reported" true (contains "unknown op" e.Sproto.err_reason);
  let e =
    err {|{"schema":"dda.service/1","id":"m","op":"decide","graph":"cycle:abb"}|}
  in
  Alcotest.(check bool) "missing protocol reported" true (contains "protocol" e.Sproto.err_reason);
  let e =
    err
      {|{"schema":"dda.service/1","id":"b","op":"decide","protocol":"exists:a","graph":"cycle:abb","max_configs":-5}|}
  in
  Alcotest.(check bool) "bad budget reported" true (contains "max_configs" e.Sproto.err_reason);
  let e =
    err
      {|{"schema":"dda.service/1","id":"b","op":"decide","protocol":"exists:a","graph":"cycle:abb","deadline_ms":"soon"}|}
  in
  Alcotest.(check bool) "bad deadline reported" true (contains "deadline_ms" e.Sproto.err_reason)

let test_parse_address () =
  (match Sproto.parse_address "/tmp/x" with
  | Ok (Sproto.Unix_socket p) -> Alcotest.(check string) "path" "/tmp/x" p
  | _ -> Alcotest.fail "slash path is a unix socket");
  (match Sproto.parse_address "dda.sock" with
  | Ok (Sproto.Unix_socket _) -> ()
  | _ -> Alcotest.fail ".sock suffix is a unix socket");
  (match Sproto.parse_address "localhost:7777" with
  | Ok (Sproto.Tcp (h, p)) ->
    Alcotest.(check string) "host" "localhost" h;
    Alcotest.(check int) "port" 7777 p
  | _ -> Alcotest.fail "HOST:PORT is tcp");
  (match Sproto.parse_address "bare-name" with
  | Ok (Sproto.Unix_socket _) -> ()
  | _ -> Alcotest.fail "bare name defaults to a unix socket");
  (match Sproto.parse_address "[::1]:7777" with
  | Ok (Sproto.Tcp (h, p)) ->
    Alcotest.(check string) "v6 host" "::1" h;
    Alcotest.(check int) "v6 port" 7777 p
  | _ -> Alcotest.fail "bracketed IPv6 literal is tcp");
  Alcotest.(check bool) "empty rejected" true (Result.is_error (Sproto.parse_address ""));
  Alcotest.(check bool) "bad port rejected" true (Result.is_error (Sproto.parse_address "host:0"));
  Alcotest.(check bool) "no host rejected" true (Result.is_error (Sproto.parse_address ":99"));
  Alcotest.(check bool) "v6 without port rejected" true
    (Result.is_error (Sproto.parse_address "[::1]"));
  Alcotest.(check bool) "v6 with bad port rejected" true
    (Result.is_error (Sproto.parse_address "[::1]:x"))

(* --- the admission queue ----------------------------------------------------- *)

let test_queue_admission () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Squeue.capacity q);
  (match Squeue.try_push q 1 with `Ok d -> Alcotest.(check int) "depth 1" 1 d | _ -> Alcotest.fail "push 1");
  (match Squeue.try_push q 2 with `Ok d -> Alcotest.(check int) "depth 2" 2 d | _ -> Alcotest.fail "push 2");
  (match Squeue.try_push q 3 with
  | `Full -> ()
  | _ -> Alcotest.fail "third push must hit the admission bound");
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Squeue.pop q);
  (match Squeue.try_push q 4 with `Ok _ -> () | _ -> Alcotest.fail "room again after pop");
  Squeue.force_push q 5;
  Alcotest.(check int) "force_push goes past capacity" 3 (Squeue.length q);
  Squeue.close_intake q;
  (match Squeue.try_push q 6 with
  | `Closed -> ()
  | _ -> Alcotest.fail "try_push after close_intake");
  Squeue.force_push q 7 (* stragglers still land *);
  Squeue.close q;
  let rec drain acc = match Squeue.pop q with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "close drains in order then ends" [ 2; 4; 5; 7 ] (drain [])

let test_queue_cross_thread () =
  let q = Squeue.create ~capacity:1024 in
  let seen = ref 0 in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () = match Squeue.pop q with None -> () | Some _ -> incr seen; loop () in
        loop ())
      ()
  in
  for i = 1 to 500 do
    Squeue.force_push q i
  done;
  (* close wakes the blocked consumer after the backlog drains *)
  Squeue.close q;
  Thread.join consumer;
  Alcotest.(check int) "all items consumed" 500 !seen

(* --- live servers ------------------------------------------------------------ *)

let rpc_exn c req =
  match Client.rpc c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "rpc failed: %s" e

let test_serve_cold_then_warm () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store () = Store.open_ ~root:(Filename.concat dir "cache") () in
  let first =
    with_server { Server.default_config with cache = Some (store ()) } (fun sock srv ->
        let c = Result.get_ok (Client.connect (Sproto.Unix_socket sock)) in
        (match rpc_exn c (decide_of ~id:"q1" quick_job) with
        | { Sproto.status = Sproto.Verdict v; _ } ->
          Alcotest.(check string) "verdict" "accepts" v.verdict;
          Alcotest.(check bool) "cold is computed" false v.cached
        | r -> Alcotest.failf "unexpected status %s" (Sproto.status_name r.Sproto.status));
        (match rpc_exn c (decide_of ~id:"q2" quick_job) with
        | { Sproto.status = Sproto.Verdict v; _ } ->
          Alcotest.(check bool) "second request is a cache hit" true v.cached
        | r -> Alcotest.failf "unexpected status %s" (Sproto.status_name r.Sproto.status));
        (match rpc_exn c (Sproto.Ping "p") with
        | { Sproto.status = Sproto.Pong; _ } -> ()
        | _ -> Alcotest.fail "ping over the wire");
        Client.close c;
        Server.stats srv)
  in
  Alcotest.(check int) "accepted" 2 first.Server.accepted;
  Alcotest.(check int) "served" 2 first.Server.served;
  Alcotest.(check int) "hits" 1 first.Server.hits;
  Alcotest.(check int) "computed" 1 first.Server.computed;
  (* the cache outlives the server: a fresh instance answers warm *)
  with_server { Server.default_config with cache = Some (store ()) } (fun sock _srv ->
      let c = Result.get_ok (Client.connect (Sproto.Unix_socket sock)) in
      (match rpc_exn c (decide_of ~id:"q3" quick_job) with
      | { Sproto.status = Sproto.Verdict v; _ } ->
        Alcotest.(check bool) "warm across restarts" true v.cached
      | r -> Alcotest.failf "unexpected status %s" (Sproto.status_name r.Sproto.status));
      Client.close c)

(* Raw socket access, for pipelining bursts and sending garbage. *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (fd, Unix.in_channel_of_descr fd)

let raw_send fd lines =
  let s = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let raw_read_responses ic n =
  List.init n (fun _ ->
      match Sproto.parse_response (input_line ic) with
      | Ok r -> r
      | Error e -> Alcotest.failf "unparsable response: %s" e)

let test_malformed_over_wire () =
  with_server { Server.default_config with workers = 1 } (fun sock srv ->
      let fd, ic = raw_connect sock in
      raw_send fd [ "this is not json" ];
      (match raw_read_responses ic 1 with
      | [ { Sproto.status = Sproto.Error reason; Sproto.rid = ""; _ } ] ->
        Alcotest.(check bool) "reason names malformed JSON" true (contains "malformed JSON" reason)
      | _ -> Alcotest.fail "garbage must produce a structured error response");
      raw_send fd [ {|{"schema":"dda.service/9","id":"old","op":"ping"}|} ];
      (match raw_read_responses ic 1 with
      | [ { Sproto.status = Sproto.Error reason; Sproto.rid = "old"; _ } ] ->
        Alcotest.(check bool) "reason names the schema" true (contains "unsupported schema" reason)
      | _ -> Alcotest.fail "version mismatch must produce a structured error with the id");
      (* 2^61 x 4 cells wrap around to 0 = the label count: the spec check
         must refuse it before a grid is built on the loop thread *)
      raw_send fd
        [ Sproto.request_to_json
            (decide_of ~id:"huge" { quick_job with Batch.graph = "grid:2305843009213693952x4:" }) ];
      (match raw_read_responses ic 1 with
      | [ { Sproto.status = Sproto.Error reason; Sproto.rid = "huge"; _ } ] ->
        Alcotest.(check bool) "reason names the grid" true (contains "grid" reason)
      | _ -> Alcotest.fail "an overflowing grid must produce a structured error with the id");
      (* the connection survives bad input *)
      raw_send fd [ Sproto.request_to_json (Sproto.Ping "still-here") ];
      (match raw_read_responses ic 1 with
      | [ { Sproto.status = Sproto.Pong; Sproto.rid = "still-here"; _ } ] -> ()
      | _ -> Alcotest.fail "connection must survive malformed input");
      Unix.close fd;
      let s = Server.stats srv in
      Alcotest.(check int) "three errors counted" 3 s.Server.errors)

let test_queue_full_rejection () =
  with_server
    { Server.default_config with workers = 1; queue_capacity = 2; conn_limit = 64 }
    (fun sock srv ->
      let fd, ic = raw_connect sock in
      let burst =
        List.init 10 (fun i -> Sproto.request_to_json (decide_of ~id:(Printf.sprintf "b%d" i) slow_job))
      in
      raw_send fd burst;
      let responses = raw_read_responses ic 10 in
      let count p = List.length (List.filter p responses) in
      let rejected_full =
        count (fun r -> match r.Sproto.status with Sproto.Rejected "queue_full" -> true | _ -> false)
      in
      let ok = count (fun r -> match r.Sproto.status with Sproto.Verdict _ -> true | _ -> false) in
      Alcotest.(check int) "every request is answered" 10 (List.length responses);
      Alcotest.(check bool) "saturating burst is rejected with queue_full" true (rejected_full > 0);
      Alcotest.(check bool) "admitted requests still complete" true (ok > 0);
      Alcotest.(check int) "admitted + rejected account for the burst" 10 (ok + rejected_full);
      Unix.close fd;
      let s = Server.stats srv in
      Alcotest.(check int) "stats agree on rejections" rejected_full s.Server.rejected;
      Alcotest.(check bool) "admissions bounded by the queue" true (s.Server.accepted <= 3))

let test_conn_limit_rejection () =
  with_server
    { Server.default_config with workers = 1; queue_capacity = 64; conn_limit = 2 }
    (fun sock _srv ->
      let fd, ic = raw_connect sock in
      let burst =
        List.init 8 (fun i -> Sproto.request_to_json (decide_of ~id:(Printf.sprintf "c%d" i) slow_job))
      in
      raw_send fd burst;
      let responses = raw_read_responses ic 8 in
      let limited =
        List.length
          (List.filter
             (fun r ->
               match r.Sproto.status with Sproto.Rejected "connection_limit" -> true | _ -> false)
             responses)
      in
      Alcotest.(check bool) "per-connection limit enforced" true (limited > 0);
      Unix.close fd)

let test_deadline_expires_queued () =
  with_server { Server.default_config with workers = 1 } (fun sock _srv ->
      let fd, ic = raw_connect sock in
      (* the slow job occupies the only worker; the quick one's 1ms deadline
         is long gone when a worker finally picks it up *)
      raw_send fd
        [
          Sproto.request_to_json (decide_of ~id:"slow" slow_job);
          Sproto.request_to_json (decide_of ~id:"urgent" ~deadline_ms:1 quick_job);
        ];
      let responses = raw_read_responses ic 2 in
      let by_id id = List.find (fun r -> r.Sproto.rid = id) responses in
      (match (by_id "slow").Sproto.status with
      | Sproto.Verdict _ -> ()
      | s -> Alcotest.failf "slow request should complete, got %s" (Sproto.status_name s));
      (match (by_id "urgent").Sproto.status with
      | Sproto.Bounded b ->
        Alcotest.(check string) "deadline expiry is a bounded-out" "deadline" b.reason
      | s -> Alcotest.failf "expired request should bound out, got %s" (Sproto.status_name s));
      Unix.close fd)

(* A client that hangs up while its request is still computing: the reader
   sees EOF with work in flight, so the fd must stay open (and un-recycled)
   until the dispatcher retires the request, and the server must neither
   crash nor leak the admission slot. *)
let test_hangup_mid_request () =
  with_server { Server.default_config with workers = 1 } (fun sock srv ->
      let fd, _ic = raw_connect sock in
      raw_send fd [ Sproto.request_to_json (decide_of ~id:"gone" slow_job) ];
      (* let the connection thread admit it, then pull the plug while the
         worker is still exploring *)
      Thread.delay 0.05;
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_served () =
        let s = Server.stats srv in
        if s.Server.served >= 1 then s
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "admitted request never retired after client hangup"
        else begin
          Thread.delay 0.02;
          wait_served ()
        end
      in
      let s = wait_served () in
      Alcotest.(check int) "admitted" 1 s.Server.accepted;
      Alcotest.(check int) "retired (only the reply is lost)" 1 s.Server.served)

(* One worker, one connection, a burst of identical cold misses: exactly
   one computation runs; the rest coalesce onto it and come back as cache
   hits. *)
let test_coalesced_misses () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") () in
  with_server
    { Server.default_config with cache = Some store; workers = 1; conn_limit = 16 }
    (fun sock srv ->
      let fd, ic = raw_connect sock in
      let burst =
        List.init 6 (fun i ->
            Sproto.request_to_json (decide_of ~id:(Printf.sprintf "co%d" i) slow_job))
      in
      raw_send fd burst;
      let responses = raw_read_responses ic 6 in
      List.iter
        (fun r ->
          match r.Sproto.status with
          | Sproto.Verdict _ -> ()
          | s -> Alcotest.failf "%s: expected a verdict, got %s" r.Sproto.rid (Sproto.status_name s))
        responses;
      let cached =
        List.length
          (List.filter
             (fun r -> match r.Sproto.status with Sproto.Verdict v -> v.cached | _ -> false)
             responses)
      in
      Alcotest.(check int) "five answered from the one computation" 5 cached;
      Unix.close fd;
      (* the last response line can reach us before its stats update lands *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec settled () =
        let s = Server.stats srv in
        if s.Server.served >= 6 || Unix.gettimeofday () > deadline then s
        else begin
          Thread.delay 0.01;
          settled ()
        end
      in
      let s = settled () in
      Alcotest.(check int) "computed once" 1 s.Server.computed;
      Alcotest.(check int) "hits" 5 s.Server.hits)

let test_drain_no_drop () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Server.default_config with
      addresses = [ Sproto.Unix_socket sock ];
      workers = 2;
      conn_limit = 16;
    }
  in
  let srv = match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e in
  let fd, ic = raw_connect sock in
  let burst =
    List.init 6 (fun i -> Sproto.request_to_json (decide_of ~id:(Printf.sprintf "d%d" i) slow_job))
  in
  raw_send fd burst;
  (* let the connection thread admit the burst, then pull the plug *)
  Thread.delay 0.1;
  Server.drain srv;
  Alcotest.(check bool) "draining" true (Server.draining srv);
  let s = Server.wait srv in
  Alcotest.(check int) "everything admitted" 6 s.Server.accepted;
  Alcotest.(check int) "no accepted request dropped" s.Server.accepted s.Server.served;
  (* every response was written before wait returned *)
  let responses = raw_read_responses ic 6 in
  List.iter
    (fun r ->
      match r.Sproto.status with
      | Sproto.Verdict _ -> ()
      | st -> Alcotest.failf "%s: expected a verdict after drain, got %s" r.Sproto.rid
                (Sproto.status_name st))
    responses;
  Unix.close fd;
  (* the listener is gone: new connections are refused *)
  (match Client.connect (Sproto.Unix_socket sock) with
  | Ok c ->
    Client.close c;
    Alcotest.fail "connect must fail after drain"
  | Error _ -> ())

(* regression: glibc select() silently ignores fds >= FD_SETSIZE (1024),
   so a connection cap that could push descriptors past it must be a
   clear startup error, never a wedged loop *)
let test_max_connections_clamp () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Server.default_config with
      addresses = [ Sproto.Unix_socket sock ];
      max_connections = 5000;
    }
  in
  (match Server.start cfg with
  | Ok srv ->
    Server.drain srv;
    ignore (Server.wait srv);
    Alcotest.fail "a cap past FD_SETSIZE must fail startup"
  | Error e ->
    Alcotest.(check bool) (Printf.sprintf "error names the budget (%s)" e) true
      (contains "FD_SETSIZE" e));
  (* the largest admissible cap still starts *)
  let ok_cap =
    Dda_service.Evloop.fd_setsize - Dda_service.Evloop.fd_headroom - 3 (* 1 listener + wake pipe *)
  in
  match Server.start { cfg with max_connections = ok_cap } with
  | Error e -> Alcotest.failf "cap %d must start: %s" ok_cap e
  | Ok srv ->
    Server.drain srv;
    ignore (Server.wait srv)

(* regression: a peer that completes the TCP handshake (via the kernel
   backlog of a bound-but-never-accepting listener) but never speaks used
   to hang [Client.connect ~version:2] forever in the negotiation read;
   [?timeout] must bound the whole call *)
let test_connect_timeout () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let mono = Dda_telemetry.Telemetry.monotonic in
  let t0 = mono () in
  (match Client.connect ~version:2 ~timeout:0.3 (Sproto.Tcp ("127.0.0.1", port)) with
  | Ok c ->
    Client.close c;
    Alcotest.fail "connect must not succeed against a silent peer"
  | Error e ->
    Alcotest.(check bool) (Printf.sprintf "error mentions the timeout (%s)" e) true
      (contains "timed out" e));
  let dt = mono () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "returned promptly (%.2fs)" dt) true (dt < 5.);
  (* a live server inside the budget still connects *)
  with_server { Server.default_config with workers = 1 } (fun sock _srv ->
      match Client.connect ~version:2 ~timeout:2. (Sproto.Unix_socket sock) with
      | Ok c ->
        (match Client.ping c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "ping over timed connect: %s" e);
        Client.close c
      | Error e -> Alcotest.failf "timed connect to a live server: %s" e)

(* regression: on Linux a non-blocking connect to a unix socket whose
   listen backlog is full fails with EAGAIN — there is no pending attempt.
   Folding that into the EINPROGRESS wait made [connect ~timeout] report
   success on an unconnected socket (select: writable, getsockopt_error:
   nothing), and the failure resurfaced later as a baffling ENOTCONN.
   It must be a prompt hard error instead. *)
let test_unix_backlog_full () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let sock = Filename.concat dir "full.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 0;  (* bound but never accepting: the backlog fills at once *)
  let mono = Dda_telemetry.Telemetry.monotonic in
  let t0 = mono () in
  let pending = ref [] in
  let failure = ref None in
  (* each connect either parks in the kernel backlog (Ok) or — once the
     backlog is full — must fail immediately, well before the timeout *)
  Fun.protect ~finally:(fun () -> List.iter Client.close !pending)
  @@ fun () ->
  for _ = 1 to 32 do
    if !failure = None then
      match Client.connect ~timeout:5.0 (Sproto.Unix_socket sock) with
      | Ok c -> pending := c :: !pending
      | Error e -> failure := Some e
  done;
  let dt = mono () -. t0 in
  match !failure with
  | None -> Alcotest.fail "connects kept 'succeeding' against a full backlog"
  | Some e ->
    Alcotest.(check bool) (Printf.sprintf "hard failure, not a timeout (%s)" e) true
      (not (contains "timed out" e));
    Alcotest.(check bool) (Printf.sprintf "returned promptly (%.2fs)" dt) true (dt < 2.5)

(* --- dda.service/2: binary frames -------------------------------------------- *)

let strip_header frame = String.sub frame 4 (String.length frame - 4)

let test_v2_frame_roundtrip () =
  (* requests, with and without a deadline *)
  let d =
    {
      Sproto.id = "r2-1";
      protocol = "threshold:a,2";
      graph = "cycle:aab";
      regime = Spec.Adversarial;
      max_configs = 5000;
      deadline_ms = Some 250;
      trace = Some "t2-9";
    }
  in
  (match Sproto.decode_request_payload (strip_header (Sproto.encode_request_frame (Sproto.Decide d))) with
  | Ok (Sproto.Decide d') ->
    Alcotest.(check string) "id" d.Sproto.id d'.Sproto.id;
    Alcotest.(check string) "protocol" d.Sproto.protocol d'.Sproto.protocol;
    Alcotest.(check string) "graph" d.Sproto.graph d'.Sproto.graph;
    Alcotest.(check bool) "regime" true (d'.Sproto.regime = Spec.Adversarial);
    Alcotest.(check int) "max_configs" 5000 d'.Sproto.max_configs;
    Alcotest.(check (option int)) "deadline" (Some 250) d'.Sproto.deadline_ms
  | Ok _ -> Alcotest.fail "decide frame decoded as something else"
  | Error e -> Alcotest.failf "decide frame round-trip: %s" e.Sproto.err_reason);
  (match
     Sproto.decode_request_payload
       (strip_header (Sproto.encode_request_frame (Sproto.Decide { d with deadline_ms = None })))
   with
  | Ok (Sproto.Decide d') -> Alcotest.(check (option int)) "no deadline" None d'.Sproto.deadline_ms
  | _ -> Alcotest.fail "deadline-free decide frame");
  (match Sproto.decode_request_payload (strip_header (Sproto.encode_request_frame (Sproto.Ping "p2"))) with
  | Ok (Sproto.Ping id) -> Alcotest.(check string) "ping id" "p2" id
  | _ -> Alcotest.fail "ping frame round-trip");
  (* a wire budget of 0 takes the server default *)
  (match
     Sproto.decode_request_payload ~default_max_configs:777
       (strip_header (Sproto.encode_request_frame (Sproto.Decide { d with max_configs = 0 })))
   with
  | Ok (Sproto.Decide d') -> Alcotest.(check int) "0 budget defaulted" 777 d'.Sproto.max_configs
  | _ -> Alcotest.fail "defaulting decide frame");
  (* responses: every status shape *)
  let resp status = { Sproto.rid = "x-2"; status; queue_ms = 1.5; total_ms = 3.25 } in
  List.iter
    (fun status ->
      match Sproto.decode_response_payload (strip_header (Sproto.encode_response_frame (resp status))) with
      | Ok r' ->
        Alcotest.(check string) "rid" "x-2" r'.Sproto.rid;
        Alcotest.(check string) "status kind" (Sproto.status_name status)
          (Sproto.status_name r'.Sproto.status)
      | Error e -> Alcotest.failf "%s response frame: %s" (Sproto.status_name status) e)
    [
      Sproto.Verdict { verdict = "accepts"; cached = true; configs = 42; seconds = 0.007 };
      Sproto.Bounded { reason = "deadline"; configs = 0 };
      Sproto.Rejected "queue_full";
      Sproto.Error "graph: bad spec";
      Sproto.Pong;
    ];
  (* verdict payload fields survive, including timing *)
  (match
     Sproto.decode_response_payload
       (strip_header
          (Sproto.encode_response_frame
             (resp (Sproto.Verdict { verdict = "rejects"; cached = true; configs = 9; seconds = 0.5 }))))
   with
  | Ok { Sproto.status = Sproto.Verdict v; queue_ms; total_ms; _ } ->
    Alcotest.(check string) "verdict" "rejects" v.verdict;
    Alcotest.(check bool) "cached" true v.cached;
    Alcotest.(check int) "configs" 9 v.configs;
    Alcotest.(check (float 1e-9)) "queue_ms" 1.5 queue_ms;
    Alcotest.(check (float 1e-9)) "total_ms" 3.25 total_ms
  | _ -> Alcotest.fail "verdict frame payload lost");
  (* junk payloads are structured errors, never exceptions *)
  List.iter
    (fun junk ->
      match Sproto.decode_request_payload junk with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "junk payload %S must not decode" junk)
    [ ""; "\x00"; "\xff\xff\xff\xff"; String.make 64 '\x07'; "\x01\xff\xff" ]

(* Raw /2 access: negotiate by hand, speak frames directly. *)
let raw_send_str fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let raw_connect_v2 sock =
  let fd, ic = raw_connect sock in
  raw_send_str fd Sproto.magic;
  let hello = really_input_string ic 4 in
  Alcotest.(check string) "server echoes the magic" Sproto.magic hello;
  (fd, ic)

let read_response_frame ic =
  let n = Sproto.frame_length (really_input_string ic 4) in
  Alcotest.(check bool) "response frame length sane" true (n >= 1 && n <= Sproto.max_frame);
  match Sproto.decode_response_payload (really_input_string ic n) with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response frame: %s" e

let test_v2_negotiation () =
  with_server Server.default_config (fun sock _srv ->
      (* byte-by-byte magic: the server must wait on a strict prefix
         rather than misread it as a JSON line *)
      let fd, ic = raw_connect sock in
      raw_send_str fd "DD";
      Thread.delay 0.05;
      raw_send_str fd "A2";
      Alcotest.(check string) "split magic still negotiates" Sproto.magic
        (really_input_string ic 4);
      raw_send_str fd (Sproto.encode_request_frame (Sproto.Ping "split"));
      (match read_response_frame ic with
      | { Sproto.status = Sproto.Pong; rid = "split"; _ } -> ()
      | _ -> Alcotest.fail "binary ping after split negotiation");
      (* a /1 connection coexists on the same server *)
      let fd1, ic1 = raw_connect sock in
      raw_send fd1 [ Sproto.request_to_json (Sproto.Ping "json") ];
      (match raw_read_responses ic1 1 with
      | [ { Sproto.status = Sproto.Pong; rid = "json"; _ } ] -> ()
      | _ -> Alcotest.fail "JSON ping beside a binary connection");
      (* a full decide over /2 *)
      raw_send_str fd (Sproto.encode_request_frame (decide_of ~id:"v2d" quick_job));
      (match read_response_frame ic with
      | { Sproto.status = Sproto.Verdict v; rid = "v2d"; _ } ->
        Alcotest.(check string) "verdict over /2" "accepts" v.verdict
      | r -> Alcotest.failf "unexpected /2 status %s" (Sproto.status_name r.Sproto.status));
      Unix.close fd1;
      Unix.close fd)

let test_v2_malformed_frames () =
  with_server Server.default_config (fun sock srv ->
      let fd, ic = raw_connect_v2 sock in
      (* well-delimited frames around junk payloads: each one is answered
         with an error frame and the connection survives *)
      Random.self_init ();
      let seed = Random.int 0x3FFFFFFF in
      Random.init seed;
      let frame_of payload =
        let b = Buffer.create (4 + String.length payload) in
        Buffer.add_uint8 b (String.length payload lsr 24 land 0xff);
        Buffer.add_uint8 b (String.length payload lsr 16 land 0xff);
        Buffer.add_uint8 b (String.length payload lsr 8 land 0xff);
        Buffer.add_uint8 b (String.length payload land 0xff);
        Buffer.add_string b payload;
        Buffer.contents b
      in
      let junk_payloads =
        List.init 20 (fun i ->
            (* opcode 0xfe is never valid, so random tails stay junk *)
            "\xfe" ^ String.init (1 + ((i * 7) mod 40)) (fun _ -> Char.chr (Random.int 256)))
      in
      List.iter (fun p -> raw_send_str fd (frame_of p)) junk_payloads;
      List.iter
        (fun _ ->
          match read_response_frame ic with
          | { Sproto.status = Sproto.Error _; _ } -> ()
          | r ->
            Alcotest.failf "junk frame (seed %d) must be a structured error, got %s" seed
              (Sproto.status_name r.Sproto.status))
        junk_payloads;
      raw_send_str fd (Sproto.encode_request_frame (Sproto.Ping "alive"));
      (match read_response_frame ic with
      | { Sproto.status = Sproto.Pong; rid = "alive"; _ } -> ()
      | _ -> Alcotest.fail "connection must survive junk frames");
      let s = Server.stats srv in
      Alcotest.(check int) "junk frames counted as errors" (List.length junk_payloads)
        s.Server.errors;
      (* an out-of-range length prefix is fatal: one final error frame,
         then the server closes the connection *)
      raw_send_str fd "\x7f\xff\xff\xff";
      (match read_response_frame ic with
      | { Sproto.status = Sproto.Error reason; _ } ->
        Alcotest.(check bool) "reason names the frame length" true (contains "frame" reason)
      | _ -> Alcotest.fail "oversize frame must be answered before closing");
      (match really_input_string ic 1 with
      | _ -> Alcotest.fail "server must close after a framing error"
      | exception End_of_file -> ());
      Unix.close fd)

(* --- the shared connection codec, driven without sockets ------------------- *)

module Evloop = Dda_service.Evloop

(* Push [stream] through a fresh connection in chunks of the given sizes
   (the remainder in one piece), as the event loop would, stopping once
   the codec sets [eof].  The descriptor is never touched by [feed]. *)
let feed_in_chunks stream sizes =
  let c = Evloop.conn Unix.stdin in
  let got = ref [] in
  let on_line l = got := ("line", l) :: !got
  and on_frame p = got := ("frame", p) :: !got in
  let n = String.length stream in
  let rec go pos sizes =
    if pos < n && not c.Evloop.eof then begin
      let k, rest = match sizes with [] -> (n - pos, []) | k :: rest -> (min k (n - pos), rest) in
      Evloop.iobuf_add_string c.Evloop.rbuf (String.sub stream pos k);
      Evloop.feed c ~on_line ~on_frame;
      go (pos + k) rest
    end
  in
  go 0 sizes;
  let w = c.Evloop.wbuf in
  (List.rev !got, Bytes.sub_string w.Evloop.buf w.Evloop.off w.Evloop.len, c.Evloop.eof)

let codec_request =
  QCheck.Gen.(
    let str = string_size ~gen:printable (int_bound 24) in
    oneof
      [
        map (fun id -> Sproto.Ping id) str;
        map (fun id -> Sproto.Health id) str;
        map (fun id -> Sproto.Stats id) str;
        map
          (fun ((id, protocol, graph), (regime, max_configs, deadline_ms, trace)) ->
            Sproto.Decide { Sproto.id; protocol; graph; regime; max_configs; deadline_ms; trace })
          (pair (triple str str str)
             (quad
                (oneofl [ Spec.Adversarial; Spec.Pseudo_stochastic ])
                (int_bound 1_000_000) (opt (int_bound 60_000)) (opt str)));
      ])

(* What follows the requests: nothing, blank /1 lines (skipped), or a
   fatal /2 framing error — a length of 0 or past the frame cap followed
   by junk.  The /1 fatal tail, an 8 MiB line, is its own case below. *)
type codec_tail = Clean | Blank_lines | Fatal of int

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let codec_stream binary units tail =
  (if binary then Sproto.magic else "")
  ^ String.concat "" (List.map (fun u -> if binary then u32 (String.length u) ^ u else u ^ "\n") units)
  ^
  match tail with
  | Clean -> ""
  | Blank_lines -> if binary then "" else "\n  \n"
  | Fatal k -> u32 [| 0; Sproto.max_frame + 1; Sproto.max_frame + 2; 0xffff_ffff |].(k) ^ "junk"

(* exactly one error response, with no id *)
let lone_error binary out =
  let is_error = function Ok { Sproto.status = Sproto.Error _; rid = ""; _ } -> true | _ -> false in
  if binary then
    String.length out >= 4
    &&
    let n = Sproto.frame_length (String.sub out 0 4) in
    String.length out = 4 + n && is_error (Sproto.decode_response_payload (String.sub out 4 n))
  else
    match String.split_on_char '\n' out with
    | [ line; "" ] -> is_error (Sproto.parse_response line)
    | _ -> false

(* (binary?, requests, tail, chunk sizes): small chunks dominate, so
   1-byte splits land inside the magic and inside frame headers; only /2
   streams end in a fatal tail *)
let codec_case =
  QCheck.Gen.(
    bool >>= fun binary ->
    quad (return binary)
      (list_size (int_bound 8) codec_request)
      (frequency
         ([ (2, return Clean); (1, return Blank_lines) ]
         @ if binary then [ (1, map (fun k -> Fatal k) (int_bound 3)) ] else []))
      (list_size (int_bound 60)
         (frequency [ (3, return 1); (2, int_range 1 4); (1, int_range 1 80) ])))

let test_codec_chunking =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4_000 ~name:"codec: any chunking = whole feed" (QCheck.make codec_case)
       (fun (binary, reqs, tail, sizes) ->
         let units =
           List.map
             (fun r ->
               if binary then
                 let f = Sproto.encode_request_frame r in
                 String.sub f 4 (String.length f - 4)
               else Sproto.request_to_json r)
             reqs
         in
         let stream = codec_stream binary units tail in
         let ((got, out, eof) as chunked) = feed_in_chunks stream sizes in
         let fatal = match tail with Fatal _ -> true | Clean | Blank_lines -> false in
         let echo = if binary then Sproto.magic else "" in
         let echoed = String.sub out 0 (min (String.length out) (String.length echo)) in
         let responses = String.sub out (String.length echoed) (String.length out - String.length echoed) in
         chunked = feed_in_chunks stream []
         && List.map snd got = units
         && List.for_all (fun (k, _) -> k = if binary then "frame" else "line") got
         && echoed = echo
         && eof = fatal
         && if fatal then lone_error binary responses else responses = ""))

(* The /1 fatal tail: a ping line, then a line one byte past the bound
   with no newline in sight, fed whole and split around the bound.  Every
   feed yields the ping and one id-less error, and stops reading. *)
let test_codec_endless_line () =
  let ping = Sproto.request_to_json (Sproto.Ping "p") in
  let stream = ping ^ "\n" ^ String.make (Evloop.max_rbuf + 1) 'x' in
  List.iter
    (fun (what, sizes) ->
      let got, out, eof = feed_in_chunks stream sizes in
      Alcotest.(check (list (pair string string))) (what ^ ": the ping is delivered")
        [ ("line", ping) ] got;
      Alcotest.(check bool) (what ^ ": one error response") true (lone_error false out);
      Alcotest.(check bool) (what ^ ": reading stops") true eof)
    (("whole", [])
    :: List.map
         (fun k -> (Printf.sprintf "split at %d" k, [ String.length ping + 1 + k ]))
         [ Evloop.max_rbuf - 1; Evloop.max_rbuf; Evloop.max_rbuf + 1 ])

let test_v2_pipelined_load () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") ~memo:1024 () in
  with_server
    { Server.default_config with cache = Some store; workers = 2; queue_capacity = 256;
      conn_limit = 16 }
    (fun sock _srv ->
      let addr = Sproto.Unix_socket sock in
      let spec = { Client.clients = 2; per_client = 40; mix = [ quick_job ]; deadline_ms = None } in
      (match Client.load ~version:2 ~pipeline:8 addr spec with
      | Error e -> Alcotest.failf "cold /2 load failed: %s" e
      | Ok cold ->
        Alcotest.(check int) "cold: all requests answered" 80 cold.Client.requests;
        Alcotest.(check int) "cold: all ok" 80 cold.Client.ok;
        Alcotest.(check int) "cold: no errors" 0 cold.Client.errors);
      match Client.load ~version:2 ~pipeline:8 addr spec with
      | Error e -> Alcotest.failf "warm /2 load failed: %s" e
      | Ok warm ->
        Alcotest.(check int) "warm: all requests answered" 80 warm.Client.requests;
        Alcotest.(check int) "warm: everything from the cache" 80 warm.Client.cached;
        Alcotest.(check bool) "warm: hit rate 100%" true (Client.hit_rate warm > 0.99))

let test_load_generator () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") () in
  with_server
    { Server.default_config with cache = Some store; workers = 2; queue_capacity = 256 }
    (fun sock _srv ->
      let addr = Sproto.Unix_socket sock in
      let spec = { Client.clients = 4; per_client = 6; mix = [ quick_job ]; deadline_ms = None } in
      (* cold pass populates the cache (concurrent cold requests for one
         key coalesce onto a single computation) ... *)
      (match Client.load addr spec with
      | Error e -> Alcotest.failf "cold load failed: %s" e
      | Ok cold ->
        Alcotest.(check int) "cold: all requests answered" 24 cold.Client.requests;
        Alcotest.(check int) "cold: all ok" 24 cold.Client.ok;
        Alcotest.(check int) "cold: no errors" 0 cold.Client.errors);
      (* ... so the warm assertion runs on a second pass *)
      match Client.load addr spec with
      | Error e -> Alcotest.failf "warm load failed: %s" e
      | Ok summary ->
        Alcotest.(check int) "warm: all requests answered" 24 summary.Client.requests;
        Alcotest.(check int) "warm: all ok" 24 summary.Client.ok;
        Alcotest.(check int) "warm: everything from the cache" 24 summary.Client.cached;
        Alcotest.(check bool) "hit rate reported" true (Client.hit_rate summary > 0.99);
        Alcotest.(check bool) "percentiles ordered" true
          (summary.Client.p50_ms <= summary.Client.p95_ms
          && summary.Client.p95_ms <= summary.Client.p99_ms);
        (* the summary document round-trips through the strict parser *)
        match Dda_telemetry.Json.parse (Client.summary_json summary) with
        | Error e -> Alcotest.failf "summary_json unparseable: %s" e
        | Ok doc -> (
          match Dda_telemetry.Json.member "schema" doc with
          | Some (Dda_telemetry.Json.Str "dda.client-load/1") -> ()
          | _ -> Alcotest.fail "summary schema marker missing"))

(* --- observability: stats, health, access log, renderers --------------------- *)

module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
module SV = Dda_service.Stats_view

let fetch_stats ?version sock =
  match Client.connect ?version (Sproto.Unix_socket sock) with
  | Error e -> Alcotest.failf "stats connect: %s" e
  | Ok c ->
    let doc =
      match Client.stats c with Ok d -> d | Error e -> Alcotest.failf "stats rpc: %s" e
    in
    Client.close c;
    match Json.parse doc with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats doc unparseable: %s" e

let stats_gauge doc name =
  match Option.bind (Json.member "gauges" doc) (Json.member name) with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "stats gauge %s missing" name

(* stats and health over both wire formats, against a live server that has
   served real work — the document must validate against the registry and
   the gauges must reflect the requests just made *)
let test_stats_health_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") ~memo:1024 () in
  with_server
    { Server.default_config with cache = Some store; workers = 1; conn_limit = 16 }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      (match Client.rpc c (decide_of ~id:"s1" quick_job) with
      | Ok { Sproto.status = Sproto.Verdict _; _ } -> ()
      | _ -> Alcotest.fail "warm-up decide failed");
      (match Client.rpc c (decide_of ~id:"s2" quick_job) with
      | Ok { Sproto.status = Sproto.Verdict v; _ } ->
        Alcotest.(check bool) "second decide cached" true v.cached
      | _ -> Alcotest.fail "second decide failed");
      (match Client.health c with
      | Ok s -> Alcotest.(check string) "healthy" "ok" s
      | Error e -> Alcotest.failf "health rpc: %s" e);
      Client.close c;
      List.iter
        (fun version ->
          let doc = fetch_stats ~version sock in
          Alcotest.(check (list string))
            (Printf.sprintf "stats over /%d validates" version)
            [] (T.validate_stats doc);
          Alcotest.(check bool) "decides counted" true (stats_gauge doc "service.verb.decide" >= 2.);
          Alcotest.(check bool) "uptime advances" true (stats_gauge doc "service.uptime_s" > 0.);
          Alcotest.(check bool) "mem-cache hits visible" true
            (stats_gauge doc "service.mem_cache.hits" >= 1.);
          (* the latency window saw the decides *)
          match Option.bind (Json.member "windows" doc) (Json.member "service.window.latency_ms") with
          | Some w -> (
            match Json.member "count" w with
            | Some (Json.Num n) -> Alcotest.(check bool) "window count" true (n >= 2.)
            | _ -> Alcotest.fail "window count missing")
          | None -> Alcotest.fail "latency window missing from stats")
        [ 1; 2 ])

(* during graceful drain the listeners stay open, so a fresh connection can
   still ask health and must see "draining" while in-flight work finishes *)
let test_health_draining () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Server.default_config with
      addresses = [ Sproto.Unix_socket sock ];
      workers = 1;
      conn_limit = 16;
    }
  in
  let srv = match Server.start cfg with Ok s -> s | Error e -> Alcotest.fail e in
  let fd, ic = raw_connect sock in
  (* three slow jobs on one worker: drain has real work to finish *)
  raw_send fd
    (List.init 3 (fun i -> Sproto.request_to_json (decide_of ~id:(Printf.sprintf "h%d" i) slow_job)));
  Thread.delay 0.1;
  Server.drain srv;
  (match Client.connect (Sproto.Unix_socket sock) with
  | Error e -> Alcotest.failf "connect during drain must succeed (health probes): %s" e
  | Ok c ->
    (match Client.health c with
    | Ok s -> Alcotest.(check string) "drain visible over health" "draining" s
    | Error e -> Alcotest.failf "health during drain: %s" e);
    Client.close c);
  (* the admitted slow jobs are still answered — drain drops nothing *)
  let responses = raw_read_responses ic 3 in
  Alcotest.(check int) "all admitted work answered" 3 (List.length responses);
  Unix.close fd;
  ignore (Server.wait srv)

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* every access-log line is strict JSON with the documented fields; the
   cache tier and the client trace id are reported *)
let test_access_log_schema () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") ~memo:1024 () in
  let log = Filename.concat dir "access.jsonl" in
  with_server
    { Server.default_config with cache = Some store; workers = 1; access_log = Some log }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      ignore (Client.rpc c (decide_of ~id:"a1" ~trace:"trace-xyz" quick_job));
      ignore (Client.rpc c (decide_of ~id:"a2" quick_job));
      ignore (Client.health c);
      Client.close c);
  (* the log is written asynchronously (staging arena + writer thread);
     once [with_server] returns the server has drained and joined the
     writer, so the file is complete *)
  let lines = read_lines log in
  Alcotest.(check int) "three loggable requests" 3 (List.length lines);
  let docs =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok d -> d
        | Error e -> Alcotest.failf "access-log line not strict JSON: %s (%s)" l e)
      lines
  in
  List.iter
    (fun d ->
      List.iter
        (fun k -> if Json.member k d = None then Alcotest.failf "missing field %s" k)
        [ "ts"; "verb"; "id"; "status"; "queue_ms"; "compute_ms"; "total_ms" ])
    docs;
  let find id = List.find (fun d -> Json.member "id" d = Some (Json.Str id)) docs in
  Alcotest.(check bool) "trace echoed" true
    (Json.member "trace" (find "a1") = Some (Json.Str "trace-xyz"));
  Alcotest.(check bool) "cold decide computed (tier none)" true
    (Json.member "tier" (find "a1") = Some (Json.Str "none"));
  Alcotest.(check bool) "warm decide served from memory" true
    (Json.member "tier" (find "a2") = Some (Json.Str "mem"));
  Alcotest.(check bool) "admin verb logged" true
    (Json.member "verb" (find "health") = Some (Json.Str "health"))

(* the family tier: a certified family entry answers a concrete instance
   of any size, and the access log says so *)
let test_family_tier () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") () in
  let log = Filename.concat dir "access.jsonl" in
  let job graph = { quick_job with Batch.graph; max_configs = 200_000 } in
  with_server
    { Server.default_config with cache = Some store; workers = 1; access_log = Some log }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      List.iter
        (fun (id, graph, cached) ->
          match rpc_exn c (decide_of ~id (job graph)) with
          | { Sproto.status = Sproto.Verdict v; _ } ->
            Alcotest.(check string) (id ^ " verdict") "accepts" v.verdict;
            Alcotest.(check bool) (id ^ " cached") cached v.cached
          | r -> Alcotest.failf "%s: unexpected status %s" id (Sproto.status_name r.Sproto.status))
        [ ("fam", "star:ba*", false); ("inst", "star:baaaaaaaaaaa", true) ];
      Client.close c);
  let tier id =
    List.find_map
      (fun l ->
        match Json.parse l with
        | Ok d when Json.member "id" d = Some (Json.Str id) -> Json.member "tier" d
        | _ -> None)
      (read_lines log)
  in
  Alcotest.(check bool) "family computed (tier none)" true (tier "fam" = Some (Json.Str "none"));
  Alcotest.(check bool) "instance answered by the family entry" true
    (tier "inst" = Some (Json.Str "family"))

let test_access_log_sampling_and_slow () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log2 = Filename.concat dir "sampled.jsonl" in
  with_server
    { Server.default_config with workers = 1; access_log = Some log2; log_sample = 2 }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      for i = 1 to 4 do
        ignore (Client.rpc c (decide_of ~id:(Printf.sprintf "n%d" i) quick_job))
      done;
      Client.close c);
  Alcotest.(check int) "every 2nd of 4 requests logged" 2 (List.length (read_lines log2));
  let log3 = Filename.concat dir "slow.jsonl" in
  with_server
    { Server.default_config with workers = 1; access_log = Some log3; slow_ms = Some 1e6 }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      for i = 1 to 4 do
        ignore (Client.rpc c (decide_of ~id:(Printf.sprintf "f%d" i) quick_job))
      done;
      Client.close c);
  Alcotest.(check int) "nothing beats a 1000 s slow bar" 0 (List.length (read_lines log3))

(* Prometheus exposition: every line is either a # TYPE comment or a
   name/value sample, names carry the dda_ prefix, values parse *)
let check_prom_line line =
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  if starts_with "# TYPE " line then begin
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; typ ] ->
      Alcotest.(check bool) (line ^ ": metric name prefixed") true (starts_with "dda_" name);
      Alcotest.(check bool) (line ^ ": known type") true
        (List.mem typ [ "counter"; "gauge"; "histogram"; "summary" ])
    | _ -> Alcotest.failf "malformed TYPE comment: %s" line
  end
  else
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "sample line without value: %s" line
    | Some i ->
      let name = String.sub line 0 i in
      let value = String.sub line (i + 1) (String.length line - i - 1) in
      Alcotest.(check bool) (line ^ ": sample name prefixed") true (starts_with "dda_" name);
      (match float_of_string_opt value with
      | Some _ -> ()
      | None -> Alcotest.failf "unparsable sample value in: %s" line)

let test_prometheus_exposition () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_ ~root:(Filename.concat dir "cache") ~memo:1024 () in
  with_server
    { Server.default_config with cache = Some store; workers = 1 }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      ignore (Client.rpc c (decide_of ~id:"p1" quick_job));
      ignore (Client.rpc c (decide_of ~id:"p2" quick_job));
      Client.close c;
      let doc = fetch_stats sock in
      match SV.prometheus doc with
      | Error e -> Alcotest.failf "prometheus render: %s" e
      | Ok text ->
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
        Alcotest.(check bool) "non-trivial exposition" true (List.length lines > 10);
        List.iter check_prom_line lines;
        let has needle = List.exists (contains needle) lines in
        Alcotest.(check bool) "uptime gauge" true (has "dda_service_uptime_s ");
        Alcotest.(check bool) "health one-hot" true (has "dda_health{state=\"ok\"} 1");
        Alcotest.(check bool) "window summary quantile" true
          (has "dda_service_window_latency_ms{quantile=\"0.99\"}"));
  (* a non-stats document is refused, not mis-rendered *)
  match SV.prometheus (Json.Obj [ ("schema", Json.Str "dda.telemetry/1") ]) with
  | Ok _ -> Alcotest.fail "prometheus must reject non-stats documents"
  | Error _ -> ()

(* regression: label values (health states, backend addresses) and the
   structural verb names in the top frame must not be interpolated raw —
   a hostile string with '"', '\' or newline would splice extra sample
   lines into a scrape, and control bytes would corrupt the terminal *)
let test_prometheus_hostile_labels () =
  let hostile = "bad\"state\\with\nnewline" in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "dda.stats/1");
        ("health", Json.Str hostile);
        ( "gauges",
          Json.Obj [ ("service.verb.evil\x1b[2Jverb", Json.Num 3.); ("service.uptime_s", Json.Num 1.) ] );
        ( "backends",
          Json.Arr
            [
              Json.Obj
                [
                  ("addr", Json.Str "sock\"et\npath");
                  ("state", Json.Str "up");
                  ("inflight", Json.Num 2.);
                  ("forwarded", Json.Num 10.);
                  ("ejections", Json.Num 1.);
                ];
            ] );
      ]
  in
  (match SV.prometheus doc with
  | Error e -> Alcotest.failf "prometheus render: %s" e
  | Ok text ->
    (* every emitted line still parses as a comment or a sample *)
    List.iter check_prom_line
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' text));
    Alcotest.(check bool) "hostile health escaped" true
      (contains "dda_health{state=\"bad\\\"state\\\\with\\nnewline\"} 1" text);
    Alcotest.(check bool) "no raw quote inside a label value" false
      (contains "state=\"bad\"state" text);
    Alcotest.(check bool) "backend address escaped" true
      (contains "dda_router_backend_up{backend=\"sock\\\"et\\npath\"} 1" text);
    Alcotest.(check bool) "backend counters labelled" true
      (contains "dda_router_backend_forwarded_total{backend=" text));
  let frame = SV.render_top doc in
  Alcotest.(check bool) "top frame strips control bytes" false
    (String.exists (fun c -> (c < ' ' && c <> '\n') || c = '\x7f') frame);
  Alcotest.(check bool) "hostile verb still listed, defanged" true
    (contains "evil.[2Jverb 3" frame)

let test_render_top_frame () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server
    { Server.default_config with workers = 1 }
    (fun sock _srv ->
      let c = match Client.connect (Sproto.Unix_socket sock) with Ok c -> c | Error e -> Alcotest.fail e in
      ignore (Client.rpc c (decide_of ~id:"t1" quick_job));
      Client.close c;
      let doc = fetch_stats sock in
      let frame = SV.render_top ~spark:[ 0; 1; 3; 2 ] doc in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "frame mentions %S" needle) true
            (contains needle frame))
        [ "health ok"; "p50"; "p95"; "p99"; "rps"; "mem-cache"; "verbs:"; "queue depth" ];
      (* one line per section, newline-terminated: a stable one-shot frame
         for --once / non-tty capture *)
      Alcotest.(check bool) "frame ends with a newline" true
        (String.length frame > 0 && frame.[String.length frame - 1] = '\n'))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "malformed requests rejected with structure" `Quick
            test_protocol_rejects;
          Alcotest.test_case "addresses" `Quick test_parse_address;
        ] );
      ( "queue",
        [
          Alcotest.test_case "admission control" `Quick test_queue_admission;
          Alcotest.test_case "cross-thread close" `Quick test_queue_cross_thread;
        ] );
      ( "server",
        [
          Alcotest.test_case "cold then warm, across restarts" `Quick test_serve_cold_then_warm;
          Alcotest.test_case "malformed input over the wire" `Quick test_malformed_over_wire;
          Alcotest.test_case "queue-full rejection under burst" `Quick test_queue_full_rejection;
          Alcotest.test_case "per-connection limit" `Quick test_conn_limit_rejection;
          Alcotest.test_case "deadline expiry bounds out" `Quick test_deadline_expires_queued;
          Alcotest.test_case "hangup mid-request retires cleanly" `Quick test_hangup_mid_request;
          Alcotest.test_case "identical misses coalesce" `Quick test_coalesced_misses;
          Alcotest.test_case "drain drops nothing" `Quick test_drain_no_drop;
          Alcotest.test_case "closed-loop load generator" `Quick test_load_generator;
          Alcotest.test_case "connect timeout against a silent peer" `Quick
            test_connect_timeout;
          Alcotest.test_case "full unix backlog fails hard, not late" `Quick
            test_unix_backlog_full;
          Alcotest.test_case "connection cap clamped to FD_SETSIZE" `Quick
            test_max_connections_clamp;
        ] );
      ( "v2",
        [
          Alcotest.test_case "frame round-trips" `Quick test_v2_frame_roundtrip;
          Alcotest.test_case "negotiation, both formats live" `Quick test_v2_negotiation;
          Alcotest.test_case "malformed frames over the wire" `Quick test_v2_malformed_frames;
          Alcotest.test_case "pipelined load, cold then warm" `Quick test_v2_pipelined_load;
          test_codec_chunking;
          Alcotest.test_case "codec: a /1 line past the bound" `Quick test_codec_endless_line;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats + health over /1 and /2" `Quick test_stats_health_roundtrip;
          Alcotest.test_case "health reports draining" `Quick test_health_draining;
          Alcotest.test_case "access log schema + tiers + trace" `Quick test_access_log_schema;
          Alcotest.test_case "family tier in the access log" `Quick test_family_tier;
          Alcotest.test_case "access log sampling and slow filter" `Quick
            test_access_log_sampling_and_slow;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "hostile label values are escaped" `Quick
            test_prometheus_hostile_labels;
          Alcotest.test_case "top renders one frame" `Quick test_render_top_frame;
        ] );
    ]
