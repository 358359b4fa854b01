(* The routing tier (lib/service/router.ml): ring arithmetic, live
   routers over throwaway Unix sockets fronting real [Server.t]
   backends, ejection and readmission, and the retry-once guarantee
   exercised against an in-test fake backend that dies mid-request. *)

module Sproto = Dda_service.Protocol
module Server = Dda_service.Server
module Client = Dda_service.Client
module Router = Dda_service.Router
module Ring = Dda_service.Router.Ring
module Json = Dda_telemetry.Json
module T = Dda_telemetry.Telemetry
module Batch = Dda_batch.Batch
module Store = Dda_batch.Store
module Spec = Dda_batch.Spec

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- scratch dirs ----------------------------------------------------------- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_test_rt.%d.%d" (Unix.getpid ()) !dir_counter)
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

let quick_job ?(max_configs = 10_000) () =
  {
    Batch.protocol = "exists:a";
    graph = "cycle:abb";
    regime = Spec.Pseudo_stochastic;
    max_configs;
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

(* the router's ring key (router.ml [route_key]): the textual spec identity *)
let key_of (job : Batch.job) =
  String.concat "\x00"
    [
      job.Batch.protocol; job.Batch.graph; Spec.regime_name job.Batch.regime;
      string_of_int job.Batch.max_configs;
    ]

let rpc_exn c req =
  match Client.rpc c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "rpc failed: %s" e

(* --- the ring ---------------------------------------------------------------- *)

let test_ring_balance_and_stability () =
  let members = List.init 10 (fun i -> Printf.sprintf "backend-%d" i) in
  let ring = Ring.make members in
  Alcotest.(check (list string)) "members" (List.sort compare members) (Ring.members ring);
  let keys = List.init 10_000 (fun i -> Printf.sprintf "key-%d" i) in
  let owner_of r k =
    match Ring.lookup r k with Some m -> m | None -> Alcotest.fail "empty ring"
  in
  (* balance: every member owns a sane share of the key space *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let m = owner_of ring k in
      Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
    keys;
  List.iter
    (fun m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      if n < 200 || n > 3000 then
        Alcotest.failf "member %s owns %d of 10000 keys (expected a ~1/10 share)" m n)
    members;
  (* stability: dropping one member moves only the keys it owned *)
  let victim = "backend-3" in
  let shrunk = Ring.make (List.filter (fun m -> m <> victim) members) in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = owner_of ring k and after = owner_of shrunk k in
      if before <> after then begin
        incr moved;
        if before <> victim then
          Alcotest.failf "key %s moved %s -> %s though %s was removed" k before after victim
      end)
    keys;
  let victim_share = Option.value ~default:0 (Hashtbl.find_opt counts victim) in
  Alcotest.(check int) "exactly the victim's keys move" victim_share !moved;
  (* determinism across instances *)
  let again = Ring.make members in
  List.iter
    (fun k ->
      Alcotest.(check string) "stable owner" (owner_of ring k) (owner_of again k))
    (List.filteri (fun i _ -> i < 100) keys);
  Alcotest.(check (option string)) "empty ring" None (Ring.lookup (Ring.make []) "k")

(* --- live router harness ------------------------------------------------------ *)

(* [n] backends and a router in front, all on throwaway sockets; everything
   drained and awaited on the way out so no thread survives the test *)
let with_router ?(n = 2) ?(router_cfg = fun c -> c) ?(backend_cfg = fun c -> c) f =
  let dir = fresh_dir () in
  let bsock i = Filename.concat dir (Printf.sprintf "b%d.sock" i) in
  let rsock = Filename.concat dir "r.sock" in
  (* each backend owns a private store: through the ring, repeat decides
     of a spec land on the same backend and hit its warm tiers *)
  let start_backend i =
    match
      Server.start
        (backend_cfg
           {
             Server.default_config with
             addresses = [ Sproto.Unix_socket (bsock i) ];
             cache = Some (Store.open_ ~root:(Filename.concat dir (Printf.sprintf "cache%d" i)) ());
           })
    with
    | Ok srv -> srv
    | Error e -> Alcotest.failf "backend %d failed to start: %s" i e
  in
  let backends = Array.init n start_backend in
  let stopped = Array.make n false in
  let stop_backend i =
    if not stopped.(i) then begin
      stopped.(i) <- true;
      Server.drain backends.(i);
      ignore (Server.wait backends.(i))
    end
  in
  let cfg =
    router_cfg
      {
        Router.default_config with
        listen = [ Sproto.Unix_socket rsock ];
        backends = List.init n (fun i -> Sproto.Unix_socket (bsock i));
        connect_timeout = 5.0;
      }
  in
  match Router.start cfg with
  | Error e ->
    Array.iteri (fun i _ -> stop_backend i) backends;
    rm_rf dir;
    Alcotest.failf "router failed to start: %s" e
  | Ok rt ->
    Fun.protect
      ~finally:(fun () ->
        Router.drain rt;
        ignore (Router.wait rt);
        Array.iteri (fun i _ -> stop_backend i) backends;
        rm_rf dir)
      (fun () -> f ~rsock ~bsock ~restart:(fun i ->
           stopped.(i) <- false;
           backends.(i) <- start_backend i)
           ~stop_backend rt)

let await ?(timeout = 10.0) msg pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then Alcotest.failf "timed out: %s" msg
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* --- interop: both front formats to /2 backends ------------------------------- *)

let test_router_interop () =
  with_router ~n:2 (fun ~rsock ~bsock:_ ~restart:_ ~stop_backend:_ rt ->
      let addr = Sproto.Unix_socket rsock in
      (* /1 JSON front *)
      let c1 = Result.get_ok (Client.connect addr) in
      (match rpc_exn c1 (decide_of ~id:"j1" (quick_job ())) with
      | { Sproto.status = Sproto.Verdict v; _ } ->
        Alcotest.(check string) "accepts" "accepts" v.verdict
      | r -> Alcotest.failf "unexpected /1 response: %s" (Sproto.response_to_json r));
      (* /2 binary front: same spec must hit the same backend's hot cache *)
      let c2 = Result.get_ok (Client.connect ~version:2 addr) in
      (match rpc_exn c2 (decide_of ~id:"j2" (quick_job ())) with
      | { Sproto.status = Sproto.Verdict v; _ } ->
        Alcotest.(check string) "accepts again" "accepts" v.verdict;
        Alcotest.(check bool) "served from the owner's memory tier" true v.cached
      | r -> Alcotest.failf "unexpected /2 response: %s" (Sproto.response_to_json r));
      (* router-answered verbs, on both fronts *)
      (match Client.ping c1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ping via router: %s" e);
      (match Client.health c2 with
      | Ok "ok" -> ()
      | Ok h -> Alcotest.failf "health %s" h
      | Error e -> Alcotest.failf "health via router: %s" e);
      (* the stats document is schema-valid and carries the backends rows *)
      (match Client.stats c2 with
      | Error e -> Alcotest.failf "stats via router: %s" e
      | Ok doc -> (
        match Json.parse doc with
        | Error e -> Alcotest.failf "stats unparseable: %s" e
        | Ok j -> (
          Alcotest.(check (list string)) "stats document validates" [] (T.validate_stats j);
          match Json.member "backends" j with
          | Some (Json.Arr rows) ->
            Alcotest.(check int) "one row per backend" 2 (List.length rows);
            List.iter
              (fun r ->
                match Json.member "state" r with
                | Some (Json.Str "up") -> ()
                | _ -> Alcotest.fail "backend row not up")
              rows
          | _ -> Alcotest.fail "stats document lacks a backends array")));
      Client.close c1;
      Client.close c2;
      let s = Router.stats rt in
      Alcotest.(check int) "both decides forwarded" 2 s.Router.forwarded;
      Alcotest.(check int) "no errors" 0 s.Router.errors;
      Alcotest.(check int) "both backends up" 2 s.Router.backends_up)

(* --- multiplexing under pipelining -------------------------------------------- *)

let test_router_multiplex () =
  with_router ~n:2 (fun ~rsock ~bsock:_ ~restart:_ ~stop_backend:_ rt ->
      let addr = Sproto.Unix_socket rsock in
      (* 16 distinct budgets = 16 ring keys: the chance they all land on
         one of two backends is 2^-15 *)
      let mix = List.init 16 (fun i -> quick_job ~max_configs:(10_000 + i) ()) in
      match
        Client.load ~version:2 ~pipeline:8 addr
          { Client.clients = 4; per_client = 64; mix; deadline_ms = None }
      with
      | Error e -> Alcotest.failf "load via router failed: %s" e
      | Ok s ->
        Alcotest.(check int) "every response matched its request" 256 s.Client.requests;
        Alcotest.(check int) "all verdicts" 256 s.Client.ok;
        Alcotest.(check int) "no errors" 0 s.Client.errors;
        Alcotest.(check int) "no rejections" 0 s.Client.rejected;
        let rs = Router.stats rt in
        Alcotest.(check int) "every decide forwarded" 256 rs.Router.forwarded;
        (* both members of the ring took traffic *)
        let c = Result.get_ok (Client.connect ~version:2 addr) in
        let doc = Result.get_ok (Client.stats c) in
        Client.close c;
        (match Json.parse doc with
        | Ok j -> (
          match Json.member "backends" j with
          | Some (Json.Arr rows) ->
            List.iter
              (fun r ->
                match Json.member "forwarded" r with
                | Some (Json.Num f) when f > 0. -> ()
                | _ -> Alcotest.fail "a backend took no traffic — ring imbalance")
              rows
          | _ -> Alcotest.fail "no backends rows")
        | Error e -> Alcotest.failf "stats unparseable: %s" e))

(* --- ejection and readmission ------------------------------------------------- *)

let test_router_ejection_readmission () =
  let fast_probes c = { c with Router.probe_interval = 0.1; probe_timeout = 0.5 } in
  with_router ~n:2 ~router_cfg:fast_probes
    (fun ~rsock ~bsock:_ ~restart ~stop_backend rt ->
      let addr = Sproto.Unix_socket rsock in
      let c = Result.get_ok (Client.connect addr) in
      (match rpc_exn c (decide_of ~id:"warm" (quick_job ())) with
      | { Sproto.status = Sproto.Verdict _; _ } -> ()
      | r -> Alcotest.failf "warm decide failed: %s" (Sproto.response_to_json r));
      (* backend 0 goes away; the router must notice and keep answering *)
      stop_backend 0;
      await "ejection" (fun () -> (Router.stats rt).Router.backends_up = 1);
      (match Client.health c with
      | Ok "ok" -> ()
      | Ok h -> Alcotest.failf "health should stay ok with one survivor, got %s" h
      | Error e -> Alcotest.failf "health: %s" e);
      (* every key now routes to the survivor *)
      List.iter
        (fun i ->
          match rpc_exn c (decide_of ~id:(Printf.sprintf "s%d" i) (quick_job ~max_configs:(20_000 + i) ())) with
          | { Sproto.status = Sproto.Verdict _; _ } -> ()
          | r -> Alcotest.failf "decide after ejection: %s" (Sproto.response_to_json r))
        [ 0; 1; 2; 3 ];
      (* and back: the prober re-admits the restarted backend *)
      restart 0;
      await "readmission" (fun () -> (Router.stats rt).Router.backends_up = 2);
      (match rpc_exn c (decide_of ~id:"back" (quick_job ())) with
      | { Sproto.status = Sproto.Verdict _; _ } -> ()
      | r -> Alcotest.failf "decide after readmission: %s" (Sproto.response_to_json r));
      Client.close c;
      let s = Router.stats rt in
      Alcotest.(check bool) "an ejection was recorded" true (s.Router.ejections >= 1);
      Alcotest.(check bool) "a readmission was recorded" true (s.Router.readmissions >= 1))

let test_router_all_down () =
  let fast_probes c = { c with Router.probe_interval = 0.1; probe_timeout = 0.5 } in
  with_router ~n:1 ~router_cfg:fast_probes
    (fun ~rsock ~bsock:_ ~restart:_ ~stop_backend rt ->
      let addr = Sproto.Unix_socket rsock in
      stop_backend 0;
      await "lone backend ejected" (fun () -> (Router.stats rt).Router.backends_up = 0);
      let c = Result.get_ok (Client.connect addr) in
      (match Client.health c with
      | Ok "overloaded" -> ()
      | Ok h -> Alcotest.failf "health with no backends should be overloaded, got %s" h
      | Error e -> Alcotest.failf "health: %s" e);
      (match rpc_exn c (decide_of ~id:"nb" (quick_job ())) with
      | { Sproto.status = Sproto.Rejected reason; _ } ->
        Alcotest.(check string) "rejection reason" "no_backends" reason
      | r -> Alcotest.failf "expected rejected:no_backends, got %s" (Sproto.response_to_json r));
      Client.close c)

(* --- /1 fields beyond the /2 wire --------------------------------------------- *)

(* regression: a /1 decide whose graph exceeds the str16 cap used to raise
   [Invalid_argument] out of the /2 re-encoder on the event-loop thread —
   one wire-legal request killed the whole router.  It must be answered
   as a protocol error, and the loop must keep serving. *)
let test_router_oversized_field () =
  with_router ~n:1 (fun ~rsock ~bsock:_ ~restart:_ ~stop_backend:_ rt ->
      let addr = Sproto.Unix_socket rsock in
      let c = Result.get_ok (Client.connect addr) in
      let big =
        { (quick_job ()) with Batch.graph = "cycle:" ^ String.make 70_000 'a' }
      in
      (match rpc_exn c (decide_of ~id:"big" big) with
      | { Sproto.status = Sproto.Error reason; _ } ->
        Alcotest.(check bool) (Printf.sprintf "error names the limit (%s)" reason) true
          (contains "65535" reason)
      | r -> Alcotest.failf "expected an error, got %s" (Sproto.response_to_json r));
      (* the loop survived: the same connection and fresh decides still work *)
      (match Client.ping c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ping after oversized decide: %s" e);
      (match rpc_exn c (decide_of ~id:"after" (quick_job ())) with
      | { Sproto.status = Sproto.Verdict _; _ } -> ()
      | r -> Alcotest.failf "decide after oversized decide: %s" (Sproto.response_to_json r));
      Client.close c;
      let s = Router.stats rt in
      Alcotest.(check int) "counted as a request error" 1 s.Router.errors)

(* --- a forward keeps every field ---------------------------------------------- *)

let send_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let read_frame ic =
  let n = Sproto.frame_length (really_input_string ic 4) in
  match Sproto.decode_response_payload (really_input_string ic n) with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response frame: %s" e

(* A /1 and a /2 decide of one spec, each with a deadline and its own
   trace id, reach the backend whole: the same verdict, and both trace
   ids in the backend's access log.  A /1 number the /2 wire cannot carry
   is refused.  Undecodable frames on the /2 front (an unknown op, a
   truncated decide) are answered with errors and the connection keeps
   serving. *)
let test_router_forward_keeps_fields () =
  let logdir = fresh_dir () in
  let log = Filename.concat logdir "access.log" in
  Fun.protect ~finally:(fun () -> rm_rf logdir) @@ fun () ->
  with_router ~n:1
    ~backend_cfg:(fun c -> { c with Server.access_log = Some log })
    (fun ~rsock ~bsock:_ ~restart:_ ~stop_backend rt ->
      let decide ~id ~trace = decide_of ~deadline_ms:30_000 ~trace ~id (quick_job ()) in
      let verdict what = function
        | { Sproto.status = Sproto.Verdict v; _ } -> v.verdict
        | r -> Alcotest.failf "%s: unexpected response %s" what (Sproto.response_to_json r)
      in
      let c1 = Result.get_ok (Client.connect (Sproto.Unix_socket rsock)) in
      let v1 = verdict "/1 decide" (rpc_exn c1 (decide ~id:"j1" ~trace:"trace-v1")) in
      (* a /1 budget past the /2 wire's u32 is refused, not wrapped *)
      (match rpc_exn c1 (decide_of ~id:"huge" (quick_job ~max_configs:(0xffff_ffff + 2) ())) with
      | { Sproto.status = Sproto.Error reason; _ } ->
        Alcotest.(check bool) (Printf.sprintf "error names the limit (%s)" reason) true
          (contains "32-bit" reason)
      | r -> Alcotest.failf "expected an error, got %s" (Sproto.response_to_json r));
      Client.close c1;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX rsock);
      let ic = Unix.in_channel_of_descr fd in
      send_all fd Sproto.magic;
      Alcotest.(check string) "router echoes the magic" Sproto.magic (really_input_string ic 4);
      send_all fd (Sproto.encode_request_frame (decide ~id:"j2" ~trace:"trace-v2"));
      let r2 = read_frame ic in
      Alcotest.(check string) "/2 id restored" "j2" r2.Sproto.rid;
      Alcotest.(check string) "same verdict on both fronts" v1 (verdict "/2 decide" r2);
      let error_for what id frame =
        send_all fd frame;
        match read_frame ic with
        | { Sproto.status = Sproto.Error _; rid; _ } when rid = id -> ()
        | r -> Alcotest.failf "%s: expected an error, got %s" what (Sproto.response_to_json r)
      in
      error_for "unknown op" "u1" (Sproto.reframe ~tag:9 ~id:"u1" ~body:"");
      (* a decide body cut inside its protocol string *)
      error_for "truncated decide" "t1" (Sproto.reframe ~tag:1 ~id:"t1" ~body:"\x00\x08exi");
      send_all fd (Sproto.encode_request_frame (Sproto.Ping "p1"));
      (match read_frame ic with
      | { Sproto.status = Sproto.Pong; rid = "p1"; _ } -> ()
      | r -> Alcotest.failf "ping after the errors: %s" (Sproto.response_to_json r));
      Unix.close fd;
      let s = Router.stats rt in
      Alcotest.(check int) "both decides forwarded" 2 s.Router.forwarded;
      Alcotest.(check int) "the huge budget and both bad frames counted as errors" 3
        s.Router.errors;
      (* the drain flushes the backend's access log *)
      stop_backend 0;
      let ic = open_in log in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' in
      close_in ic;
      let traces =
        List.filter_map
          (fun l ->
            match Json.parse l with
            | Ok j when Json.member "verb" j = Some (Json.Str "decide") -> (
              match Json.member "trace" j with Some (Json.Str t) -> Some t | _ -> None)
            | _ -> None)
          lines
      in
      Alcotest.(check (list string)) "the backend logged both trace ids"
        [ "trace-v1"; "trace-v2" ] traces)

(* --- per-front-connection admission ------------------------------------------- *)

(* A backend that negotiates /2 and then swallows everything: forwards
   accumulate in flight until the probe timeout ejects it.  Accepts the
   router's one startup dial, then refuses re-admission (listener closed
   once the router hangs up). *)
let mute_backend dir =
  let path = Filename.concat dir "mute.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let th =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        (try
           let b = Bytes.create 4096 in
           let rec read_exact off n =
             if off < n then
               match Unix.read fd b off (n - off) with
               | 0 -> raise End_of_file
               | k -> read_exact (off + k) n
           in
           read_exact 0 4;
           if Bytes.sub_string b 0 4 <> Sproto.magic then raise Exit;
           ignore (Unix.write_substring fd Sproto.magic 0 4);
           (* swallow frames — forwards and probes alike — until the
              router ejects us and closes the connection *)
           while Unix.read fd b 0 (Bytes.length b) > 0 do
             ()
           done
         with End_of_file | Exit | Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
      ()
  in
  (path, th)

(* one pipelining front must not fill every backend's window and backlog:
   forwards beyond [conn_limit] are rejected:connection_limit at admission *)
let test_router_conn_limit () =
  let dir = fresh_dir () in
  let rsock = Filename.concat dir "r.sock" in
  let mute, mute_th = mute_backend dir in
  let cfg =
    {
      Router.default_config with
      listen = [ Sproto.Unix_socket rsock ];
      backends = [ Sproto.Unix_socket mute ];
      conn_limit = 4;
      connect_timeout = 1.0;
      probe_interval = 0.2;
      probe_timeout = 0.6;
    }
  in
  match Router.start cfg with
  | Error e -> Alcotest.failf "router failed to start: %s" e
  | Ok rt ->
    Fun.protect
      ~finally:(fun () ->
        Router.drain rt;
        ignore (Router.wait rt);
        Thread.join mute_th;
        rm_rf dir)
      (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let ic = Unix.in_channel_of_descr fd in
        Unix.connect fd (Unix.ADDR_UNIX rsock);
        (* 8 pipelined decides in one write against a backend that answers
           nothing: the first 4 are admitted and stuck in flight, so the
           5th..8th must be rejected at admission, immediately *)
        let lines =
          String.concat ""
            (List.init 8 (fun i ->
                 Sproto.request_to_json
                   (decide_of ~id:(Printf.sprintf "p%d" i)
                      (quick_job ~max_configs:(50_000 + i) ()))
                 ^ "\n"))
        in
        let rec write_all off =
          if off < String.length lines then
            write_all (off + Unix.write_substring fd lines off (String.length lines - off))
        in
        write_all 0;
        let rejected = ref 0 and unavailable = ref 0 in
        for _ = 1 to 8 do
          match Sproto.parse_response (input_line ic) with
          | Ok { Sproto.status = Sproto.Rejected "connection_limit"; _ } -> incr rejected
          | Ok { Sproto.status = Sproto.Error "backend_unavailable"; _ } -> incr unavailable
          | Ok r -> Alcotest.failf "unexpected response: %s" (Sproto.response_to_json r)
          | Error e -> Alcotest.failf "unparseable response: %s" e
        done;
        Alcotest.(check int) "overflow rejected at admission" 4 !rejected;
        (* the admitted 4 fail only later, when the probe timeout ejects
           the mute backend and the empty ring offers no successor *)
        Alcotest.(check int) "admitted forwards failed on ejection" 4 !unavailable;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let s = Router.stats rt in
        Alcotest.(check int) "rejections counted" 4 s.Router.rejected;
        Alcotest.(check bool) "the mute backend was ejected" true (s.Router.ejections >= 1))

(* --- retry-once --------------------------------------------------------------- *)

(* A backend that negotiates /2, swallows one decide, and dies — the only
   way to lose an in-flight forward, since real backends drain gracefully.
   Returns the address and a thread to join after the router ejects it. *)
let fake_backend dir =
  let path = Filename.concat dir "fake.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let read_exact fd n =
    let b = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read fd b off (n - off) with
        | 0 -> raise End_of_file
        | k -> go (off + k)
    in
    go 0;
    b
  in
  let th =
    Thread.create
      (fun () ->
        (* the router's synchronous startup dial *)
        let fd, _ = Unix.accept lfd in
        (try
           let magic = read_exact fd 4 in
           if Bytes.to_string magic <> Sproto.magic then raise Exit;
           ignore (Unix.write_substring fd Sproto.magic 0 4);
           (* one frame: the forwarded decide.  Swallow it and die. *)
           let hdr = read_exact fd 4 in
           let len =
             (Char.code (Bytes.get hdr 0) lsl 24)
             lor (Char.code (Bytes.get hdr 1) lsl 16)
             lor (Char.code (Bytes.get hdr 2) lsl 8)
             lor Char.code (Bytes.get hdr 3)
           in
           ignore (read_exact fd len)
         with End_of_file | Exit | Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (* refuse re-admission attempts quickly *)
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
      ()
  in
  (path, th)

let test_router_retry_once () =
  let dir = fresh_dir () in
  let real = Filename.concat dir "real.sock" in
  let rsock = Filename.concat dir "r.sock" in
  let srv =
    match
      Server.start { Server.default_config with addresses = [ Sproto.Unix_socket real ] }
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "backend failed to start: %s" e
  in
  let fake, fake_th = fake_backend dir in
  (* a key the ring assigns to the fake backend (members are socket paths) *)
  let ring = Ring.make [ real; fake ] in
  let job =
    let rec find i =
      if i > 10_000 then Alcotest.fail "no key hashed onto the fake backend"
      else
        let j = quick_job ~max_configs:(30_000 + i) () in
        if Ring.lookup ring (key_of j) = Some fake then j else find (i + 1)
    in
    find 0
  in
  let cfg =
    {
      Router.default_config with
      listen = [ Sproto.Unix_socket rsock ];
      backends = [ Sproto.Unix_socket real; Sproto.Unix_socket fake ];
      connect_timeout = 5.0;
    }
  in
  match Router.start cfg with
  | Error e ->
    Server.drain srv;
    ignore (Server.wait srv);
    Alcotest.failf "router failed to start: %s" e
  | Ok rt ->
    Fun.protect
      ~finally:(fun () ->
        Router.drain rt;
        ignore (Router.wait rt);
        Server.drain srv;
        ignore (Server.wait srv);
        Thread.join fake_th;
        rm_rf dir)
      (fun () ->
        let c = Result.get_ok (Client.connect (Sproto.Unix_socket rsock)) in
        (* the forward lands on the fake backend, which dies holding it;
           the router must retry it onto the survivor and still answer *)
        (match rpc_exn c (decide_of ~id:"retry-me" job) with
        | { Sproto.status = Sproto.Verdict v; _ } ->
          Alcotest.(check string) "accepts" "accepts" v.verdict
        | r -> Alcotest.failf "expected a verdict via retry, got %s" (Sproto.response_to_json r));
        Client.close c;
        let s = Router.stats rt in
        Alcotest.(check int) "exactly one retry" 1 s.Router.retries;
        Alcotest.(check bool) "the fake backend was ejected" true (s.Router.ejections >= 1);
        Alcotest.(check int) "the request did not fail" 0 s.Router.errors)

(* --- startup validation -------------------------------------------------------- *)

let test_router_startup_errors () =
  (match Router.start { Router.default_config with backends = [ Sproto.Unix_socket "/tmp/x" ] } with
  | Error e -> Alcotest.(check bool) "no listeners named" true (contains "listen" e)
  | Ok rt ->
    ignore (Router.wait rt);
    Alcotest.fail "started with no listeners");
  (match Router.start { Router.default_config with listen = [ Sproto.Unix_socket "/tmp/x" ] } with
  | Error e -> Alcotest.(check bool) "no backends named" true (contains "backends" e)
  | Ok rt ->
    ignore (Router.wait rt);
    Alcotest.fail "started with no backends");
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match
        Router.start
          {
            Router.default_config with
            listen = [ Sproto.Unix_socket (Filename.concat dir "r.sock") ];
            backends = [ Sproto.Unix_socket (Filename.concat dir "b.sock") ];
            max_connections = 5000;
          }
      with
      | Error e ->
        Alcotest.(check bool) "budget error names FD_SETSIZE" true (contains "FD_SETSIZE" e)
      | Ok rt ->
        Router.drain rt;
        ignore (Router.wait rt);
        Alcotest.fail "5000 connections must not fit the select() budget")

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [ Alcotest.test_case "balance, stability, determinism" `Quick
            test_ring_balance_and_stability ] );
      ( "router",
        [
          Alcotest.test_case "both fronts to /2 backends" `Quick test_router_interop;
          Alcotest.test_case "id-matched multiplexing under pipelining" `Quick
            test_router_multiplex;
          Alcotest.test_case "ejection and readmission" `Quick
            test_router_ejection_readmission;
          Alcotest.test_case "all backends down" `Quick test_router_all_down;
          Alcotest.test_case "/1 fields beyond the /2 wire answer an error" `Quick
            test_router_oversized_field;
          Alcotest.test_case "a forward keeps every field" `Quick
            test_router_forward_keeps_fields;
          Alcotest.test_case "per-front-connection in-flight cap" `Quick
            test_router_conn_limit;
          Alcotest.test_case "retry-once onto the ring successor" `Quick
            test_router_retry_once;
          Alcotest.test_case "startup validation" `Quick test_router_startup_errors;
        ] );
    ]
