(* Telemetry implementation.  Hot-path discipline: every operation that can
   run inside the exploration or simulation loops tests [st.on] (one load +
   one branch) and, when disabled, returns without allocating — the
   allocation-freedom is asserted by test/test_telemetry.ml via
   [Gc.minor_words].  Everything behind the branch may allocate freely. *)

external monotonic_raw : unit -> (float[@unboxed])
  = "dda_monotonic_seconds" "dda_monotonic_seconds_unboxed"
[@@noalloc]

(* One probe at load time decides the clock for the whole process: a
   negative value from the stub means CLOCK_MONOTONIC is unavailable. *)
let monotonic_available = monotonic_raw () >= 0.

let monotonic : unit -> float =
  if monotonic_available then monotonic_raw else Unix.gettimeofday

(* All internal timestamps (journal "t", trace "ts", span durations,
   progress rates) are differences against [st.t0], so the monotonic clock's
   arbitrary origin is fine — and NTP steps can no longer skew them.
   Absolute wall-clock time is only for externally-meaningful instants
   (deadlines, access-log timestamps); callers use [Unix.gettimeofday]. *)
let now = monotonic

type counter = { cname : string; mutable count : int }

type histogram = {
  hname : string;
  buckets : int array;  (* 65 power-of-two buckets; index 0 = v <= 0 *)
  mutable n : int;
  mutable sum : int;
  mutable lo : int;
  mutable hi : int;
}

type span_agg = { mutable calls : int; mutable total : float }

type state = {
  mutable on : bool;  (* write-once, in [enable] *)
  mutable progress : bool;
  mutable trace : out_channel option;
  mutable trace_events : int;
  mutable journal_oc : out_channel option;
  mutable t0 : float;
  mutable depth : int;
  mutable last_progress : float;
  mutable progress_live : bool;
  emit_lock : Mutex.t;
}

let st =
  {
    on = false;
    progress = false;
    trace = None;
    trace_events = 0;
    journal_oc = None;
    t0 = 0.;
    depth = 0;
    last_progress = 0.;
    progress_live = false;
    emit_lock = Mutex.create ();
  }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let span_aggs : (string, span_agg) Hashtbl.t = Hashtbl.create 16

(* Find-or-create may be reached from worker domains (the batch runner's
   per-shard counters, any instrumented code called by its shards or the
   server's workers), so the tables are guarded by the emit lock.  Counter
   bumps stay unguarded single-word writes — the hot path must remain a
   load+branch — and exact cross-domain accounting is the caller's job (the
   batch driver aggregates per-shard tallies on the main domain). *)
let counter name =
  Mutex.lock st.emit_lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { cname = name; count = 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock st.emit_lock;
  c

let histogram name =
  Mutex.lock st.emit_lock;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h = { hname = name; buckets = Array.make 65 0; n = 0; sum = 0; lo = max_int; hi = min_int } in
      Hashtbl.add histograms name h;
      h
  in
  Mutex.unlock st.emit_lock;
  h

let enabled () = st.on
let journalling () = st.on && st.journal_oc <> None

(* ------------------------------------------------------------------ *)
(* Hot-path operations                                                  *)
(* ------------------------------------------------------------------ *)

let incr c = if st.on then c.count <- c.count + 1
let add c n = if st.on then c.count <- c.count + n
let max_gauge c n = if st.on then if n > c.count then c.count <- n
let value c = c.count

let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr k;
      x := !x lsr 1
    done;
    !k
  end

let observe h v =
  if st.on then begin
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

type arg = I of int | F of float | S of string | A of int list

let arg_json b = function
  | I v -> Buffer.add_string b (string_of_int v)
  | F v -> Buffer.add_string b (Printf.sprintf "%.6g" v)
  | S s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Json.escape s);
    Buffer.add_char b '"'
  | A l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int v))
      l;
    Buffer.add_char b ']'

let fields_json b fields =
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      Buffer.add_string b (Json.escape k);
      Buffer.add_string b "\":";
      arg_json b v)
    fields

(* One Chrome trace_event object.  [ts]/[dur] are microseconds relative to
   [enable]; everything runs on one logical track (pid/tid 0), so span
   hierarchy is time containment. *)
let write_trace_event ~name ~ph ~ts ?dur args =
  match st.trace with
  | None -> ()
  | Some oc ->
    let b = Buffer.create 128 in
    Buffer.add_string b (if st.trace_events > 0 then ",\n" else "");
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"dda\",\"ph\":\"%s\",\"ts\":%.1f,\"pid\":0,\"tid\":0"
         (Json.escape name) ph ts);
    (match dur with Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.1f" d) | None -> ());
    (match ph with "i" -> Buffer.add_string b ",\"s\":\"t\"" | _ -> ());
    if args <> [] then begin
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":" (Json.escape k));
          arg_json b v)
        args;
      Buffer.add_char b '}'
    end;
    Buffer.add_char b '}';
    Mutex.lock st.emit_lock;
    st.trace_events <- st.trace_events + 1;
    output_string oc (Buffer.contents b);
    Mutex.unlock st.emit_lock

let write_journal_line ev fields =
  match st.journal_oc with
  | None -> ()
  | Some oc ->
    let b = Buffer.create 96 in
    Buffer.add_string b
      (Printf.sprintf "{\"ev\":\"%s\",\"t\":%.6f" (Json.escape ev) (now () -. st.t0));
    fields_json b fields;
    Buffer.add_string b "}\n";
    Mutex.lock st.emit_lock;
    output_string oc (Buffer.contents b);
    Mutex.unlock st.emit_lock

let journal ev fields = if st.on then write_journal_line ev fields

let event ?(args = []) name =
  if st.on then begin
    write_trace_event ~name ~ph:"i" ~ts:((now () -. st.t0) *. 1e6) args;
    write_journal_line name args
  end

let record_span ?(args = []) name ~seconds =
  if st.on then begin
    Mutex.lock st.emit_lock;
    let agg =
      match Hashtbl.find_opt span_aggs name with
      | Some a -> a
      | None ->
        let a = { calls = 0; total = 0. } in
        Hashtbl.add span_aggs name a;
        a
    in
    agg.calls <- agg.calls + 1;
    agg.total <- agg.total +. seconds;
    Mutex.unlock st.emit_lock;
    let ts = Float.max 0. ((now () -. seconds -. st.t0) *. 1e6) in
    write_trace_event ~name ~ph:"X" ~ts ~dur:(seconds *. 1e6) args;
    write_journal_line "span" (("name", S name) :: ("dur_s", F seconds) :: ("depth", I st.depth) :: args)
  end

let emit_value name v =
  if st.on then
    write_trace_event ~name ~ph:"C" ~ts:((now () -. st.t0) *. 1e6) [ ("value", I v) ]

let with_span ?(args = []) name f =
  if not st.on then f ()
  else begin
    let span_t0 = now () in
    st.depth <- st.depth + 1;
    let finish () =
      st.depth <- st.depth - 1;
      let span_t1 = now () in
      let dt = span_t1 -. span_t0 in
      (* spans run on worker domains too; guard the aggregate table *)
      Mutex.lock st.emit_lock;
      let agg =
        match Hashtbl.find_opt span_aggs name with
        | Some a -> a
        | None ->
          let a = { calls = 0; total = 0. } in
          Hashtbl.add span_aggs name a;
          a
      in
      agg.calls <- agg.calls + 1;
      agg.total <- agg.total +. dt;
      Mutex.unlock st.emit_lock;
      write_trace_event ~name ~ph:"X" ~ts:((span_t0 -. st.t0) *. 1e6) ~dur:(dt *. 1e6) args;
      write_journal_line "span"
        (("name", S name) :: ("dur_s", F dt) :: ("depth", I st.depth) :: args)
    in
    Fun.protect ~finally:finish f
  end

(* ------------------------------------------------------------------ *)
(* Progress                                                             *)
(* ------------------------------------------------------------------ *)

let progress_tick ~label ~expanded ~discovered ~budget ~wave ~frontier =
  if st.progress then begin
    let t = now () in
    if t -. st.last_progress >= 0.2 then begin
      st.last_progress <- t;
      let dt = Float.max 1e-9 (t -. st.t0) in
      let rate = float_of_int expanded /. dt in
      let eta = if rate > 0. then float_of_int frontier /. rate else 0. in
      Printf.eprintf
        "\r[%s] expanded %d / discovered %d (budget %d)  %.0f cfg/s  wave %d  frontier %d  eta %.0fs   %!"
        label expanded discovered budget rate wave frontier eta;
      st.progress_live <- true
    end
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let enable ?trace ?journal ?(progress = false) () =
  if st.on then invalid_arg "Telemetry.enable: already enabled (the flag is write-once)";
  st.t0 <- now ();
  st.last_progress <- 0.;
  (match trace with
  | Some path ->
    let oc = open_out path in
    output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    st.trace <- Some oc
  | None -> ());
  (match journal with Some path -> st.journal_oc <- Some (open_out path) | None -> ());
  st.progress <- progress;
  st.on <- true

let shutdown () =
  if st.progress_live then begin
    prerr_newline ();
    st.progress_live <- false
  end;
  st.progress <- false;
  (match st.trace with
  | Some oc ->
    output_string oc "\n]}\n";
    close_out oc;
    st.trace <- None
  | None -> ());
  match st.journal_oc with
  | Some oc ->
    close_out oc;
    st.journal_oc <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                     *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The snapshot is a {e live} API — the service's [stats] verb calls it on
   the event loop while worker domains may be registering new names — so the
   table walks happen under the emit lock (folding a Hashtbl during a
   concurrent resize is unsafe).  Reading the mutable int fields afterwards
   is at worst slightly stale, never torn. *)
let metrics_bindings () =
  Mutex.lock st.emit_lock;
  let cs = sorted_bindings counters
  and hs = sorted_bindings histograms
  and ss = sorted_bindings span_aggs in
  Mutex.unlock st.emit_lock;
  (cs, hs, ss)

let metrics_json () =
  let all_counters, all_histograms, all_spans = metrics_bindings () in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"dda.telemetry/1\",\n  \"counters\": {";
  let live_counters = List.filter (fun (_, c) -> c.count <> 0) all_counters in
  List.iteri
    (fun i (name, c) ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": %d" (if i > 0 then "," else "") (Json.escape name) c.count))
    live_counters;
  Buffer.add_string b (if live_counters = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"histograms\": {";
  let live_histograms = List.filter (fun (_, h) -> h.n > 0) all_histograms in
  List.iteri
    (fun i (name, h) ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": {\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"mean\": %.3f, \"buckets\": {"
           (if i > 0 then "," else "")
           (Json.escape name) h.n h.sum h.lo h.hi
           (float_of_int h.sum /. float_of_int h.n));
      let first = ref true in
      Array.iteri
        (fun k count ->
          if count > 0 then begin
            if not !first then Buffer.add_string b ", ";
            first := false;
            let label = if k = 0 then "0" else Printf.sprintf "lt_%d" (1 lsl k) in
            Buffer.add_string b (Printf.sprintf "\"%s\": %d" label count)
          end)
        h.buckets;
      Buffer.add_string b "}}")
    live_histograms;
  Buffer.add_string b (if live_histograms = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"spans\": {";
  let spans = all_spans in
  List.iteri
    (fun i (name, a) ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": {\"count\": %d, \"total_s\": %.6f, \"mean_s\": %.6f}"
           (if i > 0 then "," else "")
           (Json.escape name) a.calls a.total
           (a.total /. float_of_int (max 1 a.calls))))
    spans;
  Buffer.add_string b (if spans = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"derived\": {";
  let cval name =
    match List.assoc_opt name all_counters with Some c -> c.count | None -> 0
  in
  let derived =
    List.filter_map
      (fun (label, hits, misses) ->
        if hits + misses > 0 then
          Some (label, float_of_int hits /. float_of_int (hits + misses))
        else None)
      [
        ("engine.memo.hit_rate", cval "engine.memo.hits", cval "engine.memo.misses");
        ("cache.hit_rate", cval "cache.hits", cval "cache.misses");
      ]
  in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (Printf.sprintf "%s\n    \"%s\": %.6f" (if i > 0 then "," else "") name v))
    derived;
  Buffer.add_string b (if derived = [] then "}\n}\n" else "\n  }\n}\n");
  Buffer.contents b

let write_metrics path = Out_channel.with_open_bin path (fun oc -> output_string oc (metrics_json ()))

(* ------------------------------------------------------------------ *)
(* Sliding-window histograms                                            *)
(* ------------------------------------------------------------------ *)

module Window = struct
  (* A ring of per-second slots.  Each slot is stamped with the absolute
     second it covers; a slot whose stamp is outside the window is dead and
     is lazily reclaimed the next time its ring position is written — so
     idle gaps cost nothing and expire correctly.  Quantiles come from a
     bounded per-slot sample reservoir: exact up to [slot_cap] observations
     per second, uniformly subsampled beyond that. *)

  type slot = {
    mutable s_sec : int;  (* absolute second this slot covers; -1 = empty *)
    mutable s_n : int;    (* observations recorded that second *)
    mutable s_sum : float;
    samples : float array;
    mutable stored : int; (* live prefix of [samples] *)
  }

  type t = {
    w_name : string;
    window_s : int;
    slots : slot array;   (* window_s entries, indexed sec mod window_s *)
    w_lock : Mutex.t;
    mutable seed : int;   (* cheap LCG state for reservoir replacement *)
  }

  type snapshot = {
    win_s : int;
    count : int;
    sum : float;
    rate : float;  (* count / window_s, observations per second *)
    p50 : float;
    p95 : float;
    p99 : float;
    max_v : float;
  }

  let create ?(window_s = 60) ?(slot_cap = 512) name =
    if window_s < 1 then invalid_arg "Telemetry.Window.create: window_s < 1";
    if slot_cap < 1 then invalid_arg "Telemetry.Window.create: slot_cap < 1";
    {
      w_name = name;
      window_s;
      slots =
        Array.init window_s (fun _ ->
            { s_sec = -1; s_n = 0; s_sum = 0.; samples = Array.make slot_cap 0.; stored = 0 });
      w_lock = Mutex.create ();
      seed = 0x9E3779B9;
    }

  let name w = w.w_name

  (* Windows are owned objects, not global counters: they observe
     unconditionally, independent of the process-wide [st.on] flag, because
     the service's live stats must work even when no sink flag was given. *)
  let observe ?now:(t = now ()) w v =
    Mutex.lock w.w_lock;
    let sec = int_of_float t in
    let s = w.slots.(sec mod w.window_s) in
    if s.s_sec <> sec then begin
      (* ring position belonged to an expired second: recycle it *)
      s.s_sec <- sec;
      s.s_n <- 0;
      s.s_sum <- 0.;
      s.stored <- 0
    end;
    s.s_n <- s.s_n + 1;
    s.s_sum <- s.s_sum +. v;
    let cap = Array.length s.samples in
    if s.stored < cap then begin
      s.samples.(s.stored) <- v;
      s.stored <- s.stored + 1
    end
    else begin
      (* reservoir sampling: keep each of the second's observations with
         equal probability cap/n *)
      w.seed <- ((w.seed * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = w.seed mod s.s_n in
      if j < cap then s.samples.(j) <- v
    end;
    Mutex.unlock w.w_lock

  (* nearest-rank quantile on a sorted array prefix *)
  let quantile sorted n q =
    if n = 0 then 0.
    else begin
      let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      sorted.(max 0 (min (n - 1) rank))
    end

  let snapshot ?now:(t = now ()) w =
    Mutex.lock w.w_lock;
    let cur = int_of_float t in
    let oldest = cur - w.window_s + 1 in
    let count = ref 0 and sum = ref 0. and live = ref 0 in
    Array.iter
      (fun s ->
        if s.s_sec >= oldest && s.s_sec <= cur then begin
          count := !count + s.s_n;
          sum := !sum +. s.s_sum;
          live := !live + s.stored
        end)
      w.slots;
    let merged = Array.make (max 1 !live) 0. in
    let k = ref 0 in
    Array.iter
      (fun s ->
        if s.s_sec >= oldest && s.s_sec <= cur then
          for i = 0 to s.stored - 1 do
            merged.(!k) <- s.samples.(i);
            Stdlib.incr k
          done)
      w.slots;
    Mutex.unlock w.w_lock;
    let n = !k in
    let sub = Array.sub merged 0 (max 1 n) in
    Array.sort compare sub;
    {
      win_s = w.window_s;
      count = !count;
      sum = !sum;
      rate = float_of_int !count /. float_of_int w.window_s;
      p50 = quantile sub n 0.50;
      p95 = quantile sub n 0.95;
      p99 = quantile sub n 0.99;
      max_v = (if n = 0 then 0. else sub.(n - 1));
    }

  let snapshot_json ?now w =
    let s = snapshot ?now w in
    Printf.sprintf
      "{\"window_s\":%d,\"count\":%d,\"sum\":%.6f,\"rate\":%.3f,\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f}"
      s.win_s s.count s.sum s.rate s.p50 s.p95 s.p99 s.max_v
end

(* ------------------------------------------------------------------ *)
(* Registry and validation                                              *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  let counters =
    [
      "engine.configs.interned";
      "engine.configs.dedup_hits";
      "engine.edges.silent";
      "engine.states.interned";
      "engine.memo.hits";
      "engine.memo.misses";
      "engine.table.probes";
      "engine.table.resizes";
      "engine.waves";
      "engine.frontier.peak";
      "engine.spill.segments_out";
      "engine.spill.segments_in";
      "engine.spill.bytes_out";
      "engine.spill.bytes_in";
      "sched.steps";
      "sched.resets";
      "cache.hits";
      "cache.misses";
      "cache.stores";
      "cache.mem_hit";
      "cache.mem_evict";
      "batch.jobs";
      "batch.bounded";
      "batch.errors";
      "symbolic.configs";
      "symbolic.edges";
      "symbolic.deltas";
      "symbolic.instances";
      "wsts.pre.candidates";
      "wsts.basis.grown";
      "wsts.basis.width";
      "service.connections";
      "service.requests";
      "service.hits";
      "service.rejected";
      "service.bounded";
      "service.errors";
      "service.queue.peak";
      "router.requests";
      "router.forwarded";
      "router.retries";
      "router.ejections";
      "router.readmissions";
      "router.errors";
    ]

  let histograms = [ "engine.wave.size"; "sched.selection.size"; "service.latency_ms" ]

  let spans =
    [ "explore"; "scc"; "verdict"; "simulate"; "synthesise"; "telemetry.selftest"; "batch";
      "batch.job"; "service.request"; "symbolic.explore"; "symbolic.certify";
      "wsts.pre_star"; "spill" ]

  let tracks = [ "engine.frontier"; "engine.resident_bytes"; "service.queue" ]

  (* Gauges are point-in-time values reported by the service's live stats
     document ([dda.stats/1]) — not cumulative counters.  Totals that the
     server tracks outside the telemetry counter table (served, computed)
     are listed here too: in the stats document they are point-in-time
     reads of server state. *)
  let gauges =
    [
      "service.uptime_s";
      "service.active_connections";
      "service.queue_depth";
      "service.inflight";
      "service.backlog_bytes";
      "service.draining";
      "service.accepted";
      "service.served";
      "service.computed";
      "service.mem_cache.size";
      "service.mem_cache.capacity";
      "service.mem_cache.hits";
      "service.mem_cache.misses";
      "service.mem_cache.evictions";
      "service.mem_cache.hit_rate";
      "router.backends";
      "router.backends_up";
      "router.queued";
      "engine.resident_bytes";
      "engine.spill.segments";
    ]

  let windows = [ "service.window.latency_ms" ]

  (* batch.shard.<k>.jobs *)
  let shard_counter name =
    let pre = "batch.shard." and post = ".jobs" in
    let lp = String.length pre and ls = String.length post and ln = String.length name in
    ln > lp + ls
    && String.sub name 0 lp = pre
    && String.sub name (ln - ls) ls = post
    && begin
         let mid = String.sub name lp (ln - lp - ls) in
         mid <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') mid
       end

  let valid_counter name = List.mem name counters || shard_counter name
  let valid_histogram name = List.mem name histograms
  let valid_span name = List.mem name spans

  (* service.verb.<v> — per-verb request counts; the verb set may grow with
     the protocol, so validation is structural like the shard counters *)
  let verb_gauge name =
    let pre = "service.verb." in
    let lp = String.length pre and ln = String.length name in
    ln > lp
    && String.sub name 0 lp = pre
    && String.for_all
         (fun ch -> (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '_')
         (String.sub name lp (ln - lp))

  let valid_gauge name = List.mem name gauges || verb_gauge name
  let valid_window name = List.mem name windows
end

let validate_metrics doc =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.member "schema" doc with
  | Some (Json.Str "dda.telemetry/1") -> ()
  | Some _ -> bad "schema is not \"dda.telemetry/1\""
  | None -> bad "missing \"schema\"");
  let check_section section valid check_value =
    match Json.member section doc with
    | Some (Json.Obj fields) ->
      List.iter
        (fun (name, v) ->
          if not (valid name) then bad "%s: unregistered name %S" section name;
          check_value name v)
        fields
    | Some _ -> bad "%S is not an object" section
    | None -> bad "missing %S" section
  in
  let non_negative_int section name = function
    | Json.Num f when Float.is_integer f && f >= 0. -> ()
    | _ -> bad "%s.%s: not a non-negative integer" section name
  in
  check_section "counters" Registry.valid_counter (non_negative_int "counters");
  check_section "histograms" Registry.valid_histogram (fun name v ->
      List.iter
        (fun key ->
          match Json.member key v with
          | Some (Json.Num _) -> ()
          | _ -> bad "histograms.%s: missing numeric %S" name key)
        [ "count"; "sum"; "min"; "max"; "mean" ]);
  check_section "spans" Registry.valid_span (fun name v ->
      List.iter
        (fun key ->
          match Json.member key v with
          | Some (Json.Num _) -> ()
          | _ -> bad "spans.%s: missing numeric %S" name key)
        [ "count"; "total_s" ]);
  List.rev !problems

let validate_stats doc =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.member "schema" doc with
  | Some (Json.Str "dda.stats/1") -> ()
  | Some _ -> bad "schema is not \"dda.stats/1\""
  | None -> bad "missing \"schema\"");
  (match Json.member "health" doc with
  | Some (Json.Str ("ok" | "draining" | "overloaded")) -> ()
  | Some (Json.Str s) -> bad "health: unknown state %S" s
  | _ -> bad "missing string \"health\"");
  (match Json.member "gauges" doc with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (name, v) ->
        (* totals carried over from the counter table keep their counter
           names; everything else must be a registered gauge *)
        if not (Registry.valid_gauge name || Registry.valid_counter name) then
          bad "gauges: unregistered name %S" name;
        match v with
        | Json.Num f when Float.is_finite f -> ()
        | _ -> bad "gauges.%s: not a finite number" name)
      fields
  | Some _ -> bad "\"gauges\" is not an object"
  | None -> bad "missing \"gauges\"");
  (match Json.member "windows" doc with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (name, v) ->
        if not (Registry.valid_window name) then bad "windows: unregistered name %S" name;
        List.iter
          (fun key ->
            match Json.member key v with
            | Some (Json.Num _) -> ()
            | _ -> bad "windows.%s: missing numeric %S" name key)
          [ "window_s"; "count"; "rate"; "p50"; "p95"; "p99"; "max" ])
      fields
  | Some _ -> bad "\"windows\" is not an object"
  | None -> bad "missing \"windows\"");
  (match Json.member "telemetry" doc with
  | Some (Json.Obj _ as t) ->
    List.iter (fun p -> bad "telemetry: %s" p) (validate_metrics t)
  | Some _ -> bad "\"telemetry\" is not an object"
  | None -> bad "missing \"telemetry\"");
  List.rev !problems

let validate_trace doc =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.member "traceEvents" doc with
  | Some (Json.Arr events) ->
    List.iteri
      (fun i ev ->
        let name =
          match Json.member "name" ev with
          | Some (Json.Str s) when s <> "" -> Some s
          | _ ->
            bad "event %d: missing non-empty \"name\"" i;
            None
        in
        (match Json.member "ts" ev with
        | Some (Json.Num ts) when ts >= 0. -> ()
        | _ -> bad "event %d: missing non-negative \"ts\"" i);
        match Json.member "ph" ev with
        | Some (Json.Str "X") ->
          (match Json.member "dur" ev with
          | Some (Json.Num d) when d >= 0. -> ()
          | _ -> bad "event %d: \"X\" event without non-negative \"dur\"" i);
          (match name with
          | Some n when not (Registry.valid_span n) -> bad "event %d: unregistered span %S" i n
          | _ -> ())
        | Some (Json.Str "C") -> (
          match name with
          | Some n when not (List.mem n Registry.tracks) -> bad "event %d: unregistered track %S" i n
          | _ -> ())
        | Some (Json.Str ("i" | "B" | "E" | "M")) -> ()
        | _ -> bad "event %d: missing or unsupported \"ph\"" i)
      events
  | Some _ -> bad "\"traceEvents\" is not an array"
  | None -> bad "missing \"traceEvents\"");
  List.rev !problems

let validate_journal contents =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match Json.parse line with
        | Error msg -> bad "line %d: %s" (i + 1) msg
        | Ok doc ->
          (match Json.member "ev" doc with
          | Some (Json.Str _) -> ()
          | _ -> bad "line %d: missing string \"ev\"" (i + 1));
          (match Json.member "t" doc with
          | Some (Json.Num t) when t >= 0. -> ()
          | _ -> bad "line %d: missing non-negative \"t\"" (i + 1)))
    (String.split_on_char '\n' contents);
  List.rev !problems
