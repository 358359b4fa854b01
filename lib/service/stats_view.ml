(* Render a parsed dda.stats/1 document for humans and scrapers.  Pure
   functions of the Json.t — no sockets, no clocks — so both renderers
   are unit-testable without a live server. *)

module Json = Dda_telemetry.Json
module T = Dda_telemetry.Telemetry

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let metric name = "dda_" ^ sanitize name

(* Prometheus exposition format 0.0.4: inside a label value, backslash,
   double quote and newline must be escaped with a leading backslash
   (newline becoming backslash-n) — anything else passes through
   verbatim.  Every string that reaches a label position goes through
   here; a value that skipped it could splice new sample lines into the
   scrape. *)
let escape_label v =
  let clean = ref true in
  String.iter (fun c -> if c = '\\' || c = '"' || c = '\n' then clean := false) v;
  if !clean then v
  else begin
    let b = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b
  end

(* terminal sink (dda top): strip control bytes so a hostile verb or
   health string cannot move the cursor or splice frame lines *)
let printable s = String.map (fun c -> if c < ' ' || c = '\x7f' then '.' else c) s

(* Prometheus accepts any float literal; integral values print without a
   fractional part so counters look like counters. *)
let fnum f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let num name j = match Json.member name j with Some (Json.Num f) -> Some f | _ -> None
let str name j = match Json.member name j with Some (Json.Str s) -> Some s | _ -> None
let obj name j = match Json.member name j with Some (Json.Obj kvs) -> kvs | _ -> []

let is_stats_doc doc =
  match str "schema" doc with Some "dda.stats/1" -> true | _ -> false

(* --- Prometheus text exposition -------------------------------------------- *)

let add_metric b ~typ name lines =
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
  List.iter (fun l -> Buffer.add_string b (l ^ "\n")) lines

let prometheus doc =
  if not (is_stats_doc doc) then Error "not a dda.stats/1 document"
  else begin
    let b = Buffer.create 2048 in
    (* health as a one-hot state vector: the current state is 1, the
       others 0, so alerting rules can match on any state by label *)
    let health = Option.value ~default:"unknown" (str "health" doc) in
    let known = [ "ok"; "draining"; "overloaded" ] in
    add_metric b ~typ:"gauge" "dda_health"
      (List.map
         (fun s ->
           Printf.sprintf "dda_health{state=\"%s\"} %d" (escape_label s)
             (if s = health then 1 else 0))
         known
      @
      (* an unknown state is still reported — escaped, so a hostile value
         cannot splice extra sample lines into the scrape *)
      if List.mem health known then []
      else [ Printf.sprintf "dda_health{state=\"%s\"} 1" (escape_label health) ]);
    List.iter
      (fun (name, v) ->
        match v with
        | Json.Num f -> add_metric b ~typ:"gauge" (metric name) [ metric name ^ " " ^ fnum f ]
        | _ -> ())
      (obj "gauges" doc);
    (* windows: Prometheus summaries (pre-computed quantiles) plus the
       window's own rate and max as plain gauges *)
    List.iter
      (fun (name, w) ->
        let m = metric name in
        let q label key =
          match num key w with
          | Some f ->
            [ Printf.sprintf "%s{quantile=\"%s\"} %s" m (escape_label label) (fnum f) ]
          | None -> []
        in
        let sum = Option.value ~default:0. (num "sum" w) in
        let count = Option.value ~default:0. (num "count" w) in
        add_metric b ~typ:"summary" m
          (q "0.5" "p50" @ q "0.95" "p95" @ q "0.99" "p99"
          @ [ Printf.sprintf "%s_sum %s" m (fnum sum); Printf.sprintf "%s_count %s" m (fnum count) ]);
        (match num "rate" w with
        | Some r -> add_metric b ~typ:"gauge" (m ^ "_rate") [ m ^ "_rate " ^ fnum r ]
        | None -> ());
        match num "max" w with
        | Some x -> add_metric b ~typ:"gauge" (m ^ "_max") [ m ^ "_max " ^ fnum x ]
        | None -> ())
      (obj "windows" doc);
    (* router documents carry per-backend rows; backend addresses are
       operator data (a socket path may contain any byte) so they only
       ever appear as escaped label values *)
    (match Json.member "backends" doc with
    | Some (Json.Arr rows) when rows <> [] ->
      let label r = escape_label (Option.value ~default:"?" (str "addr" r)) in
      add_metric b ~typ:"gauge" "dda_router_backend_up"
        (List.map
           (fun r ->
             Printf.sprintf "dda_router_backend_up{backend=\"%s\"} %d" (label r)
               (if str "state" r = Some "up" then 1 else 0))
           rows);
      let per_row ~typ name key =
        let lines =
          List.filter_map
            (fun r ->
              Option.map
                (fun f -> Printf.sprintf "%s{backend=\"%s\"} %s" name (label r) (fnum f))
                (num key r))
            rows
        in
        if lines <> [] then add_metric b ~typ name lines
      in
      per_row ~typ:"gauge" "dda_router_backend_inflight" "inflight";
      per_row ~typ:"counter" "dda_router_backend_forwarded_total" "forwarded";
      per_row ~typ:"counter" "dda_router_backend_ejections_total" "ejections"
    | _ -> ());
    let tel = match Json.member "telemetry" doc with Some t -> t | None -> Json.Obj [] in
    List.iter
      (fun (name, v) ->
        match v with
        | Json.Num f ->
          let m = metric name ^ "_total" in
          add_metric b ~typ:"counter" m [ m ^ " " ^ fnum f ]
        | _ -> ())
      (obj "counters" tel);
    (* telemetry histograms bucket by power of two: label "0" holds the
       zero values, "lt_N" the values in [N/2, N).  Integer samples, so
       "value < N" is "value <= N-1" — the cumulative le bound. *)
    List.iter
      (fun (name, h) ->
        let m = metric name in
        let buckets =
          List.filter_map
            (fun (label, v) ->
              match v with
              | Json.Num c ->
                let le =
                  if label = "0" then Some "0"
                  else
                    (try Some (string_of_int (int_of_string (String.sub label 3 (String.length label - 3)) - 1))
                     with _ -> None)
                in
                Option.map (fun le -> (le, c)) le
              | _ -> None)
            (obj "buckets" h)
        in
        let count = Option.value ~default:0. (num "count" h) in
        let sum = Option.value ~default:0. (num "sum" h) in
        let cum = ref 0. in
        let lines =
          List.map
            (fun (le, c) ->
              cum := !cum +. c;
              Printf.sprintf "%s_bucket{le=\"%s\"} %s" m (escape_label le) (fnum !cum))
            buckets
          @ [
              Printf.sprintf "%s_bucket{le=\"+Inf\"} %s" m (fnum count);
              Printf.sprintf "%s_sum %s" m (fnum sum);
              Printf.sprintf "%s_count %s" m (fnum count);
            ]
        in
        add_metric b ~typ:"histogram" m lines)
      (obj "histograms" tel);
    List.iter
      (fun (name, s) ->
        let calls = Option.value ~default:0. (num "count" s) in
        let total = Option.value ~default:0. (num "total_s" s) in
        let m = metric name in
        add_metric b ~typ:"counter" (m ^ "_calls_total") [ m ^ "_calls_total " ^ fnum calls ];
        add_metric b ~typ:"counter" (m ^ "_seconds_total") [ m ^ "_seconds_total " ^ fnum total ])
      (obj "spans" tel);
    List.iter
      (fun (name, v) ->
        match v with
        | Json.Num f -> add_metric b ~typ:"gauge" (metric name) [ metric name ^ " " ^ fnum f ]
        | _ -> ())
      (obj "derived" tel);
    Ok (Buffer.contents b)
  end

(* --- dda top --------------------------------------------------------------- *)

let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs =
  match xs with
  | [] -> ""
  | _ ->
    let hi = List.fold_left max 1 xs in
    String.concat ""
      (List.map
         (fun x ->
           let i = if x <= 0 then 0 else 1 + (x * (Array.length spark_chars - 2) / hi) in
           spark_chars.(min i (Array.length spark_chars - 1)))
         xs)

let gauge doc name = Option.value ~default:0. (num name (Json.Obj (obj "gauges" doc)))

let pct num den = if den > 0. then 100. *. num /. den else 0.

let render_top ?(spark = []) doc =
  if not (is_stats_doc doc) then "not a dda.stats/1 document\n"
  else begin
    let b = Buffer.create 512 in
    let g = gauge doc in
    let health = Option.value ~default:"unknown" (str "health" doc) in
    Buffer.add_string b
      (Printf.sprintf "dda top — health %s  uptime %.0fs  conns %.0f\n" (printable health)
         (g "service.uptime_s") (g "service.active_connections"));
    (match obj "windows" doc with
    | (name, w) :: _ ->
      let n key = Option.value ~default:0. (num key w) in
      Buffer.add_string b
        (Printf.sprintf "%-28s %6.1f rps  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms (last %.0fs)\n"
           (printable name) (n "rate") (n "p50") (n "p95") (n "p99") (n "max") (n "window_s"))
    | [] -> ());
    Buffer.add_string b
      (Printf.sprintf
         "queue %.0f  inflight %.0f  backlog %.0fB  rejected %.0f  served %.0f/%.0f\n"
         (g "service.queue_depth") (g "service.inflight") (g "service.backlog_bytes")
         (g "service.rejected") (g "service.served") (g "service.accepted"));
    let mh = g "service.mem_cache.hits" and mm = g "service.mem_cache.misses" in
    Buffer.add_string b
      (Printf.sprintf "mem-cache %.0f/%.0f  hit-rate %.1f%%  evictions %.0f\n"
         (g "service.mem_cache.size") (g "service.mem_cache.capacity") (pct mh (mh +. mm))
         (g "service.mem_cache.evictions"));
    let verbs =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Json.Num f when String.length name > 13 && String.sub name 0 13 = "service.verb." ->
            Some (Printf.sprintf "%s %.0f" (printable (String.sub name 13 (String.length name - 13))) f)
          | _ -> None)
        (obj "gauges" doc)
    in
    if verbs <> [] then Buffer.add_string b ("verbs: " ^ String.concat "  " verbs ^ "\n");
    if spark <> [] then
      Buffer.add_string b (Printf.sprintf "queue depth %s\n" (sparkline spark));
    Buffer.contents b
  end

(* --- The document itself ------------------------------------------------- *)

let document ~health ~window ?(members = []) gauges =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"dda.stats/1\",\"health\":\"%s\",\"gauges\":{" health);
  let first = ref true in
  gauges (fun name v ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" name v));
  Buffer.add_string b "},\"windows\":{\"service.window.latency_ms\":";
  Buffer.add_string b (T.Window.snapshot_json window);
  Buffer.add_char b '}';
  List.iter (fun (name, v) -> Buffer.add_string b (Printf.sprintf ",\"%s\":%s" name v)) members;
  Buffer.add_string b ",\"telemetry\":";
  (* the /1 wire is line-oriented, so the embedded document must be
     single-line; the snapshot's only raw newlines are its own
     pretty-printing (string values arrive escaped), so mapping them to
     spaces compacts it without a parse/re-serialise round trip *)
  String.iter (fun c -> Buffer.add_char b (if c = '\n' then ' ' else c)) (T.metrics_json ());
  Buffer.add_char b '}';
  Buffer.contents b
