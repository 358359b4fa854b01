(* dda — command-line front end.

   $ dda tables                             # regenerate the Figure 1 tables
   $ dda tables --cache                     # ... through the verdict cache
   $ dda decide -p 'exists:a'    -g cycle:abb          # exact verification
   $ dda decide -p 'threshold:a,2' -g clique:aab -f F
   $ dda simulate -p 'majority-bounded:2' -g cycle:ababa -s round-robin
   $ dda batch -m jobs.json --cache -j 4    # sharded batch verification
   $ dda cache stats                        # inspect the verdict cache
   $ dda serve -l dda.sock --cache -j 2     # persistent verification server
   $ dda client --connect dda.sock -p exists:a -g cycle:abb
   $ dda cutoff                             # Lemma 3.5 coverability demo
   $ dda graph -g star:baa                  # inspect a graph spec

   Exit codes (doc/CACHING.md, doc/SERVICE.md): 0 success; 1 a resource
   bound was hit (configuration budget exceeded, batch job bounded out,
   skipped or interrupted, request rejected by admission control);
   2 a real error (bad spec, unreadable file, validation failure, cache
   lock contention).  Cmdliner's own 123-125 for CLI misuse are
   unchanged. *)

module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module Machine = Dda_machine.Machine
module P = Dda_presburger.Predicate
module Scheduler = Dda_scheduler.Scheduler
module Run = Dda_runtime.Run
module Decide = Dda_verify.Decide
module Classes = Dda_core.Classes
module Decision = Dda_core.Decision
module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
module Spec = Dda_batch.Spec
module Batch = Dda_batch.Batch
module Store = Dda_batch.Store
module Sproto = Dda_service.Protocol
module Server = Dda_service.Server
module Router = Dda_service.Router
module Client = Dda_service.Client
module Stats_view = Dda_service.Stats_view

(* ------------------------------------------------------------------ *)
(* Telemetry wiring (doc/OBSERVABILITY.md)                              *)
(* ------------------------------------------------------------------ *)

(* Any of --trace/--metrics/--journal/--progress switches the subsystem
   on; sinks are finalised through at_exit so the trace file is valid even
   when a command bails out with a nonzero status (e.g. budget overflow). *)
let telemetry_init trace metrics journal progress =
  if trace <> None || metrics <> None || journal <> None || progress then begin
    T.enable ?trace ?journal ~progress ();
    at_exit (fun () ->
        Option.iter (fun f -> T.write_metrics f) metrics;
        T.shutdown ())
  end

(* ------------------------------------------------------------------ *)
(* Spec parsing (shared with the batch runner: Dda_batch.Spec)          *)
(* ------------------------------------------------------------------ *)

let parse_graph = Spec.parse_graph
let parse_protocol = Spec.parse_protocol
let parse_scheduler = Spec.parse_scheduler
let alphabet_of = Spec.alphabet_of

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 2

(* An analysis that refuses its input (e.g. adversarial fairness on more
   than 62 nodes) raises [Invalid_argument]: report it as refused input. *)
let or_refuse f = try f () with Invalid_argument msg -> or_die (Error msg)

(* --cache with no argument opens the default root ($DDA_CACHE or
   _dda_cache); --cache DIR opens DIR.  Shared by tables/batch/cache.
   [?memo] (entries) layers the in-memory LRU tier over the disk store —
   the server passes its --mem-cache setting here. *)
let open_cache ?memo = function
  | None -> None
  | Some "" -> Some (Store.open_ ?memo ())
  | Some dir -> Some (Store.open_ ~root:dir ?memo ())

(* Long-running cache users hold the shared advisory lock so `dda cache gc`
   cannot delete entries under them; contention is a real error (exit 2). *)
let lock_cache mode = Option.map (fun store -> or_die (Store.lock store ~mode))

(* SIGINT/SIGTERM as a polled flag: handlers only flip an atomic (no locks,
   no I/O in signal context); the workload polls or a watcher thread acts. *)
let stop_on_signals () =
  let stop = Atomic.make false in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  stop

(* --mem-budget flows through the environment so every exploration below a
   command — direct, batch-sharded, or cache-refill — picks it up. *)
let set_mem_budget = function
  | Some b when b > 0 -> Unix.putenv "DDA_MEM_BUDGET" (string_of_int b)
  | _ -> ()

let cmd_tables bounded max_nodes cache_dir mem_budget =
  set_mem_budget mem_budget;
  let cache = open_cache cache_dir in
  if not bounded then begin
    Format.printf "Figure 1 (middle): arbitrary communication graphs@.";
    Format.printf "%a@." Dda_core.Figure1.pp_table
      (Dda_core.Figure1.arbitrary_table ?cache ~max_nodes ())
  end
  else begin
    Format.printf "Figure 1 (right): degree-bounded communication graphs@.";
    Format.printf "%a@." Dda_core.Figure1.pp_table
      (Dda_core.Figure1.bounded_table ?cache ~max_nodes ())
  end;
  match cache with
  | None -> ()
  | Some _ ->
    let hits, misses = Batch.cache_stats () in
    Format.printf "cache: %d hits, %d misses@." hits misses

let cmd_graph spec dot =
  let g = or_die (parse_graph spec) in
  if dot then begin
    Format.printf "%a@." (G.to_dot Format.pp_print_string) g;
    exit 0
  end;
  Format.printf "%a@." (G.pp Format.pp_print_string) g;
  Format.printf "label count: %a@." (M.pp Format.pp_print_string) (G.label_count g);
  Format.printf "max degree:  %d@." (G.max_degree g);
  match G.validate g with
  | Ok () -> Format.printf "valid (connected, >= 3 nodes)@."
  | Error e -> Format.printf "INVALID: %s@." e

let verdict_name = function
  | Decide.Accepts -> "accepts"
  | Decide.Rejects -> "rejects"
  | Decide.Inconsistent _ -> "inconsistent"

(* A cached entry answering a decide/verify query, with its provenance. *)
let print_entry (e : Store.entry) ~tier =
  (match e.Store.verdict with
  | Store.Bounded n ->
    Format.printf "state space exceeded %d configurations (cached bound)@." n
  | Store.Verdict v ->
    Format.printf "verdict: %s (cached, %d configurations, %.2fs original)@."
      (verdict_name v) e.Store.configs e.Store.seconds);
  if e.Store.engine <> "explicit" then Format.printf "engine: %s@." e.Store.engine;
  (match e.Store.family with
  | Some fc ->
    Format.printf "family: verdict holds for all n >= %d%s, checked to n = %d@."
      fc.Store.from_n
      (match fc.Store.cutoff with
      | Some k -> Printf.sprintf " (certified, coverability cutoff K=%d)" k
      | None -> " (empirical stabilisation window)")
      fc.Store.checked_to
  | None -> ());
  Format.printf "tier: %s@." tier;
  match e.Store.verdict with Store.Bounded _ -> exit 1 | _ -> ()

(* Decide a whole clique/star family with the symbolic engine: one counted
   exploration per instance until the verdict stabilises, emitted as a
   single certified family verdict (and, with --cache, one store entry). *)
let cmd_decide_family ?cache proto_spec fam regime max_configs =
  let rep = Spec.family_representative fam in
  let (Spec.Packed m) = or_die (parse_protocol proto_spec rep) in
  Format.printf "automaton: %s   family: %s (n >= %d)   fairness: %s   engine: symbolic@."
    m.Machine.name
    (Dda_symbolic.Family.to_string fam)
    (Dda_symbolic.Family.min_nodes fam)
    (match regime with Spec.Adversarial -> "adversarial" | _ -> "pseudo-stochastic");
  match Batch.decide_family ?cache ~regime ~max_configs m fam with
  | Error msg -> or_die (Error msg)
  | Ok (d, cert) -> (
    match (d.Batch.result, cert) with
    | Batch.Bounded n, _ ->
      Format.printf "family exploration exceeds %d configurations; raise --max-configs@." n;
      exit 1
    | Batch.Verdict v, Some fc ->
      Format.printf "verdict: %s for all n >= %d %s@." (verdict_name v) fc.Store.from_n
        (match fc.Store.cutoff with
        | Some k ->
          Printf.sprintf "(certified, coverability cutoff K=%d, checked to n = %d)" k
            fc.Store.checked_to
        | None ->
          Printf.sprintf "(empirical stabilisation window, checked to n = %d)"
            fc.Store.checked_to);
      Format.printf "space: %d configurations in %.2fs@." d.Batch.configs d.Batch.seconds;
      Format.printf "tier: %s@." (if d.Batch.cached then "family" else "none")
    | Batch.Verdict v, None -> Format.printf "verdict: %s@." (verdict_name v))

let cmd_decide proto_spec graph_spec fairness_str cache_dir max_configs witness reduce
    mem_budget trace metrics journal progress =
  telemetry_init trace metrics journal progress;
  set_mem_budget mem_budget;
  let regime = or_die (Spec.parse_regime fairness_str) in
  let cache = open_cache cache_dir in
  let _lock = lock_cache `Shared cache in
  match or_die (Spec.parse_graph_spec graph_spec) with
  | Spec.Family fam -> cmd_decide_family ?cache proto_spec fam regime max_configs
  | Spec.Concrete g ->
  let (Spec.Packed m) = or_die (parse_protocol proto_spec g) in
  let plan = Batch.plan ?cache ~graph_spec ~reduce ~regime ~max_configs m g in
  let symbolic = plan.Batch.engine = "symbolic" in
  if reduce && (not symbolic) && plan.Batch.group_order = 1 then
    Format.eprintf "warning: no symmetry group known for %s; exploring unreduced@." graph_spec;
  Format.printf "automaton: %s   graph: %s (n=%d)   fairness: %s%s%s@." m.Machine.name graph_spec
    (G.nodes g)
    (match regime with Spec.Adversarial -> "adversarial" | _ -> "pseudo-stochastic")
    (if symbolic then "   engine: symbolic" else "")
    (match plan.Batch.group_order with
    | 1 -> ""
    | k -> Printf.sprintf "   symmetry: order %d" k);
  match cache with
  | Some store -> (
    match Batch.lookup store plan with
    | Some (e, tier) -> print_entry e ~tier:(Batch.tier_name tier)
    | None -> (
      let ((d, _) as c) = or_die (Batch.compute plan) in
      Batch.record store plan c;
      match d.Batch.result with
      | Batch.Bounded n ->
        Format.printf "state space exceeds %d configurations; try `dda simulate` instead@." n;
        exit 1
      | Batch.Verdict v ->
        Format.printf "verdict: %s@." (verdict_name v);
        Format.printf "space: %d configurations in %.2fs@." d.Batch.configs d.Batch.seconds;
        Format.printf "tier: none@."))
  | None ->
  let t0 = Unix.gettimeofday () in
  match Option.get plan.Batch.explore () with
  | exception Dda_verify.Space.Too_large n ->
    Format.printf "state space exceeds %d configurations; try `dda simulate` instead@." n;
    exit 1
  | space ->
    let v = or_refuse (fun () -> Decide.for_regime regime space) in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "verdict: %a@." Decide.pp_verdict v;
    (match Dda_verify.Space.engine space with
    | Some e ->
      Format.printf "space: %d configurations (%d states interned, %d delta evaluations) in %.2fs@."
        space.Dda_verify.Space.size e.Dda_verify.Engine.stats.Dda_verify.Engine.state_count
        e.Dda_verify.Engine.stats.Dda_verify.Engine.delta_evals dt;
      (match Dda_verify.Engine.spill_stats e with
      | Some s ->
        Format.printf
          "spill: budget %d bytes, peak resident %d, %d segments out / %d in (%d / %d bytes) by \
           end of exploration@."
          s.Dda_verify.Arena.mem_budget s.Dda_verify.Arena.resident_peak
          s.Dda_verify.Arena.segments_out s.Dda_verify.Arena.segments_in
          s.Dda_verify.Arena.bytes_out s.Dda_verify.Arena.bytes_in
      | None -> ())
    | None -> Format.printf "space: %d configurations in %.2fs@." space.Dda_verify.Space.size dt);
    if witness then begin
      if reduce then
        Format.printf "witness schedules need an unreduced space; re-run without --reduce@."
      else
        let target =
          match Decide.verdict_bool v with
          | Some true -> Some `Accepting
          | Some false -> Some `Rejecting
          | None -> None
        in
        match Option.map (Decide.certificate_path space) target with
        | Some (Some (schedule, _)) ->
          Format.printf "witness schedule (select one node per step): %a@."
            (Fmt.list ~sep:(Fmt.any " ") Fmt.int)
            schedule
        | _ -> Format.printf "no witness path found@."
    end

let cmd_simulate proto_spec graph_spec sched_spec max_steps trace metrics journal progress =
  telemetry_init trace metrics journal progress;
  let g = or_die (parse_graph graph_spec) in
  let (Spec.Packed m) = or_die (parse_protocol proto_spec g) in
  let sched = or_die (parse_scheduler sched_spec (G.nodes g)) in
  let r = T.with_span ~args:[ ("max_steps", T.I max_steps) ] "simulate" (fun () -> Run.simulate ~max_steps m g sched) in
  Format.printf "automaton: %s   graph: %s (n=%d)   scheduler: %s@." m.Machine.name graph_spec
    (G.nodes g) (Scheduler.name sched);
  Format.printf "verdict: %s after %d steps%s%s@."
    (match r.Run.verdict with `Accepting -> "accept" | `Rejecting -> "reject" | `Mixed -> "mixed")
    r.Run.steps_taken
    (if r.Run.quiescent then " (reached a global fixpoint)" else "")
    (match r.Run.settled_at with
    | Some t -> Printf.sprintf ", verdict settled at step %d" t
    | None -> "")

let cmd_auto pred_src graph_spec degree_bound =
  let g = or_die (parse_graph graph_spec) in
  let p =
    match P.parse pred_src with
    | Ok p -> p
    | Error e -> or_die (Error (Printf.sprintf "predicate: %s" e))
  in
  let alphabet = alphabet_of g in
  (match
     Dda_core.Synthesis.synthesise ~alphabet ?degree_bound:(if degree_bound > 0 then Some degree_bound else None) p
   with
  | Error e -> or_die (Error e)
  | Ok plan ->
    Format.printf "predicate:  %a@." P.pp p;
    Format.printf "synthesis:  class %s — %s@." plan.Dda_core.Synthesis.class_name
      plan.Dda_core.Synthesis.description;
    Format.printf "holds on the label count: %b@."
      (P.holds p (G.label_count g));
    (match Dda_core.Synthesis.decide_plan plan g with
    | Ok v -> Format.printf "verified:   %a@." Decide.pp_verdict v
    | Error (`Too_large n) ->
      let (Dda_core.Synthesis.Packed m) = plan.Dda_core.Synthesis.machine in
      let sched =
        match plan.Dda_core.Synthesis.fairness with
        | Classes.Adversarial -> Scheduler.random_adversary ~n:(G.nodes g) ~seed:1
        | Classes.Pseudo_stochastic -> Scheduler.random_exclusive ~n:(G.nodes g) ~seed:1
      in
      let r = Run.simulate ~max_steps:4_000_000 m g sched in
      Format.printf "space too large (> %d configs); simulated: %s after %d steps@." n
        (match r.Run.verdict with `Accepting -> "accept" | `Rejecting -> "reject" | `Mixed -> "mixed")
        r.Run.steps_taken
    | Error `No_cycle -> Format.printf "no decision@."))

let cmd_program which =
  let module CB = Dda_protocols.Counter_broadcast in
  let prog =
    match which with
    | "prime" -> Ok CB.primality
    | "divides" -> Ok CB.divides
    | "majority" -> Ok CB.majority
    | "pow2" -> Ok CB.power_of_two
    | other -> Error (Printf.sprintf "unknown program %S (prime|divides|majority|pow2)" other)
  in
  let prog = or_die prog in
  Format.printf "%a@." CB.pp_program prog

let cmd_cutoff () =
  let module C = Dda_wsts.Coverability in
  let module N = Dda_machine.Neighbourhood in
  let exists_a =
    Machine.create ~name:"exists-a" ~beta:1
      ~init:(fun l -> l = 'a')
      ~delta:(fun q n -> q || N.present n true)
      ~accepting:(fun q -> q)
      ~rejecting:(fun q -> not q)
      ()
  in
  let states = [ false; true ] in
  let targets = C.non_rejecting_targets ~states exists_a in
  let pre = C.pre_star ~states exists_a targets in
  Format.printf "∃a automaton: Pre*(non-rejecting) has %d minimal star configurations@."
    (List.length (C.basis_elements pre));
  Format.printf "Lemma 3.5 cutoff bound: K = %d@." (C.cutoff_bound ~states exists_a)

let cmd_batch manifest shards time_budget max_configs cache_dir report_file mem_budget trace
    metrics journal progress =
  telemetry_init trace metrics journal progress;
  set_mem_budget mem_budget;
  let jobs = or_die (Batch.manifest_of_file ?default_max_configs:max_configs manifest) in
  let cache = open_cache cache_dir in
  let lock = lock_cache `Shared cache in
  let stop = stop_on_signals () in
  let report =
    Batch.run ?cache ~shards ?time_budget ~interrupted:(fun () -> Atomic.get stop) jobs
  in
  Option.iter Store.unlock lock;
  Format.printf "%a@." Batch.pp_report report;
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Batch.report_json report));
      Format.printf "report written to %s@." file)
    report_file;
  let failed, bounded_or_skipped =
    List.fold_left
      (fun (f, b) (_, outcome, _) ->
        match outcome with
        | Batch.Failed _ -> (f + 1, b)
        | Batch.Skipped | Batch.Interrupted
        | Batch.Done { Batch.result = Batch.Bounded _; _ } ->
          (f, b + 1)
        | Batch.Done _ -> (f, b))
      (0, 0) report.Batch.jobs
  in
  if failed > 0 then exit 2 else if bounded_or_skipped > 0 then exit 1

let cmd_cache action dir =
  let store = Store.open_ ?root:dir () in
  match action with
  | "stats" ->
    let s = Store.stats store in
    Format.printf "root:    %s@." (Store.root store);
    Format.printf "entries: %d@." s.Store.entries;
    Format.printf "corrupt: %d@." s.Store.corrupt;
    Format.printf "stale:   %d@." s.Store.stale;
    Format.printf "bytes:   %d@." s.Store.bytes
  | "verify" -> (
    match Store.verify store with
    | [] -> Format.printf "%s: OK@." (Store.root store)
    | problems ->
      List.iter (fun (path, reason) -> Format.printf "%s: %s@." path reason) problems;
      exit 2)
  | "gc" ->
    (* gc deletes files: it must be the sole store user (exit 2 if a
       server or batch run holds the shared lock) *)
    let l = or_die (Store.lock store ~mode:`Exclusive) in
    let removed = Store.gc store in
    Store.unlock l;
    Format.printf "removed %d corrupt/stale entries from %s@." removed (Store.root store)
  | other -> or_die (Error (Printf.sprintf "unknown cache action %S (stats|verify|gc)" other))

(* ------------------------------------------------------------------ *)
(* The verification service (doc/SERVICE.md)                            *)
(* ------------------------------------------------------------------ *)

let cmd_serve listens cache_dir mem_cache workers queue conn_limit max_connections cap
    deadline_ms window_s access_log log_sample slow_ms trace metrics journal progress =
  telemetry_init trace metrics journal progress;
  (* the stats verb serves the live telemetry snapshot, so a server always
     counts — even without --metrics/--trace sinks *)
  if not (T.enabled ()) then T.enable ();
  let addresses = List.map (fun s -> or_die (Sproto.parse_address s)) listens in
  if addresses = [] then or_die (Error "serve: pass at least one --listen ADDR");
  let cache = open_cache ~memo:mem_cache cache_dir in
  let lock = lock_cache `Shared cache in
  let cfg =
    {
      Server.addresses;
      cache;
      workers;
      queue_capacity = queue;
      conn_limit;
      max_connections;
      max_configs_cap = cap;
      default_deadline_ms = deadline_ms;
      window_s;
      access_log;
      log_sample;
      slow_ms;
    }
  in
  let srv = or_die (Server.start cfg) in
  let stop = stop_on_signals () in
  Format.printf "dda serve: listening on %s (%d worker(s), queue %d, conn limit %d)%s@."
    (String.concat ", " (List.map Sproto.address_to_string addresses))
    (max 1 workers) queue conn_limit
    (match cache with Some store -> "  cache " ^ Store.root store | None -> "  no cache");
  (* the handler only flips the flag; this thread performs the drain *)
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05
        done;
        Format.eprintf "dda serve: draining (finishing in-flight requests)@.";
        Server.drain srv)
      ()
  in
  let s = Server.wait srv in
  Option.iter Store.unlock lock;
  Format.printf
    "dda serve: drained — %d connection(s), %d accepted, %d served (%d hits, %d computed, %d \
     bounded), %d rejected, %d error(s), %d ping(s)@."
    s.Server.connections s.Server.accepted s.Server.served s.Server.hits s.Server.computed
    s.Server.bounded s.Server.rejected s.Server.errors s.Server.pings

let cmd_route listens backend_args replicas max_connections conn_limit backend_window
    backend_backlog connect_timeout probe_interval probe_timeout no_retry window_s trace
    metrics journal progress =
  telemetry_init trace metrics journal progress;
  if not (T.enabled ()) then T.enable ();
  let listen = List.map (fun s -> or_die (Sproto.parse_address s)) listens in
  if listen = [] then or_die (Error "route: pass at least one --listen ADDR");
  (* --backends accepts comma lists and is repeatable; both spellings mix *)
  let backends =
    List.concat_map (String.split_on_char ',') backend_args
    |> List.filter_map (fun s ->
           let s = String.trim s in
           if s = "" then None else Some (or_die (Sproto.parse_address s)))
  in
  if backends = [] then or_die (Error "route: pass at least one --backends ADDR[,ADDR...]");
  let cfg =
    {
      Router.listen;
      backends;
      replicas;
      max_connections;
      conn_limit;
      backend_window;
      backend_backlog;
      connect_timeout;
      probe_interval;
      probe_timeout;
      retry = not no_retry;
      window_s;
    }
  in
  let rt = or_die (Router.start cfg) in
  let stop = stop_on_signals () in
  let s0 = Router.stats rt in
  Format.printf "dda route: listening on %s — %d backend(s), %d up (window %d, replicas %d)@."
    (String.concat ", " (List.map Sproto.address_to_string listen))
    (List.length backends) s0.Router.backends_up backend_window replicas;
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05
        done;
        Format.eprintf "dda route: draining (answering in-flight forwards)@.";
        Router.drain rt)
      ()
  in
  let s = Router.wait rt in
  Format.printf
    "dda route: drained — %d connection(s), %d request(s), %d forwarded (%d retried), %d \
     rejected, %d error(s), %d ejection(s), %d readmission(s)@."
    s.Router.connections s.Router.requests s.Router.forwarded s.Router.retries s.Router.rejected
    s.Router.errors s.Router.ejections s.Router.readmissions

let client_mix mix_file proto graph fairness_str max_configs =
  match mix_file with
  | Some f -> or_die (Batch.manifest_of_file ?default_max_configs:max_configs f)
  | None -> (
    match (proto, graph) with
    | Some protocol, Some graph ->
      let regime = or_die (Spec.parse_regime fairness_str) in
      [ { Batch.protocol; graph; regime; max_configs = Option.value ~default:200_000 max_configs } ]
    | _ -> or_die (Error "client: pass --mix FILE or -p PROTO -g GRAPH"))

let cmd_client connect_s ping health trace_id bench v2 pipeline proto graph fairness_str
    max_configs deadline_ms clients per_client mix_file json_file min_hit_rate =
  let addr = or_die (Sproto.parse_address connect_s) in
  let version = if v2 then 2 else 1 in
  if ping then begin
    let c = or_die (Client.connect ~version addr) in
    let ms = or_die (Client.ping c) in
    Client.close c;
    Format.printf "pong in %.2f ms@." ms
  end
  else if health then begin
    let c = or_die (Client.connect ~version addr) in
    let state = or_die (Client.health c) in
    Client.close c;
    Format.printf "%s@." state;
    if state <> "ok" then exit 1
  end
  else if bench then begin
    let mix = client_mix mix_file proto graph fairness_str max_configs in
    let summary =
      or_die (Client.load ~version ~pipeline addr { Client.clients; per_client; mix; deadline_ms })
    in
    Format.printf "%a@." Client.pp_summary summary;
    Option.iter
      (fun f ->
        Out_channel.with_open_bin f (fun oc ->
            Out_channel.output_string oc (Client.summary_json summary));
        Format.printf "summary written to %s@." f)
      json_file;
    (match min_hit_rate with
    | Some r when Client.hit_rate summary < r ->
      Format.eprintf "error: hit rate %.3f below required %.3f@." (Client.hit_rate summary) r;
      exit 2
    | _ -> ());
    if summary.Client.errors > 0 then exit 2
    else if summary.Client.rejected > 0 || summary.Client.bounded > 0 then exit 1
  end
  else begin
    match client_mix mix_file proto graph fairness_str max_configs with
    | [] -> or_die (Error "client: empty job mix")
    | job :: _ ->
      let c = or_die (Client.connect ~version addr) in
      let resp =
        or_die
          (Client.rpc c
             (Sproto.Decide
                {
                  Sproto.id = "cli";
                  protocol = job.Batch.protocol;
                  graph = job.Batch.graph;
                  regime = job.Batch.regime;
                  max_configs = job.Batch.max_configs;
                  deadline_ms;
                  trace = trace_id;
                }))
      in
      Client.close c;
      (match resp.Sproto.status with
      | Sproto.Verdict v ->
        Format.printf "verdict: %s%s (%d configurations, %.2f ms round trip)@." v.verdict
          (if v.cached then " [cached]" else "")
          v.configs resp.Sproto.total_ms
      | Sproto.Bounded b ->
        Format.printf "bounded: %s after %d configurations@." b.reason b.configs;
        exit 1
      | Sproto.Rejected reason ->
        Format.printf "rejected: %s@." reason;
        exit 1
      | Sproto.Error reason ->
        Format.eprintf "error: %s@." reason;
        exit 2
      | Sproto.Pong | Sproto.Stats_doc _ | Sproto.Health_state _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Live observability: dda stats / dda top (doc/OBSERVABILITY.md)       *)
(* ------------------------------------------------------------------ *)

(* One stats round trip: the raw compact document plus its parse.  A
   server that emits unparsable stats is a real error (exit 2). *)
let fetch_stats version addr =
  let c = or_die (Client.connect ~version addr) in
  let raw = or_die (Client.stats c) in
  Client.close c;
  match Json.parse raw with
  | Ok doc -> (raw, doc)
  | Error e -> or_die (Error (Printf.sprintf "stats: server sent invalid JSON: %s" e))

let stats_gauge doc name =
  match Option.bind (Json.member "gauges" doc) (Json.member name) with
  | Some (Json.Num f) -> f
  | _ -> 0.

let cmd_stats connect_s v2 prom watch json_file =
  let addr = or_die (Sproto.parse_address connect_s) in
  let version = if v2 then 2 else 1 in
  let once () =
    let raw, doc = fetch_stats version addr in
    Option.iter
      (fun f ->
        Out_channel.with_open_bin f (fun oc ->
            Out_channel.output_string oc raw;
            Out_channel.output_char oc '\n'))
      json_file;
    if prom then print_string (or_die (Stats_view.prometheus doc))
    else if json_file = None then print_endline raw;
    flush stdout
  in
  match watch with
  | None -> once ()
  | Some secs ->
    let secs = Float.max 0.1 secs in
    while true do
      once ();
      Thread.delay secs
    done

let cmd_top connect_s v2 interval once =
  let addr = or_die (Sproto.parse_address connect_s) in
  let version = if v2 then 2 else 1 in
  let history = ref [] in
  let frame () =
    let _, doc = fetch_stats version addr in
    (* most-recent-last queue-depth history for the sparkline, capped at
       one screen's worth *)
    history := !history @ [ int_of_float (stats_gauge doc "service.queue_depth") ];
    let n = List.length !history in
    if n > 60 then history := List.filteri (fun i _ -> i >= n - 60) !history;
    Stats_view.render_top ~spark:!history doc
  in
  if once || not (Unix.isatty Unix.stdout) then print_string (frame ())
  else begin
    let interval = Float.max 0.1 interval in
    while true do
      let f = frame () in
      (* clear + home, then one frame — flicker-free enough without a
         full curses dependency *)
      print_string "\027[2J\027[H";
      print_string f;
      flush stdout;
      Thread.delay interval
    done
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                       *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"SPEC" ~doc:"Graph spec, e.g. cycle:aabb or grid:3x2:aabbab.")

let proto_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "protocol" ] ~docv:"SPEC"
        ~doc:
          "Protocol spec: exists:<l>, threshold:<l>,<k>, majority-bounded:<k>, majority-pop, \
           odd-a-token, ...")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event file (load in Perfetto or chrome://tracing).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a metrics snapshot (counters, histograms, spans).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE" ~doc:"Write a JSONL run journal (one event per line).")

let progress_arg =
  Arg.(value & flag & info [ "progress" ] ~doc:"Throttled progress line on stderr.")

let cache_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persist verdicts in an on-disk cache.  With no $(docv), uses \\$DDA_CACHE or \
           _dda_cache.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Explore under an external-memory budget: the configuration and edge stores spill \
           cold segments to \\$DDA_SPILL_DIR (default _dda_spill) once resident bytes exceed \
           $(docv), and the SCC analyses run in streaming mode.  Defaults to \
           \\$DDA_MEM_BUDGET; unset means fully resident.  Verdicts and counts are \
           unchanged.")

let tables_cmd =
  let bounded = Arg.(value & flag & info [ "bounded" ] ~doc:"The degree-bounded table.") in
  let max_nodes =
    Arg.(value & opt int 4 & info [ "max-nodes" ] ~doc:"Suite size bound (default 4).")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the Figure 1 decision-power tables")
    Term.(const cmd_tables $ bounded $ max_nodes $ cache_arg $ mem_budget_arg)

let graph_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.") in
  Cmd.v (Cmd.info "graph" ~doc:"Inspect a graph spec") Term.(const cmd_graph $ graph_arg $ dot)

let decide_cmd =
  let fairness =
    Arg.(value & opt string "F" & info [ "f"; "fairness" ] ~docv:"f|F" ~doc:"Fairness regime.")
  in
  let max_configs =
    Arg.(
      value & opt int 500_000
      & info [ "max-configs" ] ~doc:"Configuration-space budget for exact verification.")
  in
  let witness =
    Arg.(value & flag & info [ "witness" ] ~doc:"Print a schedule driving the verdict.")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Quotient the space by the topology's automorphisms: counted configurations \
             (multisets of states, the symbolic engine) on cliques and stars, orbits of the \
             reflection group on lines and of the dihedral group on cycles.  Other \
             topologies are explored unreduced.  Verdicts are unchanged.")
  in
  let term =
    Term.(
      const cmd_decide $ proto_arg $ graph_arg $ fairness $ cache_arg $ max_configs
      $ witness $ reduce $ mem_budget_arg $ trace_arg $ metrics_arg $ journal_arg
      $ progress_arg)
  in
  ( Cmd.v (Cmd.info "decide" ~doc:"Decide acceptance exactly by state-space analysis") term,
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Decide acceptance exactly (alias of decide); accepts graph families \
            (clique:ab*, star:ba*) via the symbolic engine")
      term )

let simulate_cmd =
  let sched =
    Arg.(
      value & opt string "round-robin"
      & info [ "s"; "scheduler" ] ~docv:"SPEC" ~doc:"Scheduler spec.")
  in
  let max_steps =
    Arg.(value & opt int 2_000_000 & info [ "max-steps" ] ~doc:"Step budget.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a protocol under a concrete scheduler")
    Term.(
      const cmd_simulate $ proto_arg $ graph_arg $ sched $ max_steps $ trace_arg $ metrics_arg
      $ journal_arg $ progress_arg)

let auto_cmd =
  let pred =
    Arg.(
      required
      & opt (some string) None
      & info [ "P"; "predicate" ] ~docv:"PRED"
          ~doc:"Labelling predicate, e.g. 'a > b && a + b % 2 == 0'.")
  in
  let bound =
    Arg.(
      value & opt int 0
      & info [ "k"; "degree-bound" ]
          ~doc:"Known degree bound (enables the Section 6.1 adversarial route).")
  in
  Cmd.v
    (Cmd.info "auto" ~doc:"Synthesise an automaton for a predicate and verify it")
    Term.(const cmd_auto $ pred $ graph_arg $ bound)

let program_cmd =
  let which =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "program" ] ~docv:"NAME" ~doc:"prime | divides | majority | pow2")
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Show a broadcast counter program listing")
    Term.(const cmd_program $ which)

let cutoff_cmd =
  Cmd.v
    (Cmd.info "cutoff" ~doc:"Lemma 3.5 coverability demo")
    Term.(const cmd_cutoff $ const ())

let cmd_telemetry metrics trace journal stats =
  if metrics = None && trace = None && journal = None && stats = None then
    or_die
      (Error "telemetry: nothing to validate (pass --metrics, --trace, --journal and/or --stats)");
  let problems = ref 0 in
  let report kind file = function
    | [] -> Format.printf "%s %s: OK@." kind file
    | ps ->
      problems := !problems + List.length ps;
      List.iter (fun p -> Format.printf "%s %s: %s@." kind file p) ps
  in
  let check_doc kind validate file =
    match Json.parse_file file with
    | Error e -> report kind file [ Printf.sprintf "parse error: %s" e ]
    | Ok doc -> report kind file (validate doc)
  in
  Option.iter (check_doc "metrics" T.validate_metrics) metrics;
  Option.iter (check_doc "trace" T.validate_trace) trace;
  Option.iter (check_doc "stats" T.validate_stats) stats;
  Option.iter
    (fun file ->
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error e -> report "journal" file [ e ]
      | contents -> report "journal" file (T.validate_journal contents))
    journal;
  if !problems > 0 then exit 2

let telemetry_cmd =
  let metrics =
    Arg.(value & opt (some file) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics snapshot to validate.")
  in
  let trace =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc:"Chrome trace to validate.")
  in
  let journal =
    Arg.(value & opt (some file) None & info [ "journal" ] ~docv:"FILE" ~doc:"JSONL run journal to validate.")
  in
  let stats =
    Arg.(
      value
      & opt (some file) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:"Live dda.stats/1 snapshot (dda stats --json) to validate.")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:"Validate emitted telemetry artefacts against the metric-name registry")
    Term.(const cmd_telemetry $ metrics $ trace $ journal $ stats)

let batch_cmd =
  let manifest =
    Arg.(
      required
      & opt (some file) None
      & info [ "m"; "manifest" ] ~docv:"FILE"
          ~doc:"Job manifest (schema dda.batch-manifest/1).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "j"; "shards" ] ~docv:"N" ~doc:"Worker domains for cache misses.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Per-shard wall-clock budget; jobs not started in time are skipped.")
  in
  let max_configs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-configs" ] ~docv:"N"
          ~doc:"Default configuration budget for jobs that do not set one (default 200000).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Write the consolidated JSON report here.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Verify a manifest of jobs, sharded across domains, through the verdict cache")
    Term.(
      const cmd_batch $ manifest $ shards $ time_budget $ max_configs $ cache_arg $ report
      $ mem_budget_arg $ trace_arg $ metrics_arg $ journal_arg $ progress_arg)

let serve_cmd =
  let listens =
    Arg.(
      value
      & opt_all string []
      & info [ "l"; "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen address (repeatable): a Unix socket path (contains / or ends in .sock), \
             HOST:PORT, or a bracketed IPv6 literal like [::1]:7777.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "j"; "workers" ] ~docv:"N" ~doc:"Worker domains (default 2).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Central queue capacity — the admission-control bound (default 64).")
  in
  let conn_limit =
    Arg.(
      value & opt int 8
      & info [ "conn-limit" ] ~docv:"N"
          ~doc:"Max in-flight requests per connection (default 8).")
  in
  let max_connections =
    Arg.(
      value & opt int 512
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Max simultaneous connections (default 512); past it, accepts wait in the kernel \
             backlog.  Checked at startup against the select() FD_SETSIZE budget (1024 on \
             Linux) — a cap that could breach it is a startup error, not a wedged loop.")
  in
  let cap =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-configs-cap" ] ~docv:"N"
          ~doc:"Per-request configuration budgets are clamped to this (default 2000000).")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default deadline for requests that set none; expired requests are bounded out.")
  in
  let mem_cache =
    Arg.(
      value & opt int 65536
      & info [ "mem-cache" ] ~docv:"N"
          ~doc:
            "In-memory verdict tier: keep up to $(docv) decoded cache entries in a sharded LRU \
             in front of the disk store (default 65536; 0 disables the tier).")
  in
  let stats_window =
    Arg.(
      value & opt int 60
      & info [ "stats-window" ] ~docv:"SECS"
          ~doc:"Sliding-window length for the live latency percentiles in dda stats (default 60).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON object per request: id, verb, cache key and tier, \
             queue/compute/total latency split, echoed client trace id.")
  in
  let log_sample =
    Arg.(
      value & opt int 1
      & info [ "log-sample" ] ~docv:"N"
          ~doc:"Log every Nth request (default 1 = all; applied after --slow-ms).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Only log requests slower than $(docv) milliseconds end to end.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent verification server (SIGTERM/SIGINT drain gracefully)")
    Term.(
      const cmd_serve $ listens $ cache_arg $ mem_cache $ workers $ queue $ conn_limit
      $ max_connections $ cap $ deadline $ stats_window $ access_log $ log_sample $ slow_ms
      $ trace_arg $ metrics_arg $ journal_arg $ progress_arg)

let route_cmd =
  let listens =
    Arg.(
      value
      & opt_all string []
      & info [ "l"; "listen" ] ~docv:"ADDR"
          ~doc:
            "Front listen address (repeatable): a Unix socket path (contains / or ends in \
             .sock), HOST:PORT, or a bracketed IPv6 literal like [::1]:7777.")
  in
  let backends =
    Arg.(
      value
      & opt_all string []
      & info [ "b"; "backends" ] ~docv:"ADDR,ADDR,..."
          ~doc:
            "Backend $(b,dda serve) addresses to route over — a comma-separated list, also \
             repeatable.")
  in
  let replicas =
    Arg.(
      value
      & opt int Router.default_config.Router.replicas
      & info [ "replicas" ] ~docv:"K"
          ~doc:"Virtual points per backend on the consistent-hash ring (default 101).")
  in
  let max_connections =
    Arg.(
      value
      & opt int Router.default_config.Router.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Max simultaneous front connections (default 512).  Checked at startup against \
             the select() FD_SETSIZE budget (1024 on Linux) together with the backend \
             connections.")
  in
  let conn_limit =
    Arg.(
      value
      & opt int Router.default_config.Router.conn_limit
      & info [ "conn-limit" ] ~docv:"N"
          ~doc:
            "Max in-flight forwards admitted per front connection (default 64); past it a \
             pipelining client is answered rejected:connection_limit rather than filling \
             every backend's window and backlog.")
  in
  let backend_window =
    Arg.(
      value
      & opt int Router.default_config.Router.backend_window
      & info [ "backend-window" ] ~docv:"N"
          ~doc:
            "Max in-flight forwards per backend connection (default 8).  Keep at or below the \
             backends' --conn-limit.")
  in
  let backend_backlog =
    Arg.(
      value
      & opt int Router.default_config.Router.backend_backlog
      & info [ "backend-backlog" ] ~docv:"N"
          ~doc:
            "Forwards queued per backend beyond the window before new requests are \
             rejected:router_backlog (default 1024).")
  in
  let connect_timeout =
    Arg.(
      value
      & opt float Router.default_config.Router.connect_timeout
      & info [ "connect-timeout" ] ~docv:"SECS"
          ~doc:"Backend connect + protocol negotiation deadline (default 2).")
  in
  let probe_interval =
    Arg.(
      value
      & opt float Router.default_config.Router.probe_interval
      & info [ "probe-interval" ] ~docv:"SECS"
          ~doc:"Seconds between health probes per backend (default 1).")
  in
  let probe_timeout =
    Arg.(
      value
      & opt float Router.default_config.Router.probe_timeout
      & info [ "probe-timeout" ] ~docv:"SECS"
          ~doc:"An unanswered probe older than this ejects the backend (default 3).")
  in
  let no_retry =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:
            "Do not retry forwards lost to an ejection onto the ring successor; answer \
             error:backend_unavailable immediately.")
  in
  let stats_window =
    Arg.(
      value
      & opt int Router.default_config.Router.window_s
      & info [ "stats-window" ] ~docv:"SECS"
          ~doc:"Sliding-window length for the live latency percentiles in dda stats (default 60).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Route decide requests across dda serve backends by consistent hashing \
          (SIGTERM/SIGINT drain gracefully)")
    Term.(
      const cmd_route $ listens $ backends $ replicas $ max_connections $ conn_limit
      $ backend_window $ backend_backlog $ connect_timeout $ probe_interval $ probe_timeout
      $ no_retry $ stats_window $ trace_arg $ metrics_arg $ journal_arg $ progress_arg)

let client_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "connect" ] ~docv:"ADDR"
          ~doc:"Server address (socket path, HOST:PORT, or [V6]:PORT).")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Measure a ping round trip and exit.") in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:"Print the server's health state (ok | draining | overloaded); exit 1 unless ok.")
  in
  let trace_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:"Opaque correlation id attached to a single request and echoed into the \
                server's access log.")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ] ~doc:"Closed-loop load generation: --clients x --per-client requests.")
  in
  let v2 =
    Arg.(
      value & flag
      & info [ "v2" ]
          ~doc:
            "Speak dda.service/2 (length-prefixed binary frames, negotiated at connect) instead \
             of /1 JSON lines.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"N"
          ~doc:
            "Keep up to $(docv) requests in flight per connection (--bench; default 1 = classic \
             closed loop).  Best combined with --v2.")
  in
  let proto =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "protocol" ] ~docv:"SPEC" ~doc:"Protocol spec for a single request.")
  in
  let graph =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "graph" ] ~docv:"SPEC" ~doc:"Graph spec for a single request.")
  in
  let fairness =
    Arg.(value & opt string "F" & info [ "f"; "fairness" ] ~docv:"f|F" ~doc:"Fairness regime.")
  in
  let max_configs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-configs" ] ~docv:"N" ~doc:"Configuration budget (default 200000).")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections (--bench).")
  in
  let per_client =
    Arg.(
      value & opt int 25
      & info [ "per-client" ] ~docv:"N" ~doc:"Requests per connection (--bench).")
  in
  let mix =
    Arg.(
      value
      & opt (some file) None
      & info [ "mix" ] ~docv:"FILE"
          ~doc:"Job mix: a batch manifest (schema dda.batch-manifest/1) cycled through.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the load summary as JSON (--bench).")
  in
  let min_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-hit-rate" ] ~docv:"RATE"
          ~doc:"Fail (exit 2) if the cached fraction of ok responses is below $(docv) (--bench).")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Talk to a running dda serve (single request, ping, or load bench)")
    Term.(
      const cmd_client $ connect $ ping $ health $ trace_id $ bench $ v2 $ pipeline $ proto
      $ graph $ fairness $ max_configs $ deadline $ clients $ per_client $ mix $ json
      $ min_hit_rate)

let connect_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "connect" ] ~docv:"ADDR"
        ~doc:"Server address (socket path, HOST:PORT, or [V6]:PORT).")

let v2_arg =
  Arg.(value & flag & info [ "v2" ] ~doc:"Speak dda.service/2 binary frames instead of /1.")

let stats_cmd =
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"Render as Prometheus text exposition (dda_ prefix) instead of raw JSON.")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECS" ~doc:"Re-fetch and re-print every $(docv) seconds.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the raw dda.stats/1 document to $(docv) (validate with dda telemetry \
                --stats).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Fetch a live dda.stats/1 snapshot from a running dda serve")
    Term.(const cmd_stats $ connect_arg $ v2_arg $ prom $ watch $ json)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval (default 2).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single frame and exit (implied when stdout is not a tty).")
  in
  Cmd.v
    (Cmd.info "top" ~doc:"Live server dashboard: rps, hit rates, percentiles, queue depth")
    Term.(const cmd_top $ connect_arg $ v2_arg $ interval $ once)

let cache_cmd =
  let action =
    Arg.(
      value
      & pos 0 string "stats"
      & info [] ~docv:"ACTION" ~doc:"stats (default) | verify | gc")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Cache root (default \\$DDA_CACHE or _dda_cache).")
  in
  Cmd.v
    (Cmd.info "cache" ~doc:"Inspect, verify or garbage-collect the verdict cache")
    Term.(const cmd_cache $ action $ dir)

let () =
  let info = Cmd.info "dda" ~version:"1.0.0" ~doc:"Distributed automata decision power toolkit" in
  exit
    (Cmd.eval
       (Cmd.group info
          (let decide_cmd, verify_cmd = decide_cmd in
           [ tables_cmd; graph_cmd; decide_cmd; verify_cmd; simulate_cmd; auto_cmd; program_cmd;
             cutoff_cmd; telemetry_cmd; batch_cmd; cache_cmd; serve_cmd; route_cmd; client_cmd;
             stats_cmd; top_cmd ])))
