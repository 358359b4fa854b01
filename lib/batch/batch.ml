module Machine = Dda_machine.Machine
module Graph = Dda_graph.Graph
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module Json = Dda_telemetry.Json
module T = Dda_telemetry.Telemetry

let c_hits = T.counter "cache.hits"
let c_misses = T.counter "cache.misses"
let c_stores = T.counter "cache.stores"
let c_jobs = T.counter "batch.jobs"
let c_bounded = T.counter "batch.bounded"
let c_errors = T.counter "batch.errors"

type result_ = Store.verdict =
  | Verdict of Decide.verdict
  | Bounded of int

type decision = {
  result : result_;
  cached : bool;
  configs : int;
  seconds : float;
}

(* Plain process-global tallies, deliberately outside the telemetry gate:
   the cold/warm benchmark measures hit rates with telemetry disabled.
   Only the main domain touches the cache, so plain ints suffice. *)
let g_hits = ref 0
let g_misses = ref 0

let cache_stats () = (!g_hits, !g_misses)

let reset_cache_stats () =
  g_hits := 0;
  g_misses := 0

let note_hit count =
  incr g_hits;
  if count then T.incr c_hits

let note_miss count =
  incr g_misses;
  if count then T.incr c_misses

let of_entry (e : Store.entry) =
  {
    result = e.Store.verdict;
    cached = true;
    configs = e.Store.configs;
    seconds = e.Store.seconds;
  }

(* --- The tier chain ----------------------------------------------------------- *)

type computed = decision * Store.family_cert option

type tier = Mem | Disk | Family

let tier_name = function Mem -> "mem" | Disk -> "disk" | Family -> "family"

type plan = {
  solve : Spec.regime list -> (computed, string) result list;
  explore : (unit -> Space.t) option;
  key : string;
  machine_key : string;
  graph_key : string;
  engine : string;
  group_order : int;
  regime : Spec.regime;
  max_configs : int;
  fallback : (string * int) option Lazy.t;
}

let compute p = List.hd (p.solve [ p.regime ])

(* A group's results from each member's part — its result, configurations
   and family record, or its refusal, with its own analysis seconds.  The
   rest of the wall time since [t0] is the shared exploration, split
   equally, so the members' seconds sum to the group's wall time. *)
let decisions ~t0 parts =
  let wall = Unix.gettimeofday () -. t0 in
  let own = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  let shared = (wall -. own) /. float_of_int (List.length parts) in
  List.map
    (fun (part, s) ->
      Result.map
        (fun (result, configs, family) ->
          ({ result; cached = false; configs; seconds = s +. shared }, family))
        part)
    parts

(* [explore] is [Space.explore] or, on reduced cliques and stars,
   [Counted.of_shape]: both raise [Space.Too_large].  The space is
   explored once and classified under each regime by [Decide.for_regime],
   which decides explicit and counted spaces alike; an analysis that
   refuses its input (adversarial fairness on an explicit space beyond 62
   nodes) is an error for its own regime only *)
let solve_space explore regimes =
  let t0 = Unix.gettimeofday () in
  let every part = List.map (fun _ -> (part, 0.)) regimes in
  decisions ~t0
    (match explore () with
    | exception (Space.Too_large n | Dda_wsts.Coverability.Too_large n) ->
      every (Ok (Bounded n, n, None))
    | exception Invalid_argument msg -> every (Error msg)
    | space ->
      List.map
        (fun regime ->
          let t1 = Unix.gettimeofday () in
          let part =
            match Decide.for_regime regime space with
            | v -> Ok (Verdict v, space.Space.size, None)
            | exception Invalid_argument msg -> Error msg
          in
          (part, Unix.gettimeofday () -. t1))
        regimes)

let cert_of_family (fv : Dda_symbolic.Certify.t) =
  {
    Store.from_n = fv.Dda_symbolic.Certify.from_n;
    checked_to = fv.Dda_symbolic.Certify.checked_to;
    cutoff =
      (match fv.Dda_symbolic.Certify.certificate with
      | Dda_symbolic.Certify.Cutoff k -> Some k
      | Dda_symbolic.Certify.Window _ -> None);
  }

let family_key ~machine_key ~regime ~max_configs fam =
  Fingerprint.key ~engine:"symbolic" ~machine:machine_key
    ~graph:(Fingerprint.family fam) ~regime:(Spec.regime_name regime)
    ~max_configs ()

(* the family entry of a concrete clique/star spec, with the instance size *)
let family_fallback ~machine_key ~regime ~max_configs spec =
  Option.map
    (fun (fam, n) -> (family_key ~machine_key ~regime ~max_configs fam, n))
    (Spec.family_of_instance spec)

let find_family store (key, n) =
  match Store.find store key with
  | Some ({ Store.family = Some fc; _ } as e) when n >= fc.Store.from_n -> Some e
  | Some _ | None -> None

let keyed ?explore ?(group_order = 1) cache solve ~engine ~machine_key ~graph_key ~regime
    ~max_configs ~fallback =
  let key =
    match cache with
    | None -> ""
    | Some _ ->
      Fingerprint.key ~engine ~machine:machine_key ~graph:graph_key
        ~regime:(Spec.regime_name regime) ~max_configs ()
  in
  {
    solve; explore; key; machine_key; graph_key; engine; group_order; regime; max_configs;
    fallback;
  }

let machine_key_of cache machine_key labels m =
  match (cache, machine_key) with
  | None, _ -> ""  (* no fingerprint work on the uncached path *)
  | Some _, Some k -> k
  | Some _, None -> Fingerprint.machine ~labels:(labels ()) m

(* The one choice of quotient: with [reduce], the counted space on a
   clique or a star (a configuration up to automorphism is a multiset of
   states) and the orbits of the reflection or dihedral group on a line or
   a cycle; every configuration otherwise. *)
let plan ?cache ?machine_key ?graph_spec ?(reduce = false) ~regime ~max_configs m g =
  let engine, group_order, explore =
    match if reduce then Dda_symbolic.Counted.shape_of_graph g else None with
    | Some shape -> ("symbolic", 1, fun () -> Dda_symbolic.Counted.of_shape ~max_configs m shape)
    | None ->
      let symmetry = if reduce then Dda_verify.Symmetry.of_graph g else None in
      ( "explicit",
        Option.fold ~none:1 ~some:Dda_verify.Symmetry.order symmetry,
        fun () -> Space.explore ?symmetry ~max_configs m g )
  in
  let machine_key = machine_key_of cache machine_key (fun () -> Spec.alphabet_of g) m in
  let fallback =
    match (cache, graph_spec) with
    | Some _, Some spec -> lazy (family_fallback ~machine_key ~regime ~max_configs spec)
    | _ -> lazy None
  in
  keyed ~explore ~group_order cache (solve_space explore) ~engine ~machine_key
    ~graph_key:(if cache = None then "" else Fingerprint.graph g)
    ~regime ~max_configs ~fallback

let plan_family ?cache ?machine_key ~regime ~max_configs m fam =
  let solve regimes =
    let t0 = Unix.gettimeofday () in
    decisions ~t0
      (List.map
         (fun (r, s) ->
           let part =
             match r with
             | Ok fv ->
               Ok
                 ( Verdict fv.Dda_symbolic.Certify.verdict,
                   fv.Dda_symbolic.Certify.configs,
                   Some (cert_of_family fv) )
             | Error (`Too_large n) -> Ok (Bounded n, n, None)
             | Error (`Unsupported msg) -> Error msg
           in
           (part, s))
         (Dda_symbolic.Certify.decide_family ~max_configs ~regimes m fam))
  in
  let machine_key =
    machine_key_of cache machine_key (fun () -> Dda_symbolic.Family.alphabet fam) m
  in
  keyed cache solve ~engine:"symbolic" ~machine_key
    ~graph_key:(if cache = None then "" else Fingerprint.family fam)
    ~regime ~max_configs ~fallback:(lazy None)

let lookup store p =
  match Store.find_tier store p.key with
  | Some (e, `Mem) -> Some (e, Mem)
  | Some (e, `Disk) -> Some (e, Disk)
  | None ->
    (* on an exact miss, an instance of a certified family may still be
       answered by the family's single store entry, whatever its size *)
    Option.bind (Lazy.force p.fallback) (fun fb ->
        Option.map (fun e -> (e, Family)) (find_family store fb))

let record store p ((d, family) : computed) =
  Store.put store
    {
      Store.key = p.key;
      machine = p.machine_key;
      graph = p.graph_key;
      regime = Spec.regime_name p.regime;
      max_configs = p.max_configs;
      verdict = d.result;
      configs = d.configs;
      seconds = d.seconds;
      engine = p.engine;
      family;
    }

(* lookup, else compute and record — with the batch layer's counters *)
let through ?cache ~count p =
  match cache with
  | None -> compute p
  | Some store -> (
    match lookup store p with
    | Some (e, _) ->
      note_hit count;
      Ok (of_entry e, e.Store.family)
    | None ->
      note_miss count;
      let c = compute p in
      Result.iter
        (fun c ->
          record store p c;
          if count then T.incr c_stores)
        c;
      c)

let decision_exn = function Ok (d, _) -> d | Error msg -> invalid_arg msg

let cached ?cache ?(count = true) ?(engine = "explicit") ~machine_key ~graph_key
    ~regime ~max_configs thunk =
  (* the thunk decides [regime] only: nothing groups these plans *)
  let solve _ =
    let t0 = Unix.gettimeofday () in
    let part =
      match thunk () with
      | result, configs -> Ok (result, configs, None)
      | exception Invalid_argument msg -> Error msg
    in
    decisions ~t0 [ (part, 0.) ]
  in
  decision_exn
    (through ?cache ~count
       (keyed cache solve ~engine ~machine_key ~graph_key ~regime ~max_configs
          ~fallback:(lazy None)))

let decide ?cache ?(count = true) ?machine_key ~regime ~max_configs m g =
  decision_exn (through ?cache ~count (plan ?cache ?machine_key ~regime ~max_configs m g))

let decide_family ?cache ?(count = true) ?machine_key ~regime ~max_configs m fam =
  through ?cache ~count (plan_family ?cache ?machine_key ~regime ~max_configs m fam)

let family_hit ~cache ~machine_key ~regime ~max_configs graph_spec =
  Option.bind (family_fallback ~machine_key ~regime ~max_configs graph_spec)
    (fun ((key, _) as fb) -> Option.map (fun e -> (e, key)) (find_family cache fb))

(* --- Manifests -------------------------------------------------------------- *)

type job = {
  protocol : string;
  graph : string;
  regime : Spec.regime;
  max_configs : int;
}

let manifest_schema = "dda.batch-manifest/1"

let manifest_of_string ?(default_max_configs = 200_000) contents =
  let ( let* ) = Result.bind in
  let* doc =
    match Json.parse contents with Ok d -> Ok d | Error e -> Error ("manifest: " ^ e)
  in
  let* () =
    match Json.member "schema" doc with
    | Some (Json.Str s) when s = manifest_schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "manifest: unknown schema %S" s)
    | _ -> Error (Printf.sprintf "manifest: missing \"schema\" (expected %S)" manifest_schema)
  in
  let* jobs =
    match Json.member "jobs" doc with
    | Some (Json.Arr jobs) -> Ok jobs
    | _ -> Error "manifest: missing array \"jobs\""
  in
  let parse_job i j =
    let str field =
      match Json.member field j with
      | Some (Json.Str s) -> Ok s
      | Some _ -> Error (Printf.sprintf "manifest job %d: %S is not a string" i field)
      | None -> Error (Printf.sprintf "manifest job %d: missing %S" i field)
    in
    let* protocol = str "protocol" in
    let* graph = str "graph" in
    let* regime =
      match Json.member "regime" j with
      | None -> Ok Spec.Pseudo_stochastic
      | Some (Json.Str s) -> (
        match Spec.parse_regime s with
        | Ok r -> Ok r
        | Error e -> Error (Printf.sprintf "manifest job %d: %s" i e))
      | Some _ -> Error (Printf.sprintf "manifest job %d: \"regime\" is not a string" i)
    in
    let* max_configs =
      match Json.member "max_configs" j with
      | None -> Ok default_max_configs
      | Some (Json.Num f) when Float.is_integer f && f >= 1. -> Ok (int_of_float f)
      | Some _ -> Error (Printf.sprintf "manifest job %d: \"max_configs\" is not a positive integer" i)
    in
    Ok { protocol; graph; regime; max_configs }
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest ->
      let* job = parse_job i j in
      go (i + 1) (job :: acc) rest
  in
  go 0 [] jobs

let manifest_of_file ?default_max_configs path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> manifest_of_string ?default_max_configs contents

(* --- The sharded runner ----------------------------------------------------- *)

type outcome =
  | Done of decision
  | Failed of string
  | Skipped
  | Interrupted

type report = {
  jobs : (job * outcome * int) list;
  hits : int;
  misses : int;
  shards : int;
  seconds : float;
}

let machine_fp memo ~protocol ~alphabet m =
  let mkey = (protocol, alphabet) in
  match Hashtbl.find_opt memo mkey with
  | Some fp -> fp
  | None ->
    let fp = Fingerprint.machine ~labels:alphabet m in
    Hashtbl.add memo mkey fp;
    fp

let resolve ?cache memo job =
  let ( let* ) = Result.bind in
  let* gspec = Spec.parse_graph_spec job.graph in
  (* families build their protocol over the smallest instance — every
     instance shares the family's alphabet *)
  let rep, alphabet =
    match gspec with
    | Spec.Concrete g -> (g, Spec.alphabet_of g)
    | Spec.Family fam -> (Spec.family_representative fam, Dda_symbolic.Family.alphabet fam)
  in
  (* [Spec.parse_protocol]'s errors name the protocol spec themselves *)
  let* (Spec.Packed m) = Spec.parse_protocol job.protocol rep in
  (* one machine fingerprint per (protocol, alphabet) pair, not per job *)
  let machine_key =
    Option.map (fun _ -> machine_fp memo ~protocol:job.protocol ~alphabet m) cache
  in
  let regime = job.regime and max_configs = job.max_configs in
  match gspec with
  | Spec.Concrete g ->
    Ok (plan ?cache ?machine_key ~graph_spec:job.graph ~regime ~max_configs m g)
  | Spec.Family fam -> Ok (plan_family ?cache ?machine_key ~regime ~max_configs m fam)

(* Execute a shard's share of the cache misses: groups of plans that
   differ in regime only, each explored once.  Runs on a worker domain: no
   cache access, no telemetry counters — only the spans inside the
   exploration engine, which are domain-safe. *)
let exec_shard ?time_budget ~interrupted groups =
  let t0 = Unix.gettimeofday () in
  List.concat_map
    (fun members ->
      let over_budget =
        match time_budget with
        | Some b -> Unix.gettimeofday () -. t0 > b
        | None -> false
      in
      let every outcome = List.map (fun (idx, _) -> (idx, outcome)) members in
      if interrupted () then every `Interrupted
      else if over_budget then every `Skipped
      else
        let solve = (snd (List.hd members)).solve in
        match solve (List.map (fun (_, (p : plan)) -> p.regime) members) with
        | results ->
          List.map2
            (fun (idx, p) -> function
              | Ok c -> (idx, `Computed (p, c))
              | Error msg -> (idx, `Failed msg))
            members results
        | exception e -> every (`Failed (Printexc.to_string e)))
    groups

let run ?cache ?(shards = 1) ?time_budget ?(interrupted = fun () -> false) jobs =
  let shards = max 1 shards in
  let t0 = Unix.gettimeofday () in
  let memo = Hashtbl.create 16 in
  let n = List.length jobs in
  let outcomes = Array.make n Skipped in
  let shard_of = Array.make n (-1) in
  (* resolve and answer hits on the main domain; group the misses by their
     job text without the regime: the members of a group share one
     exploration *)
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iteri
    (fun idx job ->
      match resolve ?cache memo job with
      | Error msg -> outcomes.(idx) <- Failed msg
      | Ok p -> (
        match Option.bind cache (fun store -> lookup store p) with
        | Some (e, _) ->
          note_hit true;
          outcomes.(idx) <- Done (of_entry e)
        | None -> (
          if cache <> None then note_miss true;
          let k = (job.protocol, job.graph, job.max_configs) in
          match Hashtbl.find_opt groups k with
          | Some members -> Hashtbl.replace groups k ((idx, p) :: members)
          | None ->
            Hashtbl.add groups k [ (idx, p) ];
            order := k :: !order)))
    jobs;
  let groups = List.rev_map (fun k -> List.rev (Hashtbl.find groups k)) !order in
  (* round-robin static partition of the groups across the shards *)
  let buckets = Array.make shards [] in
  List.iteri (fun pos g -> buckets.(pos mod shards) <- g :: buckets.(pos mod shards)) groups;
  let buckets = Array.map List.rev buckets in
  Array.iteri
    (fun k groups -> List.iter (List.iter (fun (idx, _) -> shard_of.(idx) <- k)) groups)
    buckets;
  let results =
    T.with_span "batch" (fun () ->
        if shards = 1 then [| exec_shard ?time_budget ~interrupted buckets.(0) |]
        else
          Array.map Domain.join
            (Array.map
               (fun groups -> Domain.spawn (fun () -> exec_shard ?time_budget ~interrupted groups))
               buckets))
  in
  (* fold the worker results back in and persist fresh verdicts (main domain
     only: the store never sees concurrent writers from this process) *)
  Array.iter
    (List.iter (fun (idx, outcome) ->
         match outcome with
         | `Skipped -> outcomes.(idx) <- Skipped
         | `Interrupted -> outcomes.(idx) <- Interrupted
         | `Failed msg -> outcomes.(idx) <- Failed msg
         | `Computed (p, ((d, _) as c)) ->
           outcomes.(idx) <- Done d;
           Option.iter
             (fun store ->
               record store p c;
               T.incr c_stores)
             cache))
    results;
  (* telemetry aggregation, all on the main domain *)
  if T.enabled () then begin
    T.add c_jobs n;
    Array.iter
      (fun o ->
        match o with
        | Done { result = Bounded _; _ } -> T.incr c_bounded
        | Failed _ -> T.incr c_errors
        | _ -> ())
      outcomes;
    Array.iteri
      (fun k items ->
        if items <> [] then
          T.add (T.counter (Printf.sprintf "batch.shard.%d.jobs" k)) (List.length items))
      results
  end;
  let hits, misses_n =
    Array.fold_left
      (fun (h, m) o ->
        match o with
        | Done { cached = true; _ } -> (h + 1, m)
        | Done _ -> (h, m + 1)
        | _ -> (h, m))
      (0, 0) outcomes
  in
  {
    jobs = List.mapi (fun idx job -> (job, outcomes.(idx), shard_of.(idx))) jobs;
    hits;
    misses = misses_n;
    shards;
    seconds = Unix.gettimeofday () -. t0;
  }

(* --- Reports ---------------------------------------------------------------- *)

let result_strings = function
  | Verdict Decide.Accepts -> ("ok", "accepts")
  | Verdict Decide.Rejects -> ("ok", "rejects")
  | Verdict (Decide.Inconsistent _) -> ("ok", "inconsistent")
  | Bounded _ -> ("bounded", "bounded")

let report_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"dda.batch/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"shards\": %d,\n" r.shards);
  Buffer.add_string b (Printf.sprintf "  \"seconds\": %.6f,\n" r.seconds);
  Buffer.add_string b
    (Printf.sprintf "  \"cache\": {\"hits\": %d, \"misses\": %d},\n" r.hits r.misses);
  Buffer.add_string b "  \"jobs\": [";
  List.iteri
    (fun i (job, outcome, shard) ->
      Buffer.add_string b (if i > 0 then ",\n    {" else "\n    {");
      Buffer.add_string b
        (Printf.sprintf "\"protocol\": \"%s\", \"graph\": \"%s\", \"regime\": \"%s\", \"max_configs\": %d"
           (Json.escape job.protocol) (Json.escape job.graph)
           (Spec.regime_name job.regime) job.max_configs);
      (match outcome with
      | Done d ->
        let status, verdict = result_strings d.result in
        Buffer.add_string b
          (Printf.sprintf
             ", \"status\": \"%s\", \"verdict\": \"%s\", \"cached\": %b, \"configs\": %d, \"seconds\": %.6f"
             status verdict d.cached d.configs d.seconds)
      | Failed msg ->
        Buffer.add_string b (Printf.sprintf ", \"status\": \"failed\", \"error\": \"%s\"" (Json.escape msg))
      | Skipped -> Buffer.add_string b ", \"status\": \"skipped\""
      | Interrupted -> Buffer.add_string b ", \"status\": \"interrupted\"");
      if shard >= 0 then Buffer.add_string b (Printf.sprintf ", \"shard\": %d" shard);
      Buffer.add_char b '}')
    r.jobs;
  Buffer.add_string b (if r.jobs = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents b

let pp_report fmt r =
  List.iter
    (fun (job, outcome, shard) ->
      let detail =
        match outcome with
        | Done d ->
          let _, verdict = result_strings d.result in
          Printf.sprintf "%-12s %s(%d configs, %.3fs)" verdict
            (if d.cached then "cached " else "")
            d.configs d.seconds
        | Failed msg -> "FAILED: " ^ msg
        | Skipped -> "skipped (time budget)"
        | Interrupted -> "interrupted (signal)"
      in
      Format.fprintf fmt "%-28s %-16s %s  %s%s@." job.protocol job.graph
        (Spec.regime_name job.regime) detail
        (if shard >= 0 then Printf.sprintf "  [shard %d]" shard else ""))
    r.jobs;
  Format.fprintf fmt "%d jobs, %d cache hits, %d computed, %d shards, %.3fs@."
    (List.length r.jobs) r.hits r.misses r.shards r.seconds
