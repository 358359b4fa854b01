(** Sharded batch verification with the persistent verdict cache.

    The runner takes a manifest of jobs — protocol × graph × fairness
    regime, each with a configuration budget — resolves every job to a
    {!plan}, answers hits from the {!Store}, groups the misses that differ
    in regime only, shards the groups round-robin across worker domains,
    and persists fresh verdicts.  Cache
    lookups and writes happen only on the main domain; workers just
    explore, so the store never sees concurrent writers from one process.

    A job whose exploration exceeds its budget is a {e bounded-out} result
    ([Bounded]), not an error: both [Dda_verify.Space.Too_large] and
    [Dda_wsts.Coverability.Too_large] are converted, cached (a budget
    overflow is as deterministic as a verdict) and reported with exit
    status 1 by the CLI, reserving 2 for real errors. *)

type result_ = Store.verdict =
  | Verdict of Dda_verify.Decide.verdict
  | Bounded of int  (** budget exceeded after this many configurations *)

type decision = {
  result : result_;
  cached : bool;  (** answered from the store *)
  configs : int;  (** configurations explored (original run, if cached) *)
  seconds : float;
      (** Wall-clock of the original computation.  A job computed in a group
          (see {!run}) gets its own analysis time plus an equal share of
          the group's one exploration, so a group's seconds sum to its wall
          time. *)
}

val cache_stats : unit -> int * int
(** Process-global (hits, misses) across all cached calls — independent of
    the telemetry subsystem, so cold/warm experiments can measure hit rates
    with telemetry disabled. *)

val reset_cache_stats : unit -> unit

(** {1 The tier chain}

    Every cached front end — {!run}, {!decide}, {!decide_family},
    {!cached}, [dda decide --cache] and the server — answers a request the
    same way: build its {!plan}, {!lookup} the plan in the store (memory,
    then disk, then — for a concrete clique/star instance — its family's
    certified entry), and on a miss run the plan's [compute] and {!record}
    the result.  [lookup] and [record] count nothing: each front end keeps
    its own counters ([cache.*] and {!cache_stats} here, [service.*] in the
    server). *)

type computed = decision * Store.family_cert option
(** A fresh result, with the certification record of a family verdict. *)

type tier =
  | Mem  (** the store's in-memory LRU *)
  | Disk  (** an entry file *)
  | Family  (** a certified family entry covering the instance *)

val tier_name : tier -> string
(** ["mem"], ["disk"], ["family"] — the access log's and the CLI's names. *)

type plan = {
  solve : Spec.regime list -> (computed, string) result list;
      (** Explore the plan's (protocol, graph, budget) once and classify it
          under each regime given, in order, timed as in
          [decision.seconds].  A resource bound is an [Ok] [Bounded]
          result for every regime, a refused input or an unstabilised
          family an [Error].  Pure: safe to run on any domain.  The plans
          of {!cached} answer their own [regime] only. *)
  explore : (unit -> Dda_verify.Space.t) option;
      (** The exploration [solve] classifies, for the plan of a concrete
          graph ([None] for families and {!cached}): callers that need the
          space itself (its engine statistics, a witness path) run this. *)
  key : string;  (** the exact cache key; [""] for a plan built without a cache *)
  machine_key : string;
  graph_key : string;  (** {!Fingerprint.graph} or {!Fingerprint.family} *)
  engine : string;
      (** provenance: ["explicit"], or ["symbolic"] for counted spaces
          (families, and cliques and stars under [reduce]) *)
  group_order : int;
      (** the order of the node-permutation group whose orbits the explicit
          exploration keeps; 1 when it keeps every configuration *)
  regime : Spec.regime;
  max_configs : int;
  fallback : (string * int) option Lazy.t;
      (** A concrete clique/star instance's family key and size; forced by
          {!lookup} only after an exact miss. *)
}

val plan :
  ?cache:Store.t ->
  ?machine_key:string ->
  ?graph_spec:string ->
  ?reduce:bool ->
  regime:Spec.regime ->
  max_configs:int ->
  (string, 's) Dda_machine.Machine.t ->
  string Dda_graph.Graph.t ->
  plan
(** The plan for a built machine and graph.  Fingerprints are computed only
    with [?cache] ([machine_key] amortises the machine's across calls); the
    uncached plan does no fingerprint work.  [graph_spec], the graph's spec
    string, enables the family fallback.

    [reduce] (default [false]) explores the quotient by the topology's
    automorphisms, chosen here and nowhere else: on a clique or a star
    ({!Dda_symbolic.Counted.shape_of_graph}) the counted space, whose
    configurations are multisets of states (engine ["symbolic"], under
    engine-salted keys; it stays resident whatever the memory budget); on
    a line or a cycle the orbits of {!Dda_verify.Symmetry.of_graph}'s group
    (engine ["explicit"], [group_order] its order, the unreduced key); on any
    other graph every configuration, as without [reduce].  Verdicts are
    unchanged; witness texts of counted spaces name counted
    configurations. *)

val compute : plan -> (computed, string) result
(** [solve [regime]]: the plan's own job, alone. *)

val lookup : Store.t -> plan -> (Store.entry * tier) option

val of_entry : Store.entry -> decision
(** A stored entry as a [cached] decision. *)

val record : Store.t -> plan -> computed -> unit
(** Persist a fresh result under the plan's key, with its provenance. *)

val cached :
  ?cache:Store.t ->
  ?count:bool ->
  ?engine:string ->
  machine_key:string ->
  graph_key:string ->
  regime:Spec.regime ->
  max_configs:int ->
  (unit -> result_ * int) ->
  decision
(** Generic memoiser: look up the key; on a miss run the thunk (returning
    the result and the number of configurations explored), persist, and
    return.  Without [?cache] the thunk just runs.  [count] (default true)
    controls the telemetry counters [cache.hits]/[cache.misses]/
    [cache.stores] — pass [false] off the main domain.  [engine] (default
    ["explicit"]) salts the cache key and is recorded as the entry's
    provenance; verdicts from different engines never share an entry. *)

val decide :
  ?cache:Store.t ->
  ?count:bool ->
  ?machine_key:string ->
  regime:Spec.regime ->
  max_configs:int ->
  (string, 's) Dda_machine.Machine.t ->
  string Dda_graph.Graph.t ->
  decision
(** Cached exact decision: the unreduced {!plan}, then the tier chain.
    The regime classifies the explored space (fair-SCC for adversarial,
    bottom-SCC for pseudo-stochastic).
    @raise Invalid_argument when the computation refuses the input
    (adversarial fairness on an explicit space of more than 62 nodes). *)

(** {1 Family verdicts (symbolic engine)} *)

val decide_family :
  ?cache:Store.t ->
  ?count:bool ->
  ?machine_key:string ->
  regime:Spec.regime ->
  max_configs:int ->
  (string, 's) Dda_machine.Machine.t ->
  Dda_symbolic.Family.t ->
  (computed, string) result
(** Decide a whole graph family ([clique:ab*], [star:ba*]) with the
    symbolic engine and persist the certified verdict as {e one} store
    entry (graph slot = {!Fingerprint.family}).  The certification record
    says from which [n] the verdict holds, how far it was checked, and the
    coverability cutoff when the stratified-star argument applies
    ([cutoff = None] marks an empirical stabilisation window).  [Error]
    carries the reason when the family cannot be stabilised within budget.
    A bounded-out exploration is still [Ok] with a [Bounded] result and no
    certification record. *)

val family_hit :
  cache:Store.t ->
  machine_key:string ->
  regime:Spec.regime ->
  max_configs:int ->
  string ->
  (Store.entry * string) option
(** Answer a {e concrete} clique/star graph spec from its family's cached
    verdict: collapse the spec to its family ({!Spec.family_of_instance}),
    look up the family entry, and return it (with its key) when the
    instance size is within the certified range ([n >= from_n]).  This is
    the {!Family} tier of {!lookup}: one family entry answers every
    instance-n query — including sizes far beyond the explicit engine's
    reach. *)

(** {1 Manifests and the sharded runner} *)

type job = {
  protocol : string;  (** {!Spec.parse_protocol} syntax *)
  graph : string;
      (** {!Spec.parse_graph_spec} syntax — a concrete graph, or a family
          ([star:ba*]) decided by the symbolic engine *)
  regime : Spec.regime;
  max_configs : int;
}

val manifest_of_string :
  ?default_max_configs:int -> string -> (job list, string) result
(** Parse a manifest document:
    [{"schema":"dda.batch-manifest/1",
      "jobs":[{"protocol":"exists:a","graph":"cycle:abb",
               "regime":"F","max_configs":200000}, ...]}].
    [regime] (default ["F"]) and [max_configs] (default
    [?default_max_configs], 200_000) are optional per job. *)

val manifest_of_file :
  ?default_max_configs:int -> string -> (job list, string) result

val resolve :
  ?cache:Store.t ->
  (string * string list, string) Hashtbl.t ->
  job ->
  (plan, string) result
(** The plan of a job given as spec strings: a concrete graph goes through
    {!plan} (unreduced, with its spec as the family fallback), a
    family through the symbolic engine.  The table memoises machine fingerprints per
    (protocol, alphabet) across jobs.  [Error] is the failing parser's own
    text — {!Spec.parse_graph_spec}'s ["graph: ..."] or
    {!Spec.parse_protocol}'s ["protocol <spec>: ..."] — the one
    [dda decide] prints. *)

type outcome =
  | Done of decision
  | Failed of string  (** unparsable spec or runtime error *)
  | Skipped  (** the shard's time budget ran out before this job *)
  | Interrupted
      (** the run was asked to stop (SIGINT/SIGTERM) before this job ran;
          completed jobs keep their verdicts and the consolidated report is
          still produced *)

type report = {
  jobs : (job * outcome * int) list;  (** in manifest order, with shard id *)
  hits : int;
  misses : int;
  shards : int;
  seconds : float;
}

val run :
  ?cache:Store.t ->
  ?shards:int ->
  ?time_budget:float ->
  ?interrupted:(unit -> bool) ->
  job list ->
  report
(** Execute a manifest.  Hits are answered first; the misses are then
    grouped by their job text without the regime — (protocol, graph,
    max_configs) — and each group is explored once and classified under
    every member's regime ({!plan}'s [solve]).  Each member is still looked
    up and recorded under its own key, with the verdict, witness text and
    [configs] it gets when run alone.  A group is one work item.
    [shards] (default 1) is the number of worker domains for cache misses,
    which take the groups round-robin, so a group is never split;
    [time_budget] bounds each shard's wall-clock — groups not started when
    it expires are [Skipped].  [interrupted]
    (default [fun () -> false]) is polled between groups on every shard; once
    it returns [true], jobs not yet started drain as [Interrupted] and the
    runner returns normally with the verdicts completed so far — the CLI
    wires SIGINT/SIGTERM to this and still flushes the report.  Telemetry:
    [batch.jobs], [batch.bounded], [batch.errors], [cache.hits]/[misses]/
    [stores], per-shard [batch.shard.<k>.jobs], spans [batch] and
    [batch.job] (all aggregated on the main domain). *)

val report_json : report -> string
(** Consolidated JSON report (schema [dda.batch/1]). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable per-job table with a summary line. *)
