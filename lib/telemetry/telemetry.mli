(** Telemetry: counters, histograms, spans, run journals, progress.

    A zero-cost-when-disabled instrumentation layer for the exploration and
    scheduler stack.  Until {!enable} is called every hot-path operation
    ({!incr}, {!add}, {!observe}, {!max_gauge}) is a single conditional
    branch on one global flag and allocates nothing; {!with_span} reduces to
    a direct call of its thunk.  The flag is write-once: {!enable} may be
    called at most once per process, before the instrumented workload runs,
    so the branch predicts perfectly on both settings.

    Once enabled, the subsystem fans out to up to three sinks:

    - a {e Chrome trace} ([trace_event] JSON, loadable in [chrome://tracing]
      and {{:https://ui.perfetto.dev}Perfetto}) recording spans as complete
      ("ph":"X") events, instants, and counter tracks;
    - a {e run journal} (JSONL, one object per line) recording the same
      spans and instants plus structured per-step events such as scheduler
      selections;
    - a throttled {e progress} line on stderr (configs/sec, frontier depth,
      ETA against the configuration budget).

    Metric identities are {e names}, dot-separated by subsystem
    ([engine.memo.hits], [sched.steps]); the full registry lives in
    {!Registry} and doc/OBSERVABILITY.md.  Counters and histograms are
    process-global and monotonically increasing; a metrics snapshot
    ({!write_metrics}) can be taken at any time.

    Threading: counters, histograms and spans must be driven from the main
    domain (the engine's worker domains accumulate privately and flush
    after joining); sink emission is internally locked so incidental
    cross-domain events cannot interleave bytes. *)

(** {1 Clocks} *)

val monotonic : unit -> float
(** Seconds on [CLOCK_MONOTONIC] when the platform provides it (arbitrary
    origin, never steps backwards), otherwise the wall clock.  Use for {e
    all} latency and duration arithmetic — client RTTs, server queue-wait
    and compute splits, bench reps — so NTP steps cannot produce negative
    or skewed quantiles.  Keep absolute wall-clock time
    ([Unix.gettimeofday]) only for externally-meaningful instants:
    deadlines, log timestamps. *)

val monotonic_available : bool
(** Whether {!monotonic} is actually the monotonic clock (false = wall-clock
    fallback). *)

(** {1 Lifecycle} *)

val enable : ?trace:string -> ?journal:string -> ?progress:bool -> unit -> unit
(** Switch telemetry on, opening the given sink files.  [trace] receives a
    Chrome [trace_event] document, [journal] a JSONL stream; [progress]
    (default [false]) turns on the stderr reporter.  The flag is write-once.
    @raise Invalid_argument if already enabled. *)

val shutdown : unit -> unit
(** Finalise and close the sinks (terminates the trace JSON document,
    flushes the journal, ends the progress line).  Counters and histograms
    survive — {!write_metrics} still works — but no further trace/journal
    output is produced.  Idempotent. *)

val enabled : unit -> bool

val journalling : unit -> bool
(** Telemetry is enabled {e and} a journal sink is open.  Guard the
    construction of per-event argument lists with this to keep the disabled
    path allocation-free. *)

(** {1 Counters and histograms} *)

type counter

val counter : string -> counter
(** Find or create the counter with this name (names are process-global). *)

val incr : counter -> unit
val add : counter -> int -> unit

val max_gauge : counter -> int -> unit
(** Raise the counter to [v] if below it — a high-water mark (e.g. peak
    frontier size); still monotone. *)

val value : counter -> int

type histogram

val histogram : string -> histogram
(** Find or create.  Buckets are powers of two: bucket [k >= 1] counts
    observations [2^(k-1) <= v < 2^k]; bucket 0 counts [v <= 0]. *)

val observe : histogram -> int -> unit

(** {1 Spans, events, journals} *)

type arg = I of int | F of float | S of string | A of int list

val with_span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Time the thunk as a named span.  Enabled: emits a complete trace event
    and a journal line, and accumulates into the per-name aggregate that
    {!write_metrics} reports ([spans.<name>.count/total_s]).  Spans nest;
    hierarchy in the trace viewer comes from time containment on the single
    thread track.  Disabled: calls the thunk directly.  Exception-safe. *)

val event : ?args:(string * arg) list -> string -> unit
(** An instant: trace "i" event plus journal line. *)

val record_span : ?args:(string * arg) list -> string -> seconds:float -> unit
(** Record an already-measured span that ends {e now} and lasted [seconds].
    Same sinks and aggregates as {!with_span}.  For lifetimes that cannot be
    wrapped in a thunk because they cross threads — e.g. a service request
    that is admitted on a connection thread, computed on a worker domain and
    answered from the dispatcher. *)

val journal : string -> (string * arg) list -> unit
(** A journal-only structured event:
    [{"ev": <name>, "t": <seconds since enable>, <args>...}].  No-op
    without a journal sink — but wrap argument-list construction in
    {!journalling} at call sites on hot paths. *)

val emit_value : string -> int -> unit
(** A counter-track sample (trace "C" event): plots a time series (e.g.
    frontier size per wave) in the trace viewer. *)

(** {1 Progress} *)

val progress_tick :
  label:string -> expanded:int -> discovered:int -> budget:int -> wave:int -> frontier:int -> unit
(** Feed the stderr progress reporter (throttled to ~5 lines/s; no-op
    unless [enable ~progress:true]).  [expanded] configurations fully
    processed, [discovered] interned so far, [budget] the [max_configs]
    cap, [frontier] = discovered - expanded. *)

(** {1 Metrics snapshots} *)

val metrics_json : unit -> string
(** The metrics snapshot as a JSON document: schema marker, all non-zero
    counters, histogram summaries (count/sum/min/max/mean + power-of-two
    buckets), span aggregates, and derived values (memo hit rate when the
    memo counters are present). *)

val write_metrics : string -> unit
(** {!metrics_json} to a file. *)

(** {1 Sliding-window histograms}

    Cumulative histograms answer "since boot"; a long-running server also
    needs "right now".  A {!Window.t} keeps a ring of per-second buckets
    over a configurable window and serves online p50/p95/p99 from them.
    Unlike the global counters, windows are plain owned values: they are
    always live (independent of {!enable}), internally locked, and cheap —
    one mutex round and a bounded-reservoir write per observation. *)

module Window : sig
  type t

  type snapshot = {
    win_s : int;    (** window length, seconds *)
    count : int;    (** observations inside the window *)
    sum : float;
    rate : float;   (** count / window length, per second *)
    p50 : float;
    p95 : float;
    p99 : float;
    max_v : float;
  }

  val create : ?window_s:int -> ?slot_cap:int -> string -> t
  (** A window named per {!Registry.windows} covering the trailing
      [window_s] seconds (default 60), sampling at most [slot_cap]
      observations per second (default 512; beyond that, uniform reservoir
      subsampling — quantiles stay representative, memory stays bounded). *)

  val name : t -> string

  val observe : ?now:float -> t -> float -> unit
  (** Record one observation at time [now] (default: the monotonic clock;
      injectable for deterministic tests).  Thread-safe. *)

  val snapshot : ?now:float -> t -> snapshot
  (** Quantiles over the window ending at [now].  Slots older than the
      window are excluded (and recycled lazily), so idle gaps decay to an
      empty window rather than serving stale quantiles. *)

  val snapshot_json : ?now:float -> t -> string
  (** The snapshot as a compact JSON object — the value format of the
      ["windows"] section of a [dda.stats/1] document. *)
end

(** {1 Registry and validation} *)

module Registry : sig
  val counters : string list
  (** All registered counter names.  Per-shard counters follow the
      pattern [batch.shard.<k>.jobs], validated structurally. *)

  val histograms : string list

  val spans : string list

  val tracks : string list
  (** Counter-track names used in "C" trace events. *)

  val gauges : string list
  (** Point-in-time values in the ["gauges"] section of a [dda.stats/1]
      document.  Per-verb request counts follow [service.verb.<v>],
      validated structurally. *)

  val windows : string list
  (** Sliding-window histogram names ([dda.stats/1] ["windows"] section). *)

  val valid_counter : string -> bool
  val valid_histogram : string -> bool
  val valid_span : string -> bool
  val valid_gauge : string -> bool
  val valid_window : string -> bool
end

val validate_metrics : Json.t -> string list
(** Structural check of a metrics document against the registry: returns
    human-readable problems, [[]] when valid. *)

val validate_trace : Json.t -> string list
(** Structural check of a Chrome trace document: [traceEvents] array,
    mandatory fields per phase type, registered span names on "X" events,
    non-negative timestamps. *)

val validate_journal : string -> string list
(** Check a JSONL journal: every non-empty line is a strict JSON object
    with an ["ev"] string and a numeric ["t"]. *)

val validate_stats : Json.t -> string list
(** Structural check of a [dda.stats/1] live-stats document (the [stats]
    service verb's payload): schema marker, known health state, registered
    gauge/window names with numeric values, and an embedded
    [dda.telemetry/1] snapshot that itself passes {!validate_metrics}. *)
