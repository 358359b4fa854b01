(** Renderers for [dda.stats/1] documents: Prometheus text exposition and
    the one-shot [dda top] dashboard frame.

    Both are pure functions of a parsed {!Dda_telemetry.Json.t} — no
    sockets, no clocks — so [dda stats --prom] and [dda top] are thin
    wrappers ([fetch → parse → render]) and the formats are testable
    without a live server. *)

module Json := Dda_telemetry.Json

val prometheus : Json.t -> (string, string) result
(** Prometheus text exposition (version 0.0.4) of a stats document.
    Every metric is prefixed [dda_] and dots become underscores:

    - [health] → a one-hot [dda_health{state="..."}] gauge vector;
    - [gauges.*] → gauges ([service.uptime_s] → [dda_service_uptime_s]);
    - [windows.*] → summaries with [quantile] labels (0.5/0.95/0.99)
      plus [_rate] and [_max] gauges;
    - [telemetry.counters.*] → counters, suffixed [_total];
    - [telemetry.histograms.*] → histograms with cumulative [le] buckets
      derived from the power-of-two [lt_N] buckets, plus [+Inf], [_sum]
      and [_count];
    - [telemetry.spans.*] → [_calls_total] and [_seconds_total] counters;
    - [telemetry.derived.*] → gauges;
    - [backends] (router documents) → [dda_router_backend_up] plus
      per-backend in-flight/forwarded/ejection series keyed by a
      [backend="addr"] label.

    Label values are escaped per the exposition format (backslash,
    double quote and newline), so hostile state or address strings
    cannot splice extra sample lines into a scrape.  [Error] when the
    document's schema is not [dda.stats/1]. *)

val render_top : ?spark:int list -> Json.t -> string
(** One text frame of the [dda top] dashboard: health and uptime, the
    window's rps and p50/p95/p99/max, queue/in-flight/backlog gauges,
    memory-cache hit rate, per-verb counts, and — when [spark] (a
    most-recent-last queue-depth history) is non-empty — a Unicode
    sparkline.  [dda top] clears the screen and reprints this frame;
    with [--once] (or a non-TTY stdout) it prints exactly one frame. *)

val document :
  health:string ->
  window:Dda_telemetry.Telemetry.Window.t ->
  ?members:(string * string) list ->
  ((string -> string -> unit) -> unit) ->
  string
(** [document ~health ~window gauges] is the single-line [dda.stats/1]
    document of a server or router: schema, [health], the gauges that
    [gauges] writes with the function it is given (name, JSON number;
    names registered in [Telemetry.Registry.gauges]), the latency
    [window], extra top-level [members] (name, JSON; the router's
    [backends]) and the process's telemetry snapshot with its newlines
    compacted to spaces. *)
