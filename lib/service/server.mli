(** The persistent verification server.

    One process, two kinds of actors:

    - the {e event-loop thread}: a single [Unix.select] readiness loop
      multiplexing every listener and every connection over non-blocking
      fds.  It accepts, reads both wire formats through the shared
      connection codec ({!Evloop}), runs admission control (a draining server, a per-connection
      in-flight limit, or a full backlog each turn the request into an
      immediate [rejected:*] response — overload is answered, never
      buffered without bound), owns the verdict cache ({!Dda_batch.Store})
      — the single store reader/writer in the process, so warm hits are
      answered inline without a context switch — coalesces identical
      concurrent misses (one computation per cache key in flight; every
      waiter is answered from its result as a cache hit), and hands
      misses to
    - {e worker domains}, which run the request's plan
      ({!Dda_batch.Batch.resolve}, memoised per request shape on the loop)
      with its (capped) configuration budget and report completions back
      through a queue plus a self-pipe byte that wakes the loop out of
      [select].  The loop looks hits up and records fresh verdicts through
      the same {!Dda_batch.Batch.lookup}/{!Dda_batch.Batch.record} chain
      as [dda batch] and [dda decide --cache].

    Deadlines are absolute from admission: a request that expires while
    queued is answered [bounded:deadline] — the same resource-bound shape
    as a blown configuration budget.  Output buffering and pipelining
    back-pressure are the connection codec's ({!Evloop.conn}).

    Graceful drain ({!drain}, wired to SIGTERM/SIGINT by [dda serve]):
    stop accepting connections and requests, answer everything already
    admitted, persist fresh verdicts, then shut down — an accepted request
    is never dropped.  {!wait} blocks until that point and returns the
    final statistics; the CLI exits 0.

    Observability (doc/OBSERVABILITY.md): the [stats] and [health] admin
    verbs are answered inline on the event loop — [stats] returns a live
    [dda.stats/1] document (uptime, active connections, queue depth,
    in-flight count, write-backlog bytes, memory-cache gauges, per-verb
    request counts, the sliding-window latency histogram, and the full
    telemetry snapshot), [health] returns [ok], [draining] or
    [overloaded] without touching the queue.  During drain the listeners
    stay open so health probes can still connect and observe
    ["draining"]; only [decide] work is refused.  An optional JSONL
    access log records one object per request (id, verb, cache key and
    tier, queue/compute/total latency split, echoed client trace id),
    with every-Nth sampling and a slow-only filter.  All durations are
    measured on the monotonic clock ({!Dda_telemetry.Telemetry.monotonic});
    only deadlines use wall time.

    Telemetry: counters [service.connections], [service.requests],
    [service.hits], [service.rejected], [service.bounded],
    [service.errors]; the queue-depth high-water mark
    [service.queue.peak] and trace track [service.queue]; histogram
    [service.latency_ms]; per-request span [service.request]; window
    [service.window.latency_ms]. *)

module Store := Dda_batch.Store

type config = {
  addresses : Protocol.address list;  (** listeners; Unix sockets are chmod 0600 *)
  cache : Store.t option;  (** warm verdict cache; misses recompute *)
  workers : int;  (** worker domains (>= 1) *)
  queue_capacity : int;
      (** admission limit: maximum requests admitted but not yet answered
          (queued or computing); the rest are [rejected:queue_full] *)
  conn_limit : int;  (** max in-flight requests per connection *)
  max_connections : int;
      (** max simultaneous connections; past it, accepts wait in the
          kernel backlog.  Clamped at {!start} against the [select]
          descriptor budget ({!Evloop.fd_setsize}): glibc's [select]
          silently ignores descriptors past FD_SETSIZE, so a cap that
          could breach it is a startup [Error], never a wedged loop. *)
  max_configs_cap : int;  (** per-request budgets are clamped to this *)
  default_deadline_ms : int option;  (** for requests that set none *)
  window_s : int;
      (** sliding-window length in seconds for the live latency
          histogram reported by [stats] (>= 1) *)
  access_log : string option;
      (** JSONL access-log path (append); [None] disables logging *)
  log_sample : int;  (** log every Nth surviving request (>= 1) *)
  slow_ms : float option;
      (** when set, only requests with [total_ms >= slow_ms] are
          considered for logging (the sample filter applies after) *)
}

val default_config : config

(** No listeners, no cache, 2 workers, queue 64, conn limit 8, 512
    connections, cap 2_000_000 configurations, no default deadline, 60 s
    stats window, no access log. *)

type stats = {
  connections : int;
  accepted : int;  (** requests admitted into the queue *)
  served : int;  (** responses to admitted requests (= accepted after drain) *)
  hits : int;  (** answered from the cache *)
  computed : int;  (** fresh verdicts from worker domains *)
  bounded : int;  (** budget or deadline bounds among served *)
  rejected : int;  (** admission-control refusals *)
  errors : int;  (** malformed requests and unparsable specs *)
  pings : int;
}

type t

val start : config -> (t, string) result
(** Bind the listeners and spawn the actors.  [Error] on bind failure
    (stale socket files are replaced only if nothing is listening there —
    a live server on the same path is an error). *)

val drain : t -> unit
(** Initiate graceful drain; idempotent, returns immediately. *)

val draining : t -> bool

val stats : t -> stats
(** A consistent snapshot at any time. *)

val wait : t -> stats
(** Block until drain completes (all accepted requests answered, workers
    joined, sockets closed and Unix socket paths unlinked); returns the
    final statistics. *)
