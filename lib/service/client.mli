(** Client side of the [dda.service/1] and [/2] protocols, and a
    closed-loop load generator with request pipelining.

    A {!t} is one blocking connection: {!rpc} writes a request and reads
    responses until one echoes the request's id (the server answers in
    completion order; a stale or misdelivered response is skipped, never
    accepted as the answer).  [~version:2] negotiates the binary framing
    at connect time (magic exchange); the default remains [/1] JSON
    lines, wire-compatible with any older server.

    {!load} drives a fixed job mix from [clients] concurrent connections,
    each closed-loop ([per_client] requests, up to [pipeline] of them in
    flight per connection), and merges the per-request latencies into a
    {!summary} with p50/p95/p99 — the measurement harness behind
    [dda client --bench] and bench experiments E15/E16. *)

type t

val connect : ?version:int -> ?timeout:float -> Protocol.address -> (t, string) result
(** [version] is 1 (default, JSON lines) or 2 (binary frames).  With 2,
    the connection fails fast — before any request — when the server does
    not echo the [/2] magic.

    [timeout] (seconds) bounds the {e whole} call — TCP/Unix connect plus
    the [/2] negotiation round trip — via non-blocking connect and
    [select] against one monotonic deadline.  Without it the call blocks
    indefinitely, so a blackholed peer (SYN unanswered, or accepting but
    never responding) hangs the caller; the router's probe path always
    sets it.

    Known gap: the deadline does not cover DNS resolution
    ([Unix.getaddrinfo] has no select-able handle), so a hung resolver
    can still stall a TCP connect.  Numeric host addresses never touch
    the resolver — prefer them on latency-sensitive paths (backend lists
    probed by the router). *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The connection's raw descriptor.  After a [~version:2] {!connect}
    nothing has been read beyond the 4-byte hello, so the descriptor can
    be handed to an event loop (the router adopts probe connections this
    way); the {!t} must not be used for {!rpc} afterwards. *)

val rpc : t -> Protocol.request -> (Protocol.response, string) result
(** One round trip.  [Error] is transport-level (connection refused,
    server hang-up, malformed response line); protocol-level failures come
    back as [Ok] with a [Rejected]/[Error] status. *)

val ping : t -> (float, string) result
(** Round-trip time of a ping, in milliseconds (monotonic clock). *)

val stats : t -> (string, string) result
(** One [stats] round trip; the compact [dda.stats/1] JSON document as the
    server produced it (parse with {!Dda_telemetry.Json.parse}, validate
    with {!Dda_telemetry.Telemetry.validate_stats}). *)

val health : t -> (string, string) result
(** One [health] round trip: ["ok"], ["draining"] or ["overloaded"].
    Answered inline on the event loop without touching the work queue, so
    it stays cheap (and truthful) under load. *)

(** {1 Load generation} *)

type load = {
  clients : int;  (** concurrent connections (>= 1) *)
  per_client : int;  (** closed-loop requests per connection *)
  mix : Dda_batch.Batch.job list;  (** cycled through, offset per client *)
  deadline_ms : int option;  (** attached to every request *)
}

type summary = {
  clients : int;
  requests : int;  (** responses received *)
  ok : int;  (** [Verdict] responses *)
  cached : int;  (** [Verdict] responses answered from the cache *)
  bounded : int;
  rejected : int;
  errors : int;  (** error statuses plus transport failures *)
  seconds : float;  (** wall-clock of the whole run *)
  rps : float;  (** requests / seconds *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

val hit_rate : summary -> float
(** [cached / ok] (0 when no [ok] responses) — the warm-cache figure CI
    asserts on. *)

val load :
  ?version:int -> ?pipeline:int -> Protocol.address -> load -> (summary, string) result
(** Run the load.  All connections are established up front ([Error] if
    any fails); each client thread then replays the mix starting at its
    own offset, so concurrent clients spread over the jobs.

    [pipeline] (default 1) is the per-connection window: up to that many
    requests are kept in flight, their wire bytes batched into single
    writes.  Latencies remain per-request, measured send to receive and
    matched by response id.  [version] selects the wire format as in
    {!connect}. *)

val summary_json : summary -> string
(** Schema [dda.client-load/1]. *)

val pp_summary : Format.formatter -> summary -> unit
