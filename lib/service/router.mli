(** Consistent-hash verdict routing across [dda serve] backends.

    One verification server shards perfectly by cache key — every verdict
    is keyed by the canonical (machine fingerprint, graph fingerprint,
    regime, budget) tuple — so a fleet of servers can each own a stable
    slice of the key space and keep their memory tiers hot on it.  The
    router is the thin tier in front: a single-thread [select] proxy that
    speaks [dda.service/1] and [/2] on the front, hashes each [decide]
    request's spec identity onto a consistent-hash ring of backends
    (virtual nodes for balance), and forwards over one pooled, pipelined
    [/2] connection per backend, multiplexing responses back by request
    id.  Every front request arrives decoded ({!Evloop.read}), whichever
    wire carried it; a forward re-encodes its decide under a
    router-assigned id.

    Routing hashes the {e textual} spec identity (protocol, graph,
    regime, budget) of the decoded request rather than the parsed
    fingerprint: it builds no machine or graph and is exactly as stable
    for repeated requests, on either wire.  Two textually different specs that canonicalise to the
    same fingerprint may land on different backends — the cost is a
    duplicate cache entry there, never a wrong answer.

    Robustness: backends are health-probed over the existing [health]
    verb on their forwarding connection; a connection error, connect
    failure, or probe that goes unanswered past the timeout {e ejects}
    the backend (its keys re-spread over the survivors — ~1/N of the
    space moves), and ejected backends are re-admitted by a background
    prober with exponential backoff.  In-flight [decide]s lost to an
    ejection are retried {e once} onto the ring successor ([decide] is
    idempotent by construction — verdicts are pure functions of the
    spec); a second failure answers [error:backend_unavailable].

    The router answers [ping], [stats] and [health] itself: [stats]
    returns a [dda.stats/1] document whose extra [backends] array carries
    one row per backend (address, state, in-flight, forwarded,
    ejections), and [health] is [ok] | [draining] | [overloaded] — the
    last meaning {e no backend is currently up}. *)

(** The hash ring, exposed for tests.  Each member is expanded into
    [replicas] virtual points ([MD5(member#i)]), so member loads balance
    and removing one member re-maps only the keys it owned (~1/N). *)
module Ring : sig
  type t

  val make : ?replicas:int -> string list -> t
  (** [replicas] defaults to 101 virtual points per member. *)

  val lookup : t -> string -> string option
  (** Owner of a key: the first member point clockwise from the key's
      hash.  [None] on an empty ring. *)

  val members : t -> string list
end

type config = {
  listen : Protocol.address list;  (** front listeners *)
  backends : Protocol.address list;  (** [dda serve] processes to route over *)
  replicas : int;  (** virtual points per backend on the ring *)
  max_connections : int;  (** front-connection cap; clamped per {!Evloop.check_fd_budget} *)
  conn_limit : int;
      (** max in-flight forwards admitted per front connection — past it a
          pipelining client is answered [rejected:connection_limit]
          instead of filling every backend's window and backlog *)
  backend_window : int;
      (** max in-flight forwards per backend connection — keep it at or
          below the backends' [--conn-limit] or they will reject the
          overflow *)
  backend_backlog : int;
      (** admission bound per backend: forwards queued beyond the window;
          past it new requests are [rejected:router_backlog] *)
  connect_timeout : float;  (** seconds; backend connect + negotiation *)
  probe_interval : float;  (** seconds between health probes per backend *)
  probe_timeout : float;  (** unanswered probe ejects the backend *)
  retry : bool;  (** retry lost forwards once onto the ring successor *)
  window_s : int;  (** stats window for forward latency *)
}

val default_config : config
(** No listeners or backends, 101 replicas, 512 connections, 64 in-flight
    per connection, window 8, backlog 1024, 2 s connect timeout, 1 s probe
    interval, 3 s probe timeout, retry on, 60 s stats window. *)

type stats = {
  connections : int;  (** front connections accepted *)
  requests : int;  (** front requests seen (all verbs) *)
  forwarded : int;  (** decide forwards sent to backends *)
  retries : int;  (** forwards re-sent after an ejection *)
  ejections : int;
  readmissions : int;
  rejected : int;  (** admission refusals (no backends, backlog) *)
  errors : int;  (** malformed requests + forwards failed permanently *)
  backends_up : int;
}

type t

val start : config -> (t, string) result
(** Bind the front listeners and connect every backend (each given
    [connect_timeout]; an unreachable backend starts ejected and is
    retried with backoff — only {e binding} failures and an empty
    backend list are startup errors). *)

val drain : t -> unit
(** Stop admitting [decide]s, answer everything in flight, then shut
    down.  Idempotent, returns immediately; {!wait} blocks until done. *)

val wait : t -> stats
val stats : t -> stats
