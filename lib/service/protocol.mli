(** The [dda.service/1] wire protocol.

    JSON lines over a stream socket: each request and each response is one
    strict JSON object on one line, terminated by ['\n'].  Requests carry a
    mandatory ["schema"] field naming the protocol version; anything the
    server cannot parse — malformed JSON, an unknown schema, a bad spec —
    is answered with a structured [status:"error"] response, never a
    dropped connection or a crash.

    Request:
    {v
    {"schema":"dda.service/1","id":"c0-7","op":"decide",
     "protocol":"exists:a","graph":"cycle:abb","regime":"F",
     "max_configs":200000,"deadline_ms":2000}
    {"schema":"dda.service/1","id":"p1","op":"ping"}
    v}

    Response ([id] echoes the request; ["" ] when the request's id was
    unparseable):
    {v
    {"schema":"dda.service/1","id":"c0-7","status":"ok","verdict":"accepts",
     "cached":true,"configs":120,"seconds":0.0041,
     "queue_ms":0.3,"total_ms":0.9}
    {"schema":"dda.service/1","id":"c0-8","status":"bounded",
     "reason":"deadline","configs":0,"queue_ms":1800.2,"total_ms":1800.4}
    {"schema":"dda.service/1","id":"c0-9","status":"rejected",
     "reason":"queue_full"}
    {"schema":"dda.service/1","id":"","status":"error","reason":"..."}
    {"schema":"dda.service/1","id":"p1","status":"pong"}
    v}

    [status] values: ["ok"] (a verdict), ["bounded"] (a resource bound —
    the configuration budget, [reason:"budget"], or the request deadline,
    [reason:"deadline"]), ["rejected"] (admission control refused the
    request before any work: [reason] is [queue_full], [connection_limit]
    or [draining]), ["error"] (malformed request or unparsable spec),
    ["pong"].

    {b Admin verbs.}  Two further ops observe the server without entering
    the work queue — both are answered inline on the event loop:
    {v
    {"schema":"dda.service/1","id":"s1","op":"stats"}
    {"schema":"dda.service/1","id":"s1","status":"stats","stats":{...}}
    {"schema":"dda.service/1","id":"h1","op":"health"}
    {"schema":"dda.service/1","id":"h1","status":"health","state":"ok"}
    v}
    The [stats] payload is a [dda.stats/1] document (doc/OBSERVABILITY.md);
    [state] is [ok], [draining] (SIGTERM received, in-flight work
    finishing) or [overloaded] (admission queue at capacity).  A [decide]
    request may also carry an optional ["trace"] string — an opaque
    client-side correlation id echoed into the server's access log, never
    interpreted. *)

module Spec := Dda_batch.Spec

val schema : string
(** ["dda.service/1"]. *)

type decide = {
  id : string;  (** echoed verbatim in the response *)
  protocol : string;  (** {!Dda_batch.Spec.parse_protocol} syntax *)
  graph : string;  (** {!Dda_batch.Spec.parse_graph} syntax *)
  regime : Spec.regime;
  max_configs : int;
  deadline_ms : int option;
      (** overall budget from admission to answer; [None] = server default *)
  trace : string option;
      (** opaque client correlation id, echoed into the access log *)
}

type request =
  | Decide of decide
  | Ping of string  (** id *)
  | Stats of string  (** id — live [dda.stats/1] snapshot *)
  | Health of string  (** id — cheap liveness probe *)

type status =
  | Verdict of { verdict : string; cached : bool; configs : int; seconds : float }
      (** [verdict] is ["accepts"], ["rejects"] or ["inconsistent"];
          [seconds] is the wall-clock of the original computation (the
          cached value on a hit). *)
  | Bounded of { reason : string; configs : int }
      (** [reason]: ["budget"] or ["deadline"]. *)
  | Rejected of string  (** ["queue_full"] | ["connection_limit"] | ["draining"] *)
  | Error of string
  | Pong
  | Stats_doc of string
      (** a complete compact-JSON [dda.stats/1] document *)
  | Health_state of string  (** ["ok"] | ["draining"] | ["overloaded"] *)

type response = {
  rid : string;
  status : status;
  queue_ms : float;  (** admission to dispatch (0 for rejections/errors) *)
  total_ms : float;  (** admission to response *)
}

type parse_error = {
  err_id : string;  (** the request id when the envelope parsed, else [""] *)
  err_reason : string;
}

val request_to_json : request -> string
(** One line, no trailing newline. *)

val parse_request :
  ?default_max_configs:int -> string -> (request, parse_error) result
(** Strict parse of one request line.  [default_max_configs] (default
    200_000) fills an absent ["max_configs"]; an absent ["regime"] defaults
    to pseudo-stochastic, matching manifests. *)

val response_to_json : response -> string
val parse_response : string -> (response, string) result

val status_name : status -> string
(** The wire [status] field:
    ok | bounded | rejected | error | pong | stats | health. *)

(** {1 dda.service/2 — length-prefixed binary frames}

    The pipelining wire format (see doc/SERVICE.md for the byte-level
    layout).  A client opts in by sending the 4-byte magic {!magic}
    immediately after connect; the server echoes the same 4 bytes and the
    connection switches to binary frames in both directions.  Any other
    first bytes leave the connection in [/1] JSON-lines mode, so old
    clients connect unchanged.

    Every frame is a big-endian [u32] payload length followed by the
    payload ([1 ..= ]{!max_frame}[ bytes]; anything outside that range is
    a framing error and the server closes the connection after a final
    error frame).  An undecodable payload inside a well-delimited frame
    is answered with a [status:"error"] frame, exactly like a malformed
    [/1] line — the connection survives. *)

val schema2 : string
(** ["dda.service/2"]. *)

val magic : string
(** ["DDA2"] — the 4-byte hello that negotiates [/2]. *)

val max_frame : int
(** Maximum payload length (1 MiB). *)

val frame_length : string -> int
(** Decode a 4-byte big-endian header (raises [Invalid_argument] on a
    short string; the result may exceed {!max_frame} — callers validate). *)

val encode_request_frame : request -> string
(** Header + payload, ready to write. *)

val encode_response_frame : response -> string

val decode_request_payload :
  ?default_max_configs:int -> string -> (request, parse_error) result
(** Decode one frame payload (header already stripped).  Never raises on
    junk bytes; [default_max_configs] also substitutes a wire value of 0. *)

val decode_response_payload : string -> (response, string) result

(** {2 Raw frame surgery}

    Request and response payloads open the same way — a tag byte (the
    request op or response status) followed by the id as a [u16]-length
    string — so a proxy can match responses and rewrite ids without
    decoding the op-specific body.  The router relays backend responses
    through these; everything else uses the full codecs above. *)

val payload_tag : string -> int
(** First byte of a payload, or [-1] when empty. *)

val payload_id : string -> string option
(** The id string following the tag byte; [None] when truncated. *)

val payload_body : string -> string option
(** Everything after the id — the op/status-specific body, byte-exact. *)

val reframe : tag:int -> id:string -> body:string -> string
(** A complete frame (length header included) carrying [tag], [id] and
    [body]: the id-swap primitive ([payload_tag]/[payload_body] of the
    result round-trip). *)

(** {1 Addresses} *)

type address =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

val parse_address : string -> (address, string) result
(** [PATH] (containing [/] or ending in [.sock]), [HOST:PORT], or an IPv6
    literal in brackets, e.g. ["[::1]:7777"]. *)

val address_to_string : address -> string
