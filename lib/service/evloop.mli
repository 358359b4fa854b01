(** Plumbing shared by the select()-based event loops (the server and the
    router): growable byte windows, the [select] descriptor budget, and
    the one connection codec both speak on their front wire — [/1] JSON
    lines and [/2] length-prefixed frames (doc/SERVICE.md) — and the one
    request decoder behind it.  Each process keeps one request handler
    and its own event loop. *)

type iobuf = { mutable buf : Bytes.t; mutable off : int; mutable len : int }
(** A contiguous window [off, off+len) into a growable buffer.  Readers
    append at the tail and parsers consume from the head; compaction is
    deferred until a grow or a full drain. *)

val iobuf_create : int -> iobuf
val iobuf_add_string : iobuf -> string -> unit

val max_wbuf : int
(** Stop reading a connection whose un-flushed output exceeds this. *)

val max_rbuf : int
(** Fatal framing error when a single [/1] line grows past this. *)

val fd_setsize : int
(** glibc's FD_SETSIZE (1024 on Linux).  [Unix.select] silently ignores
    descriptors at or past it — a connection above the limit is never
    reported readable and the loop wedges without an error — so
    connection caps are clamped against it at startup. *)

val fd_headroom : int
(** Descriptors assumed spoken for outside the loop's own accounting
    (stdio, cache files, logs, short-lived fds). *)

val check_fd_budget : reserved:int -> int -> (int, string) result
(** [check_fd_budget ~reserved cap] is [Ok cap] when a loop can select
    over [cap] connections plus [reserved] loop-owned descriptors
    (listeners, wake pipe, backend connections) without crossing
    [fd_setsize - fd_headroom]; otherwise an [Error] naming the budget. *)

val bind_listeners :
  Protocol.address list -> ((Unix.file_descr * Protocol.address) list, string) result
(** Bind every address, non-blocking, or none (a refusal closes what was
    bound and names the cause).  Ignores SIGPIPE, so a peer hanging up
    surfaces as [EPIPE].  Unix sockets are born owner-only, and a stale
    socket file is replaced only when nothing answers on it. *)

val close_listeners : (Unix.file_descr * Protocol.address) list -> unit

val wake_pipe : unit -> Unix.file_descr * Unix.file_descr
(** Non-blocking self-pipe: other threads {!wake} the loop's [select]. *)

val wake : Unix.file_descr -> unit
val drain_wake : Unix.file_descr -> unit

(** {2 Stream I/O}, also under the router's backend connections *)

val set_stream_opts : Protocol.address -> Unix.file_descr -> unit
val fill : Unix.file_descr -> iobuf -> [ `Data | `Again | `Eof | `Error ]

val write_out : Unix.file_descr -> iobuf -> bool
(** Write and consume what the socket takes; [false] on a hard error. *)

type frame = Frame of string | Partial | Bad_length of int

val take_frame : iobuf -> frame
(** Split one [/2] payload off the head ([Partial] consumes nothing).  A
    length outside [1 ..= Protocol.max_frame] is refused before its
    payload is awaited, so a partial frame stays bounded. *)

(** {2 Front connections} *)

type mode = Detecting | Json_lines | Binary
(** Set by the first bytes: {!Protocol.magic} selects [/2], else [/1]. *)

type conn = {
  fd : Unix.file_descr;
  mutable mode : mode;
  rbuf : iobuf;  (** received, not yet split into requests *)
  wbuf : iobuf;  (** encoded responses, not yet written *)
  mutable inflight : int;  (** admitted and unanswered; kept by the handler *)
  mutable eof : bool;  (** stop reading: peer EOF or a fatal framing error *)
  mutable dead : bool;  (** the peer is gone: output is discarded *)
  mutable closed : bool;  (** fd closed, off the loop's list *)
}
(** Read while [not eof] and [wbuf] is under {!max_wbuf} (back-pressure:
    a client that never reads cannot grow the process); {!reap}ed once
    [dead], or [eof] with nothing in flight or left to write. *)

val conn : Unix.file_descr -> conn
(** A fresh connection.  Only {!read}, {!flush} and {!reap} touch the fd. *)

val respond : conn -> Protocol.response -> unit
(** Append, encoded in the connection's mode; dropped once [dead]/[closed]. *)

val answer : conn -> id:string -> Protocol.status -> unit
val append : conn -> string -> unit
(** Append pre-encoded bytes (a relayed [/2] frame), unless [dead]/[closed]. *)

val feed : conn -> on_line:(string -> unit) -> on_frame:(string -> unit) -> unit
(** Pass each complete request in [rbuf], in order and undecoded, to its
    callback: [/1] lines (blank ones skipped), [/2] payloads (the magic is
    echoed when [/2] is detected).  A partial tail waits, so any chunking
    of a stream yields what feeding it whole does.  A line past
    {!max_rbuf} or a bad frame length is fatal: one error response, [eof]
    set, [rbuf] dropped.  Feeding stops at [eof]. *)

val read :
  conn ->
  on_request:((Protocol.request, Protocol.parse_error) result -> unit) ->
  on_crash:(exn -> string) ->
  unit
(** {!fill} then {!feed}, decoding each request for [on_request]: a line
    through {!Protocol.parse_request}, a frame through
    {!Protocol.decode_request_payload} (default budgets).  An undecodable
    request is an [Error] for the handler to answer; the connection
    survives it.  EOF sets [eof]; a read error also [dead].  A handler
    that raises fails its connection only, like a framing error, with the
    reason [on_crash] returns (after counting it). *)

val flush : conn -> unit
(** Write out [wbuf]; a hard error marks the connection [dead]. *)

val select_sets : conn list -> Unix.file_descr list * Unix.file_descr list
(** The [select] read set (under back-pressure) and write set. *)

val flush_ready : conn list -> Unix.file_descr list -> unit
(** {!flush} each connection with output or reported writable. *)

val accept :
  Unix.file_descr * Protocol.address -> room:(unit -> bool) -> (conn -> unit) -> unit
(** Accept while [room ()] until the backlog is empty. *)

val close_conn : conn -> unit
val reap : conn list -> conn list
