(** Spill-to-disk byte arenas for the external-memory engine.

    An arena is an append-only byte store cut into fixed-capacity segments.
    Sealed segments are immutable; under memory pressure the least recently
    used one is written once to a backing file under [_dda_spill/] (or
    [$DDA_SPILL_DIR]) and dropped from RAM, to be faulted back in on
    demand.  All arenas sharing a {!budget} compete for the same byte
    limit, so eviction is global across the engine's config and edge
    stores.

    Appends must come from a single thread; reads of already-committed
    records may come from many domains concurrently (fault-in is
    lock-protected, resident reads are lock-free).  Records never span
    segments.  Backing files use explicit [read]/[write] I/O, not [mmap]:
    mapped pages count toward RSS, which would defeat [--mem-budget]'s
    purpose of bounding peak resident memory. *)

type t

type budget

val budget_create : limit:int -> budget
(** A byte budget shared by every arena subsequently {!create}d on it. *)

type spill_stats = {
  mem_budget : int;
  segments_out : int;  (** Segments evicted from RAM (writes + re-drops). *)
  segments_in : int;  (** Segments faulted back in. *)
  bytes_out : int;  (** Bytes actually written to the spill files. *)
  bytes_in : int;  (** Bytes read back. *)
  resident_peak : int;  (** Peak in-core bytes across the budget's arenas. *)
}

val budget_stats : budget -> spill_stats

val create : budget -> name:string -> seg_bytes:int -> t
(** A fresh arena spilling to [<spill dir>/pid.<pid>/<name>.<k>.seg], where
    [k] numbers the arenas of the process, so concurrent explorations never
    share a file.  The file is created lazily on first eviction and removed
    by {!release} or at process exit. *)

val append : t -> Bytes.t -> int -> int -> int
(** [append a src off len] commits one record and returns its global
    position.  A record that does not fit in the tail segment seals it
    (leaving slack) and opens a fresh one — positions are segment-aligned
    addresses, not densely packed byte counts.
    @raise Invalid_argument if [len] exceeds the segment capacity. *)

val view : t -> int -> Bytes.t * int
(** [view a pos] is the segment holding [pos] (faulted in if necessary) and
    the offset of [pos] within it; the record starting there is guaranteed
    to lie entirely inside the returned [Bytes]. *)

val read_u32 : t -> int -> int
(** Little-endian unsigned 32-bit read at a global position (the position
    must have been returned by a 4-byte [append], so it cannot straddle a
    segment boundary when [seg_bytes] is a multiple of 4). *)

(** {2 Cursors}

    A cursor is one sequential reader's handle on an arena: it keeps the
    [Bytes] of the segment it last read and goes back through {!view} only
    when a read crosses into another segment.  A faulted segment is
    therefore read in full even when the budget evicts it straight away
    (for instance because the arena tails alone exceed the budget), and a
    monotone pass faults each segment at most once.  The held segment is
    not charged to the budget: each live cursor may keep at most one
    segment in core beyond it.  Cursors are not thread-safe; give each
    reader (and each domain) its own. *)

type cursor

val cursor : t -> cursor
(** A fresh cursor holding no segment. *)

val read_u32s : cursor -> int -> int array -> int -> unit
(** [read_u32s c pos dst n] stores the [n] little-endian u32 records at
    [pos], [pos + 4], ... into [dst.(0 .. n - 1)] — the same values as
    {!read_u32} at each position (so, as there, the records come from
    consecutive 4-byte appends and [seg_bytes] is a multiple of 4).  The
    run must lie inside one segment; the engine sizes its edge segments to
    whole rows so that a configuration's row always does.
    @raise Invalid_argument if the run crosses a segment boundary or [dst]
    is shorter than [n]. *)

val length : t -> int
(** Global position one past the last committed byte. *)

val release : t -> unit
(** Drop the arena's in-core segments, close and remove its backing file.
    The arena must not be used afterwards. *)

(** {2 Varints}

    LEB128 encoding helpers for the engine's delta-encoded configuration
    records (also exercised directly by the codec round-trip tests). *)

val varint_max : int
(** Max encoded size of one varint, in bytes. *)

val put_varint : Bytes.t -> int -> int -> int
(** [put_varint b pos v] writes non-negative [v] at [pos], returning the
    position after it.  @raise Invalid_argument on negative input. *)

val get_varint : Bytes.t -> int -> int * int
(** [get_varint b pos] reads a varint at [pos], returning it and the
    position after it. *)

(** {2 Live residency gauges}

    Process-global, read by the service stats plane
    ([dda_engine_resident_bytes] / [dda_engine_spill_segments]). *)

val resident_bytes : unit -> int
(** Bytes currently held in core across all live arenas. *)

val spill_segments : unit -> int
(** Cumulative segments evicted since process start. *)
