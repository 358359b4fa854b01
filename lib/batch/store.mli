(** On-disk verdict cache: one JSON file per cache key.

    Layout: [<root>/<first two hex chars of key>/<key>.json], where [root]
    defaults to [_dda_cache] (overridable with the [DDA_CACHE] environment
    variable or [?root]).  Writes are atomic — the entry is written to a
    temporary file in the root and renamed into place — so a concurrent
    reader never observes a half-written entry.

    The store is tolerant by construction: a corrupt, truncated or
    stale entry (wrong schema, wrong salt, key mismatch with its file name)
    is treated as a miss and recomputed; nothing in this module raises on
    bad cache contents.  [verify] reports such entries, [gc] removes
    them. *)

type verdict =
  | Verdict of Dda_verify.Decide.verdict
  | Bounded of int  (** exploration hit the budget after this many configs *)
(** What an entry records: a verdict, or the budget the exploration hit.
    {!Batch.result_} is this type. *)

type family_cert = {
  from_n : int;  (** the verdict holds for every instance with [n >= from_n] *)
  checked_to : int;  (** largest instance actually explored *)
  cutoff : int option;
      (** [Some k]: certified by the Lemma 3.5 coverability cutoff [k];
          [None]: stabilisation-window extrapolation, uncertified. *)
}

type entry = {
  key : string;
  machine : string;  (** machine fingerprint ({!Fingerprint.machine}) *)
  graph : string;  (** graph fingerprint ({!Fingerprint.graph}) *)
  regime : string;  (** ["f"] or ["F"] *)
  max_configs : int;
  verdict : verdict;
  configs : int;  (** configurations explored when computed (0 if unknown) *)
  seconds : float;  (** wall-clock seconds of the original computation *)
  engine : string;
      (** ["explicit"] or ["symbolic"] — which engine computed the verdict.
          The engine is also salted into non-explicit cache keys
          ({!Fingerprint.key}), so the two engines' verdicts can never
          alias; the field makes provenance visible in the entry itself.
          Absent in pre-engine entries, which decode as ["explicit"]. *)
  family : family_cert option;
      (** Present on family verdicts (graph fingerprint
          {!Fingerprint.family}): one such entry answers every instance-n
          query with [n >= from_n]. *)
}

type t

val default_root : unit -> string
(** [$DDA_CACHE] if set and non-empty, else ["_dda_cache"]. *)

val open_ :
  ?root:string -> ?memo:int -> ?memo_shards:int -> ?negative_ttl:float -> unit -> t
(** Open (and create if needed) the cache directory.

    [?memo] enables the in-memory tier: a sharded LRU ({!Lru}) of up to
    [memo] decoded entries in front of the disk files.  A warm {!find}
    then costs a hash lookup instead of a file read + JSON parse, and a
    repeated miss is suppressed by a negative entry for [negative_ttl]
    seconds (default 1s).  Omitted or [<= 0] keeps the store disk-only —
    existing callers are unchanged. *)

val root : t -> string

val find : t -> string -> entry option
(** Look up a key; [None] on absent, corrupt, or stale (foreign-salt)
    entries — never raises on cache contents.  With a memo, hits are
    served from RAM when possible (counted by the [cache.mem_hit]
    telemetry counter; memo evictions by [cache.mem_evict]). *)

val find_tier : t -> string -> (entry * [ `Mem | `Disk ]) option
(** {!find} plus which tier answered — [`Mem] for the in-memory LRU,
    [`Disk] for a file read (which also populates the memo).  The service
    access log reports this split per request. *)

val put : t -> entry -> unit
(** Atomically persist an entry under its key (and into the memo, when
    enabled).  I/O errors are swallowed (the cache is an accelerator, not
    a database); the next run simply recomputes. *)

val flush_memo : t -> unit
(** Drop every in-memory entry.  Called internally by {!gc} and on every
    successful {!lock} acquisition; exposed for tests and for long-lived
    processes that want to resynchronise with the disk tier. *)

val memo_stats : t -> Lru.stats option
(** [None] when the store is disk-only. *)

(** {1 Advisory locking}

    Concurrent {e writers} (a running [dda serve], a [dda batch]) are safe by
    construction — entries are written atomically — but maintenance that
    {e deletes} files ([gc]) must not run while anyone else has the store
    open.  The lock is advisory and two-level: active users take a {e shared}
    lock (any number may hold one), [gc] takes the {e exclusive} lock (sole
    holder, and only when no shared holder is alive).  Implemented with
    [lockf] on [<root>/.lock] plus per-process holder files under
    [<root>/.holders/]; locks die with their process, and stale holder files
    left by a crash are reaped by the next exclusive acquirer. *)

type lock

val lock : t -> mode:[ `Shared | `Exclusive ] -> (lock, string) result
(** Try to acquire without blocking.  [Error] carries a human-readable
    contention message (who holds what); the CLI reports it with exit
    code 2.  A successful acquisition flushes this handle's memo: while
    unlocked another process may have [gc]'d the store, so a new lock
    session must not serve pre-lock RAM entries. *)

val unlock : lock -> unit
(** Release (idempotent).  Locks are also released by process exit. *)

type stats = { entries : int; corrupt : int; stale : int; bytes : int }

val stats : t -> stats
(** Walk the store: well-formed current entries, corrupt files, entries
    with a foreign engine salt, and total size in bytes. *)

val verify : t -> (string * string) list
(** Corrupt or stale files, with a reason each (path relative to root). *)

val gc : t -> int
(** Delete corrupt and stale files; returns how many were removed.  Also
    flushes this handle's memo so a deleted key cannot be served from
    RAM. *)
