(* Spill-to-disk byte arenas for the external-memory engine.

   An arena is an append-only byte store segmented into fixed-capacity
   [Bytes] blocks.  Sealed segments (everything but the tail) are immutable;
   under memory pressure the least-recently-used sealed segment is written
   once to the arena's own backing file under [_dda_spill/] and its in-core
   block dropped, to be faulted back in on demand.  Several arenas (the
   engine's config and edge stores) share one {!budget}, so eviction is
   global across them.

   Concurrency contract (matches the engine's phase structure):
   - appends come from a single thread (the engine's sequential phase B);
   - reads may come from many worker domains concurrently (phase A), but
     only of records committed before the phase started.  The fast path
     reads [seg.data] without the lock: segments never reallocate (fixed
     capacity), sealed ones never mutate, and a worker that loses the race
     with an eviction keeps the [Bytes] it already fetched alive through
     the GC — eviction only drops the arena's own reference.  Fault-in and
     eviction run under the budget lock.

   The backing store uses explicit [Unix] file I/O rather than [mmap]:
   mapped pages count toward the process RSS, which would defeat the whole
   point of measuring (and bounding) peak resident memory. *)

module T = Dda_telemetry.Telemetry

let c_seg_out = T.counter "engine.spill.segments_out"
let c_seg_in = T.counter "engine.spill.segments_in"
let c_bytes_out = T.counter "engine.spill.bytes_out"
let c_bytes_in = T.counter "engine.spill.bytes_in"

(* Process-global gauges for the live stats plane (dda stats / Prometheus):
   current resident arena bytes and cumulative evicted segments. *)
let g_resident = Atomic.make 0
let g_segments_out = Atomic.make 0
let resident_bytes () = Atomic.get g_resident
let spill_segments () = Atomic.get g_segments_out

(* ------------------------------------------------------------------ *)
(* LEB128 varints (used by the engine's delta-encoded config records)   *)
(* ------------------------------------------------------------------ *)

let varint_max = 10 (* bytes; enough for any non-negative OCaml int *)

let put_varint b pos v =
  if v < 0 then invalid_arg "Arena.put_varint: negative";
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !v);
  !pos + 1

let get_varint b pos =
  let v = ref 0 and shift = ref 0 and pos = ref pos in
  let continue = ref true in
  while !continue do
    let c = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    v := !v lor ((c land 0x7F) lsl !shift);
    shift := !shift + 7;
    if c < 0x80 then continue := false
  done;
  (!v, !pos)

(* ------------------------------------------------------------------ *)
(* Spill directory                                                      *)
(* ------------------------------------------------------------------ *)

let spill_root () =
  match Sys.getenv_opt "DDA_SPILL_DIR" with Some d when d <> "" -> d | _ -> "_dda_spill"

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* every file this process created and has not removed yet, removed on
   exit together with the directories files were created in (if then
   empty) *)
let cleanup_paths : string list ref = ref []
let cleanup_dirs : string list ref = ref []
let cleanup_lock = Mutex.create ()
let cleanup_registered = ref false

let cleanup () =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !cleanup_paths;
  List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) !cleanup_dirs;
  cleanup_paths := []

let register_cleanup path =
  Mutex.lock cleanup_lock;
  if not !cleanup_registered then begin
    cleanup_registered := true;
    at_exit cleanup
  end;
  cleanup_paths := path :: !cleanup_paths;
  let dir = Filename.dirname path in
  if not (List.mem dir !cleanup_dirs) then cleanup_dirs := dir :: !cleanup_dirs;
  Mutex.unlock cleanup_lock

let remove_now path =
  (try Sys.remove path with Sys_error _ -> ());
  Mutex.lock cleanup_lock;
  cleanup_paths := List.filter (fun p -> p <> path) !cleanup_paths;
  Mutex.unlock cleanup_lock

(* Arenas of one process never share a backing file, however many
   explorations run at once (batch shards, server workers). *)
let next_file = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Budgets and arenas                                                   *)
(* ------------------------------------------------------------------ *)

type seg = {
  mutable data : Bytes.t option;  (* None = evicted *)
  mutable last_use : int;  (* budget clock at last access *)
  mutable on_disk : bool;  (* already written (sealed content is immutable) *)
}

type t = {
  seg_bytes : int;
  mutable segs : seg array;  (* entries < nsegs are live *)
  mutable nsegs : int;
  mutable tail_used : int;  (* bytes committed in segs.(nsegs - 1) *)
  budget : budget;
  path : string;  (* backing file; segment i at offset i * seg_bytes *)
  mutable fd : Unix.file_descr option;  (* opened on first eviction *)
}

and budget = {
  limit : int;
  mutable clock : int;
  mutable resident : int;  (* bytes held in in-core segments *)
  mutable resident_peak : int;
  mutable segments_out : int;
  mutable segments_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable arenas : t list;
  lock : Mutex.t;
}

let budget_create ~limit =
  {
    limit = max limit 0;
    clock = 0;
    resident = 0;
    resident_peak = 0;
    segments_out = 0;
    segments_in = 0;
    bytes_out = 0;
    bytes_in = 0;
    arenas = [];
    lock = Mutex.create ();
  }

type spill_stats = {
  mem_budget : int;
  segments_out : int;
  segments_in : int;
  bytes_out : int;
  bytes_in : int;
  resident_peak : int;
}

let budget_stats b =
  Mutex.lock b.lock;
  let s =
    {
      mem_budget = b.limit;
      segments_out = b.segments_out;
      segments_in = b.segments_in;
      bytes_out = b.bytes_out;
      bytes_in = b.bytes_in;
      resident_peak = b.resident_peak;
    }
  in
  Mutex.unlock b.lock;
  s

let account b delta =
  b.resident <- b.resident + delta;
  if b.resident > b.resident_peak then b.resident_peak <- b.resident;
  ignore (Atomic.fetch_and_add g_resident delta)

let create budget ~name ~seg_bytes =
  if seg_bytes < 16 then invalid_arg "Arena.create: segment too small";
  let dir = Filename.concat (spill_root ()) (Printf.sprintf "pid.%d" (Unix.getpid ())) in
  let path = Filename.concat dir (Printf.sprintf "%s.%d.seg" name (Atomic.fetch_and_add next_file 1)) in
  let a =
    { seg_bytes; segs = [||]; nsegs = 0; tail_used = 0; budget; path; fd = None }
  in
  Mutex.lock budget.lock;
  budget.arenas <- a :: budget.arenas;
  Mutex.unlock budget.lock;
  a

let length a = if a.nsegs = 0 then 0 else (((a.nsegs - 1) * a.seg_bytes) + a.tail_used)

let file_of a =
  match a.fd with
  | Some fd -> fd
  | None ->
    mkdir_p (Filename.dirname a.path);
    let fd = Unix.openfile a.path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
    register_cleanup a.path;
    a.fd <- Some fd;
    fd

let write_all fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd buf off len in
      go (off + n) (len - n)
    end
  in
  go off len

let read_all fd buf off len =
  let rec go off len =
    if len > 0 then
      match Unix.read fd buf off len with
      | 0 -> failwith "Arena: short read from spill file"
      | n -> go (off + n) (len - n)
  in
  go off len

(* Evict LRU sealed segments (never any arena's tail) until the budget is
   respected again.  Caller holds the lock. *)
let enforce_locked b =
  let continue = ref (b.resident > b.limit) in
  while !continue do
    let victim = ref None in
    List.iter
      (fun a ->
        for i = 0 to a.nsegs - 2 do
          let s = a.segs.(i) in
          match s.data with
          | Some _ -> (
            match !victim with
            | Some (_, _, best) when best.last_use <= s.last_use -> ()
            | _ -> victim := Some (a, i, s))
          | None -> ()
        done)
      b.arenas;
    match !victim with
    | None -> continue := false
    | Some (a, i, s) ->
      (match s.data with
      | None -> ()
      | Some bytes ->
        if not s.on_disk then
          T.with_span ~args:[ ("dir", T.S "out"); ("bytes", T.I a.seg_bytes) ] "spill"
            (fun () ->
              let fd = file_of a in
              ignore (Unix.lseek fd (i * a.seg_bytes) Unix.SEEK_SET);
              write_all fd bytes 0 a.seg_bytes;
              s.on_disk <- true;
              b.bytes_out <- b.bytes_out + a.seg_bytes;
              if T.enabled () then T.add c_bytes_out a.seg_bytes);
        s.data <- None;
        b.segments_out <- b.segments_out + 1;
        ignore (Atomic.fetch_and_add g_segments_out 1);
        if T.enabled () then T.incr c_seg_out;
        account b (-a.seg_bytes));
      continue := b.resident > b.limit
  done

let add_segment a =
  let b = a.budget in
  Mutex.lock b.lock;
  if a.nsegs = Array.length a.segs then begin
    let cap = max 8 (2 * a.nsegs) in
    let fresh = Array.make cap { data = None; last_use = 0; on_disk = false } in
    Array.blit a.segs 0 fresh 0 a.nsegs;
    a.segs <- fresh
  end;
  b.clock <- b.clock + 1;
  a.segs.(a.nsegs) <- { data = Some (Bytes.create a.seg_bytes); last_use = b.clock; on_disk = false };
  a.nsegs <- a.nsegs + 1;
  a.tail_used <- 0;
  account b a.seg_bytes;
  enforce_locked b;
  Mutex.unlock b.lock

(* Append [len] bytes of [src] as one record; records never span segments,
   so a record that does not fit seals the tail (leaving slack) and opens a
   fresh segment.  Returns the record's global position. *)
let append a src srcoff len =
  if len > a.seg_bytes then invalid_arg "Arena.append: record larger than a segment";
  if a.nsegs = 0 || a.tail_used + len > a.seg_bytes then add_segment a;
  let tail = a.segs.(a.nsegs - 1) in
  let bytes = match tail.data with Some b -> b | None -> assert false in
  let pos = ((a.nsegs - 1) * a.seg_bytes) + a.tail_used in
  Bytes.blit src srcoff bytes a.tail_used len;
  a.tail_used <- a.tail_used + len;
  pos

(* Fault the segment back in from disk.  Takes the lock; re-checks, because
   another reader may have won the race. *)
let fault_in a i =
  let b = a.budget in
  Mutex.lock b.lock;
  let s = a.segs.(i) in
  let bytes =
    match s.data with
    | Some bytes -> bytes
    | None ->
      let bytes = Bytes.create a.seg_bytes in
      T.with_span ~args:[ ("dir", T.S "in"); ("bytes", T.I a.seg_bytes) ] "spill" (fun () ->
          let fd = file_of a in
          ignore (Unix.lseek fd (i * a.seg_bytes) Unix.SEEK_SET);
          read_all fd bytes 0 a.seg_bytes);
      b.segments_in <- b.segments_in + 1;
      b.bytes_in <- b.bytes_in + a.seg_bytes;
      if T.enabled () then begin
        T.incr c_seg_in;
        T.add c_bytes_in a.seg_bytes
      end;
      account b a.seg_bytes;
      s.data <- Some bytes;
      b.clock <- b.clock + 1;
      s.last_use <- b.clock;
      enforce_locked b;
      bytes
  in
  Mutex.unlock b.lock;
  bytes

(* The segment holding global position [pos], and the offset within it.
   Lock-free fast path: [data] is a plain mutable field, but a stale [Some]
   is harmless (sealed segments are immutable and the returned Bytes stays
   alive through the reader's own reference) and a stale [None] just takes
   the fault-in lock. *)
let view a pos =
  let i = pos / a.seg_bytes in
  let s = a.segs.(i) in
  match s.data with
  | Some bytes ->
    let b = a.budget in
    b.clock <- b.clock + 1;
    (* racy last_use write: benign, LRU is advisory *)
    s.last_use <- b.clock;
    (bytes, pos mod a.seg_bytes)
  | None -> (fault_in a i, pos mod a.seg_bytes)

let u32_at bytes off =
  Char.code (Bytes.unsafe_get bytes off)
  lor (Char.code (Bytes.unsafe_get bytes (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get bytes (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get bytes (off + 3)) lsl 24)

let read_u32 a pos =
  let bytes, off = view a pos in
  u32_at bytes off

(* A cursor keeps the [Bytes] of the last segment it read, so a sequential
   reader goes through [view] (LRU bookkeeping, possibly a fault) once per
   segment crossing instead of once per record.  Keeping a block the budget
   has evicted since is safe — sealed content is immutable, the tail only
   grows past committed bytes, and the GC keeps the block alive — and it is
   what stops a budget smaller than the arena tails from evicting a faulted
   segment before its next record is read.  The price is at most one
   segment per cursor held beyond the budget. *)
type cursor = { arena : t; mutable seg : int; mutable data : Bytes.t }

let cursor a = { arena = a; seg = -1; data = Bytes.empty }

let hold c i =
  let bytes, _ = view c.arena (i * c.arena.seg_bytes) in
  c.seg <- i;
  c.data <- bytes

let read_u32s c pos dst n =
  let sb = c.arena.seg_bytes in
  let i = pos / sb in
  let off = pos - (i * sb) in
  if n > Array.length dst || off + (4 * n) > sb then
    invalid_arg "Arena.read_u32s: run leaves its segment or its destination";
  if i <> c.seg then hold c i;
  let b = c.data in
  for k = 0 to n - 1 do
    Array.unsafe_set dst k (u32_at b (off + (4 * k)))
  done

(* Drop the in-core blocks, close and remove the file; the arena must not
   be used afterwards.  Called by the engine when a spilled space is
   released, and harmless to skip (at_exit removes the files anyway). *)
let release a =
  let b = a.budget in
  Mutex.lock b.lock;
  for i = 0 to a.nsegs - 1 do
    let s = a.segs.(i) in
    if s.data <> None then begin
      s.data <- None;
      account b (-a.seg_bytes)
    end
  done;
  a.nsegs <- 0;
  a.segs <- [||];
  (match a.fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    a.fd <- None;
    remove_now a.path
  | None -> ());
  b.arenas <- List.filter (fun x -> x != a) b.arenas;
  Mutex.unlock b.lock
