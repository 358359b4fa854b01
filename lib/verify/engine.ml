(* The packed exploration core (see doc/INTERNALS.md).

   Replaces the polymorphic-hashtable worklist of the legacy explorer on the
   hot path:

   - machine states are interned to dense ids once; a configuration is an
     array of state ids, deduplicated through an open-addressing FNV index
     and kept by one of two stores: the resident pack (1, 2 or 4 bytes per
     node, upgraded on the fly) or, under a memory budget, delta-encoded
     records in a spillable arena.  One BFS wave loop ({!Wave}) owns the
     frontier, the worker slots, canonicalisation and edge writing for both;
   - delta evaluation is memoised per (state id, capped neighbourhood
     profile), so the structured transition functions of compiled automata
     (Lemmas 4.7/4.9/4.10) are evaluated once per distinct observation; the
     memo is itself a string-keyed open-addressing table probed directly
     against the scratch key buffer, so a hit allocates nothing;
   - edges are stored in an implicit CSR: every configuration has exactly
     [node_count] out-edges (edge [k] = select node [k]; silent moves are
     self-loops), so [targets.(i * node_count + k)] is the whole edge
     structure.  A silent move is recognised from the delta result alone
     and written as a self-loop without touching the store;
   - configurations can be canonicalised under a {!Symmetry} group — the
     reduced space stores one representative per orbit, and every edge
     records the group element used, so {!Decide} can run the exact lifted
     adversarial analysis;
   - frontier expansion (the delta/memo part) can fan out over OCaml 5
     domains; interning stays sequential, so verdicts are deterministic and
     ids are reproducible for [jobs = 1].  Parallelism is gated on the
     machine's core count and a measured per-wave work threshold (see
     "Parallel gates" below), because spawning domains for small waves — or
     on a single-core host — only adds overhead.

   The hot paths are written as [while] loops over mutable locals, never as
   local recursive closures: ocamlopt without flambda allocates such a
   closure on every call of the function that defines it.

   Telemetry: the hot loops accumulate plain mutable ints (probes, memo
   hits, per-domain items) and flush them into [Dda_telemetry] counters at
   phase boundaries, so instrumentation costs nothing measurable whether or
   not telemetry is enabled; per-wave counter tracks, the progress line and
   the frontier histogram are emitted between waves. *)

module Machine = Dda_machine.Machine
module Neighbourhood = Dda_machine.Neighbourhood
module Graph = Dda_graph.Graph
module T = Dda_telemetry.Telemetry

exception Too_large of int

type stats = {
  state_count : int;  (* distinct machine states interned *)
  delta_evals : int;  (* real delta calls (memo misses) *)
  delta_lookups : int;  (* total delta requests *)
  table_probes : int;  (* config-table slot inspections *)
  table_resizes : int;
  dedup_hits : int;  (* successor interns that found an existing config *)
  silent_edges : int;  (* edges written as self-loops without an intern *)
  waves : int;  (* frontier chunks processed *)
  peak_frontier : int;  (* max configurations discovered but not yet expanded *)
  domain_items : int array;  (* configurations expanded per domain slot *)
}

(* Edge storage: fully resident implicit-CSR int arrays (the default), or —
   under a memory budget — little-endian u32 arenas that spill cold
   segments to disk.  Both are addressed as edge k of config i at
   i * node_count + k. *)
type edges =
  | Flat_edges of { targets : int array; sigmas : int array (* [||] when unreduced *) }
  | Ext_edges of { targets : Arena.t; sigmas : Arena.t option; configs : Arena.t }

type t = {
  node_count : int;
  size : int;
  initial : int;
  initial_sigma : int;  (* group element canonicalising the initial config *)
  edges : edges;
  flags : Bytes.t;  (* per config: bit 0 all-accepting, bit 1 all-rejecting *)
  describe : int -> string;
  symmetry : Symmetry.t option;  (* Some g with order > 1 when reduced *)
  stats : stats;
  spill : Arena.spill_stats option;  (* Some iff explored under a budget *)
}

let reduced e = e.symmetry <> None
let spilled e = e.spill <> None
let spill_stats e = e.spill
let acc e i = Char.code (Bytes.unsafe_get e.flags i) land 1 <> 0
let rej e i = Char.code (Bytes.unsafe_get e.flags i) land 2 <> 0

(* ------------------------------------------------------------------ *)
(* Telemetry counters (inert single-branch no-ops until enabled)        *)
(* ------------------------------------------------------------------ *)

let c_configs = T.counter "engine.configs.interned"
let c_dedup = T.counter "engine.configs.dedup_hits"
let c_silent = T.counter "engine.edges.silent"
let c_states = T.counter "engine.states.interned"
let c_memo_hits = T.counter "engine.memo.hits"
let c_memo_misses = T.counter "engine.memo.misses"
let c_probes = T.counter "engine.table.probes"
let c_resizes = T.counter "engine.table.resizes"
let c_waves = T.counter "engine.waves"
let c_peak = T.counter "engine.frontier.peak"
let h_wave = T.histogram "engine.wave.size"

(* ------------------------------------------------------------------ *)
(* Parallel gates                                                       *)
(* ------------------------------------------------------------------ *)

(* A positive integer from the environment, if set and well-formed. *)
let getenv_pos name =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt (String.trim s) with Some v when v >= 1 -> Some v | _ -> None)
  | None -> None

(* Worker domains beyond the physical core count cannot help and the
   per-wave Domain.spawn/join plus minor-GC barriers actively hurt — on a
   single-core host [jobs = 2] measured ~2.8x slower than sequential
   before this gate existed (doc/INTERNALS.md, "Parallel
   frontier expansion").  Overridable for tests and experiments via
   DDA_PAR_CORES. *)
let par_cores =
  lazy (Option.value (getenv_pos "DDA_PAR_CORES") ~default:(Domain.recommended_domain_count ()))

(* Waves below this many work items (frontier length x node count) run
   sequentially.  A memoised work item costs ~0.1-0.6 us; a Domain.spawn/
   join pair costs tens of microseconds on an idle multicore host (and
   ~3.3 ms measured on the project's 1-core CI container, where the cores
   cap above already forces sequential execution).  The default scales with
   the packed cell width: one work item on a 4-byte-wide space decodes and
   hashes 4x the bytes of a 1-byte-wide one, so the break-even point in
   *items* drops accordingly — 16384 items at width 1 (ms-scale waves),
   8192 at width 2, 4096 at width 4.  Tiny spaces therefore never pay the
   domain fan-out at any width.  An explicit DDA_PAR_THRESHOLD wins over
   the scaling; see doc/INTERNALS.md "Parallel frontier expansion". *)
let par_threshold_env = lazy (getenv_pos "DDA_PAR_THRESHOLD")

let par_threshold ~width =
  match Lazy.force par_threshold_env with Some v -> v | None -> 16384 / max 1 width

(* ------------------------------------------------------------------ *)
(* Growable buffers                                                     *)
(* ------------------------------------------------------------------ *)

type ibuf = { mutable idata : int array; mutable ilen : int }

let ibuf_create n = { idata = Array.make (max n 16) 0; ilen = 0 }

let ibuf_push b x =
  if b.ilen = Array.length b.idata then begin
    let d = Array.make (2 * b.ilen) 0 in
    Array.blit b.idata 0 d 0 b.ilen;
    b.idata <- d
  end;
  b.idata.(b.ilen) <- x;
  b.ilen <- b.ilen + 1

(* Hands the contents over: the buffer is left empty. *)
let ibuf_contents b =
  let a = Array.sub b.idata 0 b.ilen in
  b.idata <- [||];
  a

(* ------------------------------------------------------------------ *)
(* State interner                                                       *)
(* ------------------------------------------------------------------ *)

type 's interner = {
  tbl : ('s, int) Hashtbl.t;
  mutable states : 's array;  (* entries < [n] are valid *)
  mutable flags : Bytes.t;  (* per state: bit 0 accepting, bit 1 rejecting *)
  mutable n : int;
  lock : Mutex.t;
  s_acc : 's -> bool;
  s_rej : 's -> bool;
}

let interner_create ~acc ~rej first =
  let it =
    {
      tbl = Hashtbl.create 256;
      states = Array.make 64 first;
      flags = Bytes.make 64 '\000';
      n = 0;
      lock = Mutex.create ();
      s_acc = acc;
      s_rej = rej;
    }
  in
  it

(* Thread-safe: workers intern delta results concurrently (misses are rare).
   Readers use snapshots of [states]/[n] taken between phases, so no reader
   ever races a resize. *)
let intern_state it s =
  Mutex.lock it.lock;
  let id =
    match Hashtbl.find_opt it.tbl s with
    | Some i -> i
    | None ->
      let i = it.n in
      if i = Array.length it.states then begin
        let d = Array.make (2 * i) s in
        Array.blit it.states 0 d 0 i;
        it.states <- d;
        let f = Bytes.make (2 * i) '\000' in
        Bytes.blit it.flags 0 f 0 i;
        it.flags <- f
      end;
      it.states.(i) <- s;
      let fl = (if it.s_acc s then 1 else 0) lor if it.s_rej s then 2 else 0 in
      Bytes.set it.flags i (Char.chr fl);
      it.n <- i + 1;
      Hashtbl.add it.tbl s i;
      i
  in
  Mutex.unlock it.lock;
  id

(* Acc/rej bits of the configuration [ids]: the AND of its states' bits. *)
let config_flags it ids =
  let fl = ref 3 in
  for v = 0 to Array.length ids - 1 do
    fl := !fl land Char.code (Bytes.unsafe_get it.flags ids.(v))
  done;
  !fl

let fnv_prime = 0x100000001b3

let hash_ids ids len =
  let h = ref 0x14650FB0739D0383 in
  for i = 0 to len - 1 do
    (* mix the full id, byte-order independent of the pack width *)
    h := (!h lxor ids.(i)) * fnv_prime
  done;
  !h land max_int

(* ------------------------------------------------------------------ *)
(* Delta memoisation                                                    *)
(* ------------------------------------------------------------------ *)

(* String-keyed open-addressing memo probed directly against the scratch
   key buffer: a hit compares bytes in place and allocates nothing.  The
   key string is only materialised on a miss (when the expensive delta call
   happens anyway).  "" marks a free slot — real keys are >= 4 bytes. *)
type memo = {
  mutable mkeys : string array;
  mutable mids : int array;
  mutable mhash : int array;
  mutable mmask : int;
  mutable mn : int;
}

let memo_create () =
  { mkeys = Array.make 8192 ""; mids = Array.make 8192 (-1); mhash = Array.make 8192 0; mmask = 8191; mn = 0 }

let memo_hash kb len =
  let h = ref 0x14650FB0739D0383 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get kb i)) * fnv_prime
  done;
  !h land max_int

let key_matches key kb len =
  String.length key = len
  && begin
       let i = ref 0 in
       while !i < len && String.unsafe_get key !i = Bytes.unsafe_get kb !i do
         incr i
       done;
       !i = len
     end

(* -1 = miss *)
let memo_find m kb len h =
  let mask = m.mmask in
  let slot = ref (h land mask) in
  let found = ref (-2) in
  while !found = -2 do
    let key = m.mkeys.(!slot) in
    if String.length key = 0 then found := -1
    else if m.mhash.(!slot) = h && key_matches key kb len then found := m.mids.(!slot)
    else slot := (!slot + 1) land mask
  done;
  !found

let memo_resize m =
  let cap = 2 * (m.mmask + 1) in
  let keys = Array.make cap "" and ids = Array.make cap (-1) and hs = Array.make cap 0 in
  let mask = cap - 1 in
  for i = 0 to m.mmask do
    let key = m.mkeys.(i) in
    if String.length key > 0 then begin
      let slot = ref (m.mhash.(i) land mask) in
      while String.length keys.(!slot) > 0 do
        slot := (!slot + 1) land mask
      done;
      keys.(!slot) <- key;
      ids.(!slot) <- m.mids.(i);
      hs.(!slot) <- m.mhash.(i)
    end
  done;
  m.mkeys <- keys;
  m.mids <- ids;
  m.mhash <- hs;
  m.mmask <- mask

let memo_add m key h id =
  let mask = m.mmask in
  let slot = ref (h land mask) in
  while String.length m.mkeys.(!slot) > 0 do
    slot := (!slot + 1) land mask
  done;
  m.mkeys.(!slot) <- key;
  m.mids.(!slot) <- id;
  m.mhash.(!slot) <- h;
  m.mn <- m.mn + 1;
  if 2 * m.mn > m.mmask then memo_resize m

(* Manual little-endian 32-bit writes/reads: guaranteed allocation-free
   (no int32 boxing), which matters because the key is rebuilt on every
   delta lookup. *)
let put32 kb pos v =
  Bytes.unsafe_set kb pos (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set kb (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set kb (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set kb (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let get32 kb pos =
  Char.code (Bytes.unsafe_get kb pos)
  lor (Char.code (Bytes.unsafe_get kb (pos + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get kb (pos + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get kb (pos + 3)) lsl 24)

(* A worker's local view: the machine, the graph structure, a snapshot of
   the interner (only pre-chunk state ids ever need decoding), and a private
   memo table keyed by (state id, capped profile) packed into a string. *)
type 's ctx = {
  beta : int;
  delta : 's -> 's Neighbourhood.t -> 's;
  interner : 's interner;
  nbr : int array array;
  memo : memo;
  key_buf : Bytes.t;  (* scratch: 4 + 8 * max_degree bytes *)
  pid : int array;  (* scratch: sorted neighbour ids *)
  mutable evals : int;
  mutable lookups : int;
  mutable items : int;  (* configurations expanded by this worker *)
}

let ctx_create m nbr interner =
  let max_deg = Array.fold_left (fun a ns -> max a (Array.length ns)) 1 nbr in
  {
    beta = m.Machine.beta;
    delta = m.Machine.delta;
    interner;
    nbr;
    memo = memo_create ();
    key_buf = Bytes.create (4 + (8 * max_deg));
    pid = Array.make max_deg 0;
    evals = 0;
    lookups = 0;
    items = 0;
  }

(* New state id of node [v] in the configuration [cur] (state ids per node). *)
let delta_id ctx ~snapshot cur v =
  ctx.lookups <- ctx.lookups + 1;
  let ns = ctx.nbr.(v) in
  let deg = Array.length ns in
  let pid = ctx.pid in
  for k = 0 to deg - 1 do
    (* insertion sort: degrees are tiny *)
    let x = cur.(ns.(k)) in
    let j = ref k in
    while !j > 0 && pid.(!j - 1) > x do
      pid.(!j) <- pid.(!j - 1);
      decr j
    done;
    pid.(!j) <- x
  done;
  (* build the memo key: v's state id, then (id, capped count) runs *)
  let kb = ctx.key_buf in
  put32 kb 0 cur.(v);
  let pos = ref 4 in
  let k = ref 0 in
  while !k < deg do
    let id = pid.(!k) in
    let c = ref 0 in
    while !k < deg && pid.(!k) = id do
      incr c;
      incr k
    done;
    put32 kb !pos id;
    put32 kb (!pos + 4) (min !c ctx.beta);
    pos := !pos + 8
  done;
  let len = !pos in
  let h = memo_hash kb len in
  let cached = memo_find ctx.memo kb len h in
  if cached >= 0 then cached
  else begin
    ctx.evals <- ctx.evals + 1;
    let sarr, _sn = snapshot in
    (* reconstruct the capped neighbour state list; [of_states] re-sorts and
       re-caps, so this is exactly the observation the legacy engine built *)
    let states = ref [] in
    let p = ref 4 in
    while !p < len do
      let id = get32 kb !p in
      let c = get32 kb (!p + 4) in
      for _ = 1 to c do
        states := sarr.(id) :: !states
      done;
      p := !p + 8
    done;
    let nb = Neighbourhood.of_states ~beta:ctx.beta !states in
    let q' = ctx.delta sarr.(cur.(v)) nb in
    let id = intern_state ctx.interner q' in
    memo_add ctx.memo (Bytes.sub_string kb 0 len) h id;
    id
  end

(* ------------------------------------------------------------------ *)
(* Canonicalisation                                                     *)
(* ------------------------------------------------------------------ *)

(* Lexicographically least id sequence over the group; returns the index of
   the canonicalising element and leaves the winner in [best].  Ties keep
   the earlier element, so an already-canonical [ids] gets 0 (the
   identity, [perms.(0)]). *)
let canonicalise perms ids best scratch =
  let n = Array.length ids in
  Array.blit ids 0 best 0 n;
  let sigma = ref 0 in
  for e = 1 to Array.length perms - 1 do
    let p = perms.(e) in
    for v = 0 to n - 1 do
      scratch.(v) <- ids.(p.(v))
    done;
    let v = ref 0 in
    while !v < n && scratch.(!v) = best.(!v) do
      incr v
    done;
    if !v < n && scratch.(!v) < best.(!v) then begin
      Array.blit scratch 0 best 0 n;
      sigma := e
    end
  done;
  !sigma

(* ------------------------------------------------------------------ *)
(* The wave loop, over a configuration store                            *)
(* ------------------------------------------------------------------ *)

let chunk_size = 4096

(* The dedup index of both stores: an open-addressing table of u32 slots
   (0 = empty, else config id + 1) over the low 32 bits of [hash_ids], the
   u32 hash of every configuration (for resizing) and its acc/rej flags.
   Only the flags outlive exploration. *)
type index = {
  mutable count : int;
  mutable hashes : Bytes.t;
  mutable table : Bytes.t;
  mutable mask : int;
  flags : Buffer.t;
  mutable probes : int;  (* telemetry: slot inspections *)
  mutable resizes : int;
  mutable dedup_hits : int;
}

let index_create () =
  let table = Bytes.make (4096 * 4) '\000' and flags = Buffer.create 1024 in
  { count = 0; hashes = Bytes.create 4096; table; mask = 4095; flags; probes = 0; resizes = 0; dedup_hits = 0 }

let index_resize ix =
  ix.resizes <- ix.resizes + 1;
  let cap = 2 * (ix.mask + 1) in
  let t = Bytes.make (cap * 4) '\000' in
  let m = cap - 1 in
  for i = 0 to ix.count - 1 do
    let s = ref (get32 ix.hashes (i * 4) land m) in
    while get32 t (!s * 4) <> 0 do
      s := (!s + 1) land m
    done;
    put32 t (!s * 4) (i + 1)
  done;
  ix.table <- t;
  ix.mask <- m

(* What the wave loop needs of a configuration store: configurations are
   arrays of [node_count] state ids, stored canonical, numbered in the
   order the loop appends them. *)
module type STORE = sig
  type t

  (* Safe from several domains at once for configurations stored before
     the current wave. *)
  val decode : t -> int -> int array -> unit

  (* [equal st i ids]: configuration [i] is [ids].  Phase B only. *)
  val equal : t -> int -> int array -> bool

  (* [append st i ids ~parent ~parent_ids] stores [ids] as configuration
     [i]; expanding [parent] (-1 for the initial one), which holds
     [parent_ids], produced it. *)
  val append : t -> int -> int array -> parent:int -> parent_ids:int array -> unit

  (* [add_edge st target sigma]: the next edge of the row being expanded. *)
  val add_edge : t -> int -> int -> unit

  (* [fit st n]: state ids below [n] become storable (between phases). *)
  val fit : t -> int -> unit

  (* Cell width for the parallel gate ({!par_threshold}). *)
  val gate_width : t -> int

  (* The edges, once exploration is over; [decode] keeps working. *)
  val finish : t -> edges

  (* [Some] iff the store spills. *)
  val spill : t -> Arena.spill_stats option

  (* Release what the store holds outside the heap (exploration raised). *)
  val abort : t -> unit
end

module Wave (S : STORE) = struct
  let intern ix st interner ~max_configs ids ~parent ~parent_ids =
    let h = hash_ids ids (Array.length ids) land 0xFFFFFFFF in
    let m = ix.mask in
    let slot = ref (h land m) in
    let found = ref (-2) in
    while !found = -2 do
      ix.probes <- ix.probes + 1;
      let e = get32 ix.table (!slot * 4) in
      if e = 0 then found := -1
      else if get32 ix.hashes ((e - 1) * 4) = h && S.equal st (e - 1) ids then found := e - 1
      else slot := (!slot + 1) land m
    done;
    if !found >= 0 then begin
      ix.dedup_hits <- ix.dedup_hits + 1;
      !found
    end
    else begin
      let i = ix.count in
      if i >= max_configs then raise (Too_large i);
      S.append st i ids ~parent ~parent_ids;
      if 4 * (i + 1) > Bytes.length ix.hashes then ix.hashes <- Bytes.extend ix.hashes 0 (4 * i);
      put32 ix.hashes (4 * i) h;
      Buffer.add_char ix.flags (Char.chr (config_flags interner ids));
      put32 ix.table (!slot * 4) (i + 1);
      ix.count <- i + 1;
      if 2 * ix.count > ix.mask then index_resize ix;
      i
    end

  let explore ~jobs ~sym ~perms ~nbr ~c0 ~interner ~max_configs m st =
    let n = Array.length nbr in
    (* never spawn more workers than cores: on an oversubscribed or
       single-core host the spawn/join and GC barriers make jobs > cores a
       strict loss (the gate of satellite measurement, doc/INTERNALS.md) *)
    let jobs = max 1 (min (min jobs 64) (Lazy.force par_cores)) in
    (* worker slots, each created on first use — by its own domain — since
       a ctx owns a fresh memo table (~200 KB of arrays), which small
       instances should never pay for (eager allocation made [jobs = 2]
       measurably slower than sequential on tiny rings) *)
    let slots = Array.init jobs (fun _ -> lazy (ctx_create m nbr interner)) in
    let ix = index_create () in
    let reduced = sym <> None in
    let best = Array.make n 0 and scratch = Array.make n 0 in
    (* initial configuration *)
    let ids0 = Array.map (intern_state interner) c0 in
    S.fit st interner.n;
    let initial_sigma = if reduced then canonicalise perms ids0 best scratch else (Array.blit ids0 0 best 0 n; 0) in
    let initial = intern ix st interner ~max_configs best ~parent:(-1) ~parent_ids:[||] in
    (* chunked frontier expansion: phase A leaves each configuration's
       decoded row in [rows] and its delta results in [sids] *)
    let next = ref 0 in
    let wave = ref 0 in
    let peak_frontier = ref 0 in
    let silent = ref 0 in
    let rows = Array.make (chunk_size * jobs * n) 0 in
    let sids = Array.make (chunk_size * jobs * n) 0 in
    let cur = Array.make n 0 in
    let succ = Array.make n 0 in
    while !next < ix.count do
      let lo = !next in
      let hi = min ix.count (lo + (chunk_size * jobs)) in
      let len = hi - lo in
      (* phase A: decode + delta evaluation (parallelisable; touches only
         the state interner, under its lock, on memo misses) *)
      let snapshot = (interner.states, interner.n) in
      let run_slice ctx a b =
        ctx.items <- ctx.items + (b - a);
        let c = Array.make n 0 in
        for i = a to b - 1 do
          S.decode st (lo + i) c;
          let base = i * n in
          Array.blit c 0 rows base n;
          for v = 0 to n - 1 do
            sids.(base + v) <- delta_id ctx ~snapshot c v
          done
        done
      in
      let seq_threshold = par_threshold ~width:(S.gate_width st) in
      if jobs = 1 || len * n < seq_threshold then run_slice (Lazy.force slots.(0)) 0 len
      else begin
        let per = (len + jobs - 1) / jobs in
        let domains =
          List.init (jobs - 1) (fun w ->
              let a = (w + 1) * per in
              let b = min len ((w + 2) * per) in
              Domain.spawn (fun () -> if a < b then run_slice (Lazy.force slots.(w + 1)) a b))
        in
        run_slice (Lazy.force slots.(0)) 0 (min per len);
        List.iter Domain.join domains
      end;
      (* phase B: canonicalise + intern successors, append edges (sequential,
         so configuration ids are deterministic).  A move that keeps the
         selected node's state is a self-loop with the identity: the stored
         configuration is canonical, and any other move changes the state
         multiset, so no other successor can equal it. *)
      S.fit st interner.n;
      for i = 0 to len - 1 do
        let base = i * n in
        Array.blit rows base cur 0 n;
        for v = 0 to n - 1 do
          let id = sids.(base + v) in
          if id = cur.(v) then begin
            incr silent;
            S.add_edge st (lo + i) 0
          end
          else begin
            let sigma =
              if reduced then begin
                Array.blit cur 0 succ 0 n;
                succ.(v) <- id;
                canonicalise perms succ best scratch
              end
              else begin
                Array.blit cur 0 best 0 n;
                best.(v) <- id;
                0
              end
            in
            S.add_edge st (intern ix st interner ~max_configs best ~parent:(lo + i) ~parent_ids:cur) sigma
          end
        done
      done;
      incr wave;
      let frontier = ix.count - hi in
      if frontier > !peak_frontier then peak_frontier := frontier;
      if T.enabled () then begin
        T.incr c_waves;
        T.observe h_wave len;
        T.emit_value "engine.frontier" frontier;
        if Option.is_some (S.spill st) then T.emit_value "engine.resident_bytes" (Arena.resident_bytes ());
        T.progress_tick ~label:"explore" ~expanded:hi ~discovered:ix.count ~budget:max_configs
          ~wave:!wave ~frontier
      end;
      next := hi
    done;
    (* [describe] keeps [st] alive, never the index *)
    let describe i =
      let ids = Array.make n 0 in
      S.decode st i ids;
      Format.asprintf "%a"
        (Dda_runtime.Config.pp m.Machine.pp_state)
        (Dda_runtime.Config.of_states (Array.map (fun id -> interner.states.(id)) ids))
    in
    let created = List.filter_map (fun l -> if Lazy.is_val l then Some (Lazy.force l) else None) (Array.to_list slots) in
    let evals = List.fold_left (fun a c -> a + c.evals) 0 created in
    let lookups = List.fold_left (fun a c -> a + c.lookups) 0 created in
    let domain_items = Array.of_list (List.map (fun c -> c.items) created) in
    if T.enabled () then begin
      T.add c_configs ix.count;
      T.add c_dedup ix.dedup_hits;
      T.add c_silent !silent;
      T.add c_states interner.n;
      T.add c_memo_misses evals;
      T.add c_memo_hits (lookups - evals);
      T.add c_probes ix.probes;
      T.add c_resizes ix.resizes;
      T.max_gauge c_peak !peak_frontier;
      Array.iteri
        (fun w items -> T.add (T.counter (Printf.sprintf "engine.domain.%d.items" w)) items)
        domain_items
    end;
    {
      node_count = n;
      size = ix.count;
      initial;
      initial_sigma;
      edges = S.finish st;
      flags = Buffer.to_bytes ix.flags;
      describe;
      symmetry = sym;
      stats =
        {
          state_count = interner.n;
          delta_evals = evals;
          delta_lookups = lookups;
          table_probes = ix.probes;
          table_resizes = ix.resizes;
          dedup_hits = ix.dedup_hits;
          silent_edges = !silent;
          waves = !wave;
          peak_frontier = !peak_frontier;
          domain_items;
        };
      spill = S.spill st;
    }

  let explore ~jobs ~sym ~perms ~nbr ~c0 ~interner ~max_configs m st =
    try explore ~jobs ~sym ~perms ~nbr ~c0 ~interner ~max_configs m st
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      S.abort st;
      Printexc.raise_with_backtrace e bt
end

(* ------------------------------------------------------------------ *)
(* Resident store: fixed-width packed configurations                   *)
(* ------------------------------------------------------------------ *)

module Packed = struct
  type t = {
    cells : int;  (* nodes per configuration *)
    mutable width : int;  (* bytes per cell: 1, 2 or 4 *)
    mutable bytes : Bytes.t;  (* config i at offset i * cells * width *)
    mutable stored : int;
    targets : ibuf;
    sigmas : ibuf option;  (* None when unreduced *)
  }

  let create ~reduced cells =
    let sigmas = if reduced then Some (ibuf_create (cells * 1024)) else None in
    { cells; width = 1; bytes = Bytes.create (cells * 1024); stored = 0; targets = ibuf_create (cells * 1024); sigmas }

  let gate_width st = st.width
  let spill _ = None
  let abort _ = ()

  let pack_cell st off id =
    match st.width with
    | 1 -> Bytes.unsafe_set st.bytes off (Char.unsafe_chr id)
    | 2 -> Bytes.set_uint16_le st.bytes off id
    | _ -> Bytes.set_int32_le st.bytes off (Int32.of_int id)

  let unpack_cell st off =
    match st.width with
    | 1 -> Char.code (Bytes.unsafe_get st.bytes off)
    | 2 -> Bytes.get_uint16_le st.bytes off
    | _ -> Int32.to_int (Bytes.get_int32_le st.bytes off) land 0xFFFFFFFF

  let decode st i out =
    let w = st.width in
    let off = ref (i * st.cells * w) in
    for v = 0 to st.cells - 1 do
      out.(v) <- unpack_cell st !off;
      off := !off + w
    done

  let equal st i ids =
    let w = st.width in
    let off = ref (i * st.cells * w) in
    let v = ref 0 in
    while !v < st.cells && unpack_cell st !off = ids.(!v) do
      off := !off + w;
      incr v
    done;
    !v = st.cells

  let append st i ids ~parent:_ ~parent_ids:_ =
    let nbytes = st.cells * st.width in
    if (i + 1) * nbytes > Bytes.length st.bytes then begin
      let fresh = Bytes.create (2 * Bytes.length st.bytes) in
      Bytes.blit st.bytes 0 fresh 0 (i * nbytes);
      st.bytes <- fresh
    end;
    for v = 0 to st.cells - 1 do
      pack_cell st ((i * nbytes) + (v * st.width)) ids.(v)
    done;
    st.stored <- i + 1

  (* Grow the cell width (1 -> 2 -> 4) while a state id below [n] does not
     fit, re-packing every stored configuration. *)
  let fit st n =
    while st.width < 4 && n >= 1 lsl (8 * st.width) do
      let old = { st with width = st.width } and tmp = Array.make st.cells 0 in
      st.width <- 2 * st.width;
      st.bytes <- Bytes.create (max (2 * old.stored) 1 * st.cells * st.width);
      for i = 0 to old.stored - 1 do
        decode old i tmp;
        append st i tmp ~parent:(-1) ~parent_ids:tmp
      done
    done

  let add_edge st j sigma =
    ibuf_push st.targets j;
    match st.sigmas with Some b -> ibuf_push b sigma | None -> ()

  (* [describe] keeps the store, so the edge buffers are emptied *)
  let finish st =
    let sigmas = match st.sigmas with Some b -> ibuf_contents b | None -> [||] in
    Flat_edges { targets = ibuf_contents st.targets; sigmas }
end

(* ------------------------------------------------------------------ *)
(* External-memory store: delta records in a spillable arena            *)
(* ------------------------------------------------------------------ *)

(* Under a memory budget, configurations live in a spillable arena as
   varint records instead of the fixed-width resident pack:

     keyframe:  0x00, cells x varint(state id)
     delta:     depth in 1..max_depth, varint(parent id),
                varint(ndiffs), ndiffs x (varint(node), varint(id))

   A successor differs from the configuration it was expanded from in one
   node state (canonicalisation can scatter that into a few positions, in
   which case the encoder falls back to a keyframe), so deltas are tiny;
   decoding chases at most [max_depth] parents.  The resident part is 5
   bytes of record offset + 1 byte of chain depth per configuration, plus
   the shared index; the depths and the index are dropped once exploration
   ends.  Edges are u32 records in two more arenas on the same budget. *)

module Ext = struct
  let max_depth = 8

  type t = {
    cells : int;
    budget : Arena.budget;
    carena : Arena.t;
    earena : Arena.t;  (* targets *)
    sarena : Arena.t option;  (* sigmas, when reduced *)
    mutable offsets : Bytes.t;  (* 5-byte LE record positions *)
    mutable depths : Bytes.t;  (* delta-chain depth, 0 = keyframe *)
    rec_buf : Bytes.t;  (* scratch: one encoded record *)
    dec_buf : int array;  (* scratch: probe-time decode (phase B only) *)
    u32 : Bytes.t;  (* scratch: one edge record *)
  }

  (* worst case: delta touching every cell *)
  let rec_max cells = 1 + ((2 + (2 * cells)) * Arena.varint_max)

  let create ~limit ~reduced cells =
    let budget = Arena.budget_create ~limit in
    let seg_bytes =
      let s = max 65536 (min (1 lsl 20) (limit / 8)) in
      (max s (rec_max cells) + 3) land -4
    in
    (* edge segments hold whole rows of [cells] u32s, so a row reader never
       straddles two segments *)
    let eseg_bytes = max (4 * cells) (seg_bytes / (4 * cells) * (4 * cells)) in
    let carena = Arena.create budget ~name:"configs" ~seg_bytes in
    let earena = Arena.create budget ~name:"targets" ~seg_bytes:eseg_bytes in
    {
      cells;
      budget;
      carena;
      earena;
      sarena = (if reduced then Some (Arena.create budget ~name:"sigmas" ~seg_bytes:eseg_bytes) else None);
      offsets = Bytes.make (1024 * 5) '\000';
      depths = Bytes.make 1024 '\000';
      rec_buf = Bytes.create (rec_max cells);
      dec_buf = Array.make cells 0;
      u32 = Bytes.create 4;
    }

  (* delta-chain decoding makes each item pricier than the packed store's,
     so gate parallelism as if cells were full-width *)
  let gate_width _ = 4
  let fit _ _ = ()
  let spill st = Some (Arena.budget_stats st.budget)

  let abort st =
    Arena.release st.carena;
    Arena.release st.earena;
    Option.iter Arena.release st.sarena

  let off_get st i =
    let p = i * 5 in
    let b k = Char.code (Bytes.unsafe_get st.offsets (p + k)) in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)

  let off_set st i v =
    let p = i * 5 in
    for k = 0 to 4 do
      Bytes.unsafe_set st.offsets (p + k) (Char.unsafe_chr ((v lsr (8 * k)) land 0xFF))
    done

  (* The varint at [pos] as [value lsl 4 lor length]: both results
     without allocating a pair. *)
  let varint_at b pos =
    let v = ref 0 and k = ref 0 in
    while Char.code (Bytes.unsafe_get b (pos + !k)) >= 0x80 do
      v := !v lor ((Char.code (Bytes.unsafe_get b (pos + !k)) land 0x7F) lsl (7 * !k));
      incr k
    done;
    v := !v lor (Char.code (Bytes.unsafe_get b (pos + !k)) lsl (7 * !k));
    (!v lsl 4) lor (!k + 1)

  (* Thread-safe for concurrent readers: [out] is caller-owned scratch and
     arena views pin their segment.  [seg] stays valid across the recursive
     call even if the arena evicts it meanwhile: we hold the Bytes. *)
  let rec decode st i out =
    let seg, off = Arena.view st.carena (off_get st i) in
    let p = ref (off + 1) in
    if Bytes.unsafe_get seg off = '\000' then
      for v = 0 to st.cells - 1 do
        let x = varint_at seg !p in
        p := !p + (x land 15);
        out.(v) <- x lsr 4
      done
    else begin
      let parent = varint_at seg !p in
      decode st (parent lsr 4) out;
      let nd = varint_at seg (!p + (parent land 15)) in
      p := !p + (parent land 15) + (nd land 15);
      for _ = 1 to nd lsr 4 do
        let v = varint_at seg !p in
        let id = varint_at seg (!p + (v land 15)) in
        out.(v lsr 4) <- id lsr 4;
        p := !p + (v land 15) + (id land 15)
      done
    end

  let equal st i ids =
    decode st i st.dec_buf;
    let v = ref 0 in
    while !v < st.cells && st.dec_buf.(!v) = ids.(!v) do
      incr v
    done;
    !v = st.cells

  let varint_size v =
    let n = ref 1 and v = ref v in
    while !v >= 0x80 do
      v := !v lsr 7;
      incr n
    done;
    !n

  let keyframe st ids =
    Bytes.unsafe_set st.rec_buf 0 '\000';
    let p = ref 1 in
    for v = 0 to st.cells - 1 do
      p := Arena.put_varint st.rec_buf !p ids.(v)
    done;
    !p

  (* Encode [ids] into [st.rec_buf]: a delta against [parent] when one is
     available, shallow enough, and strictly smaller than a keyframe.
     Returns the record length; the tag byte is the chain depth. *)
  let encode st ids ~parent ~parent_ids =
    let depth = if parent < 0 then max_depth else Char.code (Bytes.unsafe_get st.depths parent) in
    if depth >= max_depth then keyframe st ids
    else begin
      let kf = ref 1 in
      let nd = ref 0 in
      for v = 0 to st.cells - 1 do
        kf := !kf + varint_size ids.(v);
        if ids.(v) <> parent_ids.(v) then incr nd
      done;
      let q = ref (Arena.put_varint st.rec_buf 1 parent) in
      q := Arena.put_varint st.rec_buf !q !nd;
      for v = 0 to st.cells - 1 do
        if ids.(v) <> parent_ids.(v) then begin
          q := Arena.put_varint st.rec_buf !q v;
          q := Arena.put_varint st.rec_buf !q ids.(v)
        end
      done;
      if !q < !kf then begin
        Bytes.unsafe_set st.rec_buf 0 (Char.unsafe_chr (depth + 1));
        !q
      end
      else keyframe st ids
    end

  let append st i ids ~parent ~parent_ids =
    let len = encode st ids ~parent ~parent_ids in
    let pos = Arena.append st.carena st.rec_buf 0 len in
    if i >= Bytes.length st.depths then begin
      let grow b = Bytes.extend b 0 (Bytes.length b) in
      st.offsets <- grow st.offsets;
      st.depths <- grow st.depths
    end;
    off_set st i pos;
    Bytes.unsafe_set st.depths i (Bytes.unsafe_get st.rec_buf 0)

  let add_edge st j sigma =
    put32 st.u32 0 j;
    ignore (Arena.append st.earena st.u32 0 4);
    match st.sarena with
    | Some a ->
      put32 st.u32 0 sigma;
      ignore (Arena.append a st.u32 0 4)
    | None -> ()

  let finish st =
    st.depths <- Bytes.empty;
    Ext_edges { targets = st.earena; sigmas = st.sarena; configs = st.carena }
end

module Packed_wave = Wave (Packed)
module Ext_wave = Wave (Ext)

let explore ?(jobs = 1) ?symmetry ?(states = []) ?mem_budget ~max_configs m g =
  let n = Graph.nodes g in
  if n < 1 then invalid_arg "Engine.explore: empty graph";
  let sym =
    match symmetry with
    | Some s when not (Symmetry.is_trivial s) ->
      if Symmetry.degree s <> n then invalid_arg "Engine.explore: symmetry degree mismatch";
      Some s
    | _ -> None
  in
  let reduced = sym <> None in
  let perms = match sym with Some s -> Symmetry.perms s | None -> [| Array.init n (fun v -> v) |] in
  let nbr = Array.init n (fun v -> Array.of_list (Graph.neighbours g v)) in
  let c0 = Array.init n (fun v -> m.Machine.init (Graph.label g v)) in
  let interner = interner_create ~acc:m.Machine.accepting ~rej:m.Machine.rejecting c0.(0) in
  List.iter (fun s -> ignore (intern_state interner s)) states;
  let budget =
    match mem_budget with
    | Some b when b > 0 -> Some b
    | Some _ -> None
    | None -> getenv_pos "DDA_MEM_BUDGET"
  in
  match budget with
  | None ->
    Packed_wave.explore ~jobs ~sym ~perms ~nbr ~c0 ~interner ~max_configs m (Packed.create ~reduced n)
  | Some limit ->
    Ext_wave.explore ~jobs ~sym ~perms ~nbr ~c0 ~interner ~max_configs m (Ext.create ~limit ~reduced n)

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let out_degree e = e.node_count

let target e i k =
  match e.edges with
  | Flat_edges { targets; _ } -> targets.((i * e.node_count) + k)
  | Ext_edges { targets; _ } -> Arena.read_u32 targets (((i * e.node_count) + k) * 4)

let edge_sigma e i k =
  match e.edges with
  | Flat_edges { sigmas; _ } -> if sigmas = [||] then 0 else sigmas.((i * e.node_count) + k)
  | Ext_edges { sigmas; _ } -> (
    match sigmas with
    | None -> 0
    | Some a -> Arena.read_u32 a (((i * e.node_count) + k) * 4))

(* Row readers: each holds its own arena cursor, so a sweep over ascending
   or descending ids re-enters [Arena.view] only at segment crossings. *)
let arena_rows n a =
  let c = Arena.cursor a in
  fun i dst -> Arena.read_u32s c (i * n * 4) dst n

let array_rows n a i dst = Array.blit a (i * n) dst 0 n

let targets_reader e =
  let n = e.node_count in
  match e.edges with
  | Flat_edges { targets; _ } -> array_rows n targets
  | Ext_edges { targets; _ } -> arena_rows n targets

let sigmas_reader e =
  let n = e.node_count in
  match e.edges with
  | Flat_edges { sigmas = [||]; _ } | Ext_edges { sigmas = None; _ } ->
    fun _ dst -> Array.fill dst 0 n 0
  | Flat_edges { sigmas; _ } -> array_rows n sigmas
  | Ext_edges { sigmas = Some a; _ } -> arena_rows n a

let release e =
  match e.edges with
  | Flat_edges _ -> ()
  | Ext_edges { targets; sigmas; configs } ->
    Arena.release configs;
    Arena.release targets;
    Option.iter Arena.release sigmas
