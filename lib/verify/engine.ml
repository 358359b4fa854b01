(* The packed exploration core (see doc/INTERNALS.md).

   Replaces the polymorphic-hashtable worklist of the legacy explorer on the
   hot path:

   - machine states are interned to dense ids once; configurations become
     fixed-width byte strings (1, 2 or 4 bytes per node, upgraded on the
     fly), deduplicated through an open-addressing FNV table over a single
     growable byte store;
   - delta evaluation is memoised per (state id, capped neighbourhood
     profile), so the structured transition functions of compiled automata
     (Lemmas 4.7/4.9/4.10) are evaluated once per distinct observation; the
     memo is itself a string-keyed open-addressing table probed directly
     against the scratch key buffer, so a hit allocates nothing;
   - edges are stored in an implicit-CSR int array: every configuration has
     exactly [node_count] out-edges (edge [k] = select node [k]; silent
     moves are self-loops), so [targets.(i * node_count + k)] is the whole
     edge structure;
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
  dedup_hits : int;  (* intern_config calls that found an existing config *)
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
  | Ext_edges of { targets : Arena.t; sigmas : Arena.t option }

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

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some v when v >= 1 -> v | _ -> default)
  | None -> default

(* Worker domains beyond the physical core count cannot help and the
   per-wave Domain.spawn/join plus minor-GC barriers actively hurt — on a
   single-core host engine-j2 measured ~2.8x slower than sequential before
   this gate existed (BENCH_verify.json, PR 1).  Overridable for tests and
   experiments via DDA_PAR_CORES. *)
let par_cores = lazy (getenv_int "DDA_PAR_CORES" (Domain.recommended_domain_count ()))

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
let par_threshold_env = lazy (
  match Sys.getenv_opt "DDA_PAR_THRESHOLD" with
  | Some s -> (match int_of_string_opt s with Some v when v >= 1 -> Some v | _ -> None)
  | None -> None)

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

let ibuf_contents b = Array.sub b.idata 0 b.ilen

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

let state_acc it i = Char.code (Bytes.get it.flags i) land 1 <> 0
let state_rej it i = Char.code (Bytes.get it.flags i) land 2 <> 0

(* ------------------------------------------------------------------ *)
(* Packed configuration store with an open-addressing FNV table          *)
(* ------------------------------------------------------------------ *)

type store = {
  cells : int;  (* nodes per configuration *)
  mutable width : int;  (* bytes per cell: 1, 2 or 4 *)
  mutable bytes : Bytes.t;  (* config i at offset i * cells * width *)
  mutable count : int;
  mutable hashes : int array;  (* per config, for cheap resize *)
  mutable table : int array;  (* open addressing, -1 = empty *)
  mutable mask : int;
  cflags : Buffer.t;  (* per config: bit 0 acc, bit 1 rej *)
  mutable probes : int;  (* telemetry: slot inspections *)
  mutable resizes : int;
  mutable dedup_hits : int;
}

let store_create cells =
  {
    cells;
    width = 1;
    bytes = Bytes.create (cells * 1024);
    count = 0;
    hashes = Array.make 1024 0;
    table = Array.make 4096 (-1);
    mask = 4095;
    cflags = Buffer.create 1024;
    probes = 0;
    resizes = 0;
    dedup_hits = 0;
  }

let fnv_prime = 0x100000001b3

let hash_ids ids len =
  let h = ref 0x14650FB0739D0383 in
  for i = 0 to len - 1 do
    (* mix the full id, byte-order independent of the pack width *)
    h := (!h lxor ids.(i)) * fnv_prime
  done;
  !h land max_int

let width_limit w = 1 lsl (8 * w)

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

(* Grow the cell width (1 -> 2 -> 4) once a state id no longer fits,
   re-packing every stored configuration.  Hashes are width-independent, so
   the table survives unchanged. *)
let upgrade_width st =
  let w = st.width in
  let w' = if w = 1 then 2 else 4 in
  let nbytes' = st.cells * w' in
  let fresh = Bytes.create (max (st.count * nbytes' * 2) nbytes') in
  let tmp = Array.make st.cells 0 in
  for i = 0 to st.count - 1 do
    decode st i tmp;
    let off = ref (i * nbytes') in
    for v = 0 to st.cells - 1 do
      (match w' with
      | 2 -> Bytes.set_uint16_le fresh !off tmp.(v)
      | _ -> Bytes.set_int32_le fresh !off (Int32.of_int tmp.(v)));
      off := !off + w'
    done
  done;
  st.bytes <- fresh;
  st.width <- w'

let store_resize_table st =
  st.resizes <- st.resizes + 1;
  let cap = 2 * (st.mask + 1) in
  let t = Array.make cap (-1) in
  let m = cap - 1 in
  for i = 0 to st.count - 1 do
    let h = ref (st.hashes.(i) land m) in
    while t.(!h) >= 0 do
      h := (!h + 1) land m
    done;
    t.(!h) <- i
  done;
  st.table <- t;
  st.mask <- m

let config_equal st i ids =
  let w = st.width in
  let off = ref (i * st.cells * w) in
  let rec go v =
    v >= st.cells
    || unpack_cell st !off = ids.(v)
       && begin
            off := !off + w;
            go (v + 1)
          end
  in
  go 0

(* Intern the configuration [ids] (an array of [cells] state ids); returns
   (index, fresh).  [flags] are the acc/rej bits of the configuration. *)
let intern_config st ~max_configs ids flags =
  let h = hash_ids ids st.cells in
  let m = st.mask in
  let slot = ref (h land m) in
  let found = ref (-2) in
  while !found = -2 do
    st.probes <- st.probes + 1;
    let j = st.table.(!slot) in
    if j < 0 then found := -1
    else if st.hashes.(j) = h && config_equal st j ids then found := j
    else slot := (!slot + 1) land m
  done;
  if !found >= 0 then begin
    st.dedup_hits <- st.dedup_hits + 1;
    (!found, false)
  end
  else begin
    if st.count >= max_configs then raise (Too_large st.count);
    let i = st.count in
    let nbytes = st.cells * st.width in
    if (i + 1) * nbytes > Bytes.length st.bytes then begin
      let fresh = Bytes.create (2 * Bytes.length st.bytes) in
      Bytes.blit st.bytes 0 fresh 0 (i * nbytes);
      st.bytes <- fresh
    end;
    let off = ref (i * nbytes) in
    for v = 0 to st.cells - 1 do
      pack_cell st !off ids.(v);
      off := !off + st.width
    done;
    if i = Array.length st.hashes then begin
      let d = Array.make (2 * i) 0 in
      Array.blit st.hashes 0 d 0 i;
      st.hashes <- d
    end;
    st.hashes.(i) <- h;
    Buffer.add_char st.cflags (Char.chr flags);
    st.table.(!slot) <- i;
    st.count <- i + 1;
    if 2 * st.count > st.mask then store_resize_table st;
    (i, true)
  end

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
       let rec go i = i >= len || (String.unsafe_get key i = Bytes.unsafe_get kb i && go (i + 1)) in
       go 0
     end

(* -1 = miss *)
let memo_find m kb len h =
  let mask = m.mmask in
  let rec probe slot =
    let key = m.mkeys.(slot) in
    if String.length key = 0 then -1
    else if m.mhash.(slot) = h && key_matches key kb len then m.mids.(slot)
    else probe ((slot + 1) land mask)
  in
  probe (h land mask)

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
   the canonicalising element and leaves the winner in [best]. *)
let canonicalise perms ids best scratch =
  let n = Array.length ids in
  Array.blit ids 0 best 0 n;
  let sigma = ref 0 in
  for e = 1 to Array.length perms - 1 do
    let p = perms.(e) in
    for v = 0 to n - 1 do
      scratch.(v) <- ids.(p.(v))
    done;
    let rec cmp v = if v >= n then 0 else if scratch.(v) <> best.(v) then compare scratch.(v) best.(v) else cmp (v + 1) in
    if cmp 0 < 0 then begin
      Array.blit scratch 0 best 0 n;
      sigma := e
    end
  done;
  !sigma

(* ------------------------------------------------------------------ *)
(* Exploration                                                          *)
(* ------------------------------------------------------------------ *)

let chunk_size = 4096

(* Per-call worker slots.  Slot 0 is created eagerly; the rest only when a
   wave actually clears the parallel gate — a ctx owns a fresh memo table
   (~200 KB of arrays), which small instances should never pay for (the
   residual "engine-j2" penalty on tiny rings in BENCH_verify.json came
   from exactly this eager allocation). *)
type 's slots = { ctxs : 's ctx option array; mk : unit -> 's ctx }

let slots_create jobs m nbr interner =
  let ctxs = Array.make jobs None in
  let mk () = ctx_create m nbr interner in
  ctxs.(0) <- Some (mk ());
  { ctxs; mk }

(* Worker [w]'s ctx, created on first use.  Safe from the worker domain
   itself: every worker touches only its own slot. *)
let slot s w =
  match s.ctxs.(w) with
  | Some c -> c
  | None ->
    let c = s.mk () in
    s.ctxs.(w) <- Some c;
    c

let slot_list s = List.filter_map Fun.id (Array.to_list s.ctxs)

(* Preamble shared by the resident and external-memory explorers. *)
let explore_setup ?symmetry ~states m g =
  let n = Graph.nodes g in
  if n < 1 then invalid_arg "Engine.explore: empty graph";
  let sym =
    match symmetry with
    | Some s when not (Symmetry.is_trivial s) ->
      if Symmetry.degree s <> n then invalid_arg "Engine.explore: symmetry degree mismatch";
      Some s
    | _ -> None
  in
  let perms = match sym with Some s -> Symmetry.perms s | None -> [| Array.init n (fun v -> v) |] in
  let nbr = Array.init n (fun v -> Array.of_list (Graph.neighbours g v)) in
  let c0 = Array.init n (fun v -> m.Machine.init (Graph.label g v)) in
  let interner = interner_create ~acc:m.Machine.accepting ~rej:m.Machine.rejecting c0.(0) in
  List.iter (fun s -> ignore (intern_state interner s)) states;
  (n, sym, perms, nbr, c0, interner)

let explore_flat ?(jobs = 1) ?symmetry ?(states = []) ~max_configs m g =
  let n, sym, perms, nbr, c0, interner = explore_setup ?symmetry ~states m g in
  let st = store_create n in
  let targets = ibuf_create (n * 1024) in
  let sigmas = ibuf_create (if sym = None then 16 else n * 1024) in
  (* never spawn more workers than cores: on an oversubscribed or
     single-core host the spawn/join and GC barriers make jobs > cores a
     strict loss (the gate of satellite measurement, doc/INTERNALS.md) *)
  let jobs = max 1 (min (min jobs 64) (Lazy.force par_cores)) in
  let slots = slots_create jobs m nbr interner in
  (* flag bits of a configuration from per-state flags *)
  let config_flags ids =
    let a = ref true and r = ref true in
    for v = 0 to n - 1 do
      a := !a && state_acc interner ids.(v);
      r := !r && state_rej interner ids.(v)
    done;
    (if !a then 1 else 0) lor if !r then 2 else 0
  in
  let best = Array.make n 0 and scratch = Array.make n 0 in
  let intern_canonical ids =
    let sigma = if sym = None then (Array.blit ids 0 best 0 n; 0) else canonicalise perms ids best scratch in
    let i, fresh = intern_config st ~max_configs best (config_flags best) in
    (i, fresh, sigma)
  in
  (* initial configuration *)
  let ids0 = Array.map (intern_state interner) c0 in
  if interner.n >= width_limit st.width then upgrade_width st;
  if interner.n >= width_limit st.width then upgrade_width st;
  let initial, _, initial_sigma = intern_canonical ids0 in
  (* chunked frontier expansion *)
  let next = ref 0 in
  let wave = ref 0 in
  let peak_frontier = ref 0 in
  let sids = Array.make (chunk_size * jobs * n) 0 in
  let cur = Array.make n 0 in
  let succ = Array.make n 0 in
  while !next < st.count do
    let lo = !next in
    let hi = min st.count (lo + (chunk_size * jobs)) in
    let len = hi - lo in
    (* phase A: delta evaluation (parallelisable; touches only the state
       interner, under its lock, on memo misses) *)
    let snapshot = (interner.states, interner.n) in
    let run_slice ctx a b =
      ctx.items <- ctx.items + (b - a);
      let c = Array.make n 0 in
      for i = a to b - 1 do
        decode st (lo + i) c;
        let base = i * n in
        for v = 0 to n - 1 do
          sids.(base + v) <- delta_id ctx ~snapshot c v
        done
      done
    in
    let seq_threshold = par_threshold ~width:st.width in
    if jobs = 1 || len * n < seq_threshold then run_slice (slot slots 0) 0 len
    else begin
      let per = (len + jobs - 1) / jobs in
      let domains =
        List.init (jobs - 1) (fun w ->
            let a = (w + 1) * per in
            let b = min len ((w + 2) * per) in
            Domain.spawn (fun () -> if a < b then run_slice (slot slots (w + 1)) a b))
      in
      run_slice (slot slots 0) 0 (min per len);
      List.iter Domain.join domains
    end;
    (* phase B: canonicalise + intern successors, append edges (sequential,
       so configuration ids are deterministic) *)
    if interner.n >= width_limit st.width then upgrade_width st;
    if interner.n >= width_limit st.width then upgrade_width st;
    for i = 0 to len - 1 do
      decode st (lo + i) cur;
      let base = i * n in
      for v = 0 to n - 1 do
        Array.blit cur 0 succ 0 n;
        succ.(v) <- sids.(base + v);
        let j, _, sigma = intern_canonical succ in
        ibuf_push targets j;
        if sym <> None then ibuf_push sigmas sigma
      done
    done;
    incr wave;
    let frontier = st.count - hi in
    if frontier > !peak_frontier then peak_frontier := frontier;
    if T.enabled () then begin
      T.incr c_waves;
      T.observe h_wave len;
      T.emit_value "engine.frontier" frontier;
      T.progress_tick ~label:"explore" ~expanded:hi ~discovered:st.count ~budget:max_configs
        ~wave:!wave ~frontier
    end;
    next := hi
  done;
  let size = st.count in
  let flag_bytes = Buffer.to_bytes st.cflags in
  let describe i =
    let ids = Array.make n 0 in
    decode st i ids;
    Format.asprintf "%a"
      (Dda_runtime.Config.pp m.Machine.pp_state)
      (Dda_runtime.Config.of_states (Array.map (fun id -> interner.states.(id)) ids))
  in
  let created = slot_list slots in
  let evals = List.fold_left (fun a c -> a + c.evals) 0 created in
  let lookups = List.fold_left (fun a c -> a + c.lookups) 0 created in
  let domain_items = Array.of_list (List.map (fun c -> c.items) created) in
  if T.enabled () then begin
    T.add c_configs st.count;
    T.add c_dedup st.dedup_hits;
    T.add c_states interner.n;
    T.add c_memo_misses evals;
    T.add c_memo_hits (lookups - evals);
    T.add c_probes st.probes;
    T.add c_resizes st.resizes;
    T.max_gauge c_peak !peak_frontier;
    Array.iteri
      (fun w items -> T.add (T.counter (Printf.sprintf "engine.domain.%d.items" w)) items)
      domain_items
  end;
  {
    node_count = n;
    size;
    initial;
    initial_sigma;
    edges =
      Flat_edges
        {
          targets = ibuf_contents targets;
          sigmas = (if sym = None then [||] else ibuf_contents sigmas);
        };
    flags = flag_bytes;
    describe;
    symmetry = sym;
    stats =
      {
        state_count = interner.n;
        delta_evals = evals;
        delta_lookups = lookups;
        table_probes = st.probes;
        table_resizes = st.resizes;
        dedup_hits = st.dedup_hits;
        waves = !wave;
        peak_frontier = !peak_frontier;
        domain_items;
      };
    spill = None;
  }

(* ------------------------------------------------------------------ *)
(* External-memory configuration store                                  *)
(* ------------------------------------------------------------------ *)

(* Under a memory budget, configurations live in a spillable arena as
   varint records instead of the fixed-width resident pack:

     keyframe:  0x00, cells x varint(state id)
     delta:     depth in 1..ext_max_depth, varint(parent id),
                varint(ndiffs), ndiffs x (varint(node), varint(id))

   A successor differs from the configuration it was expanded from in one
   node state (canonicalisation can scatter that into a few positions, in
   which case the encoder falls back to a keyframe), so deltas are tiny;
   decoding chases at most [ext_max_depth] parents.  The resident index is
   5 bytes of record offset + 1 byte of chain depth + 4 bytes of hash per
   configuration plus the u32 open-addressing table — the only per-config
   state that cannot spill. *)

let ext_max_depth = 8

type ext_store = {
  xcells : int;
  carena : Arena.t;
  mutable offsets : Bytes.t;  (* 5-byte LE record positions *)
  mutable depths : Bytes.t;  (* delta-chain depth, 0 = keyframe *)
  mutable xhashes : Bytes.t;  (* u32 per config: low 32 bits of hash_ids *)
  mutable xcap : int;  (* configs the three index buffers can hold *)
  mutable xtable : Bytes.t;  (* u32 slots: 0 = empty, else config id + 1 *)
  mutable xmask : int;
  mutable xcount : int;
  xflags : Buffer.t;
  rec_buf : Bytes.t;  (* scratch: one encoded record *)
  dec_buf : int array;  (* scratch: probe-time decode (phase B only) *)
  mutable xprobes : int;
  mutable xresizes : int;
  mutable xdedup : int;
}

(* worst case: delta touching every cell *)
let ext_rec_max cells = 1 + ((2 + (2 * cells)) * Arena.varint_max)

let ext_store_create budget cells ~seg_bytes =
  let cap = 1024 in
  {
    xcells = cells;
    carena = Arena.create budget ~name:"configs" ~seg_bytes;
    offsets = Bytes.make (cap * 5) '\000';
    depths = Bytes.make cap '\000';
    xhashes = Bytes.make (cap * 4) '\000';
    xcap = cap;
    xtable = Bytes.make (1024 * 4) '\000';
    xmask = 1023;
    xcount = 0;
    xflags = Buffer.create 1024;
    rec_buf = Bytes.create (ext_rec_max cells);
    dec_buf = Array.make cells 0;
    xprobes = 0;
    xresizes = 0;
    xdedup = 0;
  }

let off_get st i =
  let p = i * 5 in
  let b k = Char.code (Bytes.unsafe_get st.offsets (p + k)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)

let off_set st i v =
  let p = i * 5 in
  Bytes.unsafe_set st.offsets p (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set st.offsets (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set st.offsets (p + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set st.offsets (p + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set st.offsets (p + 4) (Char.unsafe_chr ((v lsr 32) land 0xFF))

let ext_grow_index st =
  let cap = st.xcap * 2 in
  let g old elt =
    let b = Bytes.make (cap * elt) '\000' in
    Bytes.blit old 0 b 0 (st.xcap * elt);
    b
  in
  st.offsets <- g st.offsets 5;
  st.depths <- g st.depths 1;
  st.xhashes <- g st.xhashes 4;
  st.xcap <- cap

(* Thread-safe for concurrent readers: [out] is caller-owned scratch and
   arena views pin their segment. *)
let rec ext_decode st i out =
  let seg, off = Arena.view st.carena (off_get st i) in
  let tag = Char.code (Bytes.unsafe_get seg off) in
  if tag = 0 then begin
    let p = ref (off + 1) in
    for v = 0 to st.xcells - 1 do
      let id, p' = Arena.get_varint seg !p in
      out.(v) <- id;
      p := p'
    done
  end
  else begin
    let parent, q0 = Arena.get_varint seg (off + 1) in
    ext_decode st parent out;
    (* [seg] stays valid across the recursive call even if the arena
       evicts it meanwhile: we hold the Bytes. *)
    let nd, q1 = Arena.get_varint seg q0 in
    let q = ref q1 in
    for _ = 1 to nd do
      let v, qa = Arena.get_varint seg !q in
      let id, qb = Arena.get_varint seg qa in
      out.(v) <- id;
      q := qb
    done
  end

let ext_resize st =
  st.xresizes <- st.xresizes + 1;
  let cap = 2 * (st.xmask + 1) in
  let t = Bytes.make (cap * 4) '\000' in
  let m = cap - 1 in
  for i = 0 to st.xcount - 1 do
    let s = ref (get32 st.xhashes (i * 4) land m) in
    while get32 t (!s * 4) <> 0 do
      s := (!s + 1) land m
    done;
    put32 t (!s * 4) (i + 1)
  done;
  st.xtable <- t;
  st.xmask <- m

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

(* Encode [ids] into [st.rec_buf]: a delta against [parent] when one is
   available, shallow enough, and strictly smaller than a keyframe.
   Returns (record length, chain depth). *)
let ext_encode st ids ~parent ~parent_ids ~parent_depth =
  let cells = st.xcells in
  let keyframe () =
    Bytes.unsafe_set st.rec_buf 0 '\000';
    let p = ref 1 in
    for v = 0 to cells - 1 do
      p := Arena.put_varint st.rec_buf !p ids.(v)
    done;
    (!p, 0)
  in
  if parent < 0 || parent_depth >= ext_max_depth then keyframe ()
  else begin
    let kf = ref 1 in
    let nd = ref 0 in
    for v = 0 to cells - 1 do
      kf := !kf + varint_size ids.(v);
      if ids.(v) <> parent_ids.(v) then incr nd
    done;
    let q = ref (Arena.put_varint st.rec_buf 1 parent) in
    q := Arena.put_varint st.rec_buf !q !nd;
    for v = 0 to cells - 1 do
      if ids.(v) <> parent_ids.(v) then begin
        q := Arena.put_varint st.rec_buf !q v;
        q := Arena.put_varint st.rec_buf !q ids.(v)
      end
    done;
    if !q < !kf then begin
      Bytes.unsafe_set st.rec_buf 0 (Char.unsafe_chr (parent_depth + 1));
      (!q, parent_depth + 1)
    end
    else keyframe ()
  end

(* Sequential (phase B) only: probes decode through [st.dec_buf]. *)
let ext_intern st ~max_configs ids flags ~parent ~parent_ids ~parent_depth =
  let h32 = hash_ids ids st.xcells land 0xFFFFFFFF in
  let m = st.xmask in
  let slot = ref (h32 land m) in
  let found = ref (-2) in
  while !found = -2 do
    st.xprobes <- st.xprobes + 1;
    let e = get32 st.xtable (!slot * 4) in
    if e = 0 then found := -1
    else begin
      let j = e - 1 in
      if get32 st.xhashes (j * 4) = h32 then begin
        ext_decode st j st.dec_buf;
        let eq = ref true in
        let v = ref 0 in
        while !eq && !v < st.xcells do
          if st.dec_buf.(!v) <> ids.(!v) then eq := false;
          incr v
        done;
        if !eq then found := j else slot := (!slot + 1) land m
      end
      else slot := (!slot + 1) land m
    end
  done;
  if !found >= 0 then begin
    st.xdedup <- st.xdedup + 1;
    (!found, false)
  end
  else begin
    if st.xcount >= max_configs then raise (Too_large st.xcount);
    let len, depth = ext_encode st ids ~parent ~parent_ids ~parent_depth in
    let pos = Arena.append st.carena st.rec_buf 0 len in
    if st.xcount >= st.xcap then ext_grow_index st;
    let i = st.xcount in
    off_set st i pos;
    Bytes.unsafe_set st.depths i (Char.unsafe_chr depth);
    put32 st.xhashes (i * 4) h32;
    Buffer.add_char st.xflags (Char.chr flags);
    put32 st.xtable (!slot * 4) (i + 1);
    st.xcount <- i + 1;
    if 2 * st.xcount > st.xmask then ext_resize st;
    (i, true)
  end

let explore_ext ?(jobs = 1) ?symmetry ?(states = []) ~limit ~max_configs m g =
  let n, sym, perms, nbr, c0, interner = explore_setup ?symmetry ~states m g in
  let budget = Arena.budget_create ~limit in
  let seg_bytes =
    let s = max 65536 (min (1 lsl 20) (limit / 8)) in
    (max s (ext_rec_max n) + 3) land -4
  in
  let st = ext_store_create budget n ~seg_bytes in
  (* edge segments hold whole rows of [n] u32s, so a row reader never
     straddles two segments *)
  let eseg_bytes = max (4 * n) (seg_bytes / (4 * n) * (4 * n)) in
  let earena = Arena.create budget ~name:"targets" ~seg_bytes:eseg_bytes in
  let sarena =
    if sym = None then None else Some (Arena.create budget ~name:"sigmas" ~seg_bytes:eseg_bytes)
  in
  let u32 = Bytes.create 4 in
  let push_u32 a v =
    put32 u32 0 v;
    ignore (Arena.append a u32 0 4)
  in
  let jobs = max 1 (min (min jobs 64) (Lazy.force par_cores)) in
  let slots = slots_create jobs m nbr interner in
  let config_flags ids =
    let a = ref true and r = ref true in
    for v = 0 to n - 1 do
      a := !a && state_acc interner ids.(v);
      r := !r && state_rej interner ids.(v)
    done;
    (if !a then 1 else 0) lor if !r then 2 else 0
  in
  let best = Array.make n 0 and scratch = Array.make n 0 in
  let intern_canonical ~parent ~parent_ids ~parent_depth ids =
    let sigma = if sym = None then (Array.blit ids 0 best 0 n; 0) else canonicalise perms ids best scratch in
    let i, _fresh =
      ext_intern st ~max_configs best (config_flags best) ~parent ~parent_ids ~parent_depth
    in
    (i, sigma)
  in
  let ids0 = Array.map (intern_state interner) c0 in
  let initial, initial_sigma = intern_canonical ~parent:(-1) ~parent_ids:[||] ~parent_depth:0 ids0 in
  let next = ref 0 in
  let wave = ref 0 in
  let peak_frontier = ref 0 in
  let sids = Array.make (chunk_size * jobs * n) 0 in
  let cur = Array.make n 0 in
  let succ = Array.make n 0 in
  while !next < st.xcount do
    let lo = !next in
    let hi = min st.xcount (lo + (chunk_size * jobs)) in
    let len = hi - lo in
    let snapshot = (interner.states, interner.n) in
    let run_slice ctx a b =
      ctx.items <- ctx.items + (b - a);
      let c = Array.make n 0 in
      for i = a to b - 1 do
        ext_decode st (lo + i) c;
        let base = i * n in
        for v = 0 to n - 1 do
          sids.(base + v) <- delta_id ctx ~snapshot c v
        done
      done
    in
    (* delta-chain decoding makes each item pricier than the packed
       store's, so gate parallelism as if cells were full-width *)
    let seq_threshold = par_threshold ~width:4 in
    if jobs = 1 || len * n < seq_threshold then run_slice (slot slots 0) 0 len
    else begin
      let per = (len + jobs - 1) / jobs in
      let domains =
        List.init (jobs - 1) (fun w ->
            let a = (w + 1) * per in
            let b = min len ((w + 2) * per) in
            Domain.spawn (fun () -> if a < b then run_slice (slot slots (w + 1)) a b))
      in
      run_slice (slot slots 0) 0 (min per len);
      List.iter Domain.join domains
    end;
    for i = 0 to len - 1 do
      ext_decode st (lo + i) cur;
      let pdepth = Char.code (Bytes.unsafe_get st.depths (lo + i)) in
      let base = i * n in
      for v = 0 to n - 1 do
        Array.blit cur 0 succ 0 n;
        succ.(v) <- sids.(base + v);
        let j, sigma = intern_canonical ~parent:(lo + i) ~parent_ids:cur ~parent_depth:pdepth succ in
        push_u32 earena j;
        match sarena with None -> () | Some a -> push_u32 a sigma
      done
    done;
    incr wave;
    let frontier = st.xcount - hi in
    if frontier > !peak_frontier then peak_frontier := frontier;
    if T.enabled () then begin
      T.incr c_waves;
      T.observe h_wave len;
      T.emit_value "engine.frontier" frontier;
      T.emit_value "engine.resident_bytes" (Arena.resident_bytes ());
      T.progress_tick ~label:"explore" ~expanded:hi ~discovered:st.xcount ~budget:max_configs
        ~wave:!wave ~frontier
    end;
    next := hi
  done;
  let size = st.xcount in
  let flag_bytes = Buffer.to_bytes st.xflags in
  let describe i =
    let ids = Array.make n 0 in
    ext_decode st i ids;
    Format.asprintf "%a"
      (Dda_runtime.Config.pp m.Machine.pp_state)
      (Dda_runtime.Config.of_states (Array.map (fun id -> interner.states.(id)) ids))
  in
  (* the hash table, hashes and delta depths are exploration-only; drop
     them so the analyses run against the smallest possible residency *)
  st.xtable <- Bytes.empty;
  st.xhashes <- Bytes.empty;
  st.depths <- Bytes.empty;
  let created = slot_list slots in
  let evals = List.fold_left (fun a c -> a + c.evals) 0 created in
  let lookups = List.fold_left (fun a c -> a + c.lookups) 0 created in
  let domain_items = Array.of_list (List.map (fun c -> c.items) created) in
  if T.enabled () then begin
    T.add c_configs st.xcount;
    T.add c_dedup st.xdedup;
    T.add c_states interner.n;
    T.add c_memo_misses evals;
    T.add c_memo_hits (lookups - evals);
    T.add c_probes st.xprobes;
    T.add c_resizes st.xresizes;
    T.max_gauge c_peak !peak_frontier;
    Array.iteri
      (fun w items -> T.add (T.counter (Printf.sprintf "engine.domain.%d.items" w)) items)
      domain_items
  end;
  {
    node_count = n;
    size;
    initial;
    initial_sigma;
    edges = Ext_edges { targets = earena; sigmas = sarena };
    flags = flag_bytes;
    describe;
    symmetry = sym;
    stats =
      {
        state_count = interner.n;
        delta_evals = evals;
        delta_lookups = lookups;
        table_probes = st.xprobes;
        table_resizes = st.xresizes;
        dedup_hits = st.xdedup;
        waves = !wave;
        peak_frontier = !peak_frontier;
        domain_items;
      };
    spill = Some (Arena.budget_stats budget);
  }

let env_mem_budget () =
  match Sys.getenv_opt "DDA_MEM_BUDGET" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v > 0 -> Some v
    | _ -> None)
  | None -> None

let explore ?jobs ?symmetry ?states ?mem_budget ~max_configs m g =
  let budget =
    match mem_budget with
    | Some b when b > 0 -> Some b
    | Some _ -> None
    | None -> env_mem_budget ()
  in
  match budget with
  | None -> explore_flat ?jobs ?symmetry ?states ~max_configs m g
  | Some limit -> explore_ext ?jobs ?symmetry ?states ~limit ~max_configs m g

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

let succs e i =
  List.init e.node_count (fun k -> (k, target e i k))

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
  | Ext_edges { targets; sigmas } ->
    Arena.release targets;
    Option.iter Arena.release sigmas
