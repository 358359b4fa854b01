module Machine = Dda_machine.Machine
module M = Dda_multiset.Multiset
module G = Dda_graph.Graph
module Engine = Dda_verify.Engine
module T = Dda_telemetry.Telemetry

exception Too_large of int

type topology = Clique | Star

type 'l shape =
  | S_clique of 'l M.t
  | S_star of 'l * 'l M.t

let c_configs = T.counter "symbolic.configs"
let c_edges = T.counter "symbolic.edges"
let c_deltas = T.counter "symbolic.deltas"

let shape_of_graph g =
  let n = G.nodes g in
  if n < 2 then None
  else if
    let complete = ref true in
    for v = 0 to n - 1 do
      if G.degree g v <> n - 1 then complete := false
    done;
    !complete
  then Some (S_clique (G.label_count g))
  else if n < 3 then None
  else begin
    (* a star has one centre of degree n-1 and n-1 leaves of degree 1 *)
    let centre = ref (-1) and ok = ref true in
    for v = 0 to n - 1 do
      match G.degree g v with
      | d when d = n - 1 -> if !centre >= 0 then ok := false else centre := v
      | 1 -> ()
      | _ -> ok := false
    done;
    if (not !ok) || !centre < 0 then None
    else begin
      let c = !centre in
      let leaves = ref [] in
      for v = n - 1 downto 0 do
        if v <> c then leaves := G.label g v :: !leaves
      done;
      Some (S_star (G.label g c, M.of_list !leaves))
    end
  end

(* ------------------------------------------------------------------ *)
(* State interner                                                      *)
(* ------------------------------------------------------------------ *)

type 's states = {
  ids : ('s, int) Hashtbl.t;
  mutable arr : 's array;  (* id -> state; arr.(0) always valid once non-empty *)
  mutable flags : Bytes.t;  (* bit 0 accepting, bit 1 rejecting *)
  mutable n : int;
}

let intern_state (type s) (m : (_, s) Machine.t) st (q : s) =
  match Hashtbl.find_opt st.ids q with
  | Some id -> id
  | None ->
      let id = st.n in
      if id > 0xffff then invalid_arg "Counted: more than 65536 machine states";
      if id >= Array.length st.arr then begin
        let cap = max 16 (2 * Array.length st.arr) in
        let arr = Array.make cap q in
        Array.blit st.arr 0 arr 0 st.n;
        st.arr <- arr;
        let flags = Bytes.make cap '\000' in
        Bytes.blit st.flags 0 flags 0 st.n;
        st.flags <- flags
      end;
      st.arr.(id) <- q;
      let f =
        (if m.Machine.accepting q then 1 else 0)
        lor (if m.Machine.rejecting q then 2 else 0)
      in
      Bytes.set st.flags id (Char.chr f);
      Hashtbl.add st.ids q id;
      st.n <- st.n + 1;
      id

(* ------------------------------------------------------------------ *)
(* Packed configuration store: FNV-1a hashing, open addressing          *)
(* ------------------------------------------------------------------ *)

type store = {
  mutable arena : Bytes.t;
  mutable arena_used : int;
  mutable offs : int array;
  mutable lens : int array;
  mutable hashes : int array;
  mutable table : int array;  (* -1 empty *)
  mutable mask : int;
  mutable count : int;
}

let store_create () =
  {
    arena = Bytes.create 4096;
    arena_used = 0;
    offs = Array.make 64 0;
    lens = Array.make 64 0;
    hashes = Array.make 64 0;
    table = Array.make 128 (-1);
    mask = 127;
    count = 0;
  }

let store_grow_table s =
  let cap = 2 * (s.mask + 1) in
  let table = Array.make cap (-1) in
  let mask = cap - 1 in
  for i = 0 to s.count - 1 do
    let slot = ref (s.hashes.(i) land mask) in
    while table.(!slot) >= 0 do
      slot := (!slot + 1) land mask
    done;
    table.(!slot) <- i
  done;
  s.table <- table;
  s.mask <- mask

let bytes_match s i buf len =
  s.lens.(i) = len
  &&
  let off = s.offs.(i) in
  let k = ref 0 in
  while !k < len && Bytes.unsafe_get s.arena (off + !k) = Bytes.unsafe_get buf !k do
    incr k
  done;
  !k = len

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Intern the first [len] bytes of [buf]; returns (index, fresh). *)
let store_intern s buf len =
  let h = Engine.memo_hash buf len in
  let slot = ref (h land s.mask) in
  let found = ref (-1) in
  while !found < 0 && s.table.(!slot) >= 0 do
    let i = s.table.(!slot) in
    if s.hashes.(i) = h && bytes_match s i buf len then found := i
    else slot := (!slot + 1) land s.mask
  done;
  if !found >= 0 then (!found, false)
  else begin
    let i = s.count in
    if i >= Array.length s.offs then begin
      s.offs <- grow s.offs (i + 1) 0;
      s.lens <- grow s.lens (i + 1) 0;
      s.hashes <- grow s.hashes (i + 1) 0
    end;
    if s.arena_used + len > Bytes.length s.arena then begin
      let arena = Bytes.create (max (2 * Bytes.length s.arena) (s.arena_used + len)) in
      Bytes.blit s.arena 0 arena 0 s.arena_used;
      s.arena <- arena
    end;
    Bytes.blit buf 0 s.arena s.arena_used len;
    s.offs.(i) <- s.arena_used;
    s.lens.(i) <- len;
    s.hashes.(i) <- h;
    s.arena_used <- s.arena_used + len;
    s.table.(!slot) <- i;
    s.count <- i + 1;
    if 10 * s.count > 7 * (s.mask + 1) then store_grow_table s;
    (i, true)
  end

(* ------------------------------------------------------------------ *)
(* Configuration encoding                                               *)
(* ------------------------------------------------------------------ *)

(* Clique: sorted (sid, count) u16 LE pairs.  Star: u16 centre sid, then
   the leaf pairs.  Delta memo keys use the same u16 layout: mover sid,
   then the mover's capped observation as (sid, count) pairs. *)

let put_u16 buf pos v =
  if v > 0xffff then invalid_arg "Counted: count exceeds 65535";
  Bytes.set_uint16_le buf pos v

let get_u16 = Bytes.get_uint16_le

(* Decode config [i] into [sids]/[cnts]; returns (prefix, support size),
   prefix -1 on cliques. *)
let decode s ~has_prefix i sids cnts =
  let off = s.offs.(i) in
  let prefix, start = if has_prefix then (get_u16 s.arena off, off + 2) else (-1, off) in
  let k = (off + s.lens.(i) - start) / 4 in
  for a = 0 to k - 1 do
    sids.(a) <- get_u16 s.arena (start + (4 * a));
    cnts.(a) <- get_u16 s.arena (start + (4 * a) + 2)
  done;
  (prefix, k)

(* ------------------------------------------------------------------ *)
(* Exploration                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  topology : topology;
  node_count : int;
  size : int;
  edge_count : int;
  initial : int;
  state_count : int;
  off : int array;
  dst : int array;
  mover : int array;
  acc : bool array;
  rej : bool array;
  describe : int -> string;
}

let explore (type l s) ~max_configs (m : (l, s) Machine.t) (shape : l shape) : t =
  let topology, centre0, counts0 =
    match shape with
    | S_clique counts -> (Clique, None, counts)
    | S_star (c, leaves) -> (Star, Some c, leaves)
  in
  let has_prefix = topology = Star in
  let st =
    { ids = Hashtbl.create 64; arr = [||]; flags = Bytes.empty; n = 0 }
  in
  let sid q = intern_state m st q in
  let state id = st.arr.(id) in
  (* Initial configuration. *)
  let init_prefix =
    match centre0 with None -> -1 | Some l -> sid (m.Machine.init l)
  in
  let init_pairs =
    M.to_counts (M.map (fun l -> sid (m.Machine.init l)) counts0)
    |> List.sort compare
  in
  let node_count = M.size counts0 + (if has_prefix then 1 else 0) in
  let store = store_create () in
  (* [buf] holds a successor's encoding, [kbuf] a delta memo key *)
  let buf = Bytes.create (4 * (node_count + 2)) in
  let kbuf = Bytes.create (4 * (node_count + 2)) in
  let intern len =
    let i, fresh = store_intern store buf len in
    if fresh then begin
      T.incr c_configs;
      if store.count > max_configs then raise (Too_large store.count)
    end;
    i
  in
  let beta = m.Machine.beta in
  let memo = Engine.memo_create () in
  (* The new state of the mover whose key fills the first [len] bytes of
     [kbuf]; a miss rebuilds the observation from the key, in machine
     order, and calls delta. *)
  let delta_sid len =
    let h = Engine.memo_hash kbuf len in
    let id = Engine.memo_find memo kbuf len h in
    if id >= 0 then id
    else begin
      T.incr c_deltas;
      let obs = ref [] in
      for p = (len / 4) - 1 downto 0 do
        obs := (state (get_u16 kbuf ((4 * p) + 2)), get_u16 kbuf ((4 * p) + 4)) :: !obs
      done;
      let obs = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !obs in
      let id = sid (m.Machine.delta (state (get_u16 kbuf 0)) obs) in
      Engine.memo_add memo (Bytes.sub_string kbuf 0 len) h id;
      id
    end
  in
  (* Decoded current configuration and the growing CSR. *)
  let sids = Array.make (node_count + 1) 0 and cnts = Array.make (node_count + 1) 0 in
  let off = ref (Array.make 64 0) and acc = ref (Array.make 64 false) in
  let rej = ref (Array.make 64 false) in
  let dst = ref (Array.make 256 0) and mover = ref (Array.make 256 0) in
  let ne = ref 0 in
  let edge lbl j =
    if !ne >= Array.length !dst then begin
      dst := grow !dst (!ne + 1) 0;
      mover := grow !mover (!ne + 1) 0
    end;
    !dst.(!ne) <- j;
    !mover.(!ne) <- lbl;
    incr ne
  in
  (* Memo key: [q], then the k pairs with one copy at index [a] removed
     (none when [a < 0]), counts capped at beta. *)
  let key q k a =
    put_u16 kbuf 0 q;
    let pos = ref 2 in
    for b = 0 to k - 1 do
      let c = if b = a then cnts.(b) - 1 else cnts.(b) in
      if c > 0 then begin
        put_u16 kbuf !pos sids.(b);
        put_u16 kbuf (!pos + 2) (min c beta);
        pos := !pos + 4
      end
    done;
    !pos
  in
  (* Encode into [buf] the configuration with centre [prefix] and the k
     pairs, one copy at index [a] moved to state [q'] (no move when
     [a < 0]), and intern it. *)
  let successor prefix k a q' =
    if prefix >= 0 then put_u16 buf 0 prefix;
    let pos = ref (if prefix >= 0 then 2 else 0) in
    let put s c =
      put_u16 buf !pos s;
      put_u16 buf (!pos + 2) c;
      pos := !pos + 4
    in
    let pending = ref (a >= 0) in
    for b = 0 to k - 1 do
      let s = sids.(b) in
      if !pending && q' < s then begin
        put q' 1;
        pending := false
      end;
      let c = if b = a then cnts.(b) - 1 else cnts.(b) in
      let c = if !pending && s = q' then (pending := false; c + 1) else c in
      if c > 0 then put s c
    done;
    if !pending then put q' 1;
    intern !pos
  in
  let initial =
    List.iteri
      (fun a (s, c) ->
        sids.(a) <- s;
        cnts.(a) <- c)
      init_pairs;
    successor init_prefix (List.length init_pairs) (-1) 0
  in
  (* BFS over store indices: a configuration's edges follow its support,
     centre move first on stars; a silent move is a self-loop. *)
  let i = ref 0 in
  while !i < store.count do
    let v = !i in
    if v + 1 >= Array.length !off then begin
      off := grow !off (v + 2) 0;
      acc := grow !acc (v + 1) false;
      rej := grow !rej (v + 1) false
    end;
    let prefix, k = decode store ~has_prefix v sids cnts in
    let all bit =
      let ok = ref (prefix < 0 || Char.code (Bytes.get st.flags prefix) land bit <> 0) in
      for a = 0 to k - 1 do
        if Char.code (Bytes.get st.flags sids.(a)) land bit = 0 then ok := false
      done;
      !ok
    in
    !acc.(v) <- all 1;
    !rej.(v) <- all 2;
    let e0 = !ne in
    if has_prefix then begin
      let c' = delta_sid (key prefix k (-1)) in
      edge (-1) (if c' = prefix then v else successor c' k (-1) 0)
    end;
    for a = 0 to k - 1 do
      let q = sids.(a) in
      let q' =
        if has_prefix then begin
          (* a leaf observes only the centre *)
          put_u16 kbuf 0 q;
          put_u16 kbuf 2 prefix;
          put_u16 kbuf 4 1;
          delta_sid 6
        end
        else delta_sid (key q k a)
      in
      edge q (if q' = q then v else successor prefix k a q')
    done;
    T.add c_edges (!ne - e0);
    !off.(v + 1) <- !ne;
    incr i
  done;
  let size = store.count in
  let describe i =
    let prefix, k = decode store ~has_prefix i sids cnts in
    let b = Buffer.create 32 in
    let pp s = Format.asprintf "%a" m.Machine.pp_state (state s) in
    if prefix >= 0 then Buffer.add_string b ("centre=" ^ pp prefix ^ " leaves=");
    Buffer.add_char b '{';
    for a = 0 to k - 1 do
      if a > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%s:%d" (pp sids.(a)) cnts.(a))
    done;
    Buffer.add_char b '}';
    Buffer.contents b
  in
  {
    topology;
    node_count;
    size;
    edge_count = !ne;
    initial;
    state_count = st.n;
    off = Array.sub !off 0 (size + 1);
    dst = Array.sub !dst 0 !ne;
    mover = Array.sub !mover 0 !ne;
    acc = Array.sub !acc 0 size;
    rej = Array.sub !rej 0 size;
    describe;
  }

let of_shape ~max_configs m shape =
  (match shape with
  | S_clique counts when M.size counts < 2 ->
    invalid_arg "Counted.of_shape: a clique needs at least two nodes"
  | _ -> ());
  let topo = match shape with S_clique _ -> "clique" | S_star _ -> "star" in
  T.with_span
    ~args:[ ("topology", T.S topo) ]
    "symbolic.explore"
    (fun () -> explore ~max_configs m shape)

let clique ~max_configs m counts = of_shape ~max_configs m (S_clique counts)

let star ~max_configs m ~centre ~leaves =
  of_shape ~max_configs m (S_star (centre, leaves))

let of_graph ~max_configs m g =
  Option.map (of_shape ~max_configs m) (shape_of_graph g)
