(* Iterative, allocation-free Tarjan: successors are addressed as [succ v k]
   for [k < degree v], the result carries no member lists, and all
   bookkeeping lives in int arrays (the DFS stack included), so graphs with
   millions of edges need no list cells at all. *)
type components = { comp_count : int; comp : int array }

let compute_iter ~vertices ~degree ~succ =
  let index = Array.make (max vertices 1) (-1) in
  let lowlink = Array.make (max vertices 1) 0 in
  let on_stack = Array.make (max vertices 1) false in
  let comp = Array.make (max vertices 1) (-1) in
  let stack = Array.make (max vertices 1) 0 in
  let sp = ref 0 in
  let dfs_v = Array.make (max vertices 1) 0 in
  let dfs_e = Array.make (max vertices 1) 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true
  in
  for root = 0 to vertices - 1 do
    if index.(root) = -1 then begin
      let top = ref 0 in
      dfs_v.(0) <- root;
      dfs_e.(0) <- 0;
      push root;
      while !top >= 0 do
        let v = dfs_v.(!top) in
        let k = dfs_e.(!top) in
        if k < degree v then begin
          dfs_e.(!top) <- k + 1;
          let w = succ v k in
          if index.(w) = -1 then begin
            push w;
            incr top;
            dfs_v.(!top) <- w;
            dfs_e.(!top) <- 0
          end
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let c = !next_comp in
            incr next_comp;
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- c;
              if w = v then continue := false
            done
          end;
          decr top;
          if !top >= 0 then begin
            let p = dfs_v.(!top) in
            if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          end
        end
      done
    end
  done;
  { comp_count = !next_comp; comp }

(* ------------------------------------------------------------------ *)
(* Streaming primitives                                                 *)
(* ------------------------------------------------------------------ *)

(* The two functions below visit edges only in sweeps over the vertex range
   (monotone ascending or descending), never by random walk, and read them
   a whole row at a time through the caller's [row] function.  On an
   external-memory space whose CSR rows live in spilled segments this is
   the difference between one sequential pass per sweep and a page fault
   per DFS edge — Tarjan's traversal order is adversarial for an LRU of
   segments, a sweep is its best case.  Vertex ids come from BFS discovery,
   so most edges point from lower to higher ids: descending sweeps pull
   reachability back towards the root in a handful of passes. *)

let backward_reach ~vertices ~degree ~row ~seed =
  let r = Bytes.make (max vertices 1) '\000' in
  for v = 0 to vertices - 1 do
    if seed v then Bytes.unsafe_set r v '\001'
  done;
  let dst = Array.make (max degree 1) 0 in
  let lbl = Array.make (max degree 1) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = vertices - 1 downto 0 do
      if Bytes.unsafe_get r v = '\000' then begin
        row v dst lbl;
        let hit = ref false in
        let k = ref 0 in
        while (not !hit) && !k < degree do
          if Bytes.unsafe_get r (Array.unsafe_get dst !k) = '\001' then hit := true;
          incr k
        done;
        if !hit then begin
          Bytes.unsafe_set r v '\001';
          changed := true
        end
      end
    done
  done;
  r

(* Emerson–Lei-style greatest fixpoint.  Z starts as all vertices; each
   round computes, for every v in Z, the set R(v) of labels collectible
   along non-empty Z-internal paths from v (plus one extra bit recording
   that such a path meets a [target] endpoint), then discards vertices
   whose R is not full.  A vertex of the final Z can reach, within Z, every
   label and a target vertex; iterating that path and applying pigeonhole
   on revisits yields a single cycle carrying all labels and a target —
   and conversely any such cycle has full R at each of its vertices in
   every round, so it survives.  With [labels = 0] the check degenerates to
   "some cycle through a target vertex" (the extra bit still requires an
   edge, so isolated vertices never qualify; idling must be modelled as
   self-loops, as everywhere else in this module's callers).  A vertex
   whose R is already full cannot change, so later sweeps skip its row. *)
let fair_cycle ~vertices ~degree ~row ~labels ~target =
  if labels > 62 then invalid_arg "Scc.fair_cycle: more than 62 labels";
  let bit_p = 1 lsl labels in
  let lmask = bit_p - 1 in
  let full = bit_p lor lmask in
  let nz = ref vertices in
  let in_z = Bytes.make (max vertices 1) '\001' in
  let tgt = Bytes.make (max vertices 1) '\000' in
  for v = 0 to vertices - 1 do
    if target v then Bytes.unsafe_set tgt v '\001'
  done;
  let r = Array.make (max vertices 1) 0 in
  let dst = Array.make (max degree 1) 0 in
  let lbl = Array.make (max degree 1) 0 in
  let stable = ref false in
  while (not !stable) && !nz > 0 do
    Array.fill r 0 vertices 0;
    let changed = ref true in
    let descending = ref true in
    while !changed do
      changed := false;
      let lo, hi, step = if !descending then (vertices - 1, -1, -1) else (0, vertices, 1) in
      descending := not !descending;
      let v = ref lo in
      while !v <> hi do
        let rv = Array.unsafe_get r !v in
        if Bytes.unsafe_get in_z !v = '\001' && rv <> full then begin
          row !v dst lbl;
          let tv = Bytes.unsafe_get tgt !v = '\001' in
          let acc = ref rv in
          for k = 0 to degree - 1 do
            let w = Array.unsafe_get dst k in
            if Bytes.unsafe_get in_z w = '\001' then
              acc :=
                !acc
                lor Array.unsafe_get r w
                lor (Array.unsafe_get lbl k land lmask)
                lor if tv || Bytes.unsafe_get tgt w = '\001' then bit_p else 0
          done;
          if !acc <> rv then begin
            Array.unsafe_set r !v !acc;
            changed := true
          end
        end;
        v := !v + step
      done
    done;
    stable := true;
    for v = 0 to vertices - 1 do
      if Bytes.unsafe_get in_z v = '\001' && r.(v) <> full then begin
        Bytes.unsafe_set in_z v '\000';
        decr nz;
        stable := false
      end
    done
  done;
  if !nz = 0 then None
  else begin
    let w = ref (-1) in
    let v = ref 0 in
    while !w < 0 && !v < vertices do
      if Bytes.unsafe_get in_z !v = '\001' && Bytes.unsafe_get tgt !v = '\001' then w := !v;
      incr v
    done;
    if !w >= 0 then Some !w
    else begin
      (* unreachable: a full target bit forces a target endpoint inside Z *)
      let v = ref 0 in
      while Bytes.unsafe_get in_z !v <> '\001' do
        incr v
      done;
      Some !v
    end
  end
