module Machine = Dda_machine.Machine
module Graph = Dda_graph.Graph
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module T = Dda_telemetry.Telemetry

(* Condensation timed as its own span: together with "explore" and
   "verdict" this gives the explore/scc/verdict phase breakdown in traces
   and metrics.  Cold path — one call per analysis. *)
let timed_scc ~vertices ~degree ~succ =
  T.with_span ~args:[ ("vertices", T.I vertices) ] "scc" (fun () ->
      Scc.compute_iter ~vertices ~degree ~succ)

(* The SCCs of a space, read through its edge view. *)
let scc_of space =
  timed_scc ~vertices:space.Space.size ~degree:space.Space.degree ~succ:space.Space.target

type verdict = Accepts | Rejects | Inconsistent of string

type regime = Adversarial | Pseudo_stochastic

let verdict_bool = function
  | Accepts -> Some true
  | Rejects -> Some false
  | Inconsistent _ -> None

let pp_verdict fmt = function
  | Accepts -> Format.pp_print_string fmt "accepts"
  | Rejects -> Format.pp_print_string fmt "rejects"
  | Inconsistent w -> Format.fprintf fmt "inconsistent (%s)" w

(* ------------------------------------------------------------------ *)
(* Resident analyses                                                    *)
(*                                                                      *)
(* Every space exposes one indexed edge view ([Space.degree/target/     *)
(* label]); the analyses below run on it with the allocation-free       *)
(* Tarjan and per-component int/bool arrays.  Witnesses are the least   *)
(* qualifying member of the first qualifying component, so they do not  *)
(* depend on how the edges are stored.                                  *)
(* ------------------------------------------------------------------ *)

(* One pass over a space's components, read by the bottom-SCC verdict and
   its certificate paths: per component, whether it is bottom (no edge
   leaves it), all-accepting, all-rejecting, and its least non-accepting
   member (-1: none). *)
type components = {
  comp : int array;
  bottom : bool array;
  all_acc : bool array;
  all_rej : bool array;
  least_non_acc : int array;
}

let components space =
  let Space.{ size; degree; target; accepting; rejecting; _ } = space in
  let scc = scc_of space in
  let comp = scc.Scc.comp and nc = scc.Scc.comp_count in
  let bottom = Array.make nc true and least_non_acc = Array.make nc (-1) in
  let all_acc = Array.make nc true and all_rej = Array.make nc true in
  for i = size - 1 downto 0 do
    let c = comp.(i) in
    for k = 0 to degree i - 1 do
      if comp.(target i k) <> c then bottom.(c) <- false
    done;
    if not (accepting i) then begin
      all_acc.(c) <- false;
      least_non_acc.(c) <- i (* downward loop: ends at the least member *)
    end;
    if not (rejecting i) then all_rej.(c) <- false
  done;
  { comp; bottom; all_acc; all_rej; least_non_acc }

(* Bottom-SCC classification over a space's edge view: the one body behind
   explicit and counted resident spaces.  The witness is the least
   non-accepting member of the first mixed bottom component. *)
let bottom_scc_verdict space =
  let c = components space in
  let mixed = ref None in
  let accs = ref false in
  let rejs = ref false in
  for k = 0 to Array.length c.bottom - 1 do
    if c.bottom.(k) then
      if c.all_acc.(k) then accs := true
      else if c.all_rej.(k) then rejs := true
      else if !mixed = None then mixed := Some c.least_non_acc.(k)
  done;
  match !mixed with
  | Some w ->
    Inconsistent
      (Printf.sprintf "bottom SCC neither all-accepting nor all-rejecting, e.g. %s"
         (space.Space.describe w))
  | None ->
    if !accs && !rejs then
      Inconsistent "some pseudo-stochastic fair runs accept while others reject"
    else if !accs then Accepts
    else if !rejs then Rejects
    else Inconsistent "no bottom SCC found"

(* The one Streett kernel: a round-based peel over per-vertex obligations.
   Vertex [v] owes the [owes v] distinct slots among [slot v 0 .. slot v
   (degree v - 1)], all below [slots]; a strongly connected set is
   fair-supporting iff its internal edges' slots cover every member's
   obligations.  Each round runs one Tarjan pass over the live vertices
   (dead ones keep no edges, so they are isolated singletons), then per
   component: no internal edge — drop it whole; every member covered — it
   is a maximal fair-supporting set: take its least witnesses and retire
   it; otherwise drop the uncovered members.  Any fair-supporting subgraph
   survives every peel (its internal slots are a subset of each enclosing
   component's), and removing whole components leaves the others intact,
   so the rounds stop once no component was split.  A member owing more
   slots than the component covers is dropped, and one in a component
   covering all [slots] kept, without reading its row: explicit rows owe
   every slot, so there each component is kept or dropped whole and the
   first round (one Tarjan, one coverage pass) is the last.

   Returns the last round's components and the least non-accepting and
   non-rejecting members of the first fair-supporting components holding
   one (-1: none). *)
let streett ~vertices ~slots ~degree ~target ~slot ~owes ~accepting ~rejecting =
  let live = Bytes.make vertices '\001' and covered = Bytes.make slots '\000' in
  let alive v = Bytes.get live v = '\001' in
  let rec unmet v e = e < degree v && (Bytes.get covered (slot v e) = '\000' || unmet v (e + 1)) in
  let met = Array.make slots 0 (* the slots covered so far, to clear *) in
  let order = Array.make vertices 0 in
  let non_acc = ref (-1) and non_rej = ref (-1) and comp = ref [||] in
  let peeled = ref false and split = ref true in
  while !split && (!non_acc < 0 || !non_rej < 0) do
    split := false;
    let live_degree = if !peeled then fun v -> if alive v then degree v else 0 else degree in
    peeled := true;
    let scc = timed_scc ~vertices ~degree:live_degree ~succ:target in
    let cmp = scc.Scc.comp and nc = scc.Scc.comp_count in
    comp := cmp;
    (* live members grouped by component, ascending within each *)
    let first = Array.make (nc + 1) 0 in
    for v = 0 to vertices - 1 do
      if alive v then first.(cmp.(v) + 1) <- first.(cmp.(v) + 1) + 1
    done;
    for k = 1 to nc do first.(k) <- first.(k) + first.(k - 1) done;
    let fill = Array.sub first 0 nc in
    for v = 0 to vertices - 1 do
      if alive v then begin
        order.(fill.(cmp.(v))) <- v;
        fill.(cmp.(v)) <- fill.(cmp.(v)) + 1
      end
    done;
    for k = 0 to nc - 1 do
      let lo = first.(k) and hi = first.(k + 1) in
      if lo < hi && (!non_acc < 0 || !non_rej < 0) then begin
        let count = ref 0 in
        for x = lo to hi - 1 do
          let v = order.(x) in
          for e = 0 to degree v - 1 do
            (* a dead target is a singleton, never component [k] *)
            if cmp.(target v e) = k then begin
              let s = slot v e in
              if Bytes.get covered s = '\000' then begin
                Bytes.set covered s '\001';
                met.(!count) <- s;
                incr count
              end
            end
          done
        done;
        let count = !count and dropped = ref 0 in
        for x = lo to hi - 1 do
          let v = order.(x) in
          if count = 0 || count < owes v || (count < slots && unmet v 0) then begin
            Bytes.set live v '\000';
            incr dropped
          end
        done;
        if !dropped = 0 then
          for x = lo to hi - 1 do
            let v = order.(x) in
            if !non_acc < 0 && not (accepting v) then non_acc := v;
            if !non_rej < 0 && not (rejecting v) then non_rej := v;
            Bytes.set live v '\000'
          done
        else if !dropped < hi - lo then split := true;
        for i = 0 to count - 1 do
          Bytes.set covered met.(i) '\000'
        done
      end
    done
  done;
  (!comp, !non_acc, !non_rej)

(* What a fair cycle owes: every node label (adversarial fairness), or
   only some edge (unconditional: every cycle is the tail of a run). *)
type obligation = Node_labels | Any_edge

(* The kernel on a space, witnesses as configurations.  Under [Any_edge]
   every edge meets the one obligation (slot 0), on every kind of space.
   Under [Node_labels] an explicit row owes every node (slot = label = the
   selected node), a counted row the states it moves (labels >= -1, -1 the
   star centre's move, shifted by one).  A symmetry quotient's own labels
   are not sound for [Node_labels] — merging orbit members conflates which
   node a selection hits — so [quotient_fair_witnesses] decides those. *)
let fair_sets obligation space =
  let Space.{ size; node_count = n; degree; target; label; accepting; rejecting; _ } = space in
  let slots, slot, owes =
    match (obligation, space.Space.kind) with
    | Any_edge, _ -> (1, (fun _ _ -> 0), fun _ -> 1)
    | Node_labels, Space.Explicit -> (n, label, fun _ -> n)
    | Node_labels, Space.Counted ->
      let top = ref 0 in
      for v = 0 to size - 1 do
        for k = 0 to degree v - 1 do top := max !top (label v k + 1) done
      done;
      (!top + 1, (fun v k -> label v k + 1), degree)
    | Node_labels, Space.Opaque ->
      invalid_arg "Decide.adversarial: needs an explicit or counted space (edge labels as obligations)"
  in
  let comp, non_acc, non_rej =
    streett ~vertices:size ~slots ~degree ~target ~slot ~owes ~accepting ~rejecting
  in
  let found v = if v < 0 then None else Some v in
  (comp, found non_acc, found non_rej)

(* The adversarial question on a symmetry quotient, on its own SCCs (the
   proof is in doc/INTERNALS.md).  A BFS over component C's internal edges
   gives each member a potential (tree edge R -> R', element s: pi R' =
   pi R . s); each other one adds the generator h = pi R . s . (pi R')^-1
   of C's monodromy group H, kept as the node moves of p_h.  C is fair iff
   the H-orbits of its potential-permuted labels are every node. *)
let quotient_fair_witnesses g ~sigma space =
  let Space.{ size; node_count = n; degree; target; label; accepting; rejecting; _ } = space in
  let mul = Symmetry.mul g and perms = Symmetry.perms g and comp = (scc_of space).Scc.comp in
  let pot = Array.make size (-1) and queue = Array.make size 0 in
  (* the first fair component's least members, as c * size + member *)
  let full = (1 lsl n) - 1 and non_acc = ref max_int and non_rej = ref max_int in
  for root = 0 to size - 1 do
    if pot.(root) < 0 then begin
      let c = comp.(root) and len = ref 1 and head = ref 0 and mask = ref 0 in
      let acc = ref size and rej = ref size in
      let moves = Array.make n 0 (* moves.(l): the nodes some generator sends l to *) in
      pot.(root) <- 0;
      queue.(0) <- root;
      while !head < !len do
        let u = queue.(!head) in
        incr head;
        if u < !acc && not (accepting u) then acc := u;
        if u < !rej && not (rejecting u) then rej := u;
        for k = 0 to degree u - 1 do
          let w = target u k in
          if comp.(w) = c then begin
            mask := !mask lor (1 lsl perms.(pot.(u)).(label u k));
            let t = mul.(pot.(u)).(sigma u k) in
            if pot.(w) < 0 then begin
              pot.(w) <- t;
              queue.(!len) <- w;
              incr len
            end
            else (* p_h sends p_{pi w}(m) to p_t(m) *)
              let pw = perms.(pot.(w)) and pt = perms.(t) in
              for m = 0 to n - 1 do moves.(pw.(m)) <- moves.(pw.(m)) lor (1 lsl pt.(m)) done
          end
        done
      done;
      for _ = 2 to n do
        for l = 0 to n - 1 do if !mask land (1 lsl l) <> 0 then mask := !mask lor moves.(l) done
      done;
      if !mask = full then begin
        if !acc < size then non_acc := min !non_acc ((c * size) + !acc);
        if !rej < size then non_rej := min !non_rej ((c * size) + !rej)
      end
    end
  done;
  let found x = if x = max_int then None else Some (x mod size) in
  (found !non_acc, found !non_rej)

(* The verdict from a non-accepting and a non-rejecting configuration on
   fair cycles, if any; each regime (and counted spaces under adversarial
   fairness) keeps its own inconsistency texts. *)
let cycle_verdict ~both ~neither describe = function
  | None, Some _ -> Accepts
  | Some _, None -> Rejects
  | Some i, Some j -> Inconsistent (Printf.sprintf both (describe i) (describe j))
  | None, None -> Inconsistent neither

(* ------------------------------------------------------------------ *)
(* Streaming paths                                                      *)
(*                                                                      *)
(* External-memory spaces keep their CSR in spillable arenas, and        *)
(* Tarjan's DFS order is the worst case for an LRU of segments.  The     *)
(* analyses below re-derive the same three verdicts from edge-sweep      *)
(* primitives (Scc.backward_reach / Scc.fair_cycle) that touch each      *)
(* segment at most once per sweep.  Verdict constructors always agree    *)
(* with the resident analyses (the spilled-vs-resident differential      *)
(* checks this); witness examples may differ, since no condensation is   *)
(* materialised to pick canonical members from.                          *)
(* ------------------------------------------------------------------ *)

let timed_streaming ~vertices f =
  T.with_span ~args:[ ("vertices", T.I vertices); ("mode", T.S "streaming") ] "scc" f

(* Bottom-SCC classification without the condensation:
   - an all-accepting bottom SCC exists iff some configuration cannot reach
     a non-accepting one (then everything below it is accepting, including
     its bottom SCC; conversely any member of such a bottom qualifies);
   - dually for all-rejecting;
   - a mixed bottom SCC exists iff some configuration cannot reach the set
     S = { j : j cannot reach a non-accepting, or cannot reach a
     non-rejecting }: below such a configuration every j reaches both
     polarities, so every bottom SCC below it contains both; conversely any
     member of a mixed bottom cannot leave it, and inside it S is empty. *)
let streaming_pseudo_stochastic e describe =
  let sz = e.Engine.size in
  let targets = Engine.targets_reader e in
  let reach seed =
    Scc.backward_reach ~vertices:sz ~degree:e.Engine.node_count
      ~row:(fun i dst _ -> targets i dst)
      ~seed
  in
  timed_streaming ~vertices:sz (fun () ->
      let na = reach (fun i -> not (Engine.acc e i)) in
      let nr = reach (fun i -> not (Engine.rej e i)) in
      let pure j = Bytes.get na j = '\000' || Bytes.get nr j = '\000' in
      let rs = reach pure in
      let mixed = ref None in
      let accs = ref false in
      let rejs = ref false in
      for i = sz - 1 downto 0 do
        if Bytes.get rs i = '\000' then mixed := Some i;
        if Bytes.get na i = '\000' then accs := true;
        if Bytes.get nr i = '\000' then rejs := true
      done;
      match !mixed with
      | Some w ->
        Inconsistent
          (Printf.sprintf
             "fair runs from %s settle into a bottom SCC that is neither all-accepting nor \
              all-rejecting"
             (describe w))
      | None ->
        if !accs && !rejs then
          Inconsistent "some pseudo-stochastic fair runs accept while others reject"
        else if !accs then Accepts
        else if !rejs then Rejects
        else Inconsistent "no bottom SCC found")

(* The fair-cycle question as two sweeps, one per polarity: a cycle owing
   [obligation] through a non-accepting (resp. non-rejecting) vertex.
   [Node_labels] asks it of the lift (see [quotient_fair_witnesses]),
   whose cycles must carry all [n] node labels; lifted row (R, t) is built
   from R's target and sigma rows, read once for the [ord] consecutive
   lifted vertices that share R.  [Any_edge] asks it of the space's own
   rows with no labels. *)
let streaming_fair_cycles obligation e =
  let n = e.Engine.node_count in
  let targets = Engine.targets_reader e in
  let ord, labels, row =
    match (obligation, e.Engine.symmetry) with
    | Any_edge, _ -> (1, 0, fun i dst _ -> targets i dst)
    | Node_labels, None ->
      (* the lift is the space itself: rows straight from the reader *)
      let bits = Array.init n (fun k -> 1 lsl k) in
      ( 1,
        n,
        fun i dst lbl ->
          targets i dst;
          Array.blit bits 0 lbl 0 n )
    | Node_labels, Some g ->
      let ord = Symmetry.order g and mul = Symmetry.mul g in
      let bits = Array.map (Array.map (fun l -> 1 lsl l)) (Symmetry.perms g) in
      let sigmas = Engine.sigmas_reader e in
      let tr = Array.make n 0 and sr = Array.make n 0 in
      let cur = ref (-1) in
      ( ord,
        n,
        fun x dst lbl ->
          let i = x / ord and t = x mod ord in
          if i <> !cur then begin
            targets i tr;
            sigmas i sr;
            cur := i
          end;
          let mt = mul.(t) in
          for k = 0 to n - 1 do
            dst.(k) <- (tr.(k) * ord) + mt.(sr.(k))
          done;
          Array.blit bits.(t) 0 lbl 0 n )
  in
  let sz = e.Engine.size * ord in
  let cycle target =
    Option.map (fun x -> x / ord) (Scc.fair_cycle ~vertices:sz ~degree:n ~row ~labels ~target)
  in
  timed_streaming ~vertices:sz (fun () ->
      let non_acc = cycle (fun x -> not (Engine.acc e (x / ord))) in
      (non_acc, cycle (fun x -> not (Engine.rej e (x / ord)))))

(* A non-accepting and a non-rejecting configuration on fair cycles owing
   [obligation], if any: streaming sweeps on spilled spaces, the quotient
   pass on resident reduced ones under [Node_labels], else the kernel. *)
let fair_witnesses obligation space =
  match space.Space.engine with
  | Some e when Engine.spilled e -> streaming_fair_cycles obligation e
  | Some ({ Engine.symmetry = Some g; _ } as e) when obligation = Node_labels ->
    quotient_fair_witnesses g ~sigma:(Engine.edge_sigma e) space
  | _ ->
    let _, non_acc, non_rej = fair_sets obligation space in
    (non_acc, non_rej)

let pseudo_stochastic space =
  T.with_span ~args:[ ("analysis", T.S "pseudo-stochastic") ] "verdict" (fun () ->
      match space.Space.engine with
      | Some e when Engine.spilled e -> streaming_pseudo_stochastic e space.Space.describe
      | _ -> bottom_scc_verdict space)

let pseudo_stochastic_certificate space =
  let n = space.Space.size in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    for k = 0 to space.Space.degree i - 1 do
      let j = space.Space.target i k in
      preds.(j) <- i :: preds.(j)
    done
  done;
  (* reach.(i) <- configuration i reaches some configuration in [bad] *)
  let backward bad =
    let reach = Array.init n bad in
    let queue = Queue.create () in
    Array.iteri (fun i r -> if r then Queue.add i queue) reach;
    while not (Queue.is_empty queue) do
      List.iter
        (fun i ->
          if not reach.(i) then begin
            reach.(i) <- true;
            Queue.add i queue
          end)
        preds.(Queue.pop queue)
    done;
    reach
  in
  let spoils_accept = backward (fun i -> not (space.Space.accepting i)) in
  let spoils_reject = backward (fun i -> not (space.Space.rejecting i)) in
  (* every explored configuration is reachable from the initial one *)
  let certificate wanted spoils = List.exists (fun i -> wanted i && not spoils.(i)) (Listx.range n) in
  match
    ( certificate space.Space.accepting spoils_accept,
      certificate space.Space.rejecting spoils_reject )
  with
  | true, false -> Accepts
  | false, true -> Rejects
  | true, true -> Inconsistent "both an accepting and a rejecting certificate exist"
  | false, false ->
    Inconsistent "no certificate: every configuration can still be diverted"

let adversarial_witness space ~against =
  if space.Space.kind <> Space.Explicit || space.Space.node_count > 62 || Space.is_reduced space
  then
    invalid_arg
      "Decide.adversarial_witness: needs an explicit space of at most 62 nodes, unreduced \
       (selections in a quotient do not replay); explore without symmetry";
  let ( let* ) = Option.bind in
  let comp, non_acc, non_rej = fair_sets Node_labels space in
  let* bad = match against with `Accepting -> non_acc | `Rejecting -> non_rej in
  (* every piece of the lasso after the prefix stays inside bad's component *)
  let inside i = comp.(i) = comp.(bad) in
  let path_inside source goal =
    Option.map fst (Space.shortest_path space ~from:source ~within:inside ~goal:(( = ) goal))
  in
  let* prefix, entry = Space.shortest_path space ~goal:inside in
  (* the internal edge selecting node [v] out of the least member having one *)
  let rec edge_for v i =
    if i = space.Space.size then None
    else if inside i && inside (space.Space.target i v) then Some (i, space.Space.target i v)
    else edge_for v (i + 1)
  in
  (* stitch a cycle from [entry]: an internal edge for every node, then
     [bad], then back to [entry] *)
  let rec stitch at v acc =
    if v < space.Space.node_count then
      let* x, y = edge_for v 0 in
      let* hop = path_inside at x in
      stitch y (v + 1) (acc @ hop @ [ v ])
    else
      let* to_bad = path_inside at bad in
      let* home = path_inside bad entry in
      Some (prefix, acc @ to_bad @ home)
  in
  stitch entry 0 []

let certificate_path space target =
  let c = components space in
  let wanted = match target with `Accepting -> c.all_acc | `Rejecting -> c.all_rej in
  Space.shortest_path space ~goal:(fun i -> c.bottom.(c.comp.(i)) && wanted.(c.comp.(i)))

let unconditional space =
  T.with_span ~args:[ ("analysis", T.S "unconditional") ] "verdict" (fun () ->
      cycle_verdict ~both:"runs can loop through non-accepting %s and non-rejecting %s"
        ~neither:"no cycle found (space must model idling as self-loops)" space.Space.describe
        (fair_witnesses Any_edge space))

(* Explicit spaces keep the sweeps' bound (a cycle's labels are the bits
   of one int) whether or not they spill; counted spaces have none. *)
let adversarial space =
  if space.Space.kind = Space.Explicit && space.Space.node_count > 62 then
    invalid_arg "Decide.adversarial: more than 62 nodes";
  T.with_span ~args:[ ("analysis", T.S "adversarial") ] "verdict" (fun () ->
      cycle_verdict
        ~both:
          (if space.Space.kind = Space.Counted then
             "fair runs can revisit the non-accepting configuration %s and the non-rejecting \
              configuration %s forever"
           else "fair runs revisit non-accepting %s and non-rejecting %s configurations")
        ~neither:"no fair cycle found (should be impossible)" space.Space.describe
        (fair_witnesses Node_labels space))

let for_regime regime space =
  match regime with
  | Adversarial -> adversarial space
  | Pseudo_stochastic -> pseudo_stochastic space

let synchronous ~max_steps m g =
  let seen = Hashtbl.create 256 in
  let rec go c step acc =
    if step > max_steps then None
    else begin
      let key = Config.to_array c in
      match Hashtbl.find_opt seen key with
      | Some first ->
        (* Cycle: configurations from index [first] to [step - 1]. *)
        let cycle = List.filter_map (fun (i, cfg) -> if i >= first then Some cfg else None) acc in
        let verdicts = List.map (Config.verdict m) cycle in
        if List.for_all (fun v -> v = `Accepting) verdicts then Some Accepts
        else if List.for_all (fun v -> v = `Rejecting) verdicts then Some Rejects
        else
          Some
            (Inconsistent
               "the synchronous run neither stabilises to acceptance nor to rejection")
      | None ->
        Hashtbl.add seen key step;
        let all = Listx.range (Graph.nodes g) in
        go (Config.step m g c all) (step + 1) ((step, c) :: acc)
    end
  in
  go (Config.initial m g) 0 []
