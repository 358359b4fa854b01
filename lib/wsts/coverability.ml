module M = Dda_multiset.Multiset
module Machine = Dda_machine.Machine
module Listx = Dda_util.Listx
module T = Dda_telemetry.Telemetry

let c_candidates = T.counter "wsts.pre.candidates"
let c_grown = T.counter "wsts.basis.grown"
let c_width = T.counter "wsts.basis.width"

exception Too_large of int

type 's config = { centre : 's; leaves : 's M.t }

let config ~centre ~leaves = { centre; leaves = M.of_counts leaves }

let size c = 1 + M.size c.leaves

let leq c1 c2 = c1.centre = c2.centre && M.star_leq c1.leaves c2.leaves

let pp pp_state fmt c =
  Format.fprintf fmt "⟨%a | %a⟩" pp_state c.centre (M.pp pp_state) c.leaves

(* --- Upward-closed sets --------------------------------------------------- *)

type 's basis = 's config list

let basis_insert c basis =
  if List.exists (fun b -> leq b c) basis then (basis, false)
  else ((c :: List.filter (fun b -> not (leq c b)) basis), true)

let basis_of_list l = List.fold_left (fun b c -> fst (basis_insert c b)) [] l
let basis_elements b = b
let covers basis c = List.exists (fun b -> leq b c) basis

(* --- Star semantics -------------------------------------------------------- *)

let check_non_counting m =
  if not (Machine.non_counting m) then
    invalid_arg "Coverability: the star WSTS requires a non-counting machine (β = 1)"

let leaf_image m centre q = m.Machine.delta q [ (centre, 1) ]

let centre_image m centre support = m.Machine.delta centre (List.map (fun q -> (q, 1)) support)

let successors ~states:_ m c =
  check_non_counting m;
  let leaf_moves =
    List.filter_map
      (fun (q, _) ->
        let q' = leaf_image m c.centre q in
        if q' = q then None
        else Some { c with leaves = M.add q' (M.remove q c.leaves) })
      (M.to_counts c.leaves)
  in
  let centre' = centre_image m c.centre (M.support c.leaves) in
  let centre_moves = if centre' = c.centre then [] else [ { c with centre = centre' } ] in
  leaf_moves @ centre_moves

let reachable_covers ?(max_configs = 100_000) ~states m ~from target_basis =
  check_non_counting m;
  let seen = Hashtbl.create 256 in
  let key c = (c.centre, M.to_counts c.leaves) in
  let queue = Queue.create () in
  Queue.add from queue;
  Hashtbl.add seen (key from) ();
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if covers target_basis c then found := true
    else
      List.iter
        (fun c' ->
          if not (Hashtbl.mem seen (key c')) then begin
            if Hashtbl.length seen >= max_configs then raise (Too_large (Hashtbl.length seen));
            Hashtbl.add seen (key c') ();
            Queue.add c' queue
          end)
        (successors ~states m c)
  done;
  !found

(* --- Backward coverability -------------------------------------------------- *)

(* Minimal one-step predecessors of the upward closure of [m]: candidates are
   generated per transition shape and filtered by a direct step check. *)
let pre_basis ~states machine m =
  let candidates = ref [] in
  (* centre moves: any centre c whose presence-observation of supp(y) maps to
     the target centre; the leaves are untouched. *)
  let support = M.support m.leaves in
  List.iter
    (fun c ->
      if c <> m.centre && centre_image machine c support = m.centre then
        candidates := { m with centre = c } :: !candidates)
    states;
  (* leaf moves q → q' (enabled under the unchanged centre): the moved leaf
     ends in q', so covering requires q' present in the target.  Minimal
     predecessors exist in two strata: the moved leaf was the last one in q'
     (z = y + e_q - e_q'), or others remain (z = y + e_q). *)
  List.iter
    (fun q ->
      let q' = leaf_image machine m.centre q in
      if q' <> q && M.count m.leaves q' >= 1 then begin
        let base = M.add q m.leaves in
        List.iter
          (fun z ->
            let stepped = { m with leaves = M.add q' (M.remove q z) } in
            if leq m stepped then candidates := { m with leaves = z } :: !candidates)
          [ M.remove q' base; base ]
      end)
    states;
  !candidates

let basis_width b =
  List.fold_left (fun acc c -> max acc (size c)) 1 (basis_elements b)

let pre_star ~states machine targets =
  check_non_counting machine;
  T.with_span
    ~args:
      [
        ("targets", T.I (List.length targets));
        ("states", T.I (List.length states));
      ]
    "wsts.pre_star"
  @@ fun () ->
  let basis = ref (basis_of_list targets) in
  let queue = Queue.create () in
  List.iter (fun c -> Queue.add c queue) (basis_elements !basis);
  while not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    (* m may have been removed from the basis by a smaller later element;
       processing it anyway is sound (its predecessors are covered). *)
    let candidates = pre_basis ~states machine m in
    T.add c_candidates (List.length candidates);
    List.iter
      (fun cand ->
        let basis', grew = basis_insert cand !basis in
        basis := basis';
        if grew then begin
          T.incr c_grown;
          Queue.add cand queue
        end)
      candidates
  done;
  T.max_gauge c_width (basis_width !basis);
  !basis

let strata_targets ~states keep =
  (* one minimal configuration per (centre, non-empty support) stratum that
     satisfies [keep] *)
  if List.length states > 14 then
    invalid_arg "Coverability: state space too large for stratum enumeration";
  let supports =
    List.filter (fun s -> s <> []) (List.fold_left (fun acc q -> acc @ List.map (fun s -> q :: s) acc) [ [] ] states)
  in
  List.concat_map
    (fun centre ->
      List.filter_map
        (fun support ->
          if keep centre support then
            Some { centre; leaves = M.of_list support }
          else None)
        supports)
    states

let non_rejecting_targets ~states m =
  strata_targets ~states (fun centre support ->
      (not (m.Machine.rejecting centre)) || List.exists (fun q -> not (m.Machine.rejecting q)) support)

let non_accepting_targets ~states m =
  strata_targets ~states (fun centre support ->
      (not (m.Machine.accepting centre)) || List.exists (fun q -> not (m.Machine.accepting q)) support)

let stably_rejecting ~states:_ _m pre c = not (covers (Lazy.force pre) c)

let cutoff_of_width ~states width = (width * (List.length states - 1)) + 2

let cutoff_bound ~states m =
  let widest targets = basis_width (pre_star ~states m targets) in
  let m_rej = widest (non_rejecting_targets ~states m) in
  let m_acc = widest (non_accepting_targets ~states m) in
  cutoff_of_width ~states (max m_rej m_acc)

(* NOTE: this machinery deliberately does NOT offer a clique variant.  The
   paper remarks (proof of Lemma 3.5) that the buddy argument "does not
   extend to e.g. cliques": on a clique, the last agent leaving a state
   changes the presence observation of every other agent, so the stratified
   order is not compatible with the step relation there.  Counted clique
   spaces (Dda_symbolic.Counted.clique) are the right tool for cliques. *)
