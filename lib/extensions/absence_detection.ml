module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Neighbourhood = Dda_machine.Neighbourhood
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module Prng = Dda_util.Prng

type ('l, 's) t = {
  base : ('l, 's) Machine.t;
  initiating : 's -> bool;
  detect : 's -> 's list -> 's;
}

let create ~base ~initiating ~detect = { base; initiating; detect }

(* --- Native synchronous semantics ---------------------------------------- *)

let support_of states = Listx.dedup_sorted Stdlib.compare states

let step ~assign ad g c =
  let n = Config.size c in
  let nodes = Listx.range n in
  (* 1. synchronous neighbourhood transition *)
  let c' = Config.step ad.base g c nodes in
  (* 2. absence detection by every agent now in an initiating state *)
  let initiators = List.filter (fun v -> ad.initiating (Config.state c' v)) nodes in
  if initiators = [] then c (* the computation hangs; the step is discarded *)
  else begin
    let subset_states = Array.make n [] in
    List.iter
      (fun u ->
        let v = assign ~initiators u in
        if not (List.mem v initiators) then
          invalid_arg "Absence_detection.step: assignment chose a non-initiator";
        subset_states.(v) <- Config.state c' u :: subset_states.(v))
      nodes;
    let next = Config.to_array c' in
    List.iter
      (fun v ->
        (* S_v contains v itself plus everything assigned to it *)
        let support = support_of (Config.state c' v :: subset_states.(v)) in
        next.(v) <- ad.detect (Config.state c' v) support)
      initiators;
    Config.of_states next
  end

let simulate_random ~seed ~max_steps ad g =
  let rng = Prng.create seed in
  let c = ref (Config.initial ad.base g) in
  let steps = ref 0 in
  let unchanged = ref 0 in
  (* Stop after a run of unchanged macro-steps: either the computation hangs
     (no initiators) or sampled covers keep fixing the configuration. *)
  let patience = 20 in
  while !unchanged < patience && !steps < max_steps do
    let assign ~initiators _ = Prng.pick rng initiators in
    let c' = step ~assign ad g !c in
    incr steps;
    if Config.equal c' !c then incr unchanged
    else begin
      unchanged := 0;
      c := c'
    end
  done;
  (!c, !steps)

(* --- Exact space over all cover assignments ------------------------------ *)

let space ~max_configs ad g =
  let n = Graph.nodes g in
  let nodes = Listx.range n in
  let expand arr =
    let c = Config.of_states arr in
    let c' = Config.step ad.base g c nodes in
    let initiators = List.filter (fun v -> ad.initiating (Config.state c' v)) nodes in
    let results =
      if initiators = [] then [ arr ]
      else begin
        let assignments = Listx.cartesian_n (List.map (fun _ -> initiators) nodes) in
        List.map
          (fun assignment ->
            let table = List.combine nodes assignment in
            let assign ~initiators:_ u = List.assoc u table in
            Config.to_array (step ~assign ad g c))
          assignments
      end
    in
    let distinct = Listx.dedup_sorted Stdlib.compare results in
    List.map (fun r -> (0, r)) distinct
  in
  Dda_verify.Space.explore_custom ~max_configs ~node_count:n
    ~initial:(Config.to_array (Config.initial ad.base g))
    ~expand
    ~accepting:(Array.for_all ad.base.Machine.accepting)
    ~rejecting:(Array.for_all ad.base.Machine.rejecting)
    ~describe:(fun arr ->
      Format.asprintf "%a" (Config.pp ad.base.Machine.pp_state) (Config.of_states arr))

(* --- Lemma 4.9: distance-labelled three-phase compilation ---------------- *)

type dist = Root | Lab of int

type 's state = D0 of 's | D1 of 's * 's * dist | D2 of 's * 's * 's list

let last = function D0 q -> q | D1 (q, _, _) -> q | D2 (q, _, _) -> q

let pp_dist fmt = function
  | Root -> Format.pp_print_string fmt "root"
  | Lab i -> Format.pp_print_int fmt i

let pp_state pp_base fmt = function
  | D0 q -> pp_base fmt q
  | D1 (q, r, d) -> Format.fprintf fmt "⟨%a←%a|%a⟩" pp_base q pp_base r pp_dist d
  | D2 (q, _, s) ->
    Format.fprintf fmt "⟨%a|{%a}⟩" pp_base q (Listx.pp_list ~sep:"," pp_base) s

let compile ~k ad =
  if k < 1 then invalid_arg "Absence_detection.compile: degree bound must be >= 1";
  let b = ad.base in
  let modulus = (2 * k) + 1 in
  let incr_dist = function Root -> Lab 1 | Lab i -> Lab ((i + 1) mod modulus) in
  (* child S: a label d that is the child of a present label while no present
     label is a child of d (Lemma B.14 guarantees existence for 0<|S|<=k). *)
  let child labels =
    let mem d = List.mem d labels in
    let candidates = List.map incr_dist labels in
    match List.find_opt (fun d -> not (mem (incr_dist d))) candidates with
    | Some d -> d
    | None -> invalid_arg "Absence_detection.compile: no valid child label (degree > k?)"
  in
  let delta s n =
    let d1_labels = List.filter_map (function D1 (_, _, d), _ -> Some d | _ -> None) n in
    let has_d0 = Neighbourhood.exists_where (function D0 _ -> true | _ -> false) n in
    let has_d1 = d1_labels <> [] in
    let has_d2 = Neighbourhood.exists_where (function D2 _ -> true | _ -> false) n in
    match s with
    | D0 q ->
      if has_d2 then s (* neighbour one phase behind: wait *)
      else begin
        (* old(N): the phase-0 state of every neighbour (phase-1 neighbours
           expose their remembered pre-transition state). *)
        let old_nbh =
          Machine.project_neighbourhood ~beta:b.Machine.beta
            (function D0 r -> r | D1 (_, r, _) -> r | D2 (r, _, _) -> r)
            n
        in
        let q' = b.Machine.delta q old_nbh in
        if ad.initiating q' then D1 (q', q, Root) (* rule (1) *)
        else if has_d1 then D1 (q', q, child d1_labels) (* rule (2) *)
        else s (* nobody initiated: hang in phase 0 *)
      end
    | D1 (q, r, d) ->
      if has_d0 then s
      else if List.mem (incr_dist d) d1_labels then s (* children not done *)
      else begin
        let seen =
          List.concat_map (function D2 (_, _, set), _ -> set | _ -> []) n
        in
        D2 (q, r, Listx.dedup_sorted Stdlib.compare (q :: seen)) (* rule (3) *)
      end
    | D2 (q, _, set) ->
      if has_d1 then s
      else if ad.initiating q then D0 (ad.detect q set) (* rule (4) *)
      else D0 q (* rule (5) *)
  in
  let carried = function D0 q -> q | D1 (q, _, _) -> q | D2 (q, _, _) -> q in
  Machine.create
    ~name:(b.Machine.name ^ "+ad")
    ~beta:(max b.Machine.beta 1)
    ~init:(fun l -> D0 (b.Machine.init l))
    ~delta
    ~accepting:(fun s -> b.Machine.accepting (carried s))
    ~rejecting:(fun s -> b.Machine.rejecting (carried s))
    ~pp_state:(pp_state b.Machine.pp_state) ()
