module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Neighbourhood = Dda_machine.Neighbourhood
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module Prng = Dda_util.Prng

type ('l, 's) t = {
  base : ('l, 's) Machine.t;
  initiate : 's -> ('s * int) option;
  respond : int -> 's -> 's;
  response_count : int;
}

let create ~base ~initiate ~respond ~response_count = { base; initiate; respond; response_count }

(* --- Native semantics --------------------------------------------------- *)

let step_neighbourhood wb g c v =
  if wb.initiate (Config.state c v) <> None then c else Config.step wb.base g c [ v ]

let check_independent g s =
  List.iter
    (fun u ->
      List.iter
        (fun v -> if u <> v && Graph.adjacent g u v then
            invalid_arg "Weak_broadcast.step_broadcast: selection is not independent")
        s)
    s

let step_broadcast ~choose wb g c s =
  check_independent g s;
  let initiators = List.filter (fun v -> wb.initiate (Config.state c v) <> None) s in
  if initiators = [] then c
  else begin
    let n = Config.size c in
    let states = Config.to_array c in
    let next = Array.make n (Config.state c 0) in
    for v = 0 to n - 1 do
      if List.mem v initiators then begin
        match wb.initiate states.(v) with
        | Some (q', _) -> next.(v) <- q'
        | None -> assert false
      end
      else begin
        let w = choose ~node:v ~initiators in
        if not (List.mem w initiators) then
          invalid_arg "Weak_broadcast.step_broadcast: responder chose a non-initiator";
        match wb.initiate states.(w) with
        | Some (_, fid) -> next.(v) <- wb.respond fid states.(v)
        | None -> assert false
      end
    done;
    Config.of_states next
  end

(* A configuration is quiescent iff every non-initiating agent's
   neighbourhood move is silent and every initiator's broadcast (with any
   responder choice) changes nothing.  The latter reduces to: the initiator
   stays put and its response function fixes every other agent's state. *)
let native_quiescent wb g c =
  let n = Config.size c in
  let nodes = Listx.range n in
  List.for_all
    (fun v ->
      match wb.initiate (Config.state c v) with
      | None -> Config.state (Config.step wb.base g c [ v ]) v = Config.state c v
      | Some (q', fid) ->
        q' = Config.state c v
        && List.for_all
             (fun u -> u = v || wb.respond fid (Config.state c u) = Config.state c u)
             nodes)
    nodes

let random_independent_initiators rng wb g c =
  let n = Config.size c in
  let candidates =
    List.filter (fun v -> wb.initiate (Config.state c v) <> None) (Listx.range n)
  in
  let shuffled = Prng.shuffle_list rng candidates in
  (* Greedy independent set over a random order... *)
  let maximal =
    List.fold_left
      (fun acc v -> if List.exists (fun u -> Graph.adjacent g u v) acc then acc else v :: acc)
      [] shuffled
  in
  (* ... then a uniformly random non-empty prefix: weak broadcasts allow ANY
     non-empty independent set, and always choosing a maximal one starves
     essential single-initiator interleavings (e.g. two level-1 agents on
     opposite sides of a cycle would forever broadcast simultaneously and
     never bump each other). *)
  match maximal with
  | [] -> []
  | _ -> Dda_util.Listx.take (1 + Prng.int rng (List.length maximal)) maximal

let simulate_random ~seed ~max_steps wb g =
  let rng = Prng.create seed in
  let n = Graph.nodes g in
  let c = ref (Config.initial wb.base g) in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    if native_quiescent wb g !c then continue := false
    else begin
      incr steps;
      if Prng.bool rng then c := step_neighbourhood wb g !c (Prng.int rng n)
      else begin
        match random_independent_initiators rng wb g !c with
        | [] -> c := step_neighbourhood wb g !c (Prng.int rng n)
        | initiators ->
          let choose ~node:_ ~initiators = Prng.pick rng initiators in
          c := step_broadcast ~choose wb g !c initiators
      end
    end
  done;
  (!c, !steps)

(* --- Exact configuration space ------------------------------------------ *)

let nonempty_independent_subsets g nodes =
  let rec go = function
    | [] -> [ [] ]
    | v :: rest ->
      let without = go rest in
      let with_v =
        List.filter_map
          (fun s ->
            if List.exists (fun u -> Graph.adjacent g u v) s then None else Some (v :: s))
          without
      in
      with_v @ without
  in
  List.filter (fun s -> s <> []) (go nodes)

let successors wb g c =
  let n = Graph.nodes g in
  let nodes = Listx.range n in
  let neighbourhood_moves =
    List.filter_map
      (fun v ->
        let c' = step_neighbourhood wb g c v in
        if Config.equal c c' then None else Some c')
      nodes
  in
  let initiators_present =
    List.filter (fun v -> wb.initiate (Config.state c v) <> None) nodes
  in
  let broadcast_moves =
    List.concat_map
      (fun s ->
        (* Enumerate all responder assignments, as functions node -> chosen
           initiator.  Deduplicate by the resulting configuration. *)
        let responders = List.filter (fun v -> not (List.mem v s)) nodes in
        let assignments = Listx.cartesian_n (List.map (fun _ -> s) responders) in
        List.filter_map
          (fun assignment ->
            let table = List.combine responders assignment in
            let choose ~node ~initiators:_ = List.assoc node table in
            let c' = step_broadcast ~choose wb g c s in
            if Config.equal c c' then None else Some c')
          assignments)
      (nonempty_independent_subsets g initiators_present)
  in
  List.map Config.of_states
    (Listx.dedup_sorted Stdlib.compare
       (List.map Config.to_array (neighbourhood_moves @ broadcast_moves)))

let space ~max_configs wb g =
  Dda_verify.Space.explore_custom ~max_configs
    ~node_count:(Graph.nodes g)
    ~initial:(Config.to_array (Config.initial wb.base g))
    ~expand:(fun arr ->
      List.map (fun c' -> (0, Config.to_array c')) (successors wb g (Config.of_states arr)))
    ~accepting:(Array.for_all wb.base.Machine.accepting)
    ~rejecting:(Array.for_all wb.base.Machine.rejecting)
    ~describe:(fun arr ->
      Format.asprintf "%a" (Config.pp wb.base.Machine.pp_state) (Config.of_states arr))

(* --- Lemma 4.7: the three-phase compilation ------------------------------ *)

type 's state = Base of 's | Mid of 's * int * int

let pp_state pp_base fmt = function
  | Base q -> pp_base fmt q
  | Mid (q, phase, fid) -> Format.fprintf fmt "⟨%a|p%d|f%d⟩" pp_base q phase fid

let compile wb =
  let b = wb.base in
  let phase_of = function Base _ -> 0 | Mid (_, p, _) -> p in
  let delta s n =
    let phase1 = Neighbourhood.exists_where (fun t -> phase_of t = 1) n in
    let phase2 = Neighbourhood.exists_where (fun t -> phase_of t = 2) n in
    match s with
    | Base q ->
      if phase2 then s (* a neighbour is one phase behind: wait (Def B.2(1)) *)
      else if phase1 then begin
        (* rule (3): respond to the broadcast chosen by g(N) — the smallest
           response id among phase-1 neighbours, for determinism. *)
        let fids =
          List.filter_map (function Mid (_, 1, f), _ -> Some f | _ -> None) n
        in
        let fid = List.fold_left min (List.hd fids) fids in
        Mid (wb.respond fid q, 1, fid)
      end
      else begin
        match wb.initiate q with
        | Some (q', fid) -> Mid (q', 1, fid) (* rule (2): initiate *)
        | None ->
          (* rule (1): ordinary neighbourhood transition of the base machine *)
          let project =
            Machine.project_neighbourhood ~beta:b.Machine.beta
              (function Base q0 -> q0 | Mid (q0, _, _) -> q0)
              n
          in
          Base (b.Machine.delta q project)
      end
    | Mid (q, 1, fid) ->
      (* rule (4): advance once no neighbour remains in phase 0 *)
      if Neighbourhood.exists_where (fun t -> phase_of t = 0) n then s else Mid (q, 2, fid)
    | Mid (q, 2, _) ->
      (* rule (5): return to phase 0 once no neighbour remains in phase 1 *)
      if phase1 then s else Base q
    | Mid (q, p, fid) ->
      ignore (q, p, fid);
      s
  in
  let carried = function Base q -> q | Mid (q, _, _) -> q in
  Machine.create
    ~name:(b.Machine.name ^ "+wb")
    ~beta:b.Machine.beta
    ~init:(fun l -> Base (b.Machine.init l))
    ~delta
    ~accepting:(fun s -> b.Machine.accepting (carried s))
    ~rejecting:(fun s -> b.Machine.rejecting (carried s))
    ~pp_state:(pp_state b.Machine.pp_state) ()
