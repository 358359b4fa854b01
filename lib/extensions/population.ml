module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module Prng = Dda_util.Prng

type ('l, 's) t = {
  init : 'l -> 's;
  delta : 's -> 's -> 's * 's;
  accepting : 's -> bool;
  rejecting : 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
}

let create ~init ~delta ~accepting ~rejecting
    ?(pp_state = fun fmt _ -> Format.pp_print_string fmt "<state>") () =
  { init; delta; accepting; rejecting; pp_state }

let initial p g = Config.of_states (Array.init (Graph.nodes g) (fun v -> p.init (Graph.label g v)))

let step p g c (u, v) =
  if not (Graph.adjacent g u v) then invalid_arg "Population.step: nodes are not adjacent";
  let pu, qv = (Config.state c u, Config.state c v) in
  let pu', qv' = p.delta pu qv in
  let arr = Config.to_array c in
  arr.(u) <- pu';
  arr.(v) <- qv';
  Config.of_states arr

let ordered_pairs g =
  List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) (Graph.edges g)

let verdict p c =
  let n = Config.size c in
  let rec go v all_acc all_rej =
    if (not all_acc) && not all_rej then `Mixed
    else if v >= n then if all_acc then `Accepting else `Rejecting
    else go (v + 1) (all_acc && p.accepting (Config.state c v)) (all_rej && p.rejecting (Config.state c v))
  in
  go 0 true true

let simulate_random ~seed ~max_steps p g =
  let rng = Prng.create seed in
  let pairs = Array.of_list (ordered_pairs g) in
  let c = ref (initial p g) in
  let steps = ref 0 in
  let quiescent c =
    Array.for_all (fun pair -> Config.equal (step p g c pair) c) pairs
  in
  let continue = ref true in
  while !continue && !steps < max_steps do
    if !steps mod (4 * Array.length pairs) = 0 && quiescent !c then continue := false
    else begin
      c := step p g !c (Prng.pick_arr rng pairs);
      incr steps
    end
  done;
  (!c, !steps)

let settle_time ~seed ~max_steps p g =
  let rng = Prng.create seed in
  let pairs = Array.of_list (ordered_pairs g) in
  let c = ref (initial p g) in
  let last_change = ref 0 in
  let current = ref (verdict p !c) in
  for i = 1 to max_steps do
    c := step p g !c (Prng.pick_arr rng pairs);
    let v = verdict p !c in
    if v <> !current then begin
      current := v;
      last_change := i
    end
  done;
  match !current with
  | `Accepting -> Some (!last_change, `Accepting)
  | `Rejecting -> Some (!last_change, `Rejecting)
  | `Mixed -> None

let space ~max_configs p g =
  let pairs = ordered_pairs g in
  let expand arr =
    let c = Config.of_states arr in
    let succs =
      List.filter_map
        (fun pair ->
          let c' = step p g c pair in
          if Config.equal c c' then None else Some (0, Config.to_array c'))
        pairs
    in
    Listx.dedup_sorted Stdlib.compare succs
  in
  Dda_verify.Space.explore_custom ~max_configs
    ~node_count:(Graph.nodes g)
    ~initial:(Config.to_array (initial p g))
    ~expand
    ~accepting:(Array.for_all p.accepting)
    ~rejecting:(Array.for_all p.rejecting)
    ~describe:(fun arr -> Format.asprintf "%a" (Config.pp p.pp_state) (Config.of_states arr))

(* --- Lemma 4.10: rendez-vous by search/answer/confirm handshakes --------- *)

type 's state = Plain of 's | Search of 's | Answer of 's | Confirm of 's * 's

let pp_state pp_base fmt = function
  | Plain q -> pp_base fmt q
  | Search q -> Format.fprintf fmt "%a?" pp_base q
  | Answer q -> Format.fprintf fmt "%a!" pp_base q
  | Confirm (q, q') -> Format.fprintf fmt "%a✓%a" pp_base q pp_base q'

(* The unique-non-waiting-neighbour observation f(N) of Figure 4.  With
   counting bound 2, a capped count of 1 is exact, so "exactly one
   non-waiting neighbour" is detectable. *)
type 's observation = All_waiting | One of 's state | Crowd

let observe n =
  let non_waiting =
    List.filter (function Plain _, _ -> false | _, _ -> true) n
  in
  match non_waiting with
  | [] -> All_waiting
  | [ (s, 1) ] -> One s
  | _ -> Crowd

let original = function Plain q | Search q | Answer q | Confirm (q, _) -> q

let compile p =
  let delta s n =
    match (s, observe n) with
    | Plain q, All_waiting -> Search q
    | Plain q, One (Search _) -> Answer q
    | Search q, One (Answer q') -> Confirm (q, fst (p.delta q q'))
    | Answer q, One (Confirm (q', _)) -> Plain (snd (p.delta q' q))
    | Confirm (_, post), All_waiting -> Plain post
    | (Plain _ as keep), _ -> keep
    | other, _ -> Plain (original other) (* cancel the handshake *)
  in
  Machine.create ~name:"population+rv" ~beta:2
    ~init:(fun l -> Plain (p.init l))
    ~delta
    ~accepting:(fun s -> p.accepting (original s))
    ~rejecting:(fun s -> p.rejecting (original s))
    ~pp_state:(pp_state p.pp_state) ()
