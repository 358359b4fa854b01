module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module Prng = Dda_util.Prng

type ('l, 's) t = {
  init : 'l -> 's;
  broadcast : 's -> 's * int;
  respond : int -> 's -> 's;
  response_count : int;
  accepting : 's -> bool;
  rejecting : 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
}

let create ~init ~broadcast ~respond ~response_count ~accepting ~rejecting
    ?(pp_state = fun fmt _ -> Format.pp_print_string fmt "<state>") () =
  { init; broadcast; respond; response_count; accepting; rejecting; pp_state }

(* --- Direct semantics ----------------------------------------------------- *)

let initial p g = Config.of_states (Array.init (Graph.nodes g) (fun v -> p.init (Graph.label g v)))

let step p c v =
  let q = Config.state c v in
  let q', fid = p.broadcast q in
  let arr = Config.to_array c in
  for u = 0 to Array.length arr - 1 do
    arr.(u) <- (if u = v then q' else p.respond fid arr.(u))
  done;
  Config.of_states arr

let quiescent p c =
  let n = Config.size c in
  let nodes = Listx.range n in
  List.for_all
    (fun v ->
      let q = Config.state c v in
      let q', fid = p.broadcast q in
      q' = q && List.for_all (fun u -> u = v || p.respond fid (Config.state c u) = Config.state c u) nodes)
    nodes

let simulate_random ~seed ~max_steps p g =
  let rng = Prng.create seed in
  let n = Graph.nodes g in
  let c = ref (initial p g) in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    if quiescent p !c then continue := false
    else begin
      c := step p !c (Prng.int rng n);
      incr steps
    end
  done;
  (!c, !steps)

let space ~max_configs p g =
  let n = Graph.nodes g in
  let nodes = Listx.range n in
  let expand arr =
    let c = Config.of_states arr in
    let succs =
      List.filter_map
        (fun v ->
          let c' = step p c v in
          if Config.equal c c' then None else Some (0, Config.to_array c'))
        nodes
    in
    Listx.dedup_sorted Stdlib.compare succs
  in
  Dda_verify.Space.explore_custom ~max_configs ~node_count:n
    ~initial:(Config.to_array (initial p g))
    ~expand
    ~accepting:(Array.for_all p.accepting)
    ~rejecting:(Array.for_all p.rejecting)
    ~describe:(fun arr -> Format.asprintf "%a" (Config.pp p.pp_state) (Config.of_states arr))

(* --- Lemma 5.1: the token construction ----------------------------------- *)

type tok = TZ | TL | TL' | TBot

let pp_tok fmt t =
  Format.pp_print_string fmt (match t with TZ -> "0" | TL -> "L" | TL' -> "L'" | TBot -> "⊥")

let token_protocol () =
  Population.create
    ~init:(fun _ -> TL)
    ~delta:(fun a b ->
      match (a, b) with
      | TL, TL -> (TZ, TBot) (* two tokens collide: error *)
      | TZ, TL -> (TL, TZ) (* token moves *)
      | TL, TZ -> (TL', TZ) (* token holder arms a broadcast *)
      | _ -> (a, b))
    ~accepting:(fun _ -> true)
    ~rejecting:(fun _ -> false)
    ~pp_state:pp_tok ()

type 's step_state = (tok Population.state * 's) Weak_broadcast.state
type 's reset_state = ('s step_state * 's) Weak_broadcast.state

let step_machine p =
  let p'_token = Population.compile (token_protocol ()) in
  let base =
    Machine.product_frozen ~name:"P_step" ~snd_init:p.init ~pp_snd:p.pp_state p'_token
  in
  (* Acceptance lives in the protocol component, not the token component. *)
  let base =
    Machine.with_acceptance
      ~accepting:(fun (_, q) -> p.accepting q)
      ~rejecting:(fun (_, q) -> p.rejecting q)
      base
  in
  let initiate (t, q) =
    match t with
    | Population.Plain TL' ->
      (* ⟨step⟩: fire the strong broadcast of the protocol state held by the
         token owner; the token reverts from L' to L. *)
      let q', fid = p.broadcast q in
      Some ((Population.Plain TL, q'), fid)
    | _ -> None
  in
  let respond fid (t, r) = (t, p.respond fid r) in
  Weak_broadcast.create ~base ~initiate ~respond ~response_count:p.response_count

let reset_machine p =
  let p'_step = Weak_broadcast.compile (step_machine p) in
  let base =
    Machine.product_frozen ~name:"P_reset" ~snd_init:p.init ~pp_snd:p.pp_state p'_step
  in
  let initiate (s, q0) =
    match s with
    | Weak_broadcast.Base (Population.Plain TBot, _) ->
      (* ⟨reset⟩: the error holder becomes the (a) new token holder and every
         other agent restarts from its frozen input state. *)
      Some ((Weak_broadcast.Base (Population.Plain TL, q0), q0), 0)
    | _ -> None
  in
  let respond _fid (_, r0) = (Weak_broadcast.Base (Population.Plain TZ, r0), r0) in
  Weak_broadcast.create ~base ~initiate ~respond ~response_count:1

let to_daf p =
  Machine.rename "strong-broadcast→DAF" (Weak_broadcast.compile (reset_machine p))
