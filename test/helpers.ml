(* Shared toy machines and utilities for the test suites. *)

module Machine = Dda_machine.Machine
module Neighbourhood = Dda_machine.Neighbourhood

type yn = Yes | No

let pp_yn fmt = function Yes -> Format.pp_print_string fmt "Y" | No -> Format.pp_print_string fmt "N"

(* One-way propagation: decides "some node is labelled 'a'" on connected
   graphs, under every scheduler class (it is the dAf-automaton of
   [16, Prop 12] / Prop C.4). *)
let exists_a : (char, yn) Machine.t =
  Machine.create ~name:"exists-a" ~beta:1
    ~init:(fun l -> if l = 'a' then Yes else No)
    ~delta:(fun q n ->
      match q with
      | Yes -> Yes
      | No -> if Neighbourhood.present n Yes then Yes else No)
    ~accepting:(fun q -> q = Yes)
    ~rejecting:(fun q -> q = No)
    ~pp_state:pp_yn ()

(* Oscillator: every selected node flips its bit.  Violates the consistency
   condition on every graph — used to test that the verifier reports
   inconsistency rather than picking a side. *)
let flipper : (char, bool) Machine.t =
  Machine.create ~name:"flipper" ~beta:1
    ~init:(fun _ -> false)
    ~delta:(fun q _ -> not q)
    ~accepting:(fun q -> q)
    ~rejecting:(fun q -> not q)
    ~pp_state:(fun fmt b -> Format.pp_print_string fmt (if b then "1" else "0"))
    ()

(* A counting machine (β = 2) for cliques: every node remembers whether it
   started as 'a' and accepts once it, plus the 'a'-neighbours it can see,
   witness at least two 'a'-nodes.  On cliques this decides "#a >= 2" under
   the synchronous scheduler; used to exercise counting bounds. *)
let clique_two_a : (char, int) Machine.t =
  (* states: 0 = not-a undecided, 1 = a undecided, 2 = decided yes *)
  Machine.create ~name:"clique-two-a" ~beta:2
    ~init:(fun l -> if l = 'a' then 1 else 0)
    ~delta:(fun q n ->
      let visible_a = Neighbourhood.count n 1 in
      match q with
      | 1 -> if visible_a >= 1 || Neighbourhood.present n 2 then 2 else 1
      | 0 -> if visible_a >= 2 || Neighbourhood.present n 2 then 2 else 0
      | other -> other)
    ~accepting:(fun q -> q = 2)
    ~rejecting:(fun q -> q < 2)
    ~pp_state:Format.pp_print_int ()

(* Random machines: 4 states, beta in {1, 2}, delta tabulated over the
   capped count profile of the neighbourhood — multi-byte interning, the
   beta cap in the memo key, and non-monotonic dynamics, enough to hit
   every verdict constructor across seeds. *)
let random_machine seed =
  let rng = Dda_util.Prng.create (0x9e3779b9 + seed) in
  let beta = 1 + Dda_util.Prng.int rng 2 in
  let card = beta + 1 in
  let table = Array.init (4 * card * card * card * card) (fun _ -> Dda_util.Prng.int rng 4) in
  let role = Array.init 4 (fun _ -> Dda_util.Prng.int rng 3) in
  Machine.create
    ~name:(Printf.sprintf "rand-%d" seed)
    ~beta
    ~init:(fun l -> if l = 'a' then 0 else 1)
    ~delta:(fun q n ->
      let c s = min beta (Neighbourhood.count n s) in
      let idx = ref q in
      for s = 0 to 3 do
        idx := (!idx * card) + c s
      done;
      table.(!idx))
    ~accepting:(fun q -> role.(q) = 0)
    ~rejecting:(fun q -> role.(q) = 1)
    ~pp_state:Format.pp_print_int ()

(* The symmetric group on [nodes], fixing every other node of a
   [degree]-node graph: adjacent transpositions generate it.  Order [k!]
   for [k] nodes — the leaf permutations of a star, the full group of a
   clique. *)
let symmetric_group ~degree nodes =
  let swap i j = Array.init degree (fun v -> if v = i then j else if v = j then i else v) in
  let rec gens = function a :: (b :: _ as rest) -> swap a b :: gens rest | _ -> [] in
  Dda_verify.Symmetry.of_generators ~degree (gens nodes)

(* The quotient differentials' four graphs with an automorphism group
   each: dihedral on a cycle, a reflection on a line, and two groups of
   order 6 that are not dihedral (the leaves of a star, a 3-clique). *)
let graph_with_group shape =
  let module G = Dda_graph.Graph in
  let module Sym = Dda_verify.Symmetry in
  match shape with
  | 0 -> (G.cycle [ 'a'; 'b'; 'a'; 'b' ], Sym.cycle 4)
  | 1 -> (G.line [ 'a'; 'b'; 'b'; 'a' ], Sym.line 4)
  | 2 -> (G.star ~centre:'b' ~leaves:[ 'a'; 'a'; 'b' ], symmetric_group ~degree:4 [ 1; 2; 3 ])
  | _ -> (G.clique [ 'a'; 'a'; 'b' ], symmetric_group ~degree:3 [ 0; 1; 2 ])

(* A verdict's constructor: differentials compare these, since witness
   texts legitimately differ between routes. *)
let verdict_shape = function
  | Dda_verify.Decide.Accepts -> 0
  | Dda_verify.Decide.Rejects -> 1
  | Dda_verify.Decide.Inconsistent _ -> 2

(* The [(label, target)] edges of configuration [i], read through the
   space's edge view. *)
let edges space i =
  List.init (space.Dda_verify.Space.degree i) (fun k ->
      (space.Dda_verify.Space.label i k, space.Dda_verify.Space.target i k))

(* The worklist oracle of the packed engine's differential tests: one edge
   per node, edge [k] selecting node [k], configurations numbered in BFS
   order — over [Space.explore_custom], no engine code involved. *)
let explore_legacy ~max_configs m g =
  let module Config = Dda_runtime.Config in
  let n = Dda_graph.Graph.nodes g in
  let expand c =
    List.init n (fun v -> (v, Config.to_array (Config.step m g (Config.of_states c) [ v ])))
  in
  let space =
    Dda_verify.Space.explore_custom ~max_configs ~node_count:n
      ~initial:(Config.to_array (Config.initial m g))
      ~expand
      ~accepting:(Array.for_all m.Machine.accepting)
      ~rejecting:(Array.for_all m.Machine.rejecting)
      ~describe:(fun c -> Format.asprintf "%a" (Config.pp m.Machine.pp_state) (Config.of_states c))
  in
  { space with Dda_verify.Space.kind = Dda_verify.Space.Explicit }

(* The unconditional verdict's shape read off its definition: all runs
   accept iff no non-accepting configuration reaches itself by a non-empty
   path, and dually.  One search per configuration: tiny spaces only. *)
let unconditional_oracle space =
  let open Dda_verify.Space in
  let on_cycle i =
    let seen = Array.make space.size false in
    let rec search = function
      | [] -> false
      | j :: _ when j = i -> true
      | j :: rest when seen.(j) -> search rest
      | j :: rest ->
        seen.(j) <- true;
        search (List.map snd (edges space j) @ rest)
    in
    search (List.map snd (edges space i))
  in
  let loops bad = List.exists (fun i -> bad i && on_cycle i) (List.init space.size Fun.id) in
  match (loops (fun i -> not (space.accepting i)), loops (fun i -> not (space.rejecting i))) with
  | false, true -> 0
  | true, false -> 1
  | _ -> 2

(* The adversarial (f) verdict's shape read off its definition: a fair
   run ends inside one strongly connected set of configurations, taking
   an edge of every node label (selecting every node) infinitely often.
   So the verdict reads the SCCs, found here by mutual reachability, that
   hold an internal edge for every label: all fair runs accept iff none
   holds a non-accepting configuration, and dually.  Explicit spaces
   only (labels are node indices), and tiny ones: one search per
   configuration, one pass over the space per configuration. *)
let fair_cycle_oracle space =
  let open Dda_verify.Space in
  let reach i =
    let seen = Array.make space.size false in
    let rec search = function
      | [] -> ()
      | j :: rest when seen.(j) -> search rest
      | j :: rest ->
        seen.(j) <- true;
        search (List.map snd (edges space j) @ rest)
    in
    search [ i ];
    seen
  in
  let reaches = Array.init space.size reach in
  let together i j = reaches.(i).(j) && reaches.(j).(i) in
  let on_fair_cycle i =
    let labels = Array.make space.node_count false in
    for j = 0 to space.size - 1 do
      if together i j then
        List.iter (fun (l, k) -> if together i k then labels.(l) <- true) (edges space j)
    done;
    Array.for_all Fun.id labels
  in
  let fair = Array.init space.size on_fair_cycle in
  let holds bad = List.exists (fun i -> fair.(i) && bad i) (List.init space.size Fun.id) in
  match (holds (fun i -> not (space.accepting i)), holds (fun i -> not (space.rejecting i))) with
  | false, true -> 0
  | true, false -> 1
  | _ -> 2

(* The lifted graph of a symmetry quotient, built literally: vertex
   [(R, t)] stands for the concrete configuration [p_t^{-1} . R], and
   edge [k] of [R] (recorded group element [sigma R k]) lifts at [(R, t)]
   to an edge labelled [perms.(t).(label R k)] going to
   [(target R k, mul.(t).(sigma R k))]; acceptance is [R]'s.  Worklist-
   explored from [(initial, identity)], so it holds the reachable lifted
   vertices only — an explicit space for {!fair_cycle_oracle}, built with
   no decision code. *)
let lift g ~sigma quotient =
  let open Dda_verify.Space in
  let perms = Dda_verify.Symmetry.perms g and mul = Dda_verify.Symmetry.mul g in
  let space =
    explore_custom ~max_configs:100_000 ~node_count:quotient.node_count
      ~initial:(quotient.initial, 0)
      ~expand:(fun (r, t) ->
        List.init (quotient.degree r) (fun k ->
            (perms.(t).(quotient.label r k), (quotient.target r k, mul.(t).(sigma r k)))))
      ~accepting:(fun (r, _) -> quotient.accepting r)
      ~rejecting:(fun (r, _) -> quotient.rejecting r)
      ~describe:(fun (r, t) -> Printf.sprintf "%s@%d" (quotient.describe r) t)
  in
  { space with kind = Explicit }

(* The Streett condition of adversarial fairness read off its definition,
   for spaces whose rows name their own obligations (counted spaces: a
   configuration owes every label on its own row).  A set of
   configurations supports a fair run iff every member reaches every
   member, itself included, by a non-empty path inside the set, and the
   labels of the edges inside it cover every member's row labels.  The
   verdict reads the union of such sets, as {!fair_cycle_oracle} reads
   its SCCs.  Brute force over every subset: at most 12 configurations. *)
let streett_oracle space =
  let open Dda_verify.Space in
  let n = space.size in
  if n > 12 then invalid_arg "Helpers.streett_oracle: more than 12 configurations";
  let all = List.init n Fun.id in
  let bit i = 1 lsl i in
  let inside set i = set land bit i <> 0 in
  let succ i = List.fold_left (fun m (_, j) -> m lor bit j) 0 (edges space i) in
  let succ = Array.init n succ in
  let pred j = List.fold_left (fun m i -> if inside succ.(i) j then m lor bit i else m) 0 all in
  let pred = Array.init n pred in
  (* the members of [set] reached from [i] by a non-empty path inside it *)
  let closure step set i =
    let rec grow r =
      let r' =
        List.fold_left (fun m j -> if inside r j then m lor (step.(j) land set) else m) r all
      in
      if r' = r then r else grow r'
    in
    grow (step.(i) land set)
  in
  let supports set =
    let members = List.filter (inside set) all in
    let internal i = List.filter (fun (_, j) -> inside set j) (edges space i) in
    let covered = List.map fst (List.concat_map internal members) in
    let root = List.hd members in
    closure succ set root = set
    && closure pred set root = set
    && List.for_all
         (fun i -> List.for_all (fun (l, _) -> List.mem l covered) (edges space i))
         members
  in
  let fair = Array.make n false in
  for set = 1 to bit n - 1 do
    if supports set then List.iter (fun i -> if inside set i then fair.(i) <- true) all
  done;
  let holds bad = List.exists (fun i -> fair.(i) && bad i) all in
  match (holds (fun i -> not (space.accepting i)), holds (fun i -> not (space.rejecting i))) with
  | false, true -> 0
  | true, false -> 1
  | _ -> 2
