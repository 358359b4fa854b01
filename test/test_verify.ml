module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module Space = Dda_verify.Space
module Scc = Dda_verify.Scc
module Decide = Dda_verify.Decide
module Counted = Dda_symbolic.Counted
open Helpers

let verdict = Alcotest.testable Decide.pp_verdict (fun a b -> a = b)

let accepts = Decide.Accepts
let rejects = Decide.Rejects

let is_inconsistent = function Decide.Inconsistent _ -> true | _ -> false

(* --- SCC ---------------------------------------------------------------- *)

(* Tarjan over adjacency lists, plus the two component facts the analyses
   read off it: no edge leaves the component (bottom) / some edge stays
   inside it (it carries a cycle). *)
let scc_of_lists ~vertices succs =
  let succ = Array.init vertices (fun v -> Array.of_list (succs v)) in
  let r =
    Scc.compute_iter ~vertices ~degree:(fun v -> Array.length succ.(v)) ~succ:(fun v k -> succ.(v).(k))
  in
  let edges_of c p =
    List.concat_map
      (fun v -> if r.Scc.comp.(v) = c then List.map (fun w -> p r.Scc.comp.(w)) (succs v) else [])
      (Dda_util.Listx.range vertices)
  in
  let bottom c = List.for_all Fun.id (edges_of c (fun d -> d = c)) in
  let cyclic c = List.exists Fun.id (edges_of c (fun d -> d = c)) in
  (r, bottom, cyclic)

let test_scc_basic () =
  (* 0 <-> 1 -> 2 -> 3 <-> 4, plus 2 self-loop *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 0; 2 ]
    | 2 -> [ 2; 3 ]
    | 3 -> [ 4 ]
    | 4 -> [ 3 ]
    | _ -> []
  in
  let r, bottom, cyclic = scc_of_lists ~vertices:5 succs in
  let comp = r.Scc.comp in
  Alcotest.(check int) "three components" 3 r.Scc.comp_count;
  Alcotest.(check bool) "0,1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "3,4 together" true (comp.(3) = comp.(4));
  Alcotest.(check bool) "2 alone" true (comp.(2) <> comp.(0) && comp.(2) <> comp.(3));
  (* bottom: only {3,4} *)
  Alcotest.(check bool) "34 bottom" true (bottom comp.(3));
  Alcotest.(check bool) "01 not bottom" false (bottom comp.(0));
  Alcotest.(check bool) "2 not bottom" false (bottom comp.(2));
  Alcotest.(check bool) "2 has self loop" true (cyclic comp.(2));
  Alcotest.(check bool) "01 has internal edge" true (cyclic comp.(0))

let test_scc_edge_direction () =
  (* Tarjan numbering: every edge goes to an equal-or-lower component id. *)
  let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [] | _ -> [] in
  let r, bottom, cyclic = scc_of_lists ~vertices:3 succs in
  let comp = r.Scc.comp in
  Alcotest.(check int) "three singletons" 3 r.Scc.comp_count;
  Alcotest.(check bool) "ordering" true (comp.(0) >= comp.(1) && comp.(1) >= comp.(2));
  Alcotest.(check bool) "sink is bottom" true (bottom comp.(2));
  Alcotest.(check bool) "no cycles" false
    (List.exists cyclic [ comp.(0); comp.(1); comp.(2) ])

let test_scc_large_path () =
  (* deep path should not overflow the stack (iterative Tarjan) *)
  let n = 200_000 in
  let r =
    Scc.compute_iter ~vertices:n ~degree:(fun v -> if v + 1 < n then 1 else 0) ~succ:(fun v _ -> v + 1)
  in
  Alcotest.(check int) "all singletons" n r.Scc.comp_count;
  Alcotest.(check bool) "reverse topological" true (r.Scc.comp.(0) = n - 1 && r.Scc.comp.(n - 1) = 0)

(* --- Spaces -------------------------------------------------------------- *)

let test_explicit_space () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore ~max_configs:1000 exists_a g in
  (* Configurations reachable: YNN, YYN, YYY (monotone propagation). *)
  Alcotest.(check int) "three configs" 3 space.Space.size;
  Alcotest.(check bool) "initial not accepting" false (space.Space.accepting space.Space.initial);
  (* each config has exactly n labelled edges *)
  Alcotest.(check int) "3 edges" 3 (space.Space.degree space.Space.initial);
  Alcotest.(check (list int)) "edge k selects node k" [ 0; 1; 2 ]
    (List.map fst (edges space space.Space.initial))

let test_explicit_too_large () =
  let g = G.clique [ 'a'; 'b'; 'b'; 'b' ] in
  match Space.explore ~max_configs:2 exists_a g with
  | exception Space.Too_large _ -> ()
  | _ -> Alcotest.fail "should raise Too_large"

let test_counted_clique_space () =
  let lc = M.of_counts [ ('a', 1); ('b', 4) ] in
  let space = Counted.clique ~max_configs:1000 exists_a lc in
  (* counted configs: (Yes^k No^(5-k)) for k = 1..5 *)
  Alcotest.(check int) "five counted configs" 5 space.Space.size;
  (* a clique needs two nodes: there is nothing to decide on fewer *)
  List.iter
    (fun lc ->
      Alcotest.check_raises "fewer than 2 nodes refused"
        (Invalid_argument "Counted.of_shape: a clique needs at least two nodes") (fun () ->
          ignore (Counted.clique ~max_configs:1000 exists_a lc)))
    [ M.empty; M.of_list [ 'a' ] ]

let test_counted_star_space () =
  let space =
    Counted.star ~max_configs:1000 exists_a ~centre:'b' ~leaves:(M.of_counts [ ('a', 2); ('b', 2) ])
  in
  Alcotest.(check bool) "non-trivial" true (space.Space.size >= 3)

(* --- Decisions ------------------------------------------------------------ *)

let graphs_with_a = [ G.line [ 'a'; 'b'; 'b' ]; G.cycle [ 'b'; 'a'; 'b'; 'b' ]; G.clique [ 'a'; 'a'; 'b' ] ]
let graphs_without_a = [ G.line [ 'b'; 'b'; 'b' ]; G.cycle [ 'c'; 'b'; 'b' ]; G.star ~centre:'b' ~leaves:[ 'b'; 'c' ] ]

let test_pseudo_stochastic_exists_a () =
  List.iter
    (fun g ->
      let space = Space.explore ~max_configs:100000 exists_a g in
      Alcotest.check verdict "accepts with a" accepts (Decide.pseudo_stochastic space))
    graphs_with_a;
  List.iter
    (fun g ->
      let space = Space.explore ~max_configs:100000 exists_a g in
      Alcotest.check verdict "rejects without a" rejects (Decide.pseudo_stochastic space))
    graphs_without_a

let test_adversarial_exists_a () =
  List.iter
    (fun g ->
      let space = Space.explore ~max_configs:100000 exists_a g in
      Alcotest.check verdict "accepts with a" accepts (Decide.adversarial space))
    graphs_with_a;
  List.iter
    (fun g ->
      let space = Space.explore ~max_configs:100000 exists_a g in
      Alcotest.check verdict "rejects without a" rejects (Decide.adversarial space))
    graphs_without_a

let test_synchronous_exists_a () =
  List.iter
    (fun g ->
      match Decide.synchronous ~max_steps:1000 exists_a g with
      | Some v -> Alcotest.check verdict "sync accepts" accepts v
      | None -> Alcotest.fail "no cycle found")
    graphs_with_a

let test_flipper_inconsistent () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore ~max_configs:100000 flipper g in
  Alcotest.(check bool) "pseudo-stochastic inconsistent" true
    (is_inconsistent (Decide.pseudo_stochastic space));
  Alcotest.(check bool) "adversarial inconsistent" true (is_inconsistent (Decide.adversarial space));
  match Decide.synchronous ~max_steps:1000 flipper g with
  | Some v -> Alcotest.(check bool) "sync inconsistent" true (is_inconsistent v)
  | None -> Alcotest.fail "no cycle"

let test_counted_matches_explicit_on_cliques () =
  (* The counted quotient must give the same pseudo-stochastic verdict as the
     explicit space, for every small clique. *)
  List.iter
    (fun labels ->
      let g = G.clique labels in
      let explicit = Space.explore ~max_configs:200000 exists_a g in
      let counted = Counted.clique ~max_configs:200000 exists_a (M.of_list labels) in
      Alcotest.check verdict "same verdict"
        (Decide.pseudo_stochastic explicit)
        (Decide.pseudo_stochastic counted))
    [ [ 'a'; 'b'; 'b' ]; [ 'b'; 'b'; 'b' ]; [ 'a'; 'a'; 'b'; 'b' ]; [ 'b'; 'c'; 'b'; 'c' ] ]

let test_clique_two_a_on_cliques () =
  (* clique_two_a decides #a >= 2 on cliques (any fairness). *)
  let cases = [ ([ 'a'; 'a'; 'b' ], accepts); ([ 'a'; 'b'; 'b' ], rejects); ([ 'a'; 'a'; 'a' ], accepts); ([ 'b'; 'b'; 'b' ], rejects) ] in
  List.iter
    (fun (labels, expected) ->
      let g = G.clique labels in
      let space = Space.explore ~max_configs:200000 clique_two_a g in
      Alcotest.check verdict "pseudo-stochastic" expected (Decide.pseudo_stochastic space);
      Alcotest.check verdict "adversarial" expected (Decide.adversarial space))
    cases

let test_clique_two_a_fails_on_lines () =
  (* ... but NOT on all graphs: on the line a-b-b-a no node ever sees two
     'a'-nodes at once, so the machine wrongly rejects.  This is the
     Lemma 3.4 phenomenon that keeps DAf inside Cutoff(1) as a decider of
     labelling properties. *)
  let g = G.line [ 'a'; 'b'; 'b'; 'a' ] in
  let space = Space.explore ~max_configs:200000 clique_two_a g in
  Alcotest.check verdict "line with 2 a's is wrongly rejected" rejects
    (Decide.pseudo_stochastic space)

let test_adversarial_requires_explicit () =
  (* liberal selection labels edges by node sets, not nodes *)
  let liberal = Space.explore_liberal ~max_configs:1000 exists_a (G.line [ 'a'; 'b'; 'b' ]) in
  Alcotest.check_raises "liberal rejected"
    (Invalid_argument
       "Decide.adversarial: needs an explicit or counted space (edge labels as obligations)")
    (fun () -> ignore (Decide.adversarial liberal))

(* Covered nodes are bits of one int: 63 nodes are refused up front, on
   both explicit explorers and on a spilled space (the streaming sweeps),
   while 62 still decide. *)
let test_adversarial_node_bound () =
  let line k = G.line ('a' :: List.init (k - 1) (fun _ -> 'b')) in
  List.iter
    (fun explore ->
      Alcotest.check verdict "62 nodes" accepts (Decide.adversarial (explore (line 62)));
      let space = explore (line 63) in
      Alcotest.check_raises "63 nodes refused"
        (Invalid_argument "Decide.adversarial: more than 62 nodes") (fun () ->
          ignore (Decide.adversarial space)))
    [
      (fun g -> Space.explore ~max_configs:1000 exists_a g);
      (fun g -> Helpers.explore_legacy ~max_configs:1000 exists_a g);
      (fun g -> Space.explore ~mem_budget:1 ~max_configs:1000 exists_a g);
    ]

(* A machine that accepts only under pseudo-stochastic fairness: a node needs
   to see its two cycle-neighbours in different states to accept... we use a
   simpler discriminator: on a 2-colourable cycle, a node moves to Done only
   if it sees a neighbour in state B while being in state A; under the
   synchronous schedule from a uniform initial colouring nothing ever
   changes. *)

let test_certificate_matches_bottom_scc () =
  (* Proposition D.2's certificate test agrees with the bottom-SCC analysis
     on all our (consistent) machines *)
  List.iter
    (fun g ->
      let space = Space.explore ~max_configs:100000 exists_a g in
      Alcotest.check verdict "certificate = bottom-SCC"
        (Decide.pseudo_stochastic space)
        (Decide.pseudo_stochastic_certificate space))
    (graphs_with_a @ graphs_without_a);
  (* and both report the flipper as inconsistent *)
  let space = Space.explore ~max_configs:100000 flipper (G.line [ 'a'; 'b'; 'b' ]) in
  Alcotest.(check bool) "flipper inconsistent via certificates" true
    (is_inconsistent (Decide.pseudo_stochastic_certificate space))

(* Random-machine property: on arbitrary (possibly inconsistent) machines,
   whenever the bottom-SCC analysis yields a definite verdict, the
   Proposition D.2 certificate test yields the same one. *)
let random_machine seed =
  let rng = Dda_util.Prng.create seed in
  (* delta as a table over (state, presence bitmask of {0,1,2}) *)
  let table = Array.init 24 (fun _ -> Dda_util.Prng.int rng 3) in
  let role = Array.init 3 (fun _ -> Dda_util.Prng.int rng 3) in
  (* ensure at least one accepting and one rejecting state overall is not
     required; disjointness is what matters *)
  Dda_machine.Machine.create ~name:(Printf.sprintf "random-%d" seed) ~beta:1
    ~init:(fun l -> if l = 'a' then 0 else 1)
    ~delta:(fun q n ->
      let mask =
        List.fold_left (fun acc (s, _) -> acc lor (1 lsl s)) 0 n
      in
      table.((q * 8) + mask))
    ~accepting:(fun q -> role.(q) = 0)
    ~rejecting:(fun q -> role.(q) = 1)
    ()

let prop_certificate_consistent =
  QCheck.Test.make ~name:"certificate vs bottom-SCC on random machines" ~count:150
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let m = random_machine seed in
      let g =
        match shape with
        | 0 -> G.cycle [ 'a'; 'b'; 'b' ]
        | 1 -> G.line [ 'a'; 'b'; 'a'; 'b' ]
        | 2 -> G.clique [ 'a'; 'a'; 'b' ]
        | _ -> G.star ~centre:'b' ~leaves:[ 'a'; 'b'; 'a' ]
      in
      match Space.explore ~max_configs:100000 m g with
      | exception Space.Too_large _ -> true
      | space -> (
        let scc_v = Decide.pseudo_stochastic space in
        let cert_v = Decide.pseudo_stochastic_certificate space in
        match scc_v with
        | Decide.Accepts | Decide.Rejects -> cert_v = scc_v
        | Decide.Inconsistent _ -> true))

(* Unconditional verdicts against their definition on every kind of
   space: explicit, a symmetry quotient and a counted space (whose cycles
   lift to concrete cycles, so both must give the explicit space's
   verdict), an opaque liberal space (more edges, so its own), and an
   opaque random graph.  Silent moves put a self-loop on nearly every
   configuration of a machine's space, so most of those verdicts are
   inconsistent; the random graphs, mostly forward edges with a few back
   edges and self-loops, are where every verdict shape shows. *)
let random_graph seed =
  let module Prng = Dda_util.Prng in
  let rng c = Prng.create ((seed * 1009) + c) in
  let size = 4 + Prng.int (rng (-1)) 16 in
  (* most configurations share one polarity, so definite verdicts show *)
  let major = Prng.int (rng (-2)) 2 in
  let role c =
    let r = rng c in
    if Prng.int r 4 = 0 then Prng.int r 3 else major
  in
  Space.explore_custom ~max_configs:100 ~node_count:1 ~initial:0
    ~expand:(fun c ->
      let r = rng c in
      List.init (Prng.int r 3) (fun k ->
          let back = Prng.int r 5 = 0 in
          (k, if back then Prng.int r (c + 1) else min (size - 1) (c + 1 + Prng.int r 3))))
    ~accepting:(fun c -> role c = 0)
    ~rejecting:(fun c -> role c = 1)
    ~describe:string_of_int

let prop_unconditional_matches_oracle =
  QCheck.Test.make ~name:"unconditional = cycle oracle on every space kind" ~count:60
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g, sym = Helpers.graph_with_group shape in
      let same oracle space = verdict_shape (Decide.unconditional space) = oracle in
      let own space = same (unconditional_oracle space) space in
      let explicit = Space.explore ~max_configs:100_000 m g in
      List.for_all
        (same (unconditional_oracle explicit))
        (explicit
        :: Space.explore ~symmetry:sym ~max_configs:100_000 m g
        :: Option.to_list (Counted.of_graph ~max_configs:100_000 m g))
      && own (Space.explore_liberal ~max_configs:100_000 m g)
      && List.for_all (fun k -> own (random_graph ((4 * seed) + k))) [ 0; 1; 2; 3 ])

(* Random explicit spaces over two or three node labels whose rows, unlike
   a machine's, may lack labels: strongly connected sets that take only
   some labels are common here, and most of a machine's adversarial
   verdicts are inconsistent, so these are where a kernel that keeps an
   unfair set (or drops a fair one) shows.  [nodes] fixes the node count
   (else two or three).  The [Counted] variant relabels each row with
   distinct labels in -1 .. 3, so a configuration owes its own row's
   labels, as a counted space's does, and keeps to 12 configurations, so
   that {!Helpers.streett_oracle} can search all its subsets. *)
let random_labelled_graph ?nodes ?(kind = Space.Explicit) seed =
  let module Prng = Dda_util.Prng in
  let rng c = Prng.create ((seed * 7919) + c) in
  let nodes = match nodes with Some n -> n | None -> 2 + Prng.int (rng (-3)) 2 in
  let size = 4 + Prng.int (rng (-1)) (if kind = Space.Counted then 9 else 12) in
  let major = Prng.int (rng (-2)) 2 in
  let role c =
    let r = rng c in
    if Prng.int r 4 = 0 then Prng.int r 3 else major
  in
  let space =
    Space.explore_custom ~max_configs:100 ~node_count:nodes ~initial:0
      ~expand:(fun c ->
        let r = rng c in
        let row =
          List.init (1 + Prng.int r 4) (fun _ ->
              let back = Prng.int r 3 = 0 in
              (Prng.int r nodes, if back then Prng.int r (c + 1) else min (size - 1) (c + 1 + Prng.int r 3)))
        in
        if kind = Space.Counted then
          let labels = Prng.sample_without_replacement r (List.length row) 5 in
          List.map2 (fun l (_, j) -> (l - 1, j)) labels row
        else row)
      ~accepting:(fun c -> role c = 0)
      ~rejecting:(fun c -> role c = 1)
      ~describe:string_of_int
  in
  { space with Space.kind = kind }

(* Adversarial verdicts against their definition: the fair-cycle oracle
   on the legacy explorer's space (no engine code) must be the verdict on
   the explicit space, on its symmetry quotient (the quotient pass),
   on the spilled space (the streaming sweeps) and on the counted space of
   a clique or star; and each random labelled space's own oracle its
   verdict. *)
let prop_adversarial_matches_oracle =
  QCheck.Test.make ~name:"adversarial = fair-cycle oracle on every space kind" ~count:200
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g, sym = Helpers.graph_with_group shape in
      let same oracle space = verdict_shape (Decide.adversarial space) = oracle in
      List.for_all
        (same (fair_cycle_oracle (explore_legacy ~max_configs:100_000 m g)))
        (Space.explore ~max_configs:100_000 m g
        :: Space.explore ~symmetry:sym ~max_configs:100_000 m g
        :: Space.explore ~mem_budget:1 ~max_configs:100_000 m g
        :: Option.to_list (Counted.of_graph ~max_configs:100_000 m g))
      && List.for_all
           (fun k ->
             let space = random_labelled_graph ((4 * seed) + k) in
             same (fair_cycle_oracle space) space)
           [ 0; 1; 2; 3 ])

let witness_shape = function None, Some _ -> 0 | Some _, None -> 1 | _ -> 2

(* The quotient pass against the definition on the lift: a random
   explicit-kind quotient over the nodes of a non-abelian group (S3) or
   of the dihedral group of the 4-cycle.  Edge R -> R' carries the group
   element phi R^{-1} . d . phi R' for a random phi per configuration, so
   potentials are far from the identity, and d is the identity nine
   times in ten, so monodromy groups are often trivial or small: then
   whether the mask covers every node turns on which potential permutes
   which label. *)
let prop_quotient_matches_lift =
  QCheck.Test.make ~name:"quotient fair cycles = fair-cycle oracle on the lift" ~count:1000
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, dihedral) ->
      let module Prng = Dda_util.Prng in
      let module Sym = Dda_verify.Symmetry in
      let g = if dihedral then Sym.cycle 4 else symmetric_group ~degree:3 [ 0; 1; 2 ] in
      let ord = Sym.order g and mul = Sym.mul g in
      let inv t = List.find (fun j -> mul.(t).(j) = 0) (List.init ord Fun.id) in
      let quotient = random_labelled_graph ~nodes:(Sym.degree g) seed in
      let phi r = Prng.int (Prng.create ((seed * 7) + r)) ord in
      let sigma r k =
        let rng = Prng.create ((seed * 104729) + (r * 17) + k) in
        let d = if Prng.int rng 10 = 0 then Prng.int rng ord else 0 in
        mul.(inv (phi r)).(mul.(d).(phi (quotient.Space.target r k)))
      in
      witness_shape (Decide.quotient_fair_witnesses g ~sigma quotient)
      = fair_cycle_oracle (lift g ~sigma quotient))

(* The counted kernel against the Streett definition: rows owe their own
   distinct labels, so a component can cover as many labels as a member
   owes without covering that member's, which only the [unmet] check
   catches. *)
let prop_counted_matches_streett_oracle =
  QCheck.Test.make ~name:"counted adversarial = Streett oracle" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let space = random_labelled_graph ~kind:Space.Counted seed in
      verdict_shape (Decide.adversarial space) = streett_oracle space)

let test_counted_star_matches_explicit () =
  (* the star quotient gives the same pseudo-stochastic verdict as the
     explicit star graph *)
  List.iter
    (fun (centre, leaves) ->
      let g = G.star ~centre ~leaves in
      let explicit = Space.explore ~max_configs:300000 exists_a g in
      let counted = Counted.star ~max_configs:300000 exists_a ~centre ~leaves:(M.of_list leaves) in
      Alcotest.check verdict "star quotient"
        (Decide.pseudo_stochastic explicit)
        (Decide.pseudo_stochastic counted))
    [ ('b', [ 'a'; 'b'; 'b' ]); ('a', [ 'b'; 'b' ]); ('b', [ 'b'; 'b'; 'b'; 'b' ]); ('c', [ 'a'; 'a' ]) ]

let test_liberal_selection_irrelevance () =
  (* [16]: liberal vs exclusive selection does not change the decision; the
     pseudo-stochastic verdicts of the two spaces must agree *)
  List.iter
    (fun g ->
      let exclusive = Space.explore ~max_configs:100000 exists_a g in
      let liberal = Space.explore_liberal ~max_configs:400000 exists_a g in
      Alcotest.check verdict "liberal = exclusive"
        (Decide.pseudo_stochastic exclusive)
        (Decide.pseudo_stochastic liberal))
    (graphs_with_a @ graphs_without_a);
  (* also for a machine where simultaneity genuinely matters step-wise *)
  let g = G.cycle [ 'a'; 'b'; 'b' ] in
  let exclusive = Space.explore ~max_configs:200000 clique_two_a g in
  let liberal = Space.explore_liberal ~max_configs:800000 clique_two_a g in
  Alcotest.check verdict "counting machine too"
    (Decide.pseudo_stochastic exclusive)
    (Decide.pseudo_stochastic liberal)

let test_certificate_path () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore ~max_configs:10000 exists_a g in
  (match Decide.certificate_path space `Accepting with
  | None -> Alcotest.fail "accepting certificate expected"
  | Some (schedule, target) ->
    Alcotest.(check bool) "target accepting" true (space.Space.accepting target);
    (* the labels form a replayable exclusive schedule prefix *)
    let module Config = Dda_runtime.Config in
    let final =
      List.fold_left (fun c v -> Config.step exists_a g c [ v ]) (Config.initial exists_a g)
        schedule
    in
    Alcotest.(check bool) "replay reaches acceptance" true
      (Config.verdict exists_a final = `Accepting));
  Alcotest.(check bool) "no rejecting certificate on accepted input" true
    (Decide.certificate_path space `Rejecting = None);
  let g' = G.line [ 'b'; 'b'; 'b' ] in
  let space' = Space.explore ~max_configs:10000 exists_a g' in
  Alcotest.(check bool) "rejecting certificate" true
    (Decide.certificate_path space' `Rejecting <> None)

let test_adversarial_witness () =
  (* the Lemma 4.10 majority automaton diverges under adversarial fairness;
     extract the refuting lasso and replay it *)
  let m = Dda_extensions.Population.compile Dda_protocols.Pop_examples.majority_4state in
  let g = G.cycle [ 'a'; 'a'; 'b' ] in
  let space = Space.explore ~max_configs:200000 m g in
  Alcotest.(check bool) "inconsistent under f" true (is_inconsistent (Decide.adversarial space));
  match Decide.adversarial_witness space ~against:`Accepting with
  | None -> Alcotest.fail "expected a lasso"
  | Some (prefix, cycle) ->
    (* the cycle is fair: every node selected at least once *)
    List.iter
      (fun v -> Alcotest.(check bool) (Printf.sprintf "node %d in cycle" v) true (List.mem v cycle))
      [ 0; 1; 2 ];
    (* replaying returns to the same configuration, passing a non-accepting one *)
    let module Config = Dda_runtime.Config in
    let apply c vs = List.fold_left (fun c v -> Config.step m g c [ v ]) c vs in
    let at_entry = apply (Config.initial m g) prefix in
    let seen_bad = ref false in
    let after_cycle =
      List.fold_left
        (fun c v ->
          let c' = Config.step m g c [ v ] in
          if Config.verdict m c' <> `Accepting then seen_bad := true;
          c')
        at_entry cycle
    in
    Alcotest.(check bool) "cycle closes" true (Config.equal at_entry after_cycle);
    Alcotest.(check bool) "cycle visits a non-accepting configuration" true
      ((not (Config.verdict m at_entry = `Accepting)) || !seen_bad)

let test_adversarial_witness_absent_when_consistent () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore ~max_configs:10000 exists_a g in
  (* all fair runs accept: no refutation against acceptance *)
  Alcotest.(check bool) "no lasso against accept" true
    (Decide.adversarial_witness space ~against:`Accepting = None);
  (* but plenty against rejection *)
  Alcotest.(check bool) "lasso against reject" true
    (Decide.adversarial_witness space ~against:`Rejecting <> None)

(* The evidence surfaces on the Lemma 4.10 majority automaton, pinned
   byte for byte: the packed engine and the legacy explorer must give the
   same lassos, paths and verdict texts, whatever stores their edges. *)
let test_evidence_pinned () =
  let m = Dda_extensions.Population.compile Dda_protocols.Pop_examples.majority_4state in
  let g = G.cycle [ 'a'; 'a'; 'b' ] in
  let lasso = Alcotest.(option (pair (list int) (list int))) in
  let path = Alcotest.(option (pair (list int) int)) in
  List.iter
    (fun space ->
      Alcotest.check lasso "lasso against acceptance"
        (Some ([ 0; 2; 0; 2; 0 ], [ 0; 0; 1; 1; 2; 2 ]))
        (Decide.adversarial_witness space ~against:`Accepting);
      Alcotest.check lasso "lasso against rejection"
        (Some ([ 0; 2; 0; 2; 0; 0; 1; 0; 1; 0; 0; 2; 0; 2 ], [ 0; 0; 2; 0; 2; 0; 0; 2; 0; 2; 1; 2 ]))
        (Decide.adversarial_witness space ~against:`Rejecting);
      Alcotest.check path "accepting certificate path"
        (Some ([ 0; 2; 0; 2; 0; 0; 1; 0; 1; 0; 0; 2; 0; 2 ], 141))
        (Decide.certificate_path space `Accepting);
      Alcotest.check path "no rejecting certificate path" None
        (Decide.certificate_path space `Rejecting);
      Alcotest.check verdict "adversarial text"
        (Decide.Inconsistent
           "fair runs revisit non-accepting [b A b] and non-rejecting [A\u{2713}a a A] configurations")
        (Decide.adversarial space);
      Alcotest.check verdict "unconditional text"
        (Decide.Inconsistent
           "runs can loop through non-accepting [a a b\u{2713}A] and non-rejecting [A\u{2713}a a A]")
        (Decide.unconditional space))
    [ Space.explore ~max_configs:200000 m g; Helpers.explore_legacy ~max_configs:200000 m g ]

let test_space_to_dot () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore ~max_configs:1000 exists_a g in
  let dot = Format.asprintf "%a" (fun fmt s -> Space.to_dot fmt s) space in
  Alcotest.(check bool) "digraph" true (String.sub dot 0 13 = "digraph space");
  let rec contains s sub i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
  in
  Alcotest.(check bool) "has doublecircle (accepting)" true (contains dot "doublecircle" 0);
  Alcotest.check_raises "too large guard"
    (Invalid_argument "Space.to_dot: configuration graph too large to render") (fun () ->
      Format.asprintf "%a" (fun fmt s -> Space.to_dot ~max_size:1 fmt s) space |> ignore)

let test_verdict_bool () =
  Alcotest.(check (option bool)) "accepts" (Some true) (Decide.verdict_bool accepts);
  Alcotest.(check (option bool)) "rejects" (Some false) (Decide.verdict_bool rejects);
  Alcotest.(check (option bool)) "inconsistent" None
    (Decide.verdict_bool (Decide.Inconsistent "x"))

let () =
  Alcotest.run "verify"
    [
      ( "scc",
        [
          Alcotest.test_case "basic" `Quick test_scc_basic;
          Alcotest.test_case "edge direction" `Quick test_scc_edge_direction;
          Alcotest.test_case "large path" `Quick test_scc_large_path;
        ] );
      ( "spaces",
        [
          Alcotest.test_case "explicit" `Quick test_explicit_space;
          Alcotest.test_case "too large" `Quick test_explicit_too_large;
          Alcotest.test_case "counted clique" `Quick test_counted_clique_space;
          Alcotest.test_case "counted star" `Quick test_counted_star_space;
        ] );
      ( "decide",
        [
          Alcotest.test_case "pseudo-stochastic exists-a" `Quick test_pseudo_stochastic_exists_a;
          Alcotest.test_case "adversarial exists-a" `Quick test_adversarial_exists_a;
          Alcotest.test_case "synchronous exists-a" `Quick test_synchronous_exists_a;
          Alcotest.test_case "flipper inconsistent" `Quick test_flipper_inconsistent;
          Alcotest.test_case "counted = explicit on cliques" `Quick test_counted_matches_explicit_on_cliques;
          Alcotest.test_case "clique-two-a on cliques" `Quick test_clique_two_a_on_cliques;
          Alcotest.test_case "clique-two-a fails on lines" `Quick test_clique_two_a_fails_on_lines;
          Alcotest.test_case "adversarial needs explicit" `Quick test_adversarial_requires_explicit;
          Alcotest.test_case "adversarial node bound" `Quick test_adversarial_node_bound;
          Alcotest.test_case "certificate decider (Prop D.2)" `Quick test_certificate_matches_bottom_scc;
          QCheck_alcotest.to_alcotest prop_certificate_consistent;
          QCheck_alcotest.to_alcotest prop_unconditional_matches_oracle;
          QCheck_alcotest.to_alcotest prop_adversarial_matches_oracle;
          QCheck_alcotest.to_alcotest prop_quotient_matches_lift;
          QCheck_alcotest.to_alcotest prop_counted_matches_streett_oracle;
          Alcotest.test_case "certificate path (witness schedule)" `Quick test_certificate_path;
          Alcotest.test_case "counted star = explicit" `Quick test_counted_star_matches_explicit;
          Alcotest.test_case "liberal selection irrelevance" `Quick test_liberal_selection_irrelevance;
          Alcotest.test_case "adversarial lasso witness" `Quick test_adversarial_witness;
          Alcotest.test_case "no lasso when consistent" `Quick test_adversarial_witness_absent_when_consistent;
          Alcotest.test_case "evidence pinned" `Quick test_evidence_pinned;
          Alcotest.test_case "space dot export" `Quick test_space_to_dot;
          Alcotest.test_case "verdict bool" `Quick test_verdict_bool;
        ] );
    ]
