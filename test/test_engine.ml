(* Differential certification of the packed exploration engine
   (lib/verify/engine.ml) against the legacy polymorphic explorer, plus
   golden space sizes for Example 4.6 and the Section 6.1 instances,
   symmetry-group unit tests, the allocation-free Tarjan, and the
   [explore_liberal] / [to_dot] fixes. *)

module G = Dda_graph.Graph
module N = Dda_machine.Neighbourhood
module Machine = Dda_machine.Machine
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module Sym = Dda_verify.Symmetry
module Scc = Dda_verify.Scc
module Engine = Dda_verify.Engine
module H = Dda_protocols.Homogeneous
module WB = Dda_extensions.Weak_broadcast
module Prng = Dda_util.Prng
module Listx = Dda_util.Listx

let shape_graph = function
  | 0 -> G.clique [ 'a'; 'a'; 'b'; 'b' ]
  | 1 -> G.line [ 'a'; 'b'; 'a'; 'b'; 'b' ]
  | 2 -> G.cycle [ 'a'; 'b'; 'b'; 'a'; 'b' ]
  | 3 -> G.star ~centre:'a' ~leaves:[ 'b'; 'b'; 'a' ]
  | _ -> G.line [ 'b'; 'a' ]

let edges_of = Helpers.edges

(* ------------------------------------------------------------------ *)
(* Engine = legacy, exactly: same numbering, same edges, same flags,
   same descriptions, same verdicts (full structural equality).        *)
(* ------------------------------------------------------------------ *)

let prop_engine_matches_legacy =
  QCheck.Test.make ~name:"packed engine = legacy explorer (exact)" ~count:120
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g = shape_graph shape in
      let legacy = Helpers.explore_legacy ~max_configs:100_000 m g in
      let packed = Space.explore ~max_configs:100_000 m g in
      legacy.Space.size = packed.Space.size
      && legacy.Space.initial = packed.Space.initial
      && List.for_all
           (fun i ->
             edges_of legacy i = edges_of packed i
             && legacy.Space.accepting i = packed.Space.accepting i
             && legacy.Space.rejecting i = packed.Space.rejecting i
             && legacy.Space.describe i = packed.Space.describe i)
           (Listx.range legacy.Space.size)
      && Decide.pseudo_stochastic legacy = Decide.pseudo_stochastic packed
      && Decide.adversarial legacy = Decide.adversarial packed)

(* ------------------------------------------------------------------ *)
(* Symmetry reduction preserves verdicts under both fairness regimes.
   The machines are label-aware but the groups only preserve adjacency
   (e.g. the full dihedral group on a cycle with mixed labels), which
   is exactly the soundness claim of Engine's quotient construction.   *)
(* ------------------------------------------------------------------ *)

let prop_symmetry_preserves_verdicts =
  QCheck.Test.make ~name:"symmetry quotient preserves verdicts" ~count:80
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g, sym = Helpers.graph_with_group shape in
      let plain = Space.explore ~max_configs:100_000 m g in
      let reduced = Space.explore ~symmetry:sym ~max_configs:100_000 m g in
      reduced.Space.size <= plain.Space.size
      && Space.is_reduced reduced
      && Helpers.verdict_shape (Decide.pseudo_stochastic plain)
         = Helpers.verdict_shape (Decide.pseudo_stochastic reduced)
      && Helpers.verdict_shape (Decide.adversarial plain)
         = Helpers.verdict_shape (Decide.adversarial reduced))

(* ------------------------------------------------------------------ *)
(* Golden space sizes.                                                 *)
(* ------------------------------------------------------------------ *)

let check_size name expected space =
  Alcotest.(check int) name expected space.Space.size

let test_golden_sixone () =
  let m = H.weak_majority ~degree_bound:2 in
  List.iter
    (fun (word, expected) ->
      let labels = List.init (String.length word) (fun i -> String.make 1 word.[i]) in
      let space = Space.explore ~max_configs:1_000_000 m (G.line labels) in
      check_size word expected space)
    [ ("abb", 1396); ("abab", 16086); ("abbab", 76455); ("ababa", 75241) ];
  (* reflection quotient of the palindromic instance *)
  let labels = [ "a"; "b"; "a"; "b"; "a" ] in
  let reduced =
    Space.explore ~symmetry:(Sym.line 5) ~max_configs:1_000_000 m
      (G.line labels)
  in
  check_size "ababa / reflection" 38344 reduced

type abx = Xa | Xb | Xx

let example_4_6 : (char, abx) WB.t =
  let base =
    Machine.create ~name:"ex4.6" ~beta:1
      ~init:(fun l -> if l = 'b' then Xb else Xx)
      ~delta:(fun q n -> if q = Xx && N.present n Xa then Xa else q)
      ~accepting:(fun _ -> true)
      ~rejecting:(fun _ -> false)
      ~pp_state:(fun fmt q ->
        Format.pp_print_string fmt (match q with Xa -> "a" | Xb -> "b" | Xx -> "x"))
      ()
  in
  let initiate = function Xa -> Some (Xa, 0) | Xb -> Some (Xb, 1) | Xx -> None in
  let respond f q =
    if f = 0 then (if q = Xx then Xa else q)
    else match q with Xb -> Xa | Xa -> Xx | Xx -> Xx
  in
  WB.create ~base ~initiate ~respond ~response_count:2

let test_golden_ex46 () =
  let compiled = WB.compile example_4_6 in
  let g = G.line [ 'b'; 'x'; 'x'; 'x'; 'b' ] in
  let legacy = Helpers.explore_legacy ~max_configs:200_000 compiled g in
  let packed = Space.explore ~max_configs:200_000 compiled g in
  check_size "ex4.6 line n=5 (legacy)" legacy.Space.size packed;
  check_size "ex4.6 line n=5" 2301 packed

let test_golden_ring () =
  let m = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let labels = List.init 9 (fun i -> if i mod 3 = 0 then "a" else "b") in
  let g = G.cycle labels in
  let plain = Space.explore ~max_configs:10_000 m g in
  check_size "exists-a ring n=9" 512 plain;
  let reduced = Space.explore ~symmetry:(Sym.cycle 9) ~max_configs:10_000 m g in
  check_size "exists-a ring n=9 / dihedral-18" 104 reduced;
  Alcotest.(check bool)
    "ring verdicts agree" true
    (Helpers.verdict_shape (Decide.adversarial plain)
    = Helpers.verdict_shape (Decide.adversarial reduced))

(* ------------------------------------------------------------------ *)
(* Symmetry groups: orders, identity, multiplication table.            *)
(* ------------------------------------------------------------------ *)

let fact n = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1))

let test_group_orders () =
  Alcotest.(check int) "trivial" 1 (Sym.order (Sym.trivial 5));
  Alcotest.(check int) "line 7" 2 (Sym.order (Sym.line 7));
  Alcotest.(check int) "cycle 6" 12 (Sym.order (Sym.cycle 6));
  Alcotest.(check int) "star 5" (fact 4)
    (Sym.order (Helpers.symmetric_group ~degree:5 [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "clique 4" (fact 4)
    (Sym.order (Helpers.symmetric_group ~degree:4 [ 0; 1; 2; 3 ]));
  List.iter
    (fun sym ->
      let perms = Sym.perms sym in
      Alcotest.(check bool)
        "identity first" true
        (Array.for_all2 ( = ) perms.(0) (Array.init (Sym.degree sym) Fun.id)))
    [
      Sym.line 4;
      Sym.cycle 5;
      Helpers.symmetric_group ~degree:4 [ 1; 2; 3 ];
      Helpers.symmetric_group ~degree:3 [ 0; 1; 2 ];
    ]

(* [Symmetry.of_graph] knows lines and cycles numbered along themselves,
   and nothing else. *)
let test_group_of_graph () =
  let order g = Option.map Sym.order (Sym.of_graph g) in
  let check name expected g = Alcotest.(check (option int)) name expected (order g) in
  check "line 5" (Some 2) (G.line [ 'a'; 'b'; 'b'; 'a'; 'a' ]);
  check "cycle 5" (Some 10) (G.cycle [ 'a'; 'b'; 'b'; 'a'; 'a' ]);
  check "star 5" None (G.star ~centre:'a' ~leaves:[ 'a'; 'b'; 'b'; 'a' ]);
  check "clique 4" None (G.clique [ 'a'; 'b'; 'b'; 'a' ]);
  check "grid 2x2 (a 4-cycle numbered across)" None (G.grid ~width:2 ~height:2 (fun _ _ -> 'a'));
  check "path numbered out of order" None
    (G.of_edges ~labels:[| 'a'; 'a'; 'a'; 'a' |] [ (0, 2); (2, 1); (1, 3) ])

let test_group_mul () =
  List.iter
    (fun sym ->
      let perms = Sym.perms sym and mul = Sym.mul sym in
      let d = Sym.degree sym and ord = Sym.order sym in
      for i = 0 to ord - 1 do
        for j = 0 to ord - 1 do
          for v = 0 to d - 1 do
            (* mul i j is "apply j, then i" as functions on nodes *)
            if perms.(mul.(i).(j)).(v) <> perms.(i).(perms.(j).(v)) then
              Alcotest.failf "mul table broken at (%d, %d)" i j
          done
        done
      done)
    [
      Sym.cycle 4;
      Helpers.symmetric_group ~degree:4 [ 1; 2; 3 ];
      Sym.line 5;
      Helpers.symmetric_group ~degree:3 [ 0; 1; 2 ];
    ]

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan against an oracle that shares no code with it:     *)
(* mutual reachability, by one BFS per vertex.                         *)
(* ------------------------------------------------------------------ *)

let reachable succ src =
  let seen = Array.make (Array.length succ) false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    Array.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
      succ.(Queue.pop queue)
  done;
  seen

let prop_scc_iter_matches =
  QCheck.Test.make ~name:"SCCs = mutual reachability" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create (0xabcd + seed) in
      let n = 1 + Prng.int rng 40 in
      let succ =
        Array.init n (fun _ ->
            Array.init (Prng.int rng 4) (fun _ -> Prng.int rng n))
      in
      let it =
        Scc.compute_iter ~vertices:n
          ~degree:(fun v -> Array.length succ.(v))
          ~succ:(fun v k -> succ.(v).(k))
      in
      let comp = it.Scc.comp in
      let reach = Array.init n (reachable succ) in
      let used = Array.make it.Scc.comp_count false in
      Array.iter (fun c -> used.(c) <- true) comp;
      Array.for_all Fun.id used
      && List.for_all
           (fun u ->
             List.for_all
               (fun v -> comp.(u) = comp.(v) = (reach.(u).(v) && reach.(v).(u)))
               (Listx.range n)
             && Array.for_all (fun w -> comp.(u) >= comp.(w)) succ.(u))
           (Listx.range n))

(* ------------------------------------------------------------------ *)
(* Engine internals: memoisation effectiveness, stats plausibility.    *)
(* ------------------------------------------------------------------ *)

let test_memo_stats () =
  let g = G.cycle (List.init 9 (fun i -> if i = 0 then 'a' else 'b')) in
  let space = Space.explore ~max_configs:10_000 Helpers.exists_a g in
  match Space.engine space with
  | None -> Alcotest.fail "packed explore must expose its engine"
  | Some e ->
      let s = e.Engine.stats in
      Alcotest.(check int) "lookups = size * n" (space.Space.size * 9)
        s.Engine.delta_lookups;
      Alcotest.(check int) "two machine states" 2 s.Engine.state_count;
      Alcotest.(check bool)
        "memo hits dominate" true
        (s.Engine.delta_evals * 10 <= s.Engine.delta_lookups)

(* Strict majority on line:abbab: 47 % of its 679,400 edges are silent.
   Every edge is a silent self-loop, a dedup hit or a fresh
   configuration, so size + dedup_hits + silent_edges = 1 + edges. *)
let test_silent_pin () =
  let m = H.majority ~degree_bound:2 in
  let space = Space.explore ~max_configs:1_000_000 m (G.line [ "a"; "b"; "b"; "a"; "b" ]) in
  let s = (Option.get (Space.engine space)).Engine.stats in
  Alcotest.(check int) "size" 135_880 space.Space.size;
  Alcotest.(check int) "delta_evals" 29_429 s.Engine.delta_evals;
  Alcotest.(check int) "silent_edges" 318_463 s.Engine.silent_edges;
  Alcotest.(check int) "dedup_hits" 225_058 s.Engine.dedup_hits

(* ------------------------------------------------------------------ *)
(* explore_liberal: one edge per non-empty subset, bitmask labels.     *)
(* ------------------------------------------------------------------ *)

let test_liberal_masks () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let space = Space.explore_liberal ~max_configs:10_000 Helpers.exists_a g in
  let labels = List.sort compare (List.map fst (Helpers.edges space space.Space.initial)) in
  Alcotest.(check (list int))
    "masks 1..2^n-1" (List.init 7 (fun k -> k + 1)) labels;
  (* liberal selection must not change the pseudo-stochastic verdict
     (selection-irrelevance on a concrete instance) *)
  let exclusive = Space.explore ~max_configs:10_000 Helpers.exists_a g in
  Alcotest.(check bool)
    "selection irrelevance" true
    (Helpers.verdict_shape (Decide.pseudo_stochastic exclusive)
    = Helpers.verdict_shape (Decide.pseudo_stochastic space));
  Alcotest.check_raises "n > 16 rejected"
    (Invalid_argument
       "Space.explore_liberal: exponential branching, 16 nodes max")
    (fun () ->
      ignore
        (Space.explore_liberal ~max_configs:10
           Helpers.exists_a
           (G.line (List.init 17 (fun _ -> 'b')))))

(* ------------------------------------------------------------------ *)
(* to_dot escapes quotes and backslashes in state descriptions.        *)
(* ------------------------------------------------------------------ *)

let test_dot_escaping () =
  let nasty =
    Machine.create ~name:"nasty" ~beta:1
      ~init:(fun _ -> ())
      ~delta:(fun () _ -> ())
      ~accepting:(fun () -> true)
      ~rejecting:(fun () -> false)
      ~pp_state:(fun fmt () -> Format.pp_print_string fmt {|q"\|})
      ()
  in
  let space = Space.explore ~max_configs:100 nasty (G.line [ 'a'; 'b' ]) in
  let dot = Format.asprintf "%a" (Space.to_dot ~max_size:100) space in
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "quote escaped" true (contains {|q\"\\|});
  Alcotest.(check bool) "no raw quote in label" false (contains {|q"|})

(* ------------------------------------------------------------------ *)
(* Reduced spaces refuse literal selection replay.                     *)
(* ------------------------------------------------------------------ *)

let test_reduced_witness_refused () =
  let m = Helpers.random_machine 3 in
  let g = G.line [ 'a'; 'b'; 'b'; 'a' ] in
  let reduced = Space.explore ~symmetry:(Sym.line 4) ~max_configs:100_000 m g in
  match Decide.adversarial_witness reduced ~against:`Accepting with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "adversarial_witness must refuse reduced spaces"

(* [Space.explore]'s [?jobs] survives only as [~jobs:1]: exploration is
   sequential, and any other value is refused rather than ignored. *)
let test_jobs_one_only () =
  let m = Helpers.random_machine 5 in
  let g = shape_graph 2 in
  let default = Space.explore ~max_configs:100_000 m g in
  let one = Space.explore ~jobs:1 ~max_configs:100_000 m g in
  Alcotest.(check int) "same size" default.Space.size one.Space.size;
  Alcotest.(check int) "same initial" default.Space.initial one.Space.initial;
  Alcotest.(check bool) "same edges" true
    (List.for_all (fun i -> edges_of default i = edges_of one i) (Listx.range default.Space.size));
  match Space.explore ~jobs:2 ~max_configs:100_000 m g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Space.explore ~jobs:2 must raise Invalid_argument"

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_engine_matches_legacy;
          QCheck_alcotest.to_alcotest prop_symmetry_preserves_verdicts;
          QCheck_alcotest.to_alcotest prop_scc_iter_matches;
        ] );
      ( "golden",
        [
          Alcotest.test_case "section 6.1 lines" `Slow test_golden_sixone;
          Alcotest.test_case "example 4.6 compiled" `Quick test_golden_ex46;
          Alcotest.test_case "exists-a ring" `Quick test_golden_ring;
        ] );
      ( "symmetry groups",
        [
          Alcotest.test_case "orders" `Quick test_group_orders;
          Alcotest.test_case "multiplication table" `Quick test_group_mul;
          Alcotest.test_case "groups of lines and cycles" `Quick test_group_of_graph;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "engine stats" `Quick test_memo_stats;
          Alcotest.test_case "silent edges on line:abbab" `Quick test_silent_pin;
          Alcotest.test_case "liberal bitmask labels" `Quick test_liberal_masks;
          Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
          Alcotest.test_case "reduced witness refused" `Quick test_reduced_witness_refused;
          Alcotest.test_case "jobs = 1 only" `Quick test_jobs_one_only;
        ] );
    ]
