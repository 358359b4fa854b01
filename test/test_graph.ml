module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module Prng = Dda_util.Prng
module Listx = Dda_util.Listx

let check_valid what g =
  match G.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s should be valid: %s" what e

let test_clique () =
  let g = G.clique [ 'a'; 'b'; 'c'; 'd' ] in
  check_valid "K4" g;
  Alcotest.(check int) "nodes" 4 (G.nodes g);
  Alcotest.(check int) "edges" 6 (List.length (G.edges g));
  Alcotest.(check int) "max degree" 3 (G.max_degree g);
  Alcotest.(check bool) "adjacent" true (G.adjacent g 0 3)

let test_star () =
  let g = G.star ~centre:'c' ~leaves:[ 'a'; 'a'; 'b' ] in
  check_valid "star" g;
  Alcotest.(check int) "degree of centre" 3 (G.degree g 0);
  Alcotest.(check int) "degree of leaf" 1 (G.degree g 1);
  Alcotest.(check char) "centre label" 'c' (G.label g 0)

let test_line_cycle () =
  let line = G.line [ 'a'; 'b'; 'c'; 'd' ] in
  check_valid "line" line;
  Alcotest.(check int) "line edges" 3 (List.length (G.edges line));
  Alcotest.(check int) "line max degree" 2 (G.max_degree line);
  let cyc = G.cycle [ 'a'; 'b'; 'c'; 'd' ] in
  check_valid "cycle" cyc;
  Alcotest.(check int) "cycle edges" 4 (List.length (G.edges cyc));
  Alcotest.(check bool) "cycle wraps" true (G.adjacent cyc 0 3)

let test_grid_torus () =
  let g = G.grid ~width:3 ~height:4 (fun x y -> (x + y) mod 2) in
  check_valid "grid" g;
  Alcotest.(check int) "grid nodes" 12 (G.nodes g);
  Alcotest.(check int) "grid edges" ((2 * 4) + (3 * 3)) (List.length (G.edges g));
  Alcotest.(check bool) "grid degree bound 4" true (G.max_degree g <= 4);
  let t = G.torus ~width:3 ~height:3 (fun _ _ -> 0) in
  check_valid "torus" t;
  List.iter
    (fun v -> Alcotest.(check int) "torus 4-regular" 4 (G.degree t v))
    (Listx.range (G.nodes t))

let test_label_count () =
  let g = G.cycle [ 'a'; 'b'; 'a'; 'c' ] in
  Alcotest.(check int) "a count" 2 (M.count (G.label_count g) 'a');
  Alcotest.(check int) "b count" 1 (M.count (G.label_count g) 'b')

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (G.of_edges ~labels:[| 'a'; 'b' |] [ (0, 0) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Graph.of_edges: node out of range")
    (fun () -> ignore (G.of_edges ~labels:[| 'a'; 'b' |] [ (0, 2) ]));
  (* duplicate edges merged *)
  let g = G.of_edges ~labels:[| 'a'; 'b' |] [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "merged" 1 (List.length (G.edges g))

let test_connectivity () =
  let disconnected = G.of_edges ~labels:[| 'a'; 'b'; 'c'; 'd' |] [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected" false (G.is_connected disconnected);
  (match G.validate disconnected with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validation should fail");
  match G.validate (G.line [ 'a'; 'b' ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "two nodes violate the convention"

let test_random_connected () =
  let rng = Prng.create 123 in
  for k = 3 to 12 do
    let labels = List.init k (fun i -> i mod 3) in
    let g = G.random_connected rng ~degree_bound:3 labels in
    Alcotest.(check bool) "connected" true (G.is_connected g);
    Alcotest.(check bool) "degree bound" true (G.max_degree g <= 3);
    Alcotest.(check bool) "labels preserved" true
      (M.equal (G.label_count g) (M.of_list labels))
  done

let test_cycle_cover () =
  let labels = [ 'a'; 'b'; 'c' ] in
  let base = G.cycle labels in
  let cover = G.cycle_cover ~fold:3 labels in
  Alcotest.(check int) "cover size" 9 (G.nodes cover);
  let f = G.cycle_cover_map ~fold:3 labels in
  Alcotest.(check bool) "is covering map" true (G.is_covering_map ~covering:cover ~base f);
  (* label count scales *)
  Alcotest.(check bool) "label count scales" true
    (M.equal (G.label_count cover) (M.scale 3 (G.label_count base)))

let test_covering_map_rejects () =
  let base = G.cycle [ 'a'; 'b'; 'c' ] in
  let not_cover = G.cycle [ 'a'; 'b'; 'c'; 'a' ] in
  Alcotest.(check bool) "4-cycle does not cover 3-cycle" false
    (G.is_covering_map ~covering:not_cover ~base (fun i -> i mod 3))

let test_find_cycle_edge () =
  let tree = G.star ~centre:'a' ~leaves:[ 'b'; 'c' ] in
  Alcotest.(check bool) "tree has no cycle edge" true (G.find_cycle_edge tree = None);
  let cyc = G.cycle [ 'a'; 'b'; 'c'; 'd' ] in
  match G.find_cycle_edge cyc with
  | None -> Alcotest.fail "cycle must have a cycle edge"
  | Some (u, v) -> Alcotest.(check bool) "really an edge" true (G.adjacent cyc u v)

let test_chain_of_copies () =
  let g = G.cycle [ 'a'; 'a'; 'b' ] in
  let h = G.cycle [ 'b'; 'b'; 'c'; 'c' ] in
  let ge = Option.get (G.find_cycle_edge g) in
  let he = Option.get (G.find_cycle_edge h) in
  let chained, back = G.chain_of_copies ~g ~g_edge:ge ~g_copies:3 ~h ~h_edge:he ~h_copies:5 in
  check_valid "chained graph" chained;
  Alcotest.(check int) "size" ((3 * 3) + (5 * 4)) (G.nodes chained);
  (* Every node maps back to a node of G or H with the same label. *)
  List.iter
    (fun x ->
      match back x with
      | `G (_, v) -> Alcotest.(check char) "g label" (G.label g v) (G.label chained x)
      | `H (_, v) -> Alcotest.(check char) "h label" (G.label h v) (G.label chained x))
    (Listx.range (G.nodes chained));
  (* Label count is the sum of the copies. *)
  Alcotest.(check bool) "label count" true
    (M.equal (G.label_count chained)
       (M.sum (M.scale 3 (G.label_count g)) (M.scale 5 (G.label_count h))))

let test_hypercube () =
  let g = G.hypercube ~dim:3 (fun i -> i mod 2) in
  check_valid "Q3" g;
  Alcotest.(check int) "8 nodes" 8 (G.nodes g);
  Alcotest.(check int) "12 edges" 12 (List.length (G.edges g));
  List.iter (fun v -> Alcotest.(check int) "3-regular" 3 (G.degree g v)) (Listx.range 8)

let test_complete_bipartite () =
  let g = G.complete_bipartite [ 'a'; 'a' ] [ 'b'; 'b'; 'b' ] in
  check_valid "K23" g;
  Alcotest.(check int) "6 edges" 6 (List.length (G.edges g));
  Alcotest.(check bool) "cross edges only" true
    (List.for_all (fun (u, v) -> G.label g u <> G.label g v) (G.edges g))

let test_binary_tree () =
  let g = G.binary_tree [ 'r'; 'a'; 'b'; 'c'; 'd' ] in
  check_valid "tree" g;
  Alcotest.(check int) "n-1 edges" 4 (List.length (G.edges g));
  Alcotest.(check bool) "degree bound 3" true (G.max_degree g <= 3);
  Alcotest.(check bool) "no cycle edge" true (G.find_cycle_edge g = None)

let test_barbell () =
  let g = G.barbell [ 'a'; 'a'; 'a' ] ~bridge:[ 'x'; 'x' ] [ 'b'; 'b'; 'b' ] in
  check_valid "barbell" g;
  Alcotest.(check int) "8 nodes" 8 (G.nodes g);
  (* 3+3 clique edges + 3 path edges *)
  Alcotest.(check int) "edges" 9 (List.length (G.edges g));
  let g0 = G.barbell [ 'a'; 'a' ] ~bridge:[] [ 'b'; 'b' ] in
  check_valid "barbell no bridge" g0;
  Alcotest.(check bool) "joined directly" true (G.adjacent g0 1 2)

let test_to_dot () =
  let g = G.cycle [ 'a'; 'b'; 'c' ] in
  let dot = Format.asprintf "%a" (G.to_dot Format.pp_print_char) g in
  Alcotest.(check bool) "has header" true (String.length dot > 0 && String.sub dot 0 7 = "graph g");
  Alcotest.(check bool) "mentions an edge" true
    (List.exists (fun line -> line = "  n0 -- n1;") (String.split_on_char '\n' dot))

let test_relabel () =
  let g = G.cycle [ 1; 2; 3 ] in
  let g' = G.relabel string_of_int g in
  Alcotest.(check string) "relabel" "2" (G.label g' 1)

let prop_random_graph =
  QCheck.Test.make ~name:"random graphs valid" ~count:50
    QCheck.(pair (int_range 3 15) (int_range 2 5))
    (fun (n, bound) ->
      let rng = Prng.create (n + (100 * bound)) in
      let g = G.random_connected rng ~degree_bound:bound (List.init n (fun i -> i mod 2)) in
      G.is_connected g && G.max_degree g <= bound && G.nodes g = n)

(* Certifies the symmetry groups used by the packed engine's quotient
   construction: every element must be a graph automorphism (adjacency
   preservation is all the reduction needs — labels may vary freely). *)
let prop_symmetry_groups_are_automorphisms =
  let module Sym = Dda_verify.Symmetry in
  QCheck.Test.make ~name:"symmetry groups are graph automorphisms" ~count:40
    QCheck.(int_range 3 7)
    (fun n ->
      let labels = List.init n (fun i -> i mod 3) in
      let all_autos g sym =
        Array.for_all (G.is_automorphism g) (Sym.perms sym)
      in
      all_autos (G.line labels) (Sym.line n)
      && all_autos (G.cycle labels) (Sym.cycle n)
      && all_autos
           (G.star ~centre:(List.hd labels) ~leaves:(List.tl labels))
           (Helpers.symmetric_group ~degree:n (List.init (n - 1) succ))
      && (n > 5 || all_autos (G.clique labels) (Helpers.symmetric_group ~degree:n (List.init n Fun.id))))

let test_is_automorphism_rejects () =
  (* swapping the centre of a star with a leaf breaks adjacency *)
  let star = G.star ~centre:'c' ~leaves:[ 'a'; 'a'; 'b' ] in
  let swap01 = [| 1; 0; 2; 3 |] in
  Alcotest.(check bool) "star centre swap" false (G.is_automorphism star swap01);
  (* a non-permutation (repeated image) is rejected outright *)
  Alcotest.(check bool)
    "non-permutation" false
    (G.is_automorphism (G.cycle [ 'a'; 'b'; 'c' ]) [| 0; 0; 2 |]);
  (* rotation is an automorphism of a cycle whatever the labels *)
  Alcotest.(check bool)
    "cycle rotation" true
    (G.is_automorphism (G.cycle [ 'a'; 'b'; 'c' ]) [| 1; 2; 0 |])

let () =
  Alcotest.run "graph"
    [
      ( "families",
        [
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "line and cycle" `Quick test_line_cycle;
          Alcotest.test_case "grid and torus" `Quick test_grid_torus;
          Alcotest.test_case "label count" `Quick test_label_count;
          Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "dot export" `Quick test_to_dot;
        ] );
      ( "coverings",
        [
          Alcotest.test_case "cycle cover" `Quick test_cycle_cover;
          Alcotest.test_case "covering map rejects" `Quick test_covering_map_rejects;
          Alcotest.test_case "find cycle edge" `Quick test_find_cycle_edge;
          Alcotest.test_case "Lemma 3.1 chain" `Quick test_chain_of_copies;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_graph;
          QCheck_alcotest.to_alcotest prop_symmetry_groups_are_automorphisms;
          Alcotest.test_case "is_automorphism rejects" `Quick
            test_is_automorphism_rejects;
        ] );
    ]
