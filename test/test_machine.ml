module Machine = Dda_machine.Machine
module N = Dda_machine.Neighbourhood

let test_observe_caps () =
  let n = N.of_states ~beta:2 [ 'a'; 'a'; 'a'; 'b' ] in
  Alcotest.(check int) "a capped at 2" 2 (N.count n 'a');
  Alcotest.(check int) "b exact" 1 (N.count n 'b');
  Alcotest.(check int) "absent" 0 (N.count n 'c');
  Alcotest.(check bool) "present" true (N.present n 'a');
  Alcotest.(check (list char)) "states" [ 'a'; 'b' ] (N.states n)

let test_neighbourhood_aggregates () =
  let n = N.of_states ~beta:3 [ 1; 1; 2; 5; 5; 5; 5 ] in
  Alcotest.(check int) "count_where small" 3 (N.count_where (fun x -> x < 3) n);
  Alcotest.(check bool) "exists big" true (N.exists_where (fun x -> x > 4) n);
  Alcotest.(check bool) "not all small" false (N.for_all (fun x -> x < 3) n);
  Alcotest.(check bool) "empty" true (N.is_empty (N.of_states ~beta:1 []))

let test_beta_validation () =
  Alcotest.check_raises "beta 0" (Invalid_argument "Machine.create: counting bound must be >= 1")
    (fun () ->
      ignore
        (Machine.create ~name:"bad" ~beta:0 ~init:(fun () -> ()) ~delta:(fun s _ -> s)
           ~accepting:(fun _ -> true)
           ~rejecting:(fun _ -> false)
           ()))

let test_non_counting () =
  Alcotest.(check bool) "exists_a non-counting" true (Machine.non_counting Helpers.exists_a);
  Alcotest.(check bool) "clique_two_a counts" false (Machine.non_counting Helpers.clique_two_a)

let test_verdict_of_state () =
  Alcotest.(check bool) "accepting" true
    (Machine.verdict_of_state Helpers.exists_a Helpers.Yes = `Accepting);
  Alcotest.(check bool) "rejecting" true
    (Machine.verdict_of_state Helpers.exists_a Helpers.No = `Rejecting);
  let overlapping =
    Machine.create ~name:"overlap" ~beta:1
      ~init:(fun () -> 0)
      ~delta:(fun s _ -> s)
      ~accepting:(fun _ -> true)
      ~rejecting:(fun _ -> true)
      ()
  in
  Alcotest.check_raises "overlap raises"
    (Invalid_argument "overlap: accepting and rejecting states intersect") (fun () ->
      ignore (Machine.verdict_of_state overlapping 0))

let test_halting_combinator () =
  let h = Machine.halting Helpers.flipper in
  (* flipper's states are both accepting or rejecting, so halting freezes
     everything. *)
  Alcotest.(check bool) "frozen false" false (h.Machine.delta false (N.of_states ~beta:1 []));
  Alcotest.(check bool) "frozen true" true (h.Machine.delta true (N.of_states ~beta:1 []))

let test_relabel () =
  let m = Machine.relabel (fun i -> if i = 0 then 'a' else 'b') Helpers.exists_a in
  Alcotest.(check bool) "0 maps to a -> Yes" true (m.Machine.init 0 = Helpers.Yes);
  Alcotest.(check bool) "1 maps to b -> No" true (m.Machine.init 1 = Helpers.No)

let test_map_states () =
  let into = function Helpers.Yes -> 1 | Helpers.No -> 0 in
  let back = function 1 -> Helpers.Yes | _ -> Helpers.No in
  let m = Machine.map_states ~name:"exists-a-int" ~into ~back Helpers.exists_a in
  Alcotest.(check int) "init a" 1 (m.Machine.init 'a');
  Alcotest.(check int) "delta propagates" 1 (m.Machine.delta 0 (N.of_states ~beta:1 [ 1 ]));
  Alcotest.(check int) "delta stays" 0 (m.Machine.delta 0 (N.of_states ~beta:1 [ 0 ]));
  Alcotest.(check bool) "accepting carried" true (m.Machine.accepting 1)

let test_product_frozen () =
  let m = Machine.product_frozen ~snd_init:(fun l -> l) Helpers.exists_a in
  let s0 = m.Machine.init 'b' in
  Alcotest.(check bool) "frozen component" true (snd s0 = 'b');
  (* neighbourhood of pairs projects to the first component *)
  let n = N.of_states ~beta:1 [ (Helpers.Yes, 'x'); (Helpers.Yes, 'y') ] in
  let s1 = m.Machine.delta (Helpers.No, 'b') n in
  Alcotest.(check bool) "first evolves" true (fst s1 = Helpers.Yes);
  Alcotest.(check bool) "second frozen" true (snd s1 = 'b')

let test_projection_caps () =
  (* Two distinct pair-states with the same first component must merge and be
     re-capped at beta. *)
  let n = [ ((0, 'x'), 1); ((0, 'y'), 1) ] in
  let projected = Machine.project_neighbourhood ~beta:1 fst n in
  Alcotest.(check int) "merged and capped" 1 (N.count projected 0)

(* ------------------------------------------------------------------ *)
(* Tabulation and minimisation                                          *)
(* ------------------------------------------------------------------ *)

module Tabulate = Dda_machine.Tabulate

let test_tabulate_roundtrip () =
  let t = Tabulate.tabulate ~labels:[ 'a'; 'b' ] ~states:[ Helpers.Yes; Helpers.No ] Helpers.exists_a in
  Alcotest.(check int) "2 states" 2 (Tabulate.state_count t);
  Alcotest.(check int) "profiles (beta+1)^Q" 4 (Tabulate.profile_count t);
  let m = Tabulate.to_machine t in
  (* identical behaviour on a graph *)
  let g = Dda_graph.Graph.line [ 'a'; 'b'; 'b' ] in
  let space_orig = Dda_verify.Space.explore ~max_configs:1000 Helpers.exists_a g in
  let space_tab = Dda_verify.Space.explore ~max_configs:1000 m g in
  Alcotest.(check int) "same space size" space_orig.Dda_verify.Space.size
    space_tab.Dda_verify.Space.size;
  Alcotest.(check bool) "same verdict" true
    (Dda_verify.Decide.pseudo_stochastic space_orig = Dda_verify.Decide.pseudo_stochastic space_tab)

(* two behaviourally identical accepting states *)
let redundant : (char, int) Machine.t =
  Machine.create ~name:"redundant" ~beta:1
    ~init:(fun l -> if l = 'a' then 1 else 0)
    ~delta:(fun q n ->
      match q with
      | 0 -> if N.present n 1 then 1 else if N.present n 2 then 2 else 0
      | other -> other)
    ~accepting:(fun q -> q >= 1)
    ~rejecting:(fun q -> q = 0)
    ()

let test_minimise_merges () =
  let t = Tabulate.tabulate ~labels:[ 'a'; 'b' ] ~states:[ 0; 1; 2 ] redundant in
  Alcotest.(check int) "3 -> 2 classes" 2 (Tabulate.minimised_state_count t);
  match Tabulate.minimise t with
  | None -> Alcotest.fail "expected a quotient"
  | Some (q, project) ->
    Alcotest.(check int) "1 and 2 merge" (project 1) (project 2);
    Alcotest.(check bool) "0 separate" true (project 0 <> project 1);
    (* the quotient still decides ∃a *)
    let g = Dda_graph.Graph.cycle [ 'a'; 'b'; 'b' ] in
    let space = Dda_verify.Space.explore ~max_configs:1000 q g in
    Alcotest.(check bool) "quotient accepts" true
      (Dda_verify.Decide.pseudo_stochastic space = Dda_verify.Decide.Accepts);
    let g' = Dda_graph.Graph.cycle [ 'b'; 'b'; 'b' ] in
    let space' = Dda_verify.Space.explore ~max_configs:1000 q g' in
    Alcotest.(check bool) "quotient rejects" true
      (Dda_verify.Decide.pseudo_stochastic space' = Dda_verify.Decide.Rejects)

let test_minimise_identity () =
  (* exists_a's two states differ in acceptance: no coarsening *)
  let t = Tabulate.tabulate ~labels:[ 'a'; 'b' ] ~states:[ Helpers.Yes; Helpers.No ] Helpers.exists_a in
  Alcotest.(check bool) "no quotient" true (Tabulate.minimise t = None);
  Alcotest.(check int) "identity count" 2 (Tabulate.minimised_state_count t)

let test_minimise_compiled_threshold () =
  (* the Lemma 4.7 compilation of the 2-level threshold protocol carries
     bookkeeping states; minimisation must keep its decision intact *)
  let base =
    Machine.create ~name:"x>=2" ~beta:1
      ~init:(fun l -> if l = "x" then 1 else 0)
      ~delta:(fun q _ -> q)
      ~accepting:(fun q -> q = 2)
      ~rejecting:(fun q -> q < 2)
      ~pp_state:Format.pp_print_int ()
  in
  let wb2 =
    Dda_extensions.Weak_broadcast.create ~base
      ~initiate:(function 1 -> Some (1, 0) | 2 -> Some (2, 1) | _ -> None)
      ~respond:(fun f q -> if f = 0 then (if q = 1 then 2 else q) else 2)
      ~response_count:2
  in
  let compiled = Dda_extensions.Weak_broadcast.compile wb2 in
  let states =
    let open Dda_extensions.Weak_broadcast in
    List.concat_map
      (fun q -> Base q :: List.concat_map (fun ph -> [ Mid (q, ph, 0); Mid (q, ph, 1) ]) [ 1; 2 ])
      [ 0; 1; 2 ]
  in
  let t = Tabulate.tabulate ~labels:[ "x"; "o" ] ~states compiled in
  Alcotest.(check int) "15 syntactic states" 15 (Tabulate.state_count t);
  let k = Tabulate.minimised_state_count t in
  Alcotest.(check bool) "minimisation does not grow" true (k <= 15);
  match Tabulate.minimise t with
  | None -> () (* every state behaviourally distinct: fine *)
  | Some (q, _) ->
    let g = Dda_graph.Graph.cycle [ "x"; "x"; "o" ] in
    let space = Dda_verify.Space.explore ~max_configs:500_000 q g in
    Alcotest.(check bool) "quotient still accepts 2 x's" true
      (Dda_verify.Decide.pseudo_stochastic space = Dda_verify.Decide.Accepts)

(* The closure stops at the first state beyond [max_states]: a machine with
   more reachable states than that gives [None] without finishing the pass
   that found them (239,688 delta calls at 14 states when the bound was
   checked only between passes). *)
let test_reachable_states_bails_early () =
  let m = Dda_protocols.Cutoff_broadcast.threshold ~alphabet:[ "a"; "b" ] ~label:"a" ~k:2 in
  let calls = ref 0 in
  let counting =
    Machine.create ~name:m.Machine.name ~beta:m.Machine.beta ~init:m.Machine.init
      ~delta:(fun q n ->
        incr calls;
        m.Machine.delta q n)
      ~accepting:m.Machine.accepting ~rejecting:m.Machine.rejecting ()
  in
  let r = Tabulate.reachable_states ~max_states:14 ~labels:[ "a"; "b" ] counting in
  Alcotest.(check bool) "more than 14 states" true (r = None);
  Alcotest.(check bool)
    (Printf.sprintf "stopped early (%d delta calls)" !calls)
    true (!calls < 20_000)

let () =
  Alcotest.run "machine"
    [
      ( "neighbourhood",
        [
          Alcotest.test_case "observe caps" `Quick test_observe_caps;
          Alcotest.test_case "aggregates" `Quick test_neighbourhood_aggregates;
        ] );
      ( "machine",
        [
          Alcotest.test_case "beta validation" `Quick test_beta_validation;
          Alcotest.test_case "non counting" `Quick test_non_counting;
          Alcotest.test_case "verdict of state" `Quick test_verdict_of_state;
          Alcotest.test_case "halting combinator" `Quick test_halting_combinator;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "map_states" `Quick test_map_states;
          Alcotest.test_case "product frozen" `Quick test_product_frozen;
          Alcotest.test_case "projection caps" `Quick test_projection_caps;
        ] );
      ( "tabulate",
        [
          Alcotest.test_case "roundtrip" `Quick test_tabulate_roundtrip;
          Alcotest.test_case "minimise merges" `Quick test_minimise_merges;
          Alcotest.test_case "minimise identity" `Quick test_minimise_identity;
          Alcotest.test_case "compiled threshold" `Quick test_minimise_compiled_threshold;
          Alcotest.test_case "reachable states bail early" `Quick test_reachable_states_bails_early;
        ] );
    ]
