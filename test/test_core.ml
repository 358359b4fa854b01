module Classes = Dda_core.Classes
module Decision = Dda_core.Decision
module Evaluate = Dda_core.Evaluate
module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module P = Dda_presburger.Predicate
module Decide = Dda_verify.Decide

let test_class_names () =
  Alcotest.(check int) "eight combinations" 8 (List.length Classes.all);
  Alcotest.(check int) "seven classes" 7 (List.length Classes.representatives);
  let names = List.map Classes.name Classes.all in
  Alcotest.(check (list string)) "names"
    [ "daf"; "daF"; "dAf"; "dAF"; "Daf"; "DaF"; "DAf"; "DAF" ]
    names;
  List.iter
    (fun c -> Alcotest.(check (option string)) "roundtrip" (Some (Classes.name c))
        (Option.map Classes.name (Classes.of_name (Classes.name c))))
    Classes.all;
  Alcotest.(check (option string)) "bad name" None (Option.map Classes.name (Classes.of_name "xyz"))

let cls s = Option.get (Classes.of_name s)

let test_equivalence () =
  Alcotest.(check bool) "daf ≡ daF" true (Classes.equivalent (cls "daf") (cls "daF"));
  Alcotest.(check bool) "daf ≢ Daf" false (Classes.equivalent (cls "daf") (cls "Daf"));
  Alcotest.(check bool) "reflexive" true (Classes.equivalent (cls "DAF") (cls "DAF"))

let test_figure1_powers () =
  let p name = Classes.power_arbitrary (cls name) in
  Alcotest.(check bool) "halting trivial" true
    (List.for_all (fun n -> p n = Classes.Trivial) [ "daf"; "daF"; "Daf"; "DaF" ]);
  Alcotest.(check bool) "dAf cutoff1" true (p "dAf" = Classes.Cutoff_1);
  Alcotest.(check bool) "DAf cutoff1" true (p "DAf" = Classes.Cutoff_1);
  Alcotest.(check bool) "dAF cutoff" true (p "dAF" = Classes.Cutoff);
  Alcotest.(check bool) "DAF = NL" true (p "DAF" = Classes.NL);
  let b name = Classes.power_bounded_degree (cls name) in
  Alcotest.(check bool) "bounded dAf cutoff1" true (b "dAf" = Classes.Cutoff_1);
  Alcotest.(check bool) "bounded DAf ISM" true (b "DAf" = Classes.ISM_bounded);
  Alcotest.(check bool) "bounded dAF nspace" true (b "dAF" = Classes.NSPACE_n);
  Alcotest.(check bool) "bounded DAF nspace" true (b "DAF" = Classes.NSPACE_n)

let test_majority_column () =
  (* Only DAF decides majority on arbitrary graphs; DAf, dAF, DAF on
     bounded-degree graphs. *)
  let arbitrary =
    List.filter (fun c -> Classes.can_decide_majority c ~bounded_degree:false) Classes.representatives
  in
  Alcotest.(check (list string)) "arbitrary" [ "DAF" ] (List.map Classes.name arbitrary);
  let bounded =
    List.filter (fun c -> Classes.can_decide_majority c ~bounded_degree:true) Classes.representatives
  in
  Alcotest.(check (list string)) "bounded" [ "DAF"; "DAf"; "dAF" ]
    (List.sort compare (List.map Classes.name bounded))

let exists_a = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a"

let test_decision_facade () =
  let g = G.cycle [ "a"; "b"; "b" ] in
  (match Decision.decide ~fairness:Classes.Adversarial exists_a g with
  | Ok Decide.Accepts -> ()
  | _ -> Alcotest.fail "adversarial accept");
  (match Decision.decide ~fairness:Classes.Pseudo_stochastic exists_a g with
  | Ok Decide.Accepts -> ()
  | _ -> Alcotest.fail "pseudo-stochastic accept");
  (match Decision.decide_synchronous exists_a g with
  | Ok Decide.Accepts -> ()
  | _ -> Alcotest.fail "synchronous accept");
  match Decision.decide ~budget:{ Decision.max_configs = 1; max_steps = 10 } ~fairness:Classes.Pseudo_stochastic exists_a g with
  | Error (`Too_large _) -> ()
  | _ -> Alcotest.fail "budget should trip"

let test_decide_no_cycle () =
  (* a tiny step budget leaves the synchronous run without a closed cycle *)
  let m = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let g = G.cycle (List.init 6 (fun i -> if i = 0 then "a" else "b")) in
  match Decision.decide_synchronous ~budget:{ Decision.max_configs = 10; max_steps = 1 } m g with
  | Error `No_cycle -> ()
  | _ -> Alcotest.fail "expected No_cycle"

let test_decide_clique () =
  (match Decision.decide_clique exists_a (M.of_counts [ ("a", 2); ("b", 5) ]) with
  | Ok Decide.Accepts -> ()
  | _ -> Alcotest.fail "clique decision");
  (* counted configurations need a clique of at least two nodes *)
  List.iter
    (fun lc ->
      Alcotest.check_raises "fewer than 2 nodes refused"
        (Invalid_argument "Counted.of_shape: a clique needs at least two nodes") (fun () ->
          ignore (Decision.decide_clique exists_a lc)))
    [ M.empty; M.of_counts [ ("a", 1) ] ];
  match
    Decision.decide_clique ~budget:{ Decision.default_budget with max_configs = 3 } exists_a
      (M.of_counts [ ("a", 1); ("b", 5) ])
  with
  | Error (`Too_large _) -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_simulate_verdict () =
  let g = G.line [ "b"; "a"; "b"; "b" ] in
  Alcotest.(check (option bool)) "adversarial sim" (Some true)
    (Decision.simulate_verdict ~fairness:Classes.Adversarial exists_a g);
  Alcotest.(check (option bool)) "pseudo-stochastic sim" (Some true)
    (Decision.simulate_verdict ~fairness:Classes.Pseudo_stochastic exists_a g)

let test_suite_shape () =
  let s = Evaluate.suite ~max_nodes:4 () in
  Alcotest.(check bool) "non-empty" true (List.length s > 20);
  List.iter
    (fun (_, g) ->
      Alcotest.(check bool) "valid" true (Result.is_ok (G.validate g)))
    s;
  let bounded = Evaluate.suite ~max_nodes:5 ~bounded_degree:(Some 2) () in
  List.iter (fun (_, g) -> Alcotest.(check bool) "degree" true (G.max_degree g <= 2)) bounded

let test_evaluate_exists_a () =
  let graphs = Evaluate.suite ~max_nodes:4 () in
  let cases =
    Evaluate.against_predicate ~fairness:Classes.Adversarial ~machine:exists_a
      ~predicate:(P.exists_label "a") ~graphs ()
  in
  Alcotest.(check bool) "all correct (adversarial)" true (Evaluate.all_correct cases);
  let cases_f =
    Evaluate.against_predicate ~fairness:Classes.Pseudo_stochastic ~machine:exists_a
      ~predicate:(P.exists_label "a") ~graphs ()
  in
  Alcotest.(check bool) "all correct (pseudo-stochastic)" true (Evaluate.all_correct cases_f);
  let cases_s =
    Evaluate.against_predicate_synchronous ~machine:exists_a ~predicate:(P.exists_label "a")
      ~graphs ()
  in
  Alcotest.(check bool) "all correct (synchronous)" true (Evaluate.all_correct cases_s)

let test_evaluate_detects_wrong_machine () =
  (* exists_a does NOT decide #a >= 2: the evaluation must catch it *)
  let graphs = Evaluate.suite ~max_nodes:4 () in
  let cases =
    Evaluate.against_predicate ~fairness:Classes.Pseudo_stochastic ~machine:exists_a
      ~predicate:(P.at_least "a" 2) ~graphs ()
  in
  Alcotest.(check bool) "mismatch detected" false (Evaluate.all_correct cases)

let test_threshold_machine_on_suite () =
  let m = Dda_protocols.Cutoff_broadcast.threshold ~alphabet:[ "a"; "b" ] ~label:"a" ~k:2 in
  let graphs = Evaluate.suite ~max_nodes:4 () in
  let budget = { Decision.max_configs = 400_000; max_steps = 1_000_000 } in
  let cases =
    Evaluate.against_predicate ~budget ~fairness:Classes.Pseudo_stochastic ~machine:m
      ~predicate:(P.at_least "a" 2) ~graphs ()
  in
  List.iter
    (fun c ->
      if not (Evaluate.correct c) then
        Alcotest.failf "threshold wrong: %a" Evaluate.pp_case c)
    cases

(* ------------------------------------------------------------------ *)
(* Synthesis                                                            *)
(* ------------------------------------------------------------------ *)

module Synthesis = Dda_core.Synthesis

let plan_class p = Result.map (fun plan -> plan.Synthesis.class_name) p

let test_synthesis_routes () =
  Alcotest.(check (result string string)) "cutoff-1 route" (Ok "dAf")
    (plan_class (Synthesis.synthesise (P.exists_label "a")));
  Alcotest.(check (result string string)) "cutoff-K route" (Ok "dAF")
    (plan_class (Synthesis.synthesise (P.at_least "a" 3)));
  Alcotest.(check (result string string)) "homogeneous route" (Ok "DAf (degree <= 2)")
    (plan_class (Synthesis.synthesise ~degree_bound:2 (P.weak_majority "a" "b")));
  Alcotest.(check (result string string)) "semilinear route" (Ok "DAF")
    (plan_class (Synthesis.synthesise (P.majority "a" "b")));
  Alcotest.(check (result string string)) "semilinear without bound" (Ok "DAF")
    (plan_class (Synthesis.synthesise (P.weak_majority "a" "b")));
  Alcotest.(check bool) "opaque rejected" true
    (Result.is_error (Synthesis.synthesise (P.size_prime [ "a" ])))

let test_synthesis_decides () =
  let cases =
    [
      (P.exists_label "a", None);
      (P.at_least "a" 2, None);
      (P.majority "a" "b", None);
      (P.And (P.majority "a" "b", P.Mod (P.linear [ ("a", 1); ("b", 1) ], 0, 2)), None);
      (P.weak_majority "a" "b", Some 4) (* §6.1 route; suite graphs have degree <= 4 *);
    ]
  in
  let graphs = Evaluate.suite ~max_nodes:4 () in
  List.iter
    (fun (p, degree_bound) ->
      match Synthesis.synthesise ?degree_bound p with
      | Error e -> Alcotest.failf "synthesise %a: %s" P.pp p e
      | Ok plan ->
        List.iter
          (fun (name, g) ->
            match Synthesis.decide_plan ~budget:{ Decision.max_configs = 900_000; max_steps = 1_000_000 } plan g with
            | Ok v ->
              Alcotest.(check (option bool))
                (Format.asprintf "%a on %s (%s)" P.pp p name plan.Synthesis.class_name)
                (Some (P.holds p (G.label_count g)))
                (Decide.verdict_bool v)
            | Error (`Too_large n) ->
              Alcotest.failf "%a on %s: space too large (%d)" P.pp p name n
            | Error `No_cycle -> Alcotest.fail "no cycle")
          graphs)
    cases

(* Every decider the library ships must satisfy the consistency condition
   (all fair runs agree) on every suite graph. *)
let test_consistency_certification () =
  let machines =
    [
      ("cutoff1 exists-a", Synthesis.Packed exists_a);
      ( "cutoff2 threshold",
        Synthesis.Packed (Dda_protocols.Cutoff_broadcast.threshold ~alphabet:[ "a"; "b" ] ~label:"a" ~k:2) );
      ( "pop-majority",
        Synthesis.Packed
          (Dda_machine.Machine.relabel
             (fun l -> if l = "a" then 'a' else 'b')
             (Dda_extensions.Population.compile Dda_protocols.Pop_examples.majority_4state)) );
      ( "slp-majority",
        Synthesis.Packed
          (Dda_extensions.Population.compile
             (Dda_protocols.Semilinear_pop.threshold ~coeffs:[ ("a", 1); ("b", -1) ] ~c:1)) );
    ]
  in
  let graphs = Evaluate.suite ~max_nodes:4 () in
  List.iter
    (fun (name, Synthesis.Packed m) ->
      List.iter
        (fun (gname, g) ->
          match
            Decision.decide ~budget:{ Decision.max_configs = 600_000; max_steps = 1 }
              ~fairness:Classes.Pseudo_stochastic m g
          with
          | Ok (Decide.Inconsistent w) -> Alcotest.failf "%s inconsistent on %s: %s" name gname w
          | Ok _ -> ()
          | Error (`Too_large n) -> Alcotest.failf "%s too large on %s (%d)" name gname n
          | Error `No_cycle -> ())
        graphs)
    machines

let () =
  Alcotest.run "core"
    [
      ( "classes",
        [
          Alcotest.test_case "names" `Quick test_class_names;
          Alcotest.test_case "equivalence" `Quick test_equivalence;
          Alcotest.test_case "figure 1 powers" `Quick test_figure1_powers;
          Alcotest.test_case "majority column" `Quick test_majority_column;
        ] );
      ( "decision",
        [
          Alcotest.test_case "facade" `Quick test_decision_facade;
          Alcotest.test_case "clique counted" `Quick test_decide_clique;
          Alcotest.test_case "synchronous budget" `Quick test_decide_no_cycle;
          Alcotest.test_case "simulation fallback" `Quick test_simulate_verdict;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "suite shape" `Quick test_suite_shape;
          Alcotest.test_case "exists-a decides on suite" `Quick test_evaluate_exists_a;
          Alcotest.test_case "wrong machine detected" `Quick test_evaluate_detects_wrong_machine;
          Alcotest.test_case "threshold on suite" `Slow test_threshold_machine_on_suite;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "routes" `Quick test_synthesis_routes;
          Alcotest.test_case "synthesised machines decide" `Slow test_synthesis_decides;
          Alcotest.test_case "consistency certification" `Slow test_consistency_certification;
        ] );
    ]
