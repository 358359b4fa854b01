module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module Machine = Dda_machine.Machine
module N = Dda_machine.Neighbourhood
module S = Dda_scheduler.Scheduler
module Config = Dda_runtime.Config
module Run = Dda_runtime.Run
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module WB = Dda_extensions.Weak_broadcast
module AD = Dda_extensions.Absence_detection
module Pop = Dda_extensions.Population
module SB = Dda_extensions.Strong_broadcast

let verdict = Alcotest.testable Decide.pp_verdict (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Example 4.6: the weak-broadcast automaton with states {a, b, x}.    *)
(* ------------------------------------------------------------------ *)

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
  (* broadcasts: a ↦ a, {x ↦ a}   and   b ↦ b, {b ↦ a, a ↦ x} *)
  let initiate = function Xa -> Some (Xa, 0) | Xb -> Some (Xb, 1) | Xx -> None in
  let respond f q =
    if f = 0 then (if q = Xx then Xa else q)
    else match q with Xb -> Xa | Xa -> Xx | Xx -> Xx
  in
  WB.create ~base ~initiate ~respond ~response_count:2

let test_example_4_6_native () =
  (* line with five nodes: b x x x b (ends can broadcast) *)
  let g = G.line [ 'b'; 'x'; 'x'; 'x'; 'b' ] in
  let c0 = Config.initial example_4_6.WB.base g in
  Alcotest.(check bool) "ends are b" true (Config.state c0 0 = Xb && Config.state c0 4 = Xb);
  (* both ends broadcast simultaneously (they are non-adjacent) *)
  let choose ~node ~initiators:_ = if node <= 2 then 0 else 4 in
  let c1 = WB.step_broadcast ~choose example_4_6 g c0 [ 0; 4 ] in
  (* initiators keep b; every x responds with b↦a,a↦x... x stays x; so only
     the b-end states matter: both remain Xb, others unchanged *)
  Alcotest.(check bool) "initiators stay b" true (Config.state c1 0 = Xb && Config.state c1 4 = Xb);
  (* now a single broadcast from node 0 reaches everyone *)
  let choose ~node:_ ~initiators:_ = 0 in
  let c2 = WB.step_broadcast ~choose example_4_6 g c1 [ 0 ] in
  (* responders: node 4 was Xb -> Xa *)
  Alcotest.(check bool) "other end turned a" true (Config.state c2 4 = Xa)

let test_broadcast_requires_independent () =
  let g = G.line [ 'b'; 'b'; 'x' ] in
  let c0 = Config.initial example_4_6.WB.base g in
  Alcotest.check_raises "adjacent initiators rejected"
    (Invalid_argument "Weak_broadcast.step_broadcast: selection is not independent")
    (fun () ->
      ignore
        (WB.step_broadcast ~choose:(fun ~node:_ ~initiators -> List.hd initiators) example_4_6 g
           c0 [ 0; 1 ]))

let test_neighbourhood_step_skips_initiators () =
  let g = G.line [ 'b'; 'x'; 'x' ] in
  let c0 = Config.initial example_4_6.WB.base g in
  (* node 0 is Xb, an initiating state: neighbourhood selection must skip it *)
  let c1 = WB.step_neighbourhood example_4_6 g c0 0 in
  Alcotest.(check bool) "unchanged" true (Config.equal c0 c1)

(* ------------------------------------------------------------------ *)
(* Lemma C.5 levels: x >= k with weak broadcasts (via Cutoff_broadcast  *)
(* in the protocols library; here we test the raw machinery with a      *)
(* hand-rolled 2-level instance).                                       *)
(* ------------------------------------------------------------------ *)

let threshold2 : (char, int) WB.t =
  (* states 0 (not-x), 1, 2; broadcasts: 1 ↦ 1, {1↦2}; 2 ↦ 2, {q↦2} *)
  let base =
    Machine.create ~name:"x>=2" ~beta:1
      ~init:(fun l -> if l = 'x' then 1 else 0)
      ~delta:(fun q _ -> q)
      ~accepting:(fun q -> q = 2)
      ~rejecting:(fun q -> q < 2)
      ~pp_state:Format.pp_print_int ()
  in
  let initiate = function 1 -> Some (1, 0) | 2 -> Some (2, 1) | _ -> None in
  let respond f q = if f = 0 then (if q = 1 then 2 else q) else 2 in
  WB.create ~base ~initiate ~respond ~response_count:2

let test_threshold2_native_space () =
  let cases =
    [ ([ 'x'; 'x'; 'o' ], Decide.Accepts); ([ 'x'; 'o'; 'o' ], Decide.Rejects);
      ([ 'o'; 'o'; 'o' ], Decide.Rejects); ([ 'x'; 'x'; 'x'; 'o' ], Decide.Accepts) ]
  in
  List.iter
    (fun (labels, expected) ->
      let g = G.cycle labels in
      let space = WB.space ~max_configs:200000 threshold2 g in
      Alcotest.check verdict "native verdict" expected (Decide.pseudo_stochastic space))
    cases

let test_threshold2_compiled () =
  let m = WB.compile threshold2 in
  let cases =
    [ ([ 'x'; 'x'; 'o' ], Decide.Accepts); ([ 'x'; 'o'; 'o' ], Decide.Rejects);
      ([ 'o'; 'o'; 'o' ], Decide.Rejects) ]
  in
  List.iter
    (fun (labels, expected) ->
      let g = G.cycle labels in
      let space = Space.explore ~max_configs:500000 m g in
      Alcotest.check verdict "compiled verdict" expected (Decide.pseudo_stochastic space))
    cases;
  (* and on a star (different topology) *)
  let g = G.star ~centre:'o' ~leaves:[ 'x'; 'x'; 'o' ] in
  let space = Space.explore ~max_configs:500000 m g in
  Alcotest.check verdict "star" Decide.Accepts (Decide.pseudo_stochastic space)

let test_threshold2_compiled_simulation () =
  let m = WB.compile threshold2 in
  let g = G.line [ 'o'; 'x'; 'o'; 'x'; 'o'; 'o' ] in
  let r = Run.simulate ~max_steps:500000 m g (S.random_exclusive ~n:6 ~seed:5) in
  Alcotest.(check bool) "accepts by simulation" true (r.Run.verdict = `Accepting)

let test_compile_phase_invariant () =
  (* Lemma B.5: adjacent agents' phase COUNTS (total number of phase changes)
     never differ by more than one. *)
  let m = WB.compile threshold2 in
  let g = G.cycle [ 'x'; 'o'; 'x'; 'o'; 'o' ] in
  let phase = function WB.Base _ -> 0 | WB.Mid (_, p, _) -> p in
  let pc = Array.make 5 0 in
  let ok = ref true in
  let check ~step:_ ~selection:_ ~before ~after =
    for v = 0 to 4 do
      let p0 = phase (Config.state before v) and p1 = phase (Config.state after v) in
      if p1 = (p0 + 1) mod 3 then pc.(v) <- pc.(v) + 1
      else if p1 <> p0 then ok := false (* phases must advance one at a time *)
    done;
    List.iter (fun (u, v) -> if abs (pc.(u) - pc.(v)) > 1 then ok := false) (G.edges g)
  in
  ignore (Run.simulate ~on_step:check ~max_steps:20000 m g (S.random_exclusive ~n:5 ~seed:3));
  Alcotest.(check bool) "phase-count invariant (Lemma B.5)" true !ok;
  Alcotest.(check bool) "phases actually cycled" true (Array.exists (fun c -> c >= 3) pc)

(* Lemma 4.7 as a property: for RANDOM weak-broadcast protocols, whenever
   the native semantics yields a definite pseudo-stochastic verdict, the
   compiled three-phase automaton yields the same one. *)
let random_wb seed : (char, int) WB.t =
  let module Prng = Dda_util.Prng in
  let rng = Prng.create (1000 + seed) in
  let dtable = Array.init 24 (fun _ -> Prng.int rng 3) in
  let base =
    Machine.create ~name:(Printf.sprintf "rand-wb-%d" seed) ~beta:1
      ~init:(fun l -> if l = 'a' then Prng.int (Prng.create (seed * 3)) 3 else 0)
      ~delta:(fun q n ->
        let mask = List.fold_left (fun acc (s, _) -> acc lor (1 lsl s)) 0 n in
        dtable.((q * 8) + mask))
      ~accepting:(fun q -> q = 2)
      ~rejecting:(fun q -> q < 2)
      ~pp_state:Format.pp_print_int ()
  in
  let initiating = Array.init 3 (fun _ -> Prng.bool rng) in
  let moves = Array.init 3 (fun _ -> Prng.int rng 3) in
  let fids = Array.init 3 (fun _ -> Prng.int rng 2) in
  let rtable = Array.init 6 (fun _ -> Prng.int rng 3) in
  WB.create ~base
    ~initiate:(fun q -> if initiating.(q) then Some (moves.(q), fids.(q)) else None)
    ~respond:(fun f q -> rtable.((f * 3) + q))
    ~response_count:2

let prop_compile_preserves_decisions =
  QCheck.Test.make ~name:"Lemma 4.7 on random protocols" ~count:60
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, shape) ->
      let wb = random_wb seed in
      let g =
        match shape with
        | 0 -> G.cycle [ 'a'; 'b'; 'b' ]
        | 1 -> G.line [ 'a'; 'b'; 'a' ]
        | _ -> G.star ~centre:'b' ~leaves:[ 'a'; 'b' ]
      in
      match WB.space ~max_configs:200000 wb g with
      | exception Space.Too_large _ -> true
      | native_space -> (
        match Decide.pseudo_stochastic native_space with
        | Decide.Inconsistent _ -> true
        | native_verdict -> (
          match Space.explore ~max_configs:600000 (WB.compile wb) g with
          | exception Space.Too_large _ -> true
          | compiled_space -> Decide.pseudo_stochastic compiled_space = native_verdict)))

(* ------------------------------------------------------------------ *)
(* Weak absence detection                                              *)
(* ------------------------------------------------------------------ *)

(* A machine where the (unique) initiator learns the support: labels 'a','b';
   non-initiators idle; the 'c'-labelled centre asks whether 'b' occurs. *)
type probe = P_watch | P_a | P_b | P_yes | P_no

let probe_machine : (char, probe) AD.t =
  let base =
    Machine.create ~name:"probe" ~beta:1
      ~init:(fun l -> if l = 'c' then P_watch else if l = 'a' then P_a else P_b)
      ~delta:(fun q _ -> q)
      ~accepting:(fun q -> q = P_yes)
      ~rejecting:(fun q -> q <> P_yes)
      ()
  in
  let initiating = function P_watch -> true | _ -> false in
  let detect q support =
    match q with P_watch -> if List.mem P_b support then P_no else P_yes | other -> other
  in
  AD.create ~base ~initiating ~detect

let test_absence_native_single_initiator () =
  (* single initiator: its subset must cover V, so it sees the full support *)
  let g = G.star ~centre:'c' ~leaves:[ 'a'; 'a'; 'b' ] in
  let assign ~initiators:_ _ = 0 in
  let c1 = AD.step ~assign probe_machine g (Config.initial probe_machine.AD.base g) in
  Alcotest.(check bool) "saw the b" true (Config.state c1 0 = P_no);
  let g2 = G.star ~centre:'c' ~leaves:[ 'a'; 'a'; 'a' ] in
  let c2 = AD.step ~assign probe_machine g2 (Config.initial probe_machine.AD.base g2) in
  Alcotest.(check bool) "no b" true (Config.state c2 0 = P_yes)

let test_absence_hangs_without_initiator () =
  let g = G.line [ 'a'; 'b'; 'a' ] in
  let c0 = Config.initial probe_machine.AD.base g in
  let c1 = AD.step ~assign:(fun ~initiators:_ u -> u) probe_machine g c0 in
  Alcotest.(check bool) "hangs" true (Config.equal c0 c1)

let test_absence_compiled_single_initiator () =
  (* Lemma 4.9: compiled machine, exclusive adversarial scheduling; the
     initiator must still see the full support of the snapshot. *)
  List.iter
    (fun (leaves, expected) ->
      let g = G.star ~centre:'c' ~leaves in
      let m = AD.compile ~k:(G.max_degree g) probe_machine in
      let n = G.nodes g in
      let r = Run.simulate ~max_steps:200000 m g (S.round_robin ~n) in
      let got = Config.state r.Run.final 0 in
      Alcotest.(check bool) "centre decided" true (got = AD.D0 expected))
    [ ([ 'a'; 'a'; 'b' ], P_no); ([ 'a'; 'a'; 'a' ], P_yes) ];
  (* also on a line, where propagation needs the distance labels *)
  let g = G.line [ 'a'; 'a'; 'c'; 'a'; 'b' ] in
  let m = AD.compile ~k:2 probe_machine in
  let r = Run.simulate ~max_steps:200000 m g (S.burst ~n:5 ~width:3) in
  Alcotest.(check bool) "line probe found b" true (Config.state r.Run.final 2 = AD.D0 P_no)

(* two initiators splitting the cover: each sees its subset's support; the
   union of subsets must be everything (Def 4.8) *)
type seen = Obs_watch | Obs_x | Seen of probe list

let recorder : (char, seen) AD.t =
  let base =
    Machine.create ~name:"recorder" ~beta:1
      ~init:(fun l -> if l = 'c' then Obs_watch else Obs_x)
      ~delta:(fun q _ -> q)
      ~accepting:(fun _ -> true)
      ~rejecting:(fun _ -> false)
      ()
  in
  let initiating = function Obs_watch -> true | _ -> false in
  let detect q support =
    match q with
    | Obs_watch ->
      Seen
        (List.filter_map
           (function Obs_watch -> Some P_watch | Obs_x -> Some P_a | Seen _ -> None)
           support)
    | other -> other
  in
  AD.create ~base ~initiating ~detect

let test_absence_multi_initiator_covers () =
  (* line c - x - c: both ends initiate; every assignment of the middle node
     must place it in at least one initiator's subset *)
  let g = G.line [ 'c'; 'x'; 'c' ] in
  let c0 = Config.initial recorder.AD.base g in
  (* enumerate both assignments of the middle node *)
  List.iter
    (fun owner ->
      let assign ~initiators:_ u = if u = 1 then owner else u in
      let c1 = AD.step ~assign recorder g c0 in
      let seen v = match Config.state c1 v with Seen s -> s | _ -> [] in
      (* the owner saw the x agent; both saw themselves *)
      Alcotest.(check bool) "owner saw x" true (List.mem P_a (seen owner));
      let other = if owner = 0 then 2 else 0 in
      Alcotest.(check bool) "other saw itself" true (List.mem P_watch (seen other));
      (* union covers the x agent *)
      Alcotest.(check bool) "union covers" true
        (List.mem P_a (seen 0) || List.mem P_a (seen 2)))
    [ 0; 2 ]

let test_absence_space_unconditional () =
  let g = G.line [ 'a'; 'c'; 'b' ] in
  let space = AD.space ~max_configs:10000 probe_machine g in
  (* all runs converge to P_no at the centre; P_yes is accepting, so the
     machine rejects unconditionally *)
  Alcotest.check verdict "rejects" Decide.Rejects (Decide.unconditional space)

(* ------------------------------------------------------------------ *)
(* Population protocols and Lemma 4.10                                  *)
(* ------------------------------------------------------------------ *)

let epidemic = Dda_protocols.Pop_examples.epidemic ~target:'a'

let test_population_step_validation () =
  let g = G.line [ 'a'; 'b'; 'b' ] in
  let c = Pop.initial epidemic g in
  Alcotest.check_raises "non-adjacent pair" (Invalid_argument "Population.step: nodes are not adjacent")
    (fun () -> ignore (Pop.step epidemic g c (0, 2)))

let test_population_native () =
  List.iter
    (fun (g, expected) ->
      let space = Pop.space ~max_configs:100000 epidemic g in
      Alcotest.check verdict "epidemic" expected (Decide.pseudo_stochastic space))
    [
      (G.line [ 'a'; 'b'; 'b' ], Decide.Accepts);
      (G.cycle [ 'b'; 'b'; 'b'; 'b' ], Decide.Rejects);
      (G.star ~centre:'b' ~leaves:[ 'b'; 'a' ], Decide.Accepts);
    ]

let test_population_simulation () =
  let g = G.grid ~width:3 ~height:2 (fun x y -> if x = 2 && y = 1 then 'a' else 'b') in
  let final, _ = Pop.simulate_random ~seed:3 ~max_steps:100000 epidemic g in
  Alcotest.(check bool) "all infected" true (Pop.verdict epidemic final = `Accepting)

let test_population_compiled () =
  let m = Pop.compile epidemic in
  List.iter
    (fun (g, expected) ->
      let space = Space.explore ~max_configs:500000 m g in
      Alcotest.check verdict "compiled epidemic" expected (Decide.pseudo_stochastic space))
    [
      (G.line [ 'a'; 'b'; 'b' ], Decide.Accepts);
      (G.cycle [ 'b'; 'b'; 'b'; 'b' ], Decide.Rejects);
      (G.cycle [ 'b'; 'a'; 'b'; 'b' ], Decide.Accepts);
    ]

let test_population_majority_native () =
  let mj = Dda_protocols.Pop_examples.majority_4state in
  List.iter
    (fun (labels, expected) ->
      let g = G.cycle labels in
      let space = Pop.space ~max_configs:400000 mj g in
      Alcotest.check verdict "4-state majority" expected (Decide.pseudo_stochastic space))
    [
      ([ 'a'; 'a'; 'b' ], Decide.Accepts);
      ([ 'a'; 'b'; 'b' ], Decide.Rejects);
      ([ 'a'; 'b'; 'a'; 'b' ], Decide.Rejects) (* tie: strict majority fails *);
      ([ 'a'; 'a'; 'a'; 'b' ], Decide.Accepts);
    ]

let test_settle_time () =
  let mj = Dda_protocols.Pop_examples.majority_4state in
  (match Pop.settle_time ~seed:2 ~max_steps:100_000 mj (G.cycle [ 'a'; 'a'; 'b' ]) with
  | Some (t, `Accepting) -> Alcotest.(check bool) "settles early" true (t < 100_000)
  | _ -> Alcotest.fail "expected accepting settle");
  match Pop.settle_time ~seed:2 ~max_steps:100_000 mj (G.cycle [ 'a'; 'b'; 'b' ]) with
  | Some (_, `Rejecting) -> ()
  | _ -> Alcotest.fail "expected rejecting settle"

(* Lemma 4.10 as a property: for RANDOM population protocols, a definite
   native pseudo-stochastic verdict is preserved by the compilation. *)
let random_pop seed : (char, int) Pop.t =
  let module Prng = Dda_util.Prng in
  let rng = Prng.create (5000 + seed) in
  let table = Array.init 9 (fun _ -> (Prng.int rng 3, Prng.int rng 3)) in
  Pop.create
    ~init:(fun l -> if l = 'a' then Prng.int (Prng.create (seed * 5 + 1)) 3 else 0)
    ~delta:(fun p q -> table.((p * 3) + q))
    ~accepting:(fun s -> s = 2)
    ~rejecting:(fun s -> s < 2)
    ~pp_state:Format.pp_print_int ()

let prop_population_compile_preserves =
  QCheck.Test.make ~name:"Lemma 4.10 on random protocols" ~count:60
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, shape) ->
      let pop = random_pop seed in
      let g =
        match shape with
        | 0 -> G.cycle [ 'a'; 'b'; 'b' ]
        | 1 -> G.line [ 'a'; 'b'; 'a' ]
        | _ -> G.star ~centre:'b' ~leaves:[ 'a'; 'b' ]
      in
      match Pop.space ~max_configs:100000 pop g with
      | exception Space.Too_large _ -> true
      | native_space -> (
        match Decide.pseudo_stochastic native_space with
        | Decide.Inconsistent _ -> true
        | native_verdict -> (
          match Space.explore ~max_configs:600000 (Pop.compile pop) g with
          | exception Space.Too_large _ -> true
          | compiled_space -> Decide.pseudo_stochastic compiled_space = native_verdict)))

let test_leader_election_bottoms () =
  let le = Dda_protocols.Pop_examples.leader_election in
  (* On a clique any two leaders are adjacent, so every terminal
     configuration has exactly one; on sparser graphs the protocol can get
     stuck with several distant leaders (it has no token movement). *)
  let g = G.clique [ 'x'; 'x'; 'x'; 'x' ] in
  let space = Pop.space ~max_configs:100000 le g in
  (* quiescent configurations (no outgoing edges) have exactly one leader *)
  let quiescent = List.filter (fun i -> space.Space.degree i = 0) (Dda_util.Listx.range space.Space.size) in
  Alcotest.(check bool) "some terminal configs" true (quiescent <> []);
  List.iter
    (fun i ->
      let d = space.Space.describe i in
      (* count 'L' occurrences in the description *)
      let leaders = String.fold_left (fun acc ch -> if ch = 'L' then acc + 1 else acc) 0 d in
      Alcotest.(check int) "single leader" 1 leaders)
    quiescent

(* ------------------------------------------------------------------ *)
(* Strong broadcasts and the Lemma 5.1 token construction               *)
(* ------------------------------------------------------------------ *)

let test_strong_native () =
  let se = Dda_protocols.Strong_examples.at_least_two_a in
  List.iter
    (fun (labels, expected) ->
      let space = SB.space ~max_configs:50000 se (G.clique labels) in
      Alcotest.check verdict "two_a" expected (Decide.pseudo_stochastic space))
    [
      ([ 'a'; 'a'; 'b' ], Decide.Accepts);
      ([ 'a'; 'b'; 'b' ], Decide.Rejects);
      ([ 'b'; 'b'; 'b' ], Decide.Rejects);
      ([ 'a'; 'a'; 'a'; 'a' ], Decide.Accepts);
    ];
  let odd = Dda_protocols.Strong_examples.odd_a in
  List.iter
    (fun (labels, expected) ->
      let space = SB.space ~max_configs:50000 odd (G.clique labels) in
      Alcotest.check verdict "odd_a" expected (Decide.pseudo_stochastic space))
    [
      ([ 'a'; 'a'; 'b' ], Decide.Rejects);
      ([ 'a'; 'b'; 'b' ], Decide.Accepts);
      ([ 'a'; 'a'; 'a' ], Decide.Accepts);
    ]

let test_token_construction_exact () =
  (* Lemma 5.1 end-to-end, decided exactly on the configuration space. *)
  let m = SB.to_daf Dda_protocols.Strong_examples.odd_a in
  List.iter
    (fun (g, expected) ->
      let space = Space.explore ~max_configs:600000 m g in
      Alcotest.check verdict "to_daf odd_a" expected (Decide.pseudo_stochastic space))
    [
      (G.line [ 'a'; 'b'; 'a' ], Decide.Rejects);
      (G.line [ 'a'; 'b'; 'b' ], Decide.Accepts);
      (G.cycle [ 'a'; 'a'; 'a' ], Decide.Accepts);
    ]

let test_token_construction_simulation () =
  let m = SB.to_daf Dda_protocols.Strong_examples.at_least_two_a in
  List.iter
    (fun (labels, expected) ->
      let g = G.cycle labels in
      let n = G.nodes g in
      let r = Run.simulate ~max_steps:2_000_000 m g (S.random_exclusive ~n ~seed:21) in
      Alcotest.(check bool) "verdict" true (r.Run.verdict = expected))
    [ ([ 'a'; 'b'; 'a'; 'b' ], `Accepting); ([ 'a'; 'b'; 'b'; 'b' ], `Rejecting) ]

(* ------------------------------------------------------------------ *)
(* Simulation relation checker (Definitions 4.1-4.3)                     *)
(* ------------------------------------------------------------------ *)

module Sim = Dda_extensions.Simulation_check

let test_simulation_check_wb () =
  List.iter
    (fun (g, seed) ->
      match Sim.check_weak_broadcast ~seed threshold2 g with
      | Ok report ->
        Alcotest.(check bool) "validated some macro steps" true (report.Sim.macro_steps >= 1);
        Alcotest.(check bool) "snapshots observed" true (report.Sim.snapshots >= 2)
      | Error msg -> Alcotest.failf "extension violated: %s" msg)
    [ (G.cycle [ 'x'; 'x'; 'o' ], 1); (G.line [ 'x'; 'o'; 'x'; 'x' ], 2); (G.star ~centre:'o' ~leaves:[ 'x'; 'x' ], 3) ]

let test_simulation_check_ex46 () =
  match Sim.check_weak_broadcast ~seed:7 ~max_steps:30_000 example_4_6 (G.line [ 'b'; 'x'; 'x'; 'x'; 'b' ]) with
  | Ok report -> Alcotest.(check bool) "macro steps" true (report.Sim.macro_steps >= 3)
  | Error msg -> Alcotest.failf "extension violated: %s" msg

let test_simulation_check_population () =
  List.iter
    (fun (g, seed) ->
      match Sim.check_population ~seed epidemic g with
      | Ok report -> Alcotest.(check bool) "macro steps" true (report.Sim.macro_steps >= 1)
      | Error msg -> Alcotest.failf "extension violated: %s" msg)
    [ (G.cycle [ 'a'; 'b'; 'b'; 'b' ], 4); (G.line [ 'b'; 'a'; 'b' ], 5) ];
  match Sim.check_population ~seed:6 Dda_protocols.Pop_examples.majority_4state (G.cycle [ 'a'; 'b'; 'a'; 'b' ]) with
  | Ok report -> Alcotest.(check bool) "majority handshakes validated" true (report.Sim.macro_steps >= 1)
  | Error msg -> Alcotest.failf "extension violated: %s" msg

let test_simulation_check_inert () =
  (* a machine whose responses do nothing produces runs with no macro steps:
     the checker reports them honestly instead of inventing transitions *)
  let inert = { threshold2 with WB.respond = (fun _ q -> q) } in
  match Sim.check_weak_broadcast ~seed:1 ~max_steps:5000 inert (G.cycle [ 'x'; 'x'; 'o' ]) with
  | Ok report -> Alcotest.(check int) "inert machine has no macro steps" 0 report.Sim.macro_steps
  | Error msg -> Alcotest.failf "unexpected: %s" msg

let () =
  Alcotest.run "extensions"
    [
      ( "weak broadcast",
        [
          Alcotest.test_case "example 4.6 native" `Quick test_example_4_6_native;
          Alcotest.test_case "independence check" `Quick test_broadcast_requires_independent;
          Alcotest.test_case "n-steps skip initiators" `Quick test_neighbourhood_step_skips_initiators;
          Alcotest.test_case "threshold2 native space" `Quick test_threshold2_native_space;
          Alcotest.test_case "threshold2 compiled (Lemma 4.7)" `Quick test_threshold2_compiled;
          Alcotest.test_case "threshold2 compiled simulation" `Quick test_threshold2_compiled_simulation;
          Alcotest.test_case "three-phase invariant" `Quick test_compile_phase_invariant;
          QCheck_alcotest.to_alcotest prop_compile_preserves_decisions;
        ] );
      ( "absence detection",
        [
          Alcotest.test_case "native single initiator" `Quick test_absence_native_single_initiator;
          Alcotest.test_case "hangs without initiator" `Quick test_absence_hangs_without_initiator;
          Alcotest.test_case "compiled (Lemma 4.9)" `Quick test_absence_compiled_single_initiator;
          Alcotest.test_case "space + unconditional decide" `Quick test_absence_space_unconditional;
          Alcotest.test_case "multi-initiator covers" `Quick test_absence_multi_initiator_covers;
        ] );
      ( "population",
        [
          Alcotest.test_case "native epidemic" `Quick test_population_native;
          Alcotest.test_case "step validation" `Quick test_population_step_validation;
          Alcotest.test_case "simulation" `Quick test_population_simulation;
          Alcotest.test_case "compiled (Lemma 4.10)" `Quick test_population_compiled;
          Alcotest.test_case "4-state majority" `Quick test_population_majority_native;
          Alcotest.test_case "settle time" `Quick test_settle_time;
          QCheck_alcotest.to_alcotest prop_population_compile_preserves;
          Alcotest.test_case "leader election bottoms" `Quick test_leader_election_bottoms;
        ] );
      ( "simulation relation",
        [
          Alcotest.test_case "threshold2 runs are extensions" `Quick test_simulation_check_wb;
          Alcotest.test_case "example 4.6 runs are extensions" `Quick test_simulation_check_ex46;
          Alcotest.test_case "population runs are extensions" `Quick test_simulation_check_population;
          Alcotest.test_case "inert machine sanity" `Quick test_simulation_check_inert;
        ] );
      ( "strong broadcast",
        [
          Alcotest.test_case "native protocols" `Quick test_strong_native;
          Alcotest.test_case "token construction exact (Lemma 5.1)" `Quick test_token_construction_exact;
          Alcotest.test_case "token construction simulation" `Quick test_token_construction_simulation;
        ] );
    ]
