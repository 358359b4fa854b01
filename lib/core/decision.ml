module Machine = Dda_machine.Machine
module Graph = Dda_graph.Graph
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module Scheduler = Dda_scheduler.Scheduler
module Run = Dda_runtime.Run

type budget = { max_configs : int; max_steps : int }

let default_budget = { max_configs = 200_000; max_steps = 1_000_000 }

type outcome = (Decide.verdict, [ `Too_large of int | `No_cycle ]) result

let decide ?(budget = default_budget) ?jobs ?symmetry
    ?(engine = Dda_batch.Spec.Explicit) ~fairness m g =
  let explicit () =
    match Space.explore ?jobs ?symmetry ~max_configs:budget.max_configs m g with
    | exception Space.Too_large n -> Error (`Too_large n)
    | space -> (
      match (fairness : Classes.fairness) with
      | Classes.Adversarial -> Ok (Decide.adversarial space)
      | Classes.Pseudo_stochastic -> Ok (Decide.pseudo_stochastic space))
  in
  match engine with
  | Dda_batch.Spec.Explicit -> explicit ()
  | Dda_batch.Spec.Symbolic | Dda_batch.Spec.Auto -> (
    match Dda_symbolic.Counted.of_graph ~max_configs:budget.max_configs m g with
    | exception Dda_symbolic.Counted.Too_large n -> Error (`Too_large n)
    | Some c ->
      Ok
        (match (fairness : Classes.fairness) with
        | Classes.Adversarial -> Dda_symbolic.Analysis.adversarial c
        | Classes.Pseudo_stochastic -> Dda_symbolic.Analysis.pseudo_stochastic c)
    | None ->
      if engine = Dda_batch.Spec.Symbolic then
        invalid_arg "Decision.decide: the symbolic engine needs a clique or star graph"
      else explicit ())

let regime_of_fairness = function
  | Classes.Adversarial -> Dda_batch.Spec.Adversarial
  | Classes.Pseudo_stochastic -> Dda_batch.Spec.Pseudo_stochastic

let decide_cached ?cache ?machine_key ?(budget = default_budget) ?jobs ?symmetry
    ?engine ~fairness m g =
  match cache with
  | None -> decide ~budget ?jobs ?symmetry ?engine ~fairness m g
  | Some _ ->
    let d =
      Dda_batch.Batch.decide ?cache ?machine_key ?jobs ?symmetry ?engine
        ~regime:(regime_of_fairness fairness) ~max_configs:budget.max_configs m g
    in
    (match d.Dda_batch.Batch.result with
    | Dda_batch.Batch.Verdict v -> Ok v
    | Dda_batch.Batch.Bounded n -> Error (`Too_large n))

let decide_synchronous ?(budget = default_budget) m g =
  match Decide.synchronous ~max_steps:budget.max_steps m g with
  | Some v -> Ok v
  | None -> Error `No_cycle

let decide_clique ?(budget = default_budget) m label_count =
  match Dda_symbolic.Counted.clique ~max_configs:budget.max_configs m label_count with
  | exception Dda_symbolic.Counted.Too_large n -> Error (`Too_large n)
  | c -> Ok (Dda_symbolic.Analysis.pseudo_stochastic c)

let simulate_verdict ?(budget = default_budget) ?(seed = 1) ~fairness m g =
  let n = Graph.nodes g in
  let sched =
    match (fairness : Classes.fairness) with
    | Classes.Pseudo_stochastic -> Scheduler.random_exclusive ~n ~seed
    | Classes.Adversarial -> Scheduler.random_adversary ~n ~seed
  in
  let r = Run.simulate ~max_steps:budget.max_steps m g sched in
  match r.Run.verdict with
  | `Accepting -> Some true
  | `Rejecting -> Some false
  | `Mixed -> None
