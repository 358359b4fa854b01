module Machine = Dda_machine.Machine
module Graph = Dda_graph.Graph
module Decide = Dda_verify.Decide
module Scheduler = Dda_scheduler.Scheduler
module Run = Dda_runtime.Run

type budget = { max_configs : int; max_steps : int }

let default_budget = { max_configs = 200_000; max_steps = 1_000_000 }

type outcome = (Decide.verdict, [ `Too_large of int | `No_cycle ]) result

let decide ?cache ?machine_key ?(budget = default_budget) ~fairness m g =
  let d =
    Dda_batch.Batch.decide ?cache ?machine_key ~regime:fairness
      ~max_configs:budget.max_configs m g
  in
  match d.Dda_batch.Batch.result with
  | Dda_batch.Batch.Verdict v -> Ok v
  | Dda_batch.Batch.Bounded n -> Error (`Too_large n)

let decide_synchronous ?(budget = default_budget) m g =
  match Decide.synchronous ~max_steps:budget.max_steps m g with
  | Some v -> Ok v
  | None -> Error `No_cycle

let decide_clique ?(budget = default_budget) m label_count =
  match Dda_symbolic.Counted.clique ~max_configs:budget.max_configs m label_count with
  | exception Dda_symbolic.Counted.Too_large n -> Error (`Too_large n)
  | c -> Ok (Decide.pseudo_stochastic c)

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
