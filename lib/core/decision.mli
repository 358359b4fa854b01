(** Class-aware acceptance decisions: the end-to-end "does automaton [A]
    accept graph [G]?" API.

    Wraps the exact procedures of [Dda_verify.Decide] with exploration
    budgets and the class semantics: adversarial fairness uses the fair-SCC
    analysis on the explicit space, pseudo-stochastic fairness the
    bottom-SCC analysis, and {!decide_clique} uses the counted clique space
    — the executable version of the paper's NL upper-bound argument
    (Lemma 5.1): for labelling properties the graph may be replaced by the
    clique with the same label count, whose configurations are just state
    counts. *)

type budget = { max_configs : int; max_steps : int }

val default_budget : budget
(** 200_000 configurations / 1_000_000 steps. *)

type outcome = (Dda_verify.Decide.verdict, [ `Too_large of int | `No_cycle ]) result

val decide :
  ?cache:Dda_batch.Store.t ->
  ?machine_key:string ->
  ?budget:budget ->
  ?symmetry:Dda_verify.Symmetry.t ->
  ?engine:Dda_batch.Spec.engine ->
  fairness:Classes.fairness ->
  (string, 's) Dda_machine.Machine.t ->
  string Dda_graph.Graph.t ->
  outcome
(** Exact decision by state-space analysis: {!Dda_batch.Batch.decide} with
    the budget's configuration bound.  [`Too_large] reports an exceeded
    configuration budget.  [symmetry] quotients the space by a group of adjacency
    automorphisms of [g] (verdicts are unchanged — see
    [Dda_verify.Engine]).

    [engine] (default [Explicit]) selects the backend: [Symbolic] decides
    over counted configurations — multisets of states rather than node
    vectors — and only accepts clique and star graphs
    ([Invalid_argument] otherwise); [Auto] uses the counted engine when
    the graph is a clique or star and falls back to the explicit engine
    for every other topology.  Verdicts agree across engines wherever
    both apply.

    With [?cache] the verdict goes through the persistent verdict cache;
    without it no fingerprint is computed.  [machine_key] lets callers that
    decide many graphs with one machine amortise the machine fingerprint
    ({!Dda_batch.Fingerprint.machine}) across the calls. *)

val decide_synchronous :
  ?budget:budget ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  outcome
(** The synchronous (xy$) classes: deterministic run, cycle detection;
    [`No_cycle] if the run did not close a cycle within the step budget. *)

val decide_clique :
  ?budget:budget ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_multiset.Multiset.t ->
  outcome
(** Pseudo-stochastic decision on the clique with the given label count,
    over counted configurations (logarithmic-space objects;
    [Dda_symbolic.Counted.clique]).
    @raise Invalid_argument when the label count has fewer than 2 nodes. *)

val simulate_verdict :
  ?budget:budget ->
  ?seed:int ->
  fairness:Classes.fairness ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  bool option
(** Cheap empirical fallback for machines whose spaces are too large: run
    under a fair scheduler sampled for the class (random exclusive for [F],
    a random fair adversary for [f]) and report the settled consensus, or
    [None] if the run did not settle. *)
