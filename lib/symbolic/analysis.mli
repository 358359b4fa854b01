(** Decision analyses lifted to counted configuration spaces.

    The three scheduler regimes of the paper, evaluated on the counted
    quotient ({!Counted}) instead of the explicit space:

    - pseudo-stochastic: bottom-SCC classification.  Counted and explicit
      spaces have isomorphic SCC structure (the quotient map preserves and
      reflects reachability), so {!Dda_verify.Decide.pseudo_stochastic}
      runs unchanged on the counted space's edge view.
    - {!adversarial}: exact fair-SCC analysis on the quotient.  Edge
      labels are moved {e states}, not nodes, so node-fairness must be
      re-characterised: a strongly connected subgraph [B] supports a
      concrete fair run iff for every configuration [C ∈ B] and every
      state [q] in [C]'s support, [B] contains an internal move-[q] edge
      somewhere (plus, on stars, an internal centre-move edge).
      Sufficiency is a token-parking argument — unselected agents keep
      their state and same-state agents are interchangeable, so a
      round-robin over obligations realises every agent infinitely often;
      necessity is immediate (a parked agent's state stays in every
      support).  A configuration's obligations are the labels on its own
      out-edges.  Maximal fair-supporting subgraphs are found by a
      round-based Streett peel: one Tarjan pass over the live
      configurations, drop those whose obligations the component's
      internal move labels miss, repeat until no component was split.
    - {!synchronous}: the deterministic simultaneous step is
      permutation-equivariant, so it descends exactly to multisets;
      cycle detection is verbatim. *)

val adversarial : Dda_verify.Space.t -> Dda_verify.Decide.verdict
(** The Streett peel over the space's edge view ([degree]/[target]/
    [label]), reading each label as an obligation: the moved state on
    counted spaces. *)

val synchronous :
  max_steps:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  Dda_verify.Decide.verdict option
(** [None] when no cycle is reached within [max_steps].
    @raise Invalid_argument when the graph is neither clique nor star. *)

val for_regime :
  Dda_verify.Decide.regime -> Dda_verify.Space.t -> Dda_verify.Decide.verdict
(** {!adversarial} on counted spaces under adversarial fairness;
    {!Dda_verify.Decide.for_regime} otherwise (pseudo-stochastic, and every
    explicit space). *)
