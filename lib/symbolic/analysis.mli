(** The synchronous regime on counted configurations.

    The deterministic simultaneous step is permutation-equivariant, so it
    descends exactly to multisets of states ({!Counted}); cycle detection
    is verbatim.  The fairness regimes need no counted analysis of their
    own: {!Dda_verify.Decide.for_regime} decides counted spaces directly. *)

val synchronous :
  max_steps:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  Dda_verify.Decide.verdict option
(** [None] when no cycle is reached within [max_steps].
    @raise Invalid_argument when the graph is neither clique nor star. *)
