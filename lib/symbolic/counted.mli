(** Counted configuration spaces (Prop D.2).

    On cliques and stars, node identity is irrelevant: a configuration is
    the multiset of agent states (plus the centre state for stars), and
    the reachable space has at most [(n+1)^{|Q|}] configurations instead
    of [|Q|^n] — the logarithmic-space object behind the paper's NL upper
    bound.  This module recognises those shapes and explores them with
    {!Dda_verify.Engine.explore_counted}, into a [Space.t] of kind
    [Counted] that always stays resident.

    Edges are labelled with the {e moved state id} ([-1] for a centre move
    on stars), never with a node: that is exactly what
    {!Dda_verify.Decide.adversarial} owes on counted rows — a fair
    scheduler must move every state present in a configuration infinitely
    often, and which of several interchangeable same-state agents moved is
    unobservable. *)

exception Too_large of int
(** [Space.Too_large]: exploration exceeded [max_configs]. *)

type 'l shape =
  | S_clique of 'l Dda_multiset.Multiset.t
  | S_star of 'l * 'l Dda_multiset.Multiset.t

val shape_of_graph : 'l Dda_graph.Graph.t -> 'l shape option
(** Recognise a clique ([n >= 2], all pairs adjacent) or a star ([n >= 3],
    one centre of degree [n-1], leaves of degree 1).  [None] for any other
    topology — those have no counted semantics. *)

val clique :
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_multiset.Multiset.t ->
  Dda_verify.Space.t
(** Counted exploration of the machine on a clique with the given label
    count.  @raise Invalid_argument with fewer than 2 nodes.
    @raise Too_large over budget. *)

val star :
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  centre:'l ->
  leaves:'l Dda_multiset.Multiset.t ->
  Dda_verify.Space.t
(** Counted exploration on a star.  @raise Too_large over budget. *)

val of_shape :
  max_configs:int -> ('l, 's) Dda_machine.Machine.t -> 'l shape -> Dda_verify.Space.t
(** @raise Invalid_argument for a clique with fewer than 2 nodes.
    @raise Too_large over budget. *)

val of_graph :
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  Dda_verify.Space.t option
(** [clique]/[star] via {!shape_of_graph}; [None] when the graph is
    neither. *)
