(** Counted configuration spaces (Prop D.2), packed.

    On cliques and stars, node identity is irrelevant: a configuration is
    the multiset of agent states (plus the centre state for stars), and
    the reachable space has at most [(n+1)^{|Q|}] configurations instead
    of [|Q|^n] — the logarithmic-space object behind the paper's NL upper
    bound.  This module explores that space with the same discipline as
    the explicit packed engine: states are interned to small ids,
    configurations are encoded as sorted [(state id, count)] u16 vectors
    in a growable arena, membership is an FNV-1a open-addressing table
    over the arena, delta calls are memoised in the engine's in-place
    probed table, and edges form a CSR.

    Edges are labelled with the {e moved state id} ([-1] for a centre
    move on stars), never with a node: that is exactly the information
    the lifted analyses need — a fair scheduler must move every state
    present in a configuration infinitely often, and which of several
    interchangeable same-state agents moved is unobservable. *)

exception Too_large of int
(** Raised when exploration exceeds the configuration budget. *)

type topology = Clique | Star

type 'l shape =
  | S_clique of 'l Dda_multiset.Multiset.t
  | S_star of 'l * 'l Dda_multiset.Multiset.t

val shape_of_graph : 'l Dda_graph.Graph.t -> 'l shape option
(** Recognise a clique ([n >= 2], all pairs adjacent) or a star ([n >= 3],
    one centre of degree [n-1], leaves of degree 1).  [None] for any other
    topology — those have no counted semantics. *)

type t = {
  topology : topology;
  node_count : int;
  size : int;  (** Reachable counted configurations. *)
  edge_count : int;
  initial : int;
  state_count : int;  (** Distinct machine states interned. *)
  off : int array;
      (** CSR offsets, length [size + 1]: the edges of configuration [i] are
          [off.(i) .. off.(i+1) - 1], in BFS order. *)
  dst : int array;  (** Edge targets, length [edge_count]. *)
  mover : int array;
      (** Edge labels: the moved state id, [-1] for the star centre.  A
          configuration has one edge per support state (plus the centre
          edge on stars), so its out-edge labels are exactly the moves a
          fair scheduler owes it.  Silent moves are self-loops, exactly as
          node selections are in explicit spaces. *)
  acc : bool array;  (** All agents accepting. *)
  rej : bool array;
  describe : int -> string;
}

val clique :
  max_configs:int -> ('l, 's) Dda_machine.Machine.t -> 'l Dda_multiset.Multiset.t -> t
(** Counted exploration of the machine on a clique with the given label
    count.  @raise Invalid_argument with fewer than 2 nodes.
    @raise Too_large over budget. *)

val star :
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  centre:'l ->
  leaves:'l Dda_multiset.Multiset.t ->
  t
(** Counted exploration on a star.  @raise Too_large over budget. *)

val of_shape :
  max_configs:int -> ('l, 's) Dda_machine.Machine.t -> 'l shape -> t
(** @raise Invalid_argument for a clique with fewer than 2 nodes.
    @raise Too_large over budget. *)

val of_graph :
  max_configs:int -> ('l, 's) Dda_machine.Machine.t -> 'l Dda_graph.Graph.t -> t option
(** [clique]/[star] via {!shape_of_graph}; [None] when the graph is
    neither. *)
