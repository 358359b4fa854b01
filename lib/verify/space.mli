(** Configuration spaces: the reachability graph of an automaton on a graph.

    The verifier decides acceptance by analysing the {e finite} graph of
    configurations reachable from the initial configuration.  Every space
    exposes the same indexed edge view — configuration [i] has edges
    [0 .. degree i - 1], edge [k] going to [target i k] with label
    [label i k] — whatever stores it:

    - {!explore}: explicit configurations [C : V -> Q] under exclusive
      selection, on the packed engine; the view reads the engine's edge
      arrays.  Size is up to [|Q|^n].
    - {!of_engine} on {!Engine.explore_counted}: counted clique and star
      quotients (the objects of Lemma 5.1 and the Lemma 3.5 cutoff
      argument), built by [Dda_symbolic.Counted] on the same engine; the
      view reads its CSR and the edge labels are moved states.
    - {!explore_liberal} and {!explore_custom}: a polymorphic worklist that
      records its edges as a CSR (offset, target and label arrays) in BFS
      order; the view reads those arrays. *)

type kind =
  | Explicit
      (** Edge [k] of every configuration selects node [k]: [degree i =
          node_count] and [label i k = k] (silent moves are self-loops). *)
  | Counted
      (** Clique and star quotients: edge labels are moved states ([-1] for
          a star's centre), distinct within a row — its fair obligations. *)
  | Opaque  (** Labels are neither (liberal subset masks, native moves). *)

type t = {
  kind : kind;
  node_count : int;  (** Nodes of the underlying communication graph. *)
  size : int;  (** Number of reachable configurations. *)
  initial : int;
  degree : int -> int;  (** Out-edges of a configuration. *)
  target : int -> int -> int;  (** [target i k]: where edge [k] of [i] goes. *)
  label : int -> int -> int;
      (** [label i k]: the label of edge [k] of [i] — the selected node on
          explicit spaces. *)
  accepting : int -> bool;  (** All nodes of the configuration accepting. *)
  rejecting : int -> bool;
  describe : int -> string;  (** Human-readable configuration, for reports. *)
  engine : Engine.t option;
      (** The packed engine behind the view, when there is one: {!Decide}
          reads its symmetry group and its spill state from it. *)
}

exception Too_large of int
(** Raised when exploration exceeds the configuration budget. *)

val engine : t -> Engine.t option
(** The packed engine behind the space, when it has one. *)

val is_reduced : t -> bool
(** The space is a symmetry quotient: configuration indices denote orbit
    representatives.  Analyses that replay node selections literally
    ({!Decide.adversarial_witness}) refuse reduced spaces. *)

val of_engine : Engine.t -> t
(** The view of an engine's space: [Explicit] unless it is counted. *)

val explore_custom :
  max_configs:int ->
  node_count:int ->
  initial:'c ->
  expand:('c -> (int * 'c) list) ->
  accepting:('c -> bool) ->
  rejecting:('c -> bool) ->
  describe:('c -> string) ->
  t
(** Generic worklist exploration over an arbitrary configuration type
    (hashable by structure), giving an [Opaque] space: the engine behind
    the native-semantics spaces of the extension modules (weak broadcasts,
    absence detection, population and strong-broadcast protocols).
    [expand] lists the labelled successors of a configuration, in edge
    order.
    @raise Too_large when more than [max_configs] configurations are
    found. *)

val explore :
  ?jobs:int ->
  ?symmetry:Symmetry.t ->
  ?states:'s list ->
  ?mem_budget:int ->
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  t
(** Explicit exploration under exclusive selection, on the packed engine
    ({!Engine.explore} — interned states, memoised delta, implicit-CSR
    edges).  Exploration is sequential and deterministic: with no
    [symmetry] configurations are numbered in BFS order and edge [k]
    selects node [k], as a worklist over {!explore_custom} would give
    them (the differential tests hold it to that).  [symmetry] quotients the space by
    a group of adjacency automorphisms of [g].  [jobs] must be 1 (the
    default): it remains only for perfbench's [~jobs:1] call and goes with
    it.  [states] pre-interns an enumeration (e.g. from
    [Tabulate]).  [mem_budget] (bytes; default [DDA_MEM_BUDGET], else fully
    resident) switches to the external-memory engine: delta-encoded
    configurations and edges in spill-to-disk arenas, and streaming
    (edge-sweep) analyses in {!Decide} — verdicts and counts are unchanged.
    @raise Too_large when more than [max_configs] configurations are found.
    @raise Invalid_argument if [jobs <> 1]. *)

val explore_liberal :
  max_configs:int -> ('l, 's) Dda_machine.Machine.t -> 'l Dda_graph.Graph.t -> t
(** Explicit exploration under {e liberal} selection: one edge per non-empty
    subset of nodes, labelled by the subset's bitmask (bit [v] = node [v]
    selected); kind [Opaque] because labels are not single nodes.
    Exponential branching — tiny graphs only ([n <= 16] enforced).  Used to
    check the selection-irrelevance theorem of [16] on concrete instances:
    the pseudo-stochastic verdict must agree with the exclusive one. *)

val shortest_path :
  ?from:int -> ?within:(int -> bool) -> t -> goal:(int -> bool) -> (int list * int) option
(** BFS from [from] (default: the initial configuration) to the nearest
    configuration satisfying [goal], through configurations satisfying
    [within] (default: all): returns the edge labels along the path and the
    goal index.  On explicit spaces the labels are the selected nodes, i.e.
    the path is a {e replayable schedule prefix}. *)

val to_dot : ?max_size:int -> Format.formatter -> t -> unit
(** Graphviz rendering of the configuration graph (accepting configurations
    are doublecircles, rejecting ones are boxes; edge labels are the
    selected nodes on explicit spaces).
    @raise Invalid_argument if the space exceeds [max_size] (default 200)
    configurations — render small spaces only. *)
