(** Strongly connected components (iterative Tarjan).

    The acceptance analyses classify the SCCs of a configuration space:
    bottom SCCs are the possible infinitely-visited sets of pseudo-stochastic
    fair runs, and label-covering SCCs are the possible infinitely-visited
    sets of adversarial fair runs. *)

type components = {
  comp_count : int;  (** Number of components. *)
  comp : int array;  (** [comp.(v)] is the component of vertex [v]. *)
}

val compute_iter :
  vertices:int -> degree:(int -> int) -> succ:(int -> int -> int) -> components
(** Iterative, allocation-free Tarjan over an indexed successor relation:
    vertex [v] has successors [succ v 0 .. succ v (degree v - 1)].  Roots
    are visited in ascending order and successors in index order.
    Components are numbered in reverse topological order: for every edge
    [u -> v], [comp.(u) >= comp.(v)].  No member lists are materialised —
    sized for packed spaces with millions of edges. *)

(** {2 Streaming variants}

    Edge-sweep algorithms for external-memory spaces: they only ever visit
    the successor relation in monotone passes over the vertex range, so on
    a spilled CSR each fixpoint sweep faults every segment at most once —
    unlike Tarjan's DFS, whose traversal order is adversarial for an LRU
    of resident segments.  See doc/INTERNALS.md, "External-memory
    exploration", on streaming SCC analyses.

    Both read the graph a row at a time: every vertex has exactly [degree]
    out-edges, and [row v dst lbl] stores the targets of [v]'s edges in
    [dst.(0 .. degree - 1)] and their label bits ([1 lsl label]) in
    [lbl.(0 .. degree - 1)]; a caller with no labels may leave [lbl]
    untouched.  Each call to a primitive allocates its own two row buffers
    and calls [row] from the calling domain only, so a [row] backed by one
    arena cursor (see {!Arena.cursor}, {!Engine.targets_reader}) keeps at
    most one segment in core beyond the memory budget, and — since the
    engine's edge segments hold whole rows — decodes each row from a single
    held segment.  [seed]/[target] are evaluated once per vertex. *)

val backward_reach :
  vertices:int ->
  degree:int ->
  row:(int -> int array -> int array -> unit) ->
  seed:(int -> bool) ->
  Bytes.t
(** [backward_reach ~vertices ~degree ~row ~seed] marks (byte ['\001'])
    every vertex from which some vertex satisfying [seed] is reachable
    (seeds included), by repeated descending sweeps to a fixpoint (one
    sweep suffices for edges from lower to higher ids, as most BFS edges
    are). *)

val fair_cycle :
  vertices:int ->
  degree:int ->
  row:(int -> int array -> int array -> unit) ->
  labels:int ->
  target:(int -> bool) ->
  int option
(** [fair_cycle ~vertices ~degree ~row ~labels ~target] decides whether the
    graph (all vertices assumed reachable) has a cycle that carries every
    edge label in [0 .. labels - 1] and visits a vertex satisfying
    [target]; with [labels = 0] the label requirement is vacuous (label
    bits are ignored) and the check is "some cycle through a [target]
    vertex".  Returns a [target] vertex on such a cycle, or [None].
    Emerson–Lei-style greatest fixpoint; every sweep is monotone over the
    vertex range, alternating direction.
    @raise Invalid_argument when [labels > 62]: label sets are bit masks in
    one OCaml [int], labels in bits [0 .. labels - 1] and the target flag
    in bit [labels] — at 62 labels the sign bit, which [lor] and [land]
    treat like any other. *)
