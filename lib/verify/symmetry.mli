(** Node-permutation groups for symmetry reduction.

    The packed engine ({!Engine}) can quotient a configuration space by a
    group of automorphisms of the communication graph: configurations in the
    same orbit are merged by storing only the lexicographically least packed
    representative.  This module builds and validates the groups.

    Soundness needs only that every permutation preserves {e adjacency} of
    the communication graph (label preservation is not required — exploring
    from the canonical image of the initial configuration explores an
    isomorphic copy, and verdicts are invariant under isomorphism); the
    automorphism property is certified per family by qcheck tests against
    {!Dda_graph.Graph.is_automorphism}.

    A permutation [p] maps node [v] to [p.(v)] and acts on configurations by
    [(p . c).(v) = c.(p.(v))]. *)

type t
(** A full finite permutation group: closed under composition, identity at
    index 0, with a precomputed multiplication table. *)

val of_generators : degree:int -> int array list -> t
(** Closure of the generators.
    @raise Invalid_argument if a generator is not a permutation of
    [0..degree-1] or the closure exceeds [8!] elements. *)

val trivial : int -> t
(** The one-element group (no reduction). *)

val line : int -> t
(** Reflection symmetry of the [n]-node line: order 2. *)

val cycle : int -> t
(** Dihedral symmetry of the [n]-node cycle (rotations and reflections):
    order [2n].  Requires [n >= 3]. *)

val of_graph : 'l Dda_graph.Graph.t -> t option
(** {!cycle} or {!line} when [g] is a cycle or a line whose nodes are
    numbered along it (as {!Dda_graph.Graph.cycle} and
    {!Dda_graph.Graph.line} build them); [None] for any other graph.
    Cliques and stars have no group here: their quotient is the counted
    space ([Dda_symbolic.Counted]). *)

val order : t -> int
val is_trivial : t -> bool
val degree : t -> int

val perms : t -> int array array
(** The group elements; index 0 is the identity.  Do not mutate. *)

val mul : t -> int array array
(** [​(mul g).(i).(j)] is the index of [fun v -> p_i.(p_j.(v))] — the
    element whose action on configurations equals acting by [p_j] then by
    [p_i] under the convention above. *)

val pp : Format.formatter -> t -> unit
