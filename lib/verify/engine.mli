(** The packed exploration core.

    Explores the configuration space of a machine on a graph under exclusive
    selection — the same transition system as {!Space.explore} — but with the
    explicit-state engineering needed to reach millions of configurations:

    - machine states are interned to dense ids once, so configurations are
      fixed-width byte strings deduplicated by an open-addressing FNV table
      (no polymorphic hashing of structured states on the hot path);
    - delta evaluation is memoised per (state id, capped neighbourhood
      profile) — exact because {!Dda_machine.Neighbourhood.of_states} already
      canonicalises observations to sorted, capped count lists;
    - the edge relation is an implicit-CSR int array: every configuration
      has exactly [node_count] out-edges, edge [k] meaning "select node [k]"
      (silent moves are self-loops), so edge [k] of configuration [i] lives
      at index [i * node_count + k];
    - configurations may be canonicalised under a {!Symmetry} group of graph
      automorphisms, storing one representative per orbit; each edge records
      the group element applied, which lets {!Decide} run the exact lifted
      analysis for adversarial fairness;
    - the delta/memo phase of each frontier chunk can run on several OCaml 5
      domains ([jobs]); interning stays sequential, so the result is
      deterministic and, with [jobs = 1] and no symmetry, configuration ids
      coincide with the legacy explorer's BFS numbering.

    This module is the substrate; callers normally go through
    {!Space.explore}, which wraps the result in the ordinary [Space.t]. *)

exception Too_large of int
(** Raised when exploration exceeds [max_configs] configurations. *)

type stats = {
  state_count : int;  (** Distinct machine states interned. *)
  delta_evals : int;  (** Real delta calls (memo misses). *)
  delta_lookups : int;  (** Total delta requests ([size * node_count]). *)
  table_probes : int;
      (** Config-table slot inspections (probe-sequence cost), over the
          initial intern and every non-silent successor intern. *)
  table_resizes : int;  (** Config-table rehashes. *)
  dedup_hits : int;
      (** Successor interns that found an existing config.  Silent moves
          are not interned, so they are not counted here. *)
  silent_edges : int;
      (** Edges whose selected node keeps its state: written as a
          self-loop with group element 0, without canonicalising or
          interning.  [size + dedup_hits + silent_edges] is
          [1 + size * node_count] (the initial intern plus one per edge). *)
  waves : int;  (** Frontier chunks processed. *)
  peak_frontier : int;  (** Max configurations discovered but not yet expanded. *)
  domain_items : int array;
      (** Configurations expanded per worker slot; length = effective [jobs]
          (after the core-count cap), so [domain_items.(0)] alone means the
          run was sequential. *)
}

type edges =
  | Flat_edges of {
      targets : int array;  (** Implicit CSR; see {!target}. *)
      sigmas : int array;
          (** Per-edge group element indices; [[||]] when unreduced.  Edge
              [k] of [i] went to successor [S] with representative
              [perms.(sigmas.(i * node_count + k)) . S]. *)
    }
  | Ext_edges of { targets : Arena.t; sigmas : Arena.t option; configs : Arena.t }
      (** Same layout as little-endian u32 records in spillable arenas
          (explored under a memory budget), in segments that hold whole
          rows of [node_count] records.  [configs] holds the
          delta-encoded configuration records that [describe] reads. *)

type t = {
  node_count : int;
  size : int;  (** Stored configurations (orbit representatives if reduced). *)
  initial : int;
  initial_sigma : int;
      (** Index of the group element [p] with [p . c0 = representative]. *)
  edges : edges;
  flags : Bytes.t;
      (** Per configuration: bit 0 = all nodes accepting, bit 1 = all
          rejecting.  Use {!acc}/{!rej}. *)
  describe : int -> string;
  symmetry : Symmetry.t option;  (** The group, when reduced (order > 1). *)
  stats : stats;
  spill : Arena.spill_stats option;
      (** [Some] iff explored under a memory budget (snapshot taken at the
          end of exploration; analyses may fault further segments). *)
}

val explore :
  ?jobs:int ->
  ?symmetry:Symmetry.t ->
  ?states:'s list ->
  ?mem_budget:int ->
  max_configs:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  t
(** [explore m g] builds the reachable configuration space.

    [jobs] (default 1): domains used for the delta/memo phase.  The
    effective value is capped at the machine's core count
    ([Domain.recommended_domain_count], override with [DDA_PAR_CORES]),
    and waves with fewer than a threshold of work items (frontier length x
    node count) run sequentially.  The threshold defaults to
    [16384 / width] where [width] is the current packed cell width in
    bytes, so tiny spaces never pay domain fan-out; [DDA_PAR_THRESHOLD]
    overrides it with a fixed value — see doc/INTERNALS.md "Parallel
    frontier expansion".  Verdict-relevant output (sizes, edges up to
    renumbering, analyses) does not depend on [jobs]; exact ids are
    guaranteed stable only for [jobs = 1].

    [symmetry]: a permutation group whose elements must all be automorphisms
    of [g]'s adjacency (labels need not be preserved; soundness needs
    adjacency only).  The space is quotiented by its orbits.

    [states]: optional pre-enumeration (e.g. from [Tabulate]) interned
    first, giving those states the lowest ids.

    [mem_budget] (bytes; default: [DDA_MEM_BUDGET], else fully resident):
    explore under an external-memory regime — configurations are
    delta-encoded varint records and edges u32 records in {!Arena}s that
    spill cold segments to disk once the budget is exceeded.  Verdicts,
    sizes and edge counts are identical to the resident engine;
    configuration ids can differ from the packed numbering only in how
    symmetry ties are broken (they don't: canonicalisation is shared), and
    exploration order is the same BFS.

    @raise Too_large when more than [max_configs] configurations are found.
    @raise Invalid_argument if [symmetry]'s degree differs from the graph
    size. *)

val reduced : t -> bool
(** The space is a proper quotient (a non-trivial group was applied). *)

val spilled : t -> bool
(** Explored under a memory budget (external-memory representation). *)

val spill_stats : t -> Arena.spill_stats option

val acc : t -> int -> bool
(** All nodes of configuration [i] accepting. *)

val rej : t -> int -> bool

val release : t -> unit
(** Drop the external-memory arenas — configurations and edges — and
    remove their spill files.  No-op on resident spaces; the space must not
    be used afterwards.  An exploration that raises releases its own. *)

val out_degree : t -> int
(** = [node_count]: every configuration has one edge per node. *)

val target : t -> int -> int -> int
(** [target e i k] is the successor of configuration [i] when node [k] is
    selected (the representative of its orbit if reduced). *)

val edge_sigma : t -> int -> int -> int
(** The group element index recorded on edge [k] of [i]; [0] when
    unreduced. *)

val targets_reader : t -> int -> int array -> unit
(** [targets_reader e] is a fresh row reader: [read i dst] stores the
    successors of configuration [i] in [dst.(0 .. node_count - 1)], i.e.
    [dst.(k) = target e i k].  Resident spaces blit from the edge array;
    spilled ones decode the row from the segment held by the reader's own
    {!Arena.cursor} (edge segments are sized to whole rows, so a row never
    straddles two).  Make one reader per sequential caller and per domain:
    each may keep one segment in core beyond the memory budget. *)

val sigmas_reader : t -> int -> int array -> unit
(** Same as {!targets_reader} for the per-edge group elements
    ([dst.(k) = edge_sigma e i k]; all zero when unreduced). *)

(** {2 Delta memo}

    The string-keyed open-addressing table behind the engine's delta
    memoisation, shared with the counted engine ([Dda_symbolic.Counted]).
    Keys are non-empty byte strings built in a scratch buffer; a lookup
    hashes and compares the scratch bytes in place and allocates nothing. *)

type memo

val memo_create : unit -> memo

val memo_hash : Bytes.t -> int -> int
(** FNV-1a over the first [len] bytes, as a non-negative int. *)

val memo_find : memo -> Bytes.t -> int -> int -> int
(** [memo_find m kb len h] is the id stored under the first [len] bytes of
    [kb] (whose {!memo_hash} is [h]), or [-1]. *)

val memo_add : memo -> string -> int -> int -> unit
(** [memo_add m key h id] stores [id] under [key] (absent, non-empty, with
    hash [h]). *)
