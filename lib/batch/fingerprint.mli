(** Stable content fingerprints for verification inputs.

    A cached verdict is only reusable if its key pins down everything the
    verdict depends on: the machine's behaviour, the communication graph up
    to isomorphism, the fairness regime, the exploration budget, and the
    engine version.  This module computes each ingredient:

    - {!machine} canonically tabulates the machine over its reachable states
      (via [Dda_machine.Tabulate]); the dump of the full δ table is hashed,
      so two machines with the same behaviour on the label set share a
      fingerprint regardless of their OCaml state representation.  When
      tabulation is infeasible (too many states or profiles) it falls back
      to a {e nominal} fingerprint — name, β and label set — which is still
      sound (distinct keys may recompute, never alias) as long as machine
      names encode their parameters, which every constructor in
      [Dda_protocols] does.
    - {!graph} canonicalises the labelled graph by minimising its
      serialisation over all node permutations (a depth-first search with
      exact lexicographic prefix pruning), so isomorphic relabelled graphs
      share a fingerprint.  Beyond 8 nodes the
      raw serialisation is used — sound, merely fewer hits across
      isomorphic presentations.
    - {!key} combines both with the regime, the budget and
      {!version_salt}. *)

val version_salt : string
(** Engine-version salt baked into every key; bump it whenever the
    exploration engine or verdict analyses change observably, and all old
    cache entries become stale (skipped, then garbage-collectable). *)

val machine : labels:string list -> (string, 's) Dda_machine.Machine.t -> string
(** Behavioural fingerprint of the machine over the given label alphabet
    (["tab:<hex>"], or ["nom:<hex>"] on the nominal fallback).  Pass the
    alphabet sorted and deduplicated so equal alphabets yield equal
    fingerprints — [Spec.alphabet_of] does. *)

val graph : string Dda_graph.Graph.t -> string
(** Isomorphism-invariant fingerprint of a labelled graph
    (["can:<hex>"] for n ≤ 8, ["raw:<hex>"] beyond). *)

val family : Dda_symbolic.Family.t -> string
(** Fingerprint of a graph {e family} (["fam:<hex>"] over the canonical
    family spec).  Family fingerprints share the graph slot of {!key} but
    can never collide with {!graph} outputs (distinct prefixes). *)

val key :
  ?engine:string ->
  machine:string ->
  graph:string ->
  regime:string ->
  max_configs:int ->
  unit ->
  string
(** The cache key: hex digest over salt, machine and graph fingerprints,
    regime name and budget.  [engine] (default ["explicit"]) is the
    provenance tag of {!Store.entry}: explicit keys use the historical
    salt unchanged, so pre-engine cache entries remain valid, while any
    other engine extends the salt and therefore occupies a disjoint key
    space — symbolic and explicit verdicts never alias. *)
