(** Acceptance decisions: does the automaton accept or reject a graph?

    A distributed automaton [A = (M, Σ)] accepts a graph [G] if some fair run
    is accepting, and must satisfy the {e consistency condition}: on every
    graph, either all fair runs accept or all reject.  These procedures
    decide acceptance exactly (on the explored, finite configuration space)
    for the three scheduler regimes of the paper, and expose consistency
    violations instead of hiding them.

    {b Pseudo-stochastic fairness} (class suffix F).  With finitely many
    configurations, the infinitely-visited set of a pseudo-stochastic fair
    run is a bottom SCC of the configuration space, and every reachable
    bottom SCC is the infinitely-visited set of some fair run.  A fair run is
    accepting iff its bottom SCC contains only accepting configurations.

    {b Adversarial fairness} (suffix f).  A fair run merely selects every
    node infinitely often.  Its infinitely-visited set is a strongly
    connected set whose internal edges cover every node label; conversely any
    reachable SCC whose internal edges cover all labels and which contains a
    configuration [c] yields a fair run visiting [c] infinitely often.
    Hence: all fair runs accept iff no reachable SCC covers all labels while
    containing a non-accepting configuration.

    On a {e counted} space (a clique or star quotient) labels are moved
    states, so node-fairness is re-characterised: a strongly connected [B]
    supports a concrete fair run iff for every [C ∈ B] and every state [q]
    in [C]'s support, [B] has an internal move-[q] edge (plus, on stars, an
    internal centre move).  Sufficiency is a token-parking argument —
    unselected agents keep their state and same-state agents are
    interchangeable, so a round-robin over obligations realises every agent
    infinitely often; necessity is immediate (a parked agent's state stays
    in every support).  So a configuration owes the labels on its own
    out-edges — on explicit spaces, every node — and one Streett peel over
    these obligations decides both kinds.

    {b Synchronous scheduling}.  The run is deterministic and eventually
    periodic; we find the cycle and inspect it. *)

type verdict =
  | Accepts
  | Rejects
  | Inconsistent of string
      (** The machine violates the consistency condition on this input (some
          fair run neither accepts nor rejects, or fair runs disagree); the
          string describes a witness configuration. *)

type regime = Adversarial | Pseudo_stochastic
(** The fairness regime of a decision: the paper's f (adversarial) and F
    (pseudo-stochastic) class suffixes.  The one definition; [Spec.regime]
    and [Classes.fairness] re-export it. *)

val for_regime : regime -> Space.t -> verdict
(** {!adversarial} or {!pseudo_stochastic}, by regime. *)

val pseudo_stochastic : Space.t -> verdict
(** Bottom-SCC classification over the space's edge view; works on explicit
    and counted spaces (the cliques and stars of [Dda_symbolic.Counted]).
    Spilled spaces run the streaming edge sweeps instead (counted spaces
    never spill); the verdict is the same, the witness may differ. *)

val pseudo_stochastic_certificate : Space.t -> verdict
(** The acceptance test of Proposition D.2, literally: the automaton accepts
    from [C₀] iff there is a configuration [C] with (1) [C₀ →* C],
    (2) [C] accepting, and (3) no non-accepting configuration reachable from
    [C] — and symmetrically for rejection.  On the finite explored space the
    paper's Immerman–Szelepcsényi appeal reduces to explicit reachability.
    Provably equivalent to {!pseudo_stochastic}; exposed separately so tests
    can cross-validate the two characterisations. *)

val unconditional : Space.t -> verdict
(** Classification over {e all} infinite runs of the space, with no fairness
    assumption — used for nondeterministic synchronous semantics such as the
    weak-absence-detection model (Definition 4.8), where the only
    nondeterminism is the adversary's choice of covers.  All runs accept iff
    every configuration lying on a cycle is accepting (a run's
    infinitely-visited set always lies on cycles).  The space must represent
    "nothing happens" as a self-loop so that terminal configurations count
    as cycles.  This is {!adversarial}'s fair-cycle question with one
    obligation that every edge meets, decided by the same kernel (the same
    sweeps on spilled spaces) on the space's own edges, never lifted: it
    works on every kind of space, [Opaque] included, with no node bound. *)

val adversarial : Space.t -> verdict
(** Fair-SCC classification by the Streett kernel over the space's edge
    view, on explicit and counted spaces; resident symmetry-reduced spaces
    take {!quotient_fair_witnesses} — verdicts are exactly those of the
    unreduced space.  Spilled spaces run the streaming sweeps (over lifted
    rows when reduced); the verdict is the same, the witness may differ.
    @raise Invalid_argument on an [Opaque] space.
    @raise Invalid_argument on an explicit space of more than 62 nodes (the
    sweeps keep a cycle's labels in one [int]), resident or spilled, before
    any analysis work; counted spaces have no node bound. *)

val quotient_fair_witnesses :
  Symmetry.t -> sigma:(int -> int -> int) -> Space.t -> int option * int option
(** {!adversarial}'s witnesses on a quotient whose edge [k] of [R] recorded
    group element [sigma R k]; exposed so tests can compare it with a lift. *)

val synchronous :
  max_steps:int -> ('l, 's) Dda_machine.Machine.t -> 'l Dda_graph.Graph.t -> verdict option
(** Follow the synchronous run until it closes a cycle; [None] if the cycle
    did not close within [max_steps].  The verdict inspects the cycle: all
    configurations accepting / all rejecting / otherwise inconsistent. *)

val adversarial_witness :
  Space.t ->
  against:[ `Accepting | `Rejecting ] ->
  (int list * int list) option
(** A fair lasso refuting "all adversarial fair runs are accepting" (resp.
    rejecting): a prefix of selections from the initial configuration into
    an SCC, and a cycle of selections that returns to its starting
    configuration, selects every node at least once, and passes through a
    non-accepting (resp. non-rejecting) configuration.  Replaying
    [prefix @ cycle*] is a concrete fair schedule witnessing the failure —
    the diagnosis behind an [Inconsistent] adversarial verdict.  The lasso
    runs through the component and witness that {!adversarial} reports.
    @raise Invalid_argument unless the space is explicit, {e unreduced}
    (selections in a symmetry quotient do not replay literally) and has at
    most 62 nodes. *)

val certificate_path :
  Space.t -> [ `Accepting | `Rejecting ] -> (int list * int) option
(** A shortest path (as edge labels) from the initial configuration into a
    bottom SCC that is uniformly accepting (resp. rejecting) — a concrete
    witness of the pseudo-stochastic verdict.  On explicit spaces the labels
    form a replayable exclusive schedule prefix. *)

val verdict_bool : verdict -> bool option
(** [Some true] for [Accepts], [Some false] for [Rejects], [None] for
    inconsistency. *)

val pp_verdict : Format.formatter -> verdict -> unit
