(** Finite machines as explicit tables, and bisimulation minimisation.

    A functional machine over an enumerated state set can be {e tabulated}:
    its transition function becomes a finite table indexed by (state,
    capped neighbourhood profile), where a profile assigns each state a
    count in [\[0, β\]].  Tables support inspection, serialisation-style
    dumps, and — the interesting part — {e minimisation}: the coarsest
    bisimulation quotient that preserves acceptance, rejection and the
    transition behaviour.

    Bisimilarity here must respect the communication structure: two states
    are equivalent only if they react equivalently to every profile {e and}
    their reactions cannot distinguish equivalent neighbour states.  The
    refinement loop therefore works with profiles over the current classes:
    a state's signature maps each class-profile to the set of classes its
    δ can produce across all concrete profiles projecting to it; blocks
    split until every signature is single-valued and constant on each
    block.  The resulting quotient machine decides exactly the same
    property (configurations project class-wise, verdicts are preserved).

    Compiled automata (Lemmas 4.7/4.9/4.10) often carry bookkeeping that is
    behaviourally redundant; minimisation measures — and removes — that
    redundancy.  Profile enumeration costs [(β+1)^{|Q|}], so tabulation is
    for machines with at most ~15 states. *)

type ('l, 's) t

val tabulate :
  labels:'l list -> states:'s list -> ('l, 's) Machine.t -> ('l, 's) t
(** @raise Invalid_argument if a state outside [states] is produced by δ or
    δ₀, if [states] has duplicates, or if the profile table would exceed
    two million entries. *)

val state_count : ('l, 's) t -> int
val profile_count : ('l, 's) t -> int

val reachable_states :
  ?max_states:int -> labels:'l list -> ('l, 's) Machine.t -> 's list option
(** The states reachable from the initial states under arbitrary capped
    profiles, in a {e deterministic} discovery order (label order first,
    then profile-enumeration order per closure pass) — suitable as a
    canonical state order for {!tabulate} and hence for content
    fingerprints.  Returns [None] when more than [max_states] (default 12)
    states are found or a closure pass would exceed the internal table
    budget.  The search stops at the first state beyond [max_states], and
    the table size is checked before each pass, so infeasible machines
    bail cheaply. *)

val canonical_dump : label_key:('l -> string) -> ('l, 's) t -> string
(** A deterministic serialisation of the table — β, labels, initial-state
    ids, acceptance vectors and the full δ table over dense ids.  Two
    tabulations built over the same state order produce equal dumps iff
    the tables are identical, so [canonical_dump] of a table built over
    {!reachable_states} order is a stable machine fingerprint input. *)

val to_machine : ('l, 's) t -> ('l, int) Machine.t
(** The tabulated machine over integer state ids (behaviourally identical
    to the original on the enumerated state set). *)

val minimise : ('l, 's) t -> (('l, int) Machine.t * ('s -> int)) option
(** The bisimulation quotient: the machine over class ids and the
    projection from original states.  [None] when no well-defined quotient
    coarser than the identity exists (some state reacts differently to
    concrete profiles that are equivalent class-wise) — in that case the
    original machine is already its own minimal form at this granularity. *)

val minimised_state_count : ('l, 's) t -> int
(** Number of classes of {!minimise} ([state_count] when it returns
    [None]). *)
