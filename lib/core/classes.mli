(** The classification of distributed automata (Section 2.2, Figure 1).

    Esparza and Reiter classify automata by detection (non-counting [d] /
    counting [D]), acceptance (halting [a] / stable consensus [A]),
    selection (liberal / exclusive / synchronous — provably irrelevant for
    decision power) and fairness (adversarial [f] / pseudo-stochastic [F]).
    The 24 combinations collapse to seven equivalence classes; this module
    encodes the classes and the paper's characterisation of their decision
    power over labelling properties, on arbitrary and on bounded-degree
    graphs (the two tables of Figure 1). *)

type detection = Non_counting | Counting
type acceptance = Halting | Stable_consensus
type fairness = Dda_verify.Decide.regime = Adversarial | Pseudo_stochastic
(** The regime type of the decision procedures, under its class name. *)

type t = { detection : detection; acceptance : acceptance; fairness : fairness }

val all : t list
(** All eight [xyz] combinations. *)

val name : t -> string
(** e.g. ["DAf"]. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val equivalent : t -> t -> bool
(** The collapse of [16]: [daf] and [daF] coincide (halting non-counting
    automata gain nothing from pseudo-stochastic fairness); every other pair
    of distinct combinations is distinct.  The seven equivalence classes of
    Figure 1 are the quotient. *)

val representatives : t list
(** One representative per equivalence class (seven entries, [daF]
    dropped). *)

(** {1 Decision power (Figure 1)} *)

type power =
  | Trivial  (** only ∅ and the full set *)
  | Cutoff_1  (** properties depending on [⌈L⌉₁] *)
  | Cutoff  (** properties depending on [⌈L⌉_K] for some K *)
  | NL  (** nondeterministic log-space *)
  | ISM_bounded
      (** bounded-degree DAf: between the homogeneous threshold predicates
          (lower bound, Prop 6.3) and invariance under scalar multiplication
          (upper bound, Cor 3.3) — the paper leaves the exact power open *)
  | NSPACE_n  (** nondeterministic linear space *)

val power_name : power -> string

val power_arbitrary : t -> power
(** Decision power over labelling properties on arbitrary graphs (middle
    column of Figure 1). *)

val power_bounded_degree : t -> power
(** Decision power on degree-bounded graphs, [k >= 3] (right column of
    Figure 1). *)

val can_decide_majority : t -> bounded_degree:bool -> bool
(** The paper's running question: exactly DAF on arbitrary graphs; DAf, dAF
    and DAF on bounded-degree graphs. *)

val pp : Format.formatter -> t -> unit
