(** Automata with weak broadcasts (Definition 4.5) and their simulation by
    ordinary automata (Lemma 4.7).

    A weak broadcast transition [q ↦ q', f] lets an {e initiator} in state
    [q] move to [q'] while every other agent responds by applying
    [f : Q -> Q] to its state.  Broadcasts are weak: several initiators may
    fire simultaneously (as long as they form an independent set), and each
    non-initiator responds to exactly one of the signals sent.

    Response functions are {e named} — the machine stores an array of them
    and states reference indices — so that states of the compiled automaton
    (which embed the chosen response function) remain pure data.

    {!compile} is the three-phase construction of Lemma 4.7 (an
    Awerbuch-α-synchroniser-style protocol): an agent moves to the next phase
    (mod 3) only when every neighbour is in the same phase or the next, and
    phase-1 states carry the response function being propagated. *)

type ('l, 's) t = {
  base : ('l, 's) Dda_machine.Machine.t;
      (** Neighbourhood part: [Q, δ₀, δ, Y, N] and the counting bound. *)
  initiate : 's -> ('s * int) option;
      (** [initiate q = Some (q', fid)] iff [q ∈ Q_B] with broadcast
          [B(q) = (q', f_fid)]; [None] for non-initiating states. *)
  respond : int -> 's -> 's;  (** [respond fid] is the response function. *)
  response_count : int;  (** [fid] ranges over [\[0, response_count)]. *)
}

val create :
  base:('l, 's) Dda_machine.Machine.t ->
  initiate:('s -> ('s * int) option) ->
  respond:(int -> 's -> 's) ->
  response_count:int ->
  ('l, 's) t

(** {1 Direct (native) semantics}

    Used to validate the compiled automaton against the model it simulates,
    and to measure the simulation overhead (experiment E7). *)

val step_neighbourhood :
  ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t -> int ->
  's Dda_runtime.Config.t
(** One agent performs a neighbourhood transition; agents in initiating
    states are skipped (they can only broadcast), as in Definition 4.5. *)

val step_broadcast :
  choose:(node:int -> initiators:int list -> int) ->
  ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t -> int list ->
  's Dda_runtime.Config.t
(** [step_broadcast ~choose wb g c s] fires the broadcasts of the agents of
    [s] that are in initiating states (an independent set is required);
    every other agent [v] responds to initiator [choose ~node:v
    ~initiators], which must return a member of the initiator list.
    If no agent of [s] is initiating, the configuration is unchanged.
    @raise Invalid_argument if [s] is not an independent set. *)

val simulate_random :
  seed:int ->
  max_steps:int ->
  ('l, 's) t ->
  'l Dda_graph.Graph.t ->
  's Dda_runtime.Config.t * int
(** Random pseudo-stochastic-style execution of the native semantics:
    each step is a random neighbourhood selection or a random independent
    broadcast selection; responders pick uniformly among initiators.
    Stops early when the configuration is a fixpoint of every neighbourhood
    move and no initiator can change anything.  Returns the final
    configuration and the number of steps executed. *)

val successors :
  ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t ->
  's Dda_runtime.Config.t list
(** All distinct non-silent one-step successors of the native semantics:
    every exclusive neighbourhood move and every weak-broadcast step over
    every non-empty independent initiator set and responder assignment. *)

val space :
  max_configs:int -> ('l, 's) t -> 'l Dda_graph.Graph.t -> Dda_verify.Space.t
(** Exact configuration space of the native semantics, enumerating all
    exclusive neighbourhood moves, all non-empty independent initiator sets
    and all response assignments.  Exponential in the graph size — intended
    for graphs of up to ~6 nodes.  The space is [Opaque] (pseudo-stochastic
    decisions only), matching the fairness for which weak broadcasts are
    used in the paper. *)

(** {1 The Lemma 4.7 compilation} *)

type 's state = Base of 's | Mid of 's * int * int
    (** [Base q]: phase 0, simulating state [q].  [Mid (q, i, fid)]: phase
        [i ∈ {1,2}], simulating an agent that has already applied the local
        update of the broadcast with response function [fid] and now carries
        state [q]. *)

val compile : ('l, 's) t -> ('l, 's state) Dda_machine.Machine.t
(** The automaton [P'] of Lemma 4.7 — same class as the input (the counting
    bound is preserved; phase bookkeeping only needs presence).  Acceptance
    of intermediate states is inherited from the carried base state, which
    agrees with the Lemma 4.4 wrapper in the limit. *)

val pp_state :
  (Format.formatter -> 's -> unit) -> Format.formatter -> 's state -> unit
