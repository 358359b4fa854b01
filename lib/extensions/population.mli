(** Graph population protocols (Definition B.19) and their simulation by
    DAF-automata (Lemma 4.10).

    A population protocol on graphs is a pair [(Q, δ)] with rendez-vous
    transitions [δ : Q² → Q²]: a scheduled ordered pair of {e adjacent}
    nodes [(u, v)] in states [(p, q)] moves to [δ(p, q)].  Schedules are
    pseudo-stochastic over ordered adjacent pairs.

    {!compile} is the Lemma 4.10 construction with counting bound β = 2: a
    node searches for a partner ([Search]), a neighbour that sees exactly one
    searcher answers ([Answer]), the searcher seeing exactly one answer
    confirms and pre-computes its post-state ([Confirm]), the answerer
    applies its state change, and finally the confirmer applies its saved
    state; any irregularity (more than one non-waiting neighbour) cancels the
    handshake back to the waiting status. *)

type ('l, 's) t = {
  init : 'l -> 's;
  delta : 's -> 's -> 's * 's;
      (** [delta p q = (p', q')] for the rendez-vous [p, q ↦ p', q']. *)
  accepting : 's -> bool;
  rejecting : 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
}

val create :
  init:('l -> 's) ->
  delta:('s -> 's -> 's * 's) ->
  accepting:('s -> bool) ->
  rejecting:('s -> bool) ->
  ?pp_state:(Format.formatter -> 's -> unit) ->
  unit ->
  ('l, 's) t

(** {1 Direct semantics} *)

val initial : ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t

val step :
  ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t -> int * int ->
  's Dda_runtime.Config.t
(** Apply the rendez-vous for the ordered pair [(u, v)].
    @raise Invalid_argument if [u] and [v] are not adjacent. *)

val simulate_random :
  seed:int ->
  max_steps:int ->
  ('l, 's) t ->
  'l Dda_graph.Graph.t ->
  's Dda_runtime.Config.t * int
(** Uniformly random ordered adjacent pairs (a pseudo-stochastic sample). *)

val verdict :
  ('l, 's) t -> 's Dda_runtime.Config.t -> [ `Accepting | `Rejecting | `Mixed ]

val settle_time :
  seed:int -> max_steps:int -> ('l, 's) t -> 'l Dda_graph.Graph.t ->
  (int * [ `Accepting | `Rejecting ]) option
(** Run random ordered-pair selections for [max_steps] steps and report the
    last step at which the global verdict changed, with the final verdict —
    the convergence measure for protocols (like walking-token majority)
    whose configurations never freeze.  [None] if the final verdict is
    mixed. *)

val space :
  max_configs:int -> ('l, 's) t -> 'l Dda_graph.Graph.t -> Dda_verify.Space.t
(** Exact configuration space under all ordered-pair selections; [Opaque]
    kind (population protocols are pseudo-stochastic, so bottom-SCC
    decisions apply). *)

(** {1 The Lemma 4.10 compilation} *)

type 's state =
  | Plain of 's  (** Waiting (the paper's ⌛). *)
  | Search of 's  (** Looking for a partner (🔍). *)
  | Answer of 's  (** Answering a unique searcher (💬). *)
  | Confirm of 's * 's
      (** Confirmed a unique answerer; second component is the post-state
          [δ₁(p, q)] to adopt once the partner has moved (✓). *)

val compile : ('l, 's) t -> ('l, 's state) Dda_machine.Machine.t
(** The DAF-automaton of Lemma 4.10 (counting bound 2). *)

val pp_state :
  (Format.formatter -> 's -> unit) -> Format.formatter -> 's state -> unit
