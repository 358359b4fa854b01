(** Strong broadcast protocols (the broadcast consensus protocols of
    Blondin–Esparza–Jaax) and the token construction of Lemma 5.1.

    In a strong broadcast protocol exactly one agent broadcasts at a time:
    the selected agent in state [q] fires [B(q) = (q', f)] atomically — it
    moves to [q'] and {e every} other agent applies [f].  These protocols
    decide exactly the predicates in NL; Lemma 5.1 shows DAF-automata can
    simulate them, which is the hard direction of [DAF = NL].

    The broadcast function is total: states without a meaningful broadcast
    carry the identity broadcast (the paper leaves such states out of [Q_B];
    making them silent initiators is equivalent and keeps the token moving in
    the simulation below).

    {!to_daf} is the full Lemma 5.1 pipeline, composed from the library's
    other constructions exactly as in the paper:

    {v
    P_token   population protocol {0, L, L', ⊥}:   (L,L) ↦ (0,⊥),
              (0,L) ↦ (L,0), (L,0) ↦ (L',0)                      ⟨token⟩
    P'_token  = Population.compile P_token                      (Lemma 4.10)
    P_step    = P'_token × Q + ⟨step⟩     (weak broadcast fired at L')
    P'_step   = Weak_broadcast.compile P_step                    (Lemma 4.7)
    P_reset   = P'_step × Q + ⟨reset⟩     (fired at ⊥, rebuilds from input)
    result    = Weak_broadcast.compile P_reset                   (Lemma 4.7)
    v}

    Agents in states [L]/[L'] hold a {e token}; colliding tokens produce the
    error state [⊥], whose ⟨reset⟩ broadcast restarts the computation with
    strictly fewer tokens, until a single token serialises the strong
    broadcasts. *)

type ('l, 's) t = {
  init : 'l -> 's;
  broadcast : 's -> 's * int;
      (** [broadcast q = (q', fid)]: the (total) broadcast fired by a
          selected agent in state [q]; use [(q, identity_fid)] for silence. *)
  respond : int -> 's -> 's;
  response_count : int;
  accepting : 's -> bool;
  rejecting : 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
}

val create :
  init:('l -> 's) ->
  broadcast:('s -> 's * int) ->
  respond:(int -> 's -> 's) ->
  response_count:int ->
  accepting:('s -> bool) ->
  rejecting:('s -> bool) ->
  ?pp_state:(Format.formatter -> 's -> unit) ->
  unit ->
  ('l, 's) t

(** {1 Direct semantics} *)

val initial : ('l, 's) t -> 'l Dda_graph.Graph.t -> 's Dda_runtime.Config.t

val step :
  ('l, 's) t -> 's Dda_runtime.Config.t -> int -> 's Dda_runtime.Config.t
(** The agent fires its broadcast atomically.  Strong broadcasts are global:
    the graph structure is irrelevant to the semantics. *)

val quiescent : ('l, 's) t -> 's Dda_runtime.Config.t -> bool
(** No agent's broadcast would change anything (the configuration is
    frozen). *)

val simulate_random :
  seed:int ->
  max_steps:int ->
  ('l, 's) t ->
  'l Dda_graph.Graph.t ->
  's Dda_runtime.Config.t * int

val space :
  max_configs:int -> ('l, 's) t -> 'l Dda_graph.Graph.t -> Dda_verify.Space.t
(** Exact space; pseudo-stochastic decisions apply ([Opaque] kind). *)

(** {1 Lemma 5.1} *)

type tok = TZ | TL | TL' | TBot
(** Token states: [0], [L], [L'] and the error state [⊥]. *)

val token_protocol : unit -> ('l, tok) Population.t
(** The ⟨token⟩ graph population protocol (every agent starts with a
    token). *)

type 's step_state = (tok Population.state * 's) Weak_broadcast.state
(** States of [P'_step]. *)

type 's reset_state = ('s step_state * 's) Weak_broadcast.state
(** States of the final automaton. *)

val step_machine : ('l, 's) t -> ('l, tok Population.state * 's) Weak_broadcast.t
(** [P_step]: the compiled token protocol, carrying the protocol state, with
    the ⟨step⟩ weak broadcast fired by plain [L'] holders. *)

val reset_machine : ('l, 's) t -> ('l, 's step_state * 's) Weak_broadcast.t
(** [P_reset]: [P'_step × Q] plus the ⟨reset⟩ broadcast fired by plain [⊥]
    holders. *)

val to_daf : ('l, 's) t -> ('l, 's reset_state) Dda_machine.Machine.t
(** The full DAF-automaton equivalent to the strong broadcast protocol. *)
