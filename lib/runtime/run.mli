(** The run engine: simulate a machine on a graph under a schedule.

    A run is the infinite sequence of configurations induced by a schedule
    (Section 2.1); we simulate a finite prefix and report what stabilised.
    The engine detects {e quiescence} (a configuration that is a fixpoint
    under every selection — from then on nothing can ever change, so the
    simulated verdict is the true verdict of every continuation) and tracks
    when the global consensus last changed, which measures convergence time
    for the benchmark experiments. *)

type 's result = {
  final : 's Config.t;  (** Configuration when the simulation stopped. *)
  steps_taken : int;  (** Number of selections applied. *)
  quiescent : bool;  (** Stopped because a global fixpoint was reached. *)
  verdict : [ `Accepting | `Rejecting | `Mixed ];  (** Of [final]. *)
  settled_at : int option;
      (** First step index from which the final verdict held continuously to
          the end; [None] when the final verdict is [`Mixed].  When
          [quiescent] is true and the verdict is not [`Mixed], this is the
          exact stabilisation time of the (infinite) run. *)
}

val simulate :
  ?on_step:
    (step:int ->
    selection:Dda_scheduler.Scheduler.selection ->
    before:'s Config.t ->
    after:'s Config.t ->
    unit) ->
  ?initial:'s Config.t ->
  max_steps:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  Dda_scheduler.Scheduler.t ->
  's result
(** [simulate ~max_steps m g sched] runs [m] on [g] with selections drawn
    from [sched] (which must have been created with [n = Graph.nodes g]),
    stopping at quiescence or after [max_steps] selections.  [on_step] is
    called after every applied selection. *)

val trace :
  ?initial:'s Config.t ->
  steps:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  Dda_scheduler.Scheduler.t ->
  ('s Config.t * Dda_scheduler.Scheduler.selection) list * 's Config.t
(** [trace ~steps m g sched] records the first [steps] transitions:
    the list of (configuration, selection applied in it) plus the final
    configuration — the run-prefix format of Figure 2. *)

val consensus_time :
  ?attempts:int ->
  max_steps:int ->
  ('l, 's) Dda_machine.Machine.t ->
  'l Dda_graph.Graph.t ->
  (unit -> Dda_scheduler.Scheduler.t) ->
  int option
(** Median settling step over [attempts] (default 1) fresh schedules, or
    [None] if any attempt failed to settle within [max_steps]. *)
