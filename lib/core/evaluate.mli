(** Evaluating a machine as a decider of a labelling property over a suite
    of graphs — the driver behind the Figure 1 decision tables.

    A machine {e decides} a labelling property if, on every graph of the
    suite, the exact verdict matches the predicate evaluated on the graph's
    label count.  [against_predicate] reports per-graph results;
    [all_correct] summarises. *)

type case = {
  graph_name : string;
  nodes : int;
  expected : bool;  (** the predicate on the label count *)
  got : Decision.outcome;
}

val correct : case -> bool
(** The verdict exists and matches [expected]. *)

val against_predicate :
  ?cache:Dda_batch.Store.t ->
  ?budget:Decision.budget ->
  fairness:Classes.fairness ->
  machine:(string, 's) Dda_machine.Machine.t ->
  predicate:Dda_presburger.Predicate.t ->
  graphs:(string * string Dda_graph.Graph.t) list ->
  unit ->
  case list
(** With [?cache], verdicts go through the persistent cache
    ({!Decision.decide}); the machine fingerprint is computed once
    for the whole suite. *)

val against_predicate_synchronous :
  ?budget:Decision.budget ->
  machine:(string, 's) Dda_machine.Machine.t ->
  predicate:Dda_presburger.Predicate.t ->
  graphs:(string * string Dda_graph.Graph.t) list ->
  unit ->
  case list

val all_correct : case list -> bool

val pp_case : Format.formatter -> case -> unit

(** {1 Graph suites} *)

val suite :
  ?alphabet:string list ->
  ?max_nodes:int ->
  ?bounded_degree:int option ->
  unit ->
  (string * string Dda_graph.Graph.t) list
(** A deterministic suite of named labelled graphs: all label counts over
    the alphabet (default [\["a"; "b"\]]) with 3..[max_nodes] (default 5)
    nodes, each placed on several topologies (clique, cycle, line, star);
    [bounded_degree = Some k] keeps only graphs of degree at most [k]. *)
