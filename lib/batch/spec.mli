(** The little spec languages shared by the CLI and the batch runner.

    Graph specs ([cycle:abb], [grid:3x2:aabbab], ...), protocol specs
    ([exists:a], [threshold:a,2], [majority-pop], ...), scheduler specs and
    fairness-regime names all parse here, so manifest files and command-line
    flags accept exactly the same syntax.  Parsers return [Error] with a
    usage string rather than raising. *)

type packed = Packed : (string, 's) Dda_machine.Machine.t -> packed
(** Protocols packed existentially, so one table covers all state types. *)

type regime = Dda_verify.Decide.regime = Adversarial | Pseudo_stochastic
(** The fairness regime of a verification job — the paper's f (adversarial)
    and F (pseudo-stochastic) classes; [Dda_core.Classes.fairness] is the
    same type. *)

val regime_name : regime -> string
(** ["f"] for adversarial, ["F"] for pseudo-stochastic — the names used in
    specs, cache keys and reports. *)

val parse_regime : string -> (regime, string) result
(** Accepts ["f"], ["adversarial"], ["F"], ["pseudo-stochastic"]. *)

val parse_graph : string -> (string Dda_graph.Graph.t, string) result
(** [cycle|line|clique|star:<labels>] (one label per character) or
    [grid:WxH:<labels>] (row-major).  Errors read ["graph: ..."]. *)

val alphabet_of : string Dda_graph.Graph.t -> string list
(** Sorted, deduplicated label alphabet of a graph — the canonical label
    list for protocol construction and machine fingerprints. *)

val parse_protocol :
  string -> string Dda_graph.Graph.t -> (packed, string) result
(** The protocol is built over the graph's alphabet, so the graph parses
    first. *)

type graph_spec =
  | Concrete of string Dda_graph.Graph.t
  | Family of Dda_symbolic.Family.t

val parse_graph_spec : string -> (graph_spec, string) result
(** Like {!parse_graph}, but a spec whose label word ends in [*]
    ([clique:ab*], [star:ba*]) parses as a graph {e family} — the query
    object of the symbolic engine's family verdicts.  Errors of both kinds
    carry the same single ["graph: "] prefix. *)

val family_of_instance : string -> (Dda_symbolic.Family.t * int) option
(** The family a concrete clique/star spec is an instance of (collapse the
    trailing label run), with the instance size — the cache fallback that
    lets one family entry answer instance-n queries. *)

val family_representative : Dda_symbolic.Family.t -> string Dda_graph.Graph.t
(** The smallest instance, used to build the protocol machine for a family
    query (all instances share the family's alphabet). *)

val parse_scheduler :
  string -> int -> (Dda_scheduler.Scheduler.t, string) result
