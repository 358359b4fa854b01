module Graph = Dda_graph.Graph
module M = Dda_multiset.Multiset
module P = Dda_presburger.Predicate
module Decide = Dda_verify.Decide
module Listx = Dda_util.Listx

type case = {
  graph_name : string;
  nodes : int;
  expected : bool;
  got : Decision.outcome;
}

let correct c =
  match c.got with
  | Ok v -> Decide.verdict_bool v = Some c.expected
  | Error _ -> false

let run_cases decide_one ~predicate ~graphs =
  List.map
    (fun (graph_name, g) ->
      {
        graph_name;
        nodes = Graph.nodes g;
        expected = P.holds predicate (Graph.label_count g);
        got = decide_one g;
      })
    graphs

let against_predicate ?cache ?budget ~fairness ~machine ~predicate ~graphs () =
  (* fingerprint the machine once per call (over the union alphabet of the
     suite), not once per graph *)
  let machine_key =
    match cache with
    | None -> None
    | Some _ ->
      let labels =
        Listx.dedup_sorted Stdlib.compare
          (List.concat_map (fun (_, g) -> Array.to_list (Graph.labels g)) graphs)
      in
      Some (Dda_batch.Fingerprint.machine ~labels machine)
  in
  run_cases
    (fun g -> Decision.decide ?cache ?machine_key ?budget ~fairness machine g)
    ~predicate ~graphs

let against_predicate_synchronous ?budget ~machine ~predicate ~graphs () =
  run_cases (fun g -> Decision.decide_synchronous ?budget machine g) ~predicate ~graphs

let all_correct cases = List.for_all correct cases

let pp_case fmt c =
  let outcome =
    match c.got with
    | Ok v -> Format.asprintf "%a" Decide.pp_verdict v
    | Error (`Too_large n) -> Printf.sprintf "space too large (%d)" n
    | Error `No_cycle -> "no cycle"
  in
  Format.fprintf fmt "%-24s n=%-3d expected=%-6b got=%s%s" c.graph_name c.nodes c.expected
    outcome
    (if correct c then "" else "  <-- MISMATCH")

let suite ?(alphabet = [ "a"; "b" ]) ?(max_nodes = 5) ?(bounded_degree = None) () =
  let counts =
    List.concat_map
      (fun n -> M.enumerate_of_size alphabet ~size:n)
      (Listx.range_in 3 max_nodes)
  in
  let graphs_of count =
    let labels = M.to_list count in
    let tag topo =
      Printf.sprintf "%s[%s]" topo
        (String.concat ""
           (List.map (fun (l, c) -> Printf.sprintf "%s%d" l c) (M.to_counts count)))
    in
    let star =
      match labels with
      | centre :: (_ :: _ as leaves) -> [ (tag "star", Graph.star ~centre ~leaves) ]
      | _ -> []
    in
    [ (tag "clique", Graph.clique labels); (tag "cycle", Graph.cycle labels); (tag "line", Graph.line labels) ]
    @ star
  in
  let all = List.concat_map graphs_of counts in
  match bounded_degree with
  | None -> all
  | Some k -> List.filter (fun (_, g) -> Graph.max_degree g <= k) all
