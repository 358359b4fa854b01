module M = Dda_multiset.Multiset
module G = Dda_graph.Graph
module Engine = Dda_verify.Engine
module Space = Dda_verify.Space
module T = Dda_telemetry.Telemetry

exception Too_large = Space.Too_large

type 'l shape =
  | S_clique of 'l M.t
  | S_star of 'l * 'l M.t

let shape_of_graph g =
  let n = G.nodes g in
  if n < 2 then None
  else if
    let complete = ref true in
    for v = 0 to n - 1 do
      if G.degree g v <> n - 1 then complete := false
    done;
    !complete
  then Some (S_clique (G.label_count g))
  else if n < 3 then None
  else begin
    (* a star has one centre of degree n-1 and n-1 leaves of degree 1 *)
    let centre = ref (-1) and ok = ref true in
    for v = 0 to n - 1 do
      match G.degree g v with
      | d when d = n - 1 -> if !centre >= 0 then ok := false else centre := v
      | 1 -> ()
      | _ -> ok := false
    done;
    if (not !ok) || !centre < 0 then None
    else begin
      let c = !centre in
      let leaves = ref [] in
      for v = n - 1 downto 0 do
        if v <> c then leaves := G.label g v :: !leaves
      done;
      Some (S_star (G.label g c, M.of_list !leaves))
    end
  end

let of_shape ~max_configs m shape =
  (match shape with
  | S_clique counts when M.size counts < 2 ->
    invalid_arg "Counted.of_shape: a clique needs at least two nodes"
  | _ -> ());
  let topo, centre, leaves =
    match shape with S_clique l -> ("clique", None, l) | S_star (c, l) -> ("star", Some c, l)
  in
  T.with_span ~args:[ ("topology", T.S topo) ] "symbolic.explore" (fun () ->
      match Engine.explore_counted ?centre ~leaves ~max_configs m with
      | e -> Space.of_engine e
      | exception Engine.Too_large n -> raise (Too_large n))

let clique ~max_configs m counts = of_shape ~max_configs m (S_clique counts)

let star ~max_configs m ~centre ~leaves =
  of_shape ~max_configs m (S_star (centre, leaves))

let of_graph ~max_configs m g =
  Option.map (of_shape ~max_configs m) (shape_of_graph g)
