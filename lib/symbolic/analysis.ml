module Machine = Dda_machine.Machine
module M = Dda_multiset.Multiset
module Decide = Dda_verify.Decide
module Space = Dda_verify.Space
module Scc = Dda_verify.Scc
module T = Dda_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Adversarial fairness on the counted quotient                        *)
(* ------------------------------------------------------------------ *)

(* Round-based Streett peel.  A candidate subgraph is fair-supporting iff
   the move labels of its internal edges cover every member's obligations
   — the labels on the member's own out-edges (support + centre).  Each
   round runs one Tarjan pass over the live vertices (dead vertices keep no
   edges, so they are isolated singletons), then per component: no
   internal edge — drop it whole; every member covered — it is a maximal
   fair-supporting set, scan it for witnesses and retire it; otherwise
   drop the uncovered members and keep the rest live.  Any fair-supporting
   subgraph survives every peel (its internal labels are a subset of each
   enclosing component's), and removing whole components leaves the other
   components intact, so the rounds stop once no component was split. *)
let adversarial (space : Space.t) =
  T.with_span "verdict" @@ fun () ->
  let n = space.Space.size and degree = space.Space.degree in
  let target = space.Space.target and label = space.Space.label in
  let live = Array.make n true in
  let non_acc = ref (-1) and non_rej = ref (-1) in
  (* move labels are >= -1: shift by one to index a bool array *)
  let top = ref 0 in
  for v = 0 to n - 1 do
    for e = 0 to degree v - 1 do top := max !top (label v e + 1) done
  done;
  let covered = Array.make (!top + 1) false in
  let order = Array.make n 0 in
  let split = ref true in
  while !split && (!non_acc < 0 || !non_rej < 0) do
    split := false;
    let scc =
      Scc.compute_iter ~vertices:n ~degree:(fun v -> if live.(v) then degree v else 0) ~succ:target
    in
    let comp = scc.Scc.comp and nc = scc.Scc.comp_count in
    (* live members grouped by component, ascending within each *)
    let first = Array.make (nc + 1) 0 in
    for v = 0 to n - 1 do
      if live.(v) then first.(comp.(v) + 1) <- first.(comp.(v) + 1) + 1
    done;
    for k = 1 to nc do
      first.(k) <- first.(k) + first.(k - 1)
    done;
    let fill = Array.sub first 0 nc in
    for v = 0 to n - 1 do
      if live.(v) then begin
        order.(fill.(comp.(v))) <- v;
        fill.(comp.(v)) <- fill.(comp.(v)) + 1
      end
    done;
    for k = 0 to nc - 1 do
      let lo = first.(k) and hi = first.(k + 1) in
      if lo < hi && (!non_acc < 0 || !non_rej < 0) then begin
        let internal = ref false in
        for x = lo to hi - 1 do
          let v = order.(x) in
          for e = 0 to degree v - 1 do
            let w = target v e in
            if live.(w) && comp.(w) = k then begin
              internal := true;
              covered.(label v e + 1) <- true
            end
          done
        done;
        let uncovered v =
          let bad = ref false in
          for e = 0 to degree v - 1 do
            if not covered.(label v e + 1) then bad := true
          done;
          !bad
        in
        let dropped = ref 0 in
        for x = lo to hi - 1 do
          let v = order.(x) in
          if (not !internal) || uncovered v then begin
            live.(v) <- false;
            incr dropped
          end
        done;
        if !dropped = 0 then
          (* fair-supporting: take the least witnesses, then retire it *)
          for x = lo to hi - 1 do
            let v = order.(x) in
            if !non_acc < 0 && not (space.Space.accepting v) then non_acc := v;
            if !non_rej < 0 && not (space.Space.rejecting v) then non_rej := v;
            live.(v) <- false
          done
        else if !dropped < hi - lo then split := true;
        for x = lo to hi - 1 do
          let v = order.(x) in
          for e = 0 to degree v - 1 do
            covered.(label v e + 1) <- false
          done
        done
      end
    done
  done;
  match (!non_acc >= 0, !non_rej >= 0) with
  | false, true -> Decide.Accepts
  | true, false -> Decide.Rejects
  | true, true ->
      Decide.Inconsistent
        (Format.sprintf
           "fair runs can revisit the non-accepting configuration %s and the \
            non-rejecting configuration %s forever"
           (space.Space.describe !non_acc) (space.Space.describe !non_rej))
  | false, false ->
      Decide.Inconsistent
        "no fair cycle found (finite spaces always have one; this is a bug)"

let for_regime regime space =
  match (regime, space.Space.kind) with
  | Decide.Adversarial, Space.Counted -> adversarial space
  | _ -> Decide.for_regime regime space

(* ------------------------------------------------------------------ *)
(* Synchronous regime on multisets                                     *)
(* ------------------------------------------------------------------ *)

let verdict_of_counts (type l s) (m : (l, s) Machine.t) centre counts =
  let states = M.support counts in
  let states = match centre with None -> states | Some c -> c :: states in
  let all f = List.for_all f states in
  if all m.Machine.accepting then `Accepting
  else if all m.Machine.rejecting then `Rejecting
  else `Mixed

let synchronous_shape (type l s) ~max_steps (m : (l, s) Machine.t)
    (shape : l Counted.shape) =
  let beta = m.Machine.beta in
  let cap counts = M.cutoff beta counts in
  let step =
    match shape with
    | Counted.S_clique _ ->
        fun (_, counts) ->
          let counts' =
            M.fold
              (fun q cnt acc ->
                let obs = M.to_counts (cap (M.remove q counts)) in
                M.add ~times:cnt (m.Machine.delta q obs) acc)
              counts M.empty
          in
          (None, counts')
    | Counted.S_star _ ->
        fun (centre, counts) ->
          let ctr = Option.get centre in
          let ctr' = m.Machine.delta ctr (M.to_counts (cap counts)) in
          let counts' =
            M.fold
              (fun q cnt acc ->
                M.add ~times:cnt (m.Machine.delta q [ (ctr, 1) ]) acc)
              counts M.empty
          in
          (Some ctr', counts')
  in
  let init =
    match shape with
    | Counted.S_clique labels -> (None, M.map m.Machine.init labels)
    | Counted.S_star (c, leaves) ->
        (Some (m.Machine.init c), M.map m.Machine.init leaves)
  in
  let seen = Hashtbl.create 64 in
  let trace = ref [] in
  let rec run conf k =
    match Hashtbl.find_opt seen conf with
    | Some at ->
        (* configurations at index >= at form the cycle *)
        let cycle =
          List.filteri (fun i _ -> i >= at) (List.rev !trace)
        in
        let verdicts =
          List.map (fun (ctr, counts) -> verdict_of_counts m ctr counts) cycle
        in
        let v =
          if List.for_all (( = ) `Accepting) verdicts then Decide.Accepts
          else if List.for_all (( = ) `Rejecting) verdicts then Decide.Rejects
          else
            Decide.Inconsistent
              "the synchronous cycle mixes accepting, rejecting or undecided \
               configurations"
        in
        Some v
    | None ->
        if k >= max_steps then None
        else begin
          Hashtbl.add seen conf k;
          trace := conf :: !trace;
          run (step conf) (k + 1)
        end
  in
  run init 0

let synchronous ~max_steps m g =
  match Counted.shape_of_graph g with
  | Some shape -> synchronous_shape ~max_steps m shape
  | None ->
      invalid_arg
        "Analysis.synchronous: counted semantics needs a clique or star graph"
