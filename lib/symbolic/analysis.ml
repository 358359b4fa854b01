module Machine = Dda_machine.Machine
module M = Dda_multiset.Multiset
module Decide = Dda_verify.Decide

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
