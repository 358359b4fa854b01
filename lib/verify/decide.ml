module Machine = Dda_machine.Machine
module Graph = Dda_graph.Graph
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module T = Dda_telemetry.Telemetry

(* Condensation timed as its own span: together with "explore" and
   "verdict" this gives the explore/scc/verdict phase breakdown in traces
   and metrics.  Cold path — one call per analysis. *)
let timed_scc_iter ~vertices ~degree ~succ =
  T.with_span ~args:[ ("vertices", T.I vertices) ] "scc" (fun () ->
      Scc.compute_iter ~vertices ~degree ~succ)

let timed_scc ~vertices ~succs =
  T.with_span ~args:[ ("vertices", T.I vertices) ] "scc" (fun () -> Scc.compute ~vertices ~succs)

type verdict = Accepts | Rejects | Inconsistent of string

let verdict_bool = function
  | Accepts -> Some true
  | Rejects -> Some false
  | Inconsistent _ -> None

let pp_verdict fmt = function
  | Accepts -> Format.pp_print_string fmt "accepts"
  | Rejects -> Format.pp_print_string fmt "rejects"
  | Inconsistent w -> Format.fprintf fmt "inconsistent (%s)" w

let targets space i = List.map snd (space.Space.succs i)

(* ------------------------------------------------------------------ *)
(* Packed fast paths                                                    *)
(*                                                                      *)
(* Spaces built by the engine expose their implicit-CSR arrays; the     *)
(* analyses below run on those with per-component int/bool arrays and   *)
(* the allocation-free Tarjan, instead of materialising successor and   *)
(* member lists.  Verdicts (and witness choices) coincide with the      *)
(* generic code — the differential tests check this.                    *)
(* ------------------------------------------------------------------ *)

let mixed_bottom_msg describe w =
  Printf.sprintf "bottom SCC neither all-accepting nor all-rejecting, e.g. %s" (describe w)

(* Bottom-SCC classification over an indexed edge view ([succ v k] for
   [k < degree v]): the one body behind packed explicit spaces and counted
   spaces.  Witnesses are the least non-accepting member of the first mixed
   bottom component, so the text matches the generic list analysis. *)
let bottom_scc_verdict ~vertices ~degree ~succ ~acc ~rej ~describe =
  let scc = timed_scc_iter ~vertices ~degree ~succ in
  let comp = scc.Scc.comp in
  let nc = scc.Scc.comp_count in
  let bottom = Array.make nc true in
  let all_acc = Array.make nc true in
  let all_rej = Array.make nc true in
  let witness = Array.make nc (-1) in
  for i = vertices - 1 downto 0 do
    let c = comp.(i) in
    for k = 0 to degree i - 1 do
      if comp.(succ i k) <> c then bottom.(c) <- false
    done;
    if not (acc i) then begin
      all_acc.(c) <- false;
      witness.(c) <- i (* downward loop: ends at the least non-accepting member *)
    end;
    if not (rej i) then all_rej.(c) <- false
  done;
  let mixed = ref None in
  let accs = ref false in
  let rejs = ref false in
  for c = 0 to nc - 1 do
    if bottom.(c) then
      if all_acc.(c) then accs := true
      else if all_rej.(c) then rejs := true
      else if !mixed = None then mixed := Some witness.(c)
  done;
  match !mixed with
  | Some w -> Inconsistent (mixed_bottom_msg describe w)
  | None ->
    if !accs && !rejs then
      Inconsistent "some pseudo-stochastic fair runs accept while others reject"
    else if !accs then Accepts
    else if !rejs then Rejects
    else Inconsistent "no bottom SCC found"

(* Exact on symmetry quotients too: orbits of bottom SCCs are bottom SCCs of
   the quotient, and acceptance is invariant under automorphisms. *)
let packed_pseudo_stochastic e describe =
  let n = Engine.out_degree e in
  bottom_scc_verdict ~vertices:e.Engine.size ~degree:(fun _ -> n) ~succ:(Engine.target e)
    ~acc:(Engine.acc e) ~rej:(Engine.rej e) ~describe

(* Fair-SCC classification on the engine's arrays.

   For a symmetry-reduced space the quotient's own labels are not sound —
   merging orbit members conflates which node a selection hits — so the
   analysis runs on the *lifted* graph: nodes are pairs (representative R,
   group element t), standing for the concrete configuration p_t^{-1} . R.
   Quotient edge k of R (successor S, recorded element s with
   R' = p_s . S) lifts, at (R, t), to an edge labelled perms.(t).(k) going
   to (R', mul.(t).(s)); acceptance of (R, t) is acceptance of R.  Every
   lifted SCC is isomorphic (via p_t) to an SCC of reachable concrete
   configurations and vice versa, so scanning all lifted SCCs is exact.
   With a trivial group the lifted graph *is* the quotient graph and this
   degenerates to the plain array analysis. *)
let packed_adversarial_core e =
  let n = Engine.out_degree e in
  if n > 62 then invalid_arg "Decide.adversarial: more than 62 nodes";
  let ord, mul, perms =
    match e.Engine.symmetry with
    | None -> (1, [| [| 0 |] |], [| Array.init n (fun v -> v) |])
    | Some g -> (Symmetry.order g, Symmetry.mul g, Symmetry.perms g)
  in
  let sz = e.Engine.size * ord in
  let succ x k =
    let i = x / ord and t = x mod ord in
    (Engine.target e i k * ord) + mul.(t).(Engine.edge_sigma e i k)
  in
  let scc = timed_scc_iter ~vertices:sz ~degree:(fun _ -> n) ~succ in
  let comp = scc.Scc.comp in
  let nc = scc.Scc.comp_count in
  let full = (1 lsl n) - 1 in
  let cov = Array.make nc 0 in
  let wit_non_acc = Array.make nc (-1) in
  let wit_non_rej = Array.make nc (-1) in
  for x = sz - 1 downto 0 do
    let c = comp.(x) in
    let i = x / ord and t = x mod ord in
    for k = 0 to n - 1 do
      if comp.(succ x k) = c then cov.(c) <- cov.(c) lor (1 lsl perms.(t).(k))
    done;
    if not (Engine.acc e i) then wit_non_acc.(c) <- i;
    if not (Engine.rej e i) then wit_non_rej.(c) <- i
  done;
  let fair_non_accepting = ref None in
  let fair_non_rejecting = ref None in
  for c = 0 to nc - 1 do
    if cov.(c) = full then begin
      (* full coverage implies internal edges *)
      if !fair_non_accepting = None && wit_non_acc.(c) >= 0 then
        fair_non_accepting := Some wit_non_acc.(c);
      if !fair_non_rejecting = None && wit_non_rej.(c) >= 0 then
        fair_non_rejecting := Some wit_non_rej.(c)
    end
  done;
  (!fair_non_accepting, !fair_non_rejecting)

let adversarial_verdict describe = function
  | None, Some _ -> Accepts
  | Some _, None -> Rejects
  | Some i, Some j ->
    Inconsistent
      (Printf.sprintf
         "fair runs revisit non-accepting %s and non-rejecting %s configurations"
         (describe i) (describe j))
  | None, None -> Inconsistent "no fair cycle found (should be impossible)"

(* ------------------------------------------------------------------ *)
(* Streaming paths                                                      *)
(*                                                                      *)
(* External-memory spaces keep their CSR in spillable arenas, and        *)
(* Tarjan's DFS order is the worst case for an LRU of segments.  The     *)
(* analyses below re-derive the same three verdicts from edge-sweep      *)
(* primitives (Scc.backward_reach / Scc.fair_cycle) that touch each      *)
(* segment at most once per sweep.  Verdict constructors always agree    *)
(* with the packed analyses (the spilled-vs-resident differential        *)
(* checks this); witness examples may differ, since no condensation is   *)
(* materialised to pick canonical members from.                          *)
(* ------------------------------------------------------------------ *)

let use_streaming e = Engine.spilled e || Sys.getenv_opt "DDA_STREAM_SCC" = Some "1"

let timed_streaming ~vertices f =
  T.with_span ~args:[ ("vertices", T.I vertices); ("mode", T.S "streaming") ] "scc" f

(* Bottom-SCC classification without the condensation:
   - an all-accepting bottom SCC exists iff some configuration cannot reach
     a non-accepting one (then everything below it is accepting, including
     its bottom SCC; conversely any member of such a bottom qualifies);
   - dually for all-rejecting;
   - a mixed bottom SCC exists iff some configuration cannot reach the set
     S = { j : j cannot reach a non-accepting, or cannot reach a
     non-rejecting }: below such a configuration every j reaches both
     polarities, so every bottom SCC below it contains both; conversely any
     member of a mixed bottom cannot leave it, and inside it S is empty. *)
let streaming_pseudo_stochastic e describe =
  let sz = e.Engine.size in
  let targets = Engine.targets_reader e in
  let reach seed =
    Scc.backward_reach ~vertices:sz ~degree:(Engine.out_degree e)
      ~row:(fun i dst _ -> targets i dst)
      ~seed
  in
  timed_streaming ~vertices:sz (fun () ->
      let na = reach (fun i -> not (Engine.acc e i)) in
      let nr = reach (fun i -> not (Engine.rej e i)) in
      let pure j = Bytes.get na j = '\000' || Bytes.get nr j = '\000' in
      let rs = reach pure in
      let mixed = ref None in
      let accs = ref false in
      let rejs = ref false in
      for i = sz - 1 downto 0 do
        if Bytes.get rs i = '\000' then mixed := Some i;
        if Bytes.get na i = '\000' then accs := true;
        if Bytes.get nr i = '\000' then rejs := true
      done;
      match !mixed with
      | Some w ->
        Inconsistent
          (Printf.sprintf
             "fair runs from %s settle into a bottom SCC that is neither all-accepting nor \
              all-rejecting"
             (describe w))
      | None ->
        if !accs && !rejs then
          Inconsistent "some pseudo-stochastic fair runs accept while others reject"
        else if !accs then Accepts
        else if !rejs then Rejects
        else Inconsistent "no bottom SCC found")

(* Adversarial fairness as two fair-cycle queries on the lifted graph (same
   lift as [packed_adversarial_core]): a label-covering SCC containing a
   non-accepting (resp. non-rejecting) member exists iff some cycle carries
   all node labels and visits such a vertex.  Lifted row (R, t) is built
   from R's target and sigma rows, read once for the [ord] consecutive
   lifted vertices that share R. *)
let streaming_adversarial e describe =
  let n = Engine.out_degree e in
  let targets = Engine.targets_reader e in
  let ord, row =
    match e.Engine.symmetry with
    | None ->
      (* the lift is the space itself: rows straight from the reader *)
      let bits = Array.init n (fun k -> 1 lsl k) in
      ( 1,
        fun i dst lbl ->
          targets i dst;
          Array.blit bits 0 lbl 0 n )
    | Some g ->
      let ord = Symmetry.order g and mul = Symmetry.mul g in
      let bits = Array.map (Array.map (fun l -> 1 lsl l)) (Symmetry.perms g) in
      let sigmas = Engine.sigmas_reader e in
      let tr = Array.make n 0 and sr = Array.make n 0 in
      let cur = ref (-1) in
      ( ord,
        fun x dst lbl ->
          let i = x / ord and t = x mod ord in
          if i <> !cur then begin
            targets i tr;
            sigmas i sr;
            cur := i
          end;
          let mt = mul.(t) in
          for k = 0 to n - 1 do
            dst.(k) <- (tr.(k) * ord) + mt.(sr.(k))
          done;
          Array.blit bits.(t) 0 lbl 0 n )
  in
  let sz = e.Engine.size * ord in
  let fair target = Scc.fair_cycle ~vertices:sz ~degree:n ~row ~labels:n ~target in
  timed_streaming ~vertices:sz (fun () ->
      let fna = fair (fun x -> not (Engine.acc e (x / ord))) in
      let fnr = fair (fun x -> not (Engine.rej e (x / ord))) in
      let unlift = Option.map (fun x -> x / ord) in
      adversarial_verdict describe (unlift fna, unlift fnr))

(* Unconditional fairness: a cycle through a non-accepting (resp.
   non-rejecting) configuration, label-free.  Sound on symmetry quotients
   for the same reason the generic path is: quotient cycles lift to
   concrete cycles and acceptance is automorphism-invariant. *)
let streaming_unconditional e describe =
  let sz = e.Engine.size in
  let targets = Engine.targets_reader e in
  let cycle target =
    Scc.fair_cycle ~vertices:sz ~degree:(Engine.out_degree e)
      ~row:(fun i dst _ -> targets i dst)
      ~labels:0 ~target
  in
  timed_streaming ~vertices:sz (fun () ->
      let bad_acc = cycle (fun i -> not (Engine.acc e i)) in
      let bad_rej = cycle (fun i -> not (Engine.rej e i)) in
      match (bad_acc, bad_rej) with
      | None, Some _ -> Accepts
      | Some _, None -> Rejects
      | Some i, Some j ->
        Inconsistent
          (Printf.sprintf "runs can loop through non-accepting %s and non-rejecting %s"
             (describe i) (describe j))
      | None, None -> Inconsistent "no cycle found (space must model idling as self-loops)")

let rec pseudo_stochastic space =
  T.with_span ~args:[ ("analysis", T.S "pseudo-stochastic") ] "verdict" (fun () ->
      match space.Space.backend with
      | Space.Packed e when use_streaming e -> streaming_pseudo_stochastic e space.Space.describe
      | Space.Packed e -> packed_pseudo_stochastic e space.Space.describe
      | Space.Generic -> generic_pseudo_stochastic space)

and generic_pseudo_stochastic space =
  let succs = targets space in
  let scc = timed_scc ~vertices:space.Space.size ~succs in
  let classify_bottom c =
    let members = scc.Scc.members.(c) in
    let all_acc = List.for_all space.Space.accepting members in
    let all_rej = List.for_all space.Space.rejecting members in
    if all_acc then `Acc
    else if all_rej then `Rej
    else begin
      let witness = List.find (fun i -> not (space.Space.accepting i)) members in
      `Mixed witness
    end
  in
  let bottoms =
    List.filter (fun c -> Scc.is_bottom scc ~succs c) (Listx.range scc.Scc.count)
  in
  let classes = List.map classify_bottom bottoms in
  let mixed = List.find_opt (function `Mixed _ -> true | _ -> false) classes in
  match mixed with
  | Some (`Mixed w) ->
    Inconsistent
      (Printf.sprintf "bottom SCC neither all-accepting nor all-rejecting, e.g. %s"
         (space.Space.describe w))
  | _ ->
    let accs = List.exists (fun c -> c = `Acc) classes in
    let rejs = List.exists (fun c -> c = `Rej) classes in
    if accs && rejs then
      Inconsistent "some pseudo-stochastic fair runs accept while others reject"
    else if accs then Accepts
    else if rejs then Rejects
    else Inconsistent "no bottom SCC found"

let pseudo_stochastic_certificate space =
  let n = space.Space.size in
  let succs = targets space in
  (* can_reach.(i) <- configuration i reaches some configuration in [bad] *)
  let backward bad =
    let preds = Array.make n [] in
    for i = 0 to n - 1 do
      List.iter (fun j -> preds.(j) <- i :: preds.(j)) (succs i)
    done;
    let reach = Array.make n false in
    let queue = Queue.create () in
    List.iter
      (fun i ->
        if not reach.(i) then begin
          reach.(i) <- true;
          Queue.add i queue
        end)
      bad;
    while not (Queue.is_empty queue) do
      let j = Queue.pop queue in
      List.iter
        (fun i ->
          if not reach.(i) then begin
            reach.(i) <- true;
            Queue.add i queue
          end)
        preds.(j)
    done;
    reach
  in
  let all = Dda_util.Listx.range n in
  let non_accepting = List.filter (fun i -> not (space.Space.accepting i)) all in
  let non_rejecting = List.filter (fun i -> not (space.Space.rejecting i)) all in
  let spoils_accept = backward non_accepting in
  let spoils_reject = backward non_rejecting in
  (* every explored configuration is reachable from the initial one *)
  let accept_certificate =
    List.exists (fun i -> space.Space.accepting i && not spoils_accept.(i)) all
  in
  let reject_certificate =
    List.exists (fun i -> space.Space.rejecting i && not spoils_reject.(i)) all
  in
  match (accept_certificate, reject_certificate) with
  | true, false -> Accepts
  | false, true -> Rejects
  | true, true -> Inconsistent "both an accepting and a rejecting certificate exist"
  | false, false ->
    Inconsistent "no certificate: every configuration can still be diverted"

let adversarial_witness space ~against =
  if space.Space.kind <> Space.Explicit then
    invalid_arg "Decide.adversarial_witness: needs an explicit space";
  if Space.is_reduced space then
    invalid_arg
      "Decide.adversarial_witness: reduced space (selections are quotiented); explore without \
       symmetry";
  let n = space.Space.node_count in
  let succs = targets space in
  let scc = timed_scc ~vertices:space.Space.size ~succs in
  let offending = match against with `Accepting -> space.Space.accepting | `Rejecting -> space.Space.rejecting in
  (* find an SCC with internal label coverage and a non-[against] member *)
  let candidate = ref None in
  for c = 0 to scc.Scc.count - 1 do
    if !candidate = None then begin
      let members = scc.Scc.members.(c) in
      let covered = Array.make n false in
      let internal = ref false in
      List.iter
        (fun i ->
          List.iter
            (fun (label, j) ->
              if scc.Scc.component.(j) = c then begin
                internal := true;
                if label >= 0 && label < n then covered.(label) <- true
              end)
            (space.Space.succs i))
        members;
      if !internal && Array.for_all (fun b -> b) covered then
        match List.find_opt (fun i -> not (offending i)) members with
        | Some bad -> candidate := Some (c, bad)
        | None -> ()
    end
  done;
  match !candidate with
  | None -> None
  | Some (c, bad) ->
    (* BFS restricted to the component, returning edge labels *)
    let inside i = scc.Scc.component.(i) = c in
    let path_inside source goal =
      if source = goal then Some []
      else begin
        let parent = Hashtbl.create 64 in
        let queue = Queue.create () in
        Queue.add source queue;
        Hashtbl.add parent source None;
        let found = ref false in
        while (not !found) && not (Queue.is_empty queue) do
          let i = Queue.pop queue in
          List.iter
            (fun (label, j) ->
              if inside j && not (Hashtbl.mem parent j) then begin
                Hashtbl.add parent j (Some (i, label));
                if j = goal then found := true;
                Queue.add j queue
              end)
            (space.Space.succs i)
        done;
        if not !found then None
        else begin
          let rec unwind i acc =
            match Hashtbl.find parent i with
            | None -> acc
            | Some (p, label) -> unwind p (label :: acc)
          in
          Some (unwind goal [])
        end
      end
    in
    (* entry into the component *)
    (match Space.shortest_path space ~goal:inside with
    | None -> None
    | Some (prefix, entry) ->
      (* stitch a cycle from [entry]: visit an edge for every node label,
         visit [bad], return to [entry].  All pieces stay inside c. *)
      let find_edge label =
        List.find_map
          (fun i ->
            List.find_map
              (fun (l, j) -> if l = label && inside j then Some (i, j) else None)
              (space.Space.succs i))
          scc.Scc.members.(c)
      in
      let rec stitch at labels acc =
        match labels with
        | [] -> (
          match path_inside at bad with
          | None -> None
          | Some to_bad -> (
            match path_inside bad entry with
            | None -> None
            | Some home -> Some (acc @ to_bad @ home)))
        | label :: rest -> (
          match find_edge label with
          | None -> None
          | Some (x, y) -> (
            match path_inside at x with
            | None -> None
            | Some hop -> stitch y rest (acc @ hop @ [ label ])))
      in
      (match stitch entry (Listx.range n) [] with
      | None -> None
      | Some cycle -> Some (prefix, cycle)))

let certificate_path space target =
  let succs = targets space in
  let scc = timed_scc ~vertices:space.Space.size ~succs in
  let wanted = match target with `Accepting -> space.Space.accepting | `Rejecting -> space.Space.rejecting in
  (* components whose members are uniformly of the wanted polarity and that
     have no outgoing edges *)
  let good_component = Array.make scc.Scc.count false in
  for c = 0 to scc.Scc.count - 1 do
    good_component.(c) <-
      Scc.is_bottom scc ~succs c && List.for_all wanted scc.Scc.members.(c)
  done;
  Space.shortest_path space ~goal:(fun i -> good_component.(scc.Scc.component.(i)))

let unconditional_body space =
  let succs = targets space in
  let scc = timed_scc ~vertices:space.Space.size ~succs in
  (* A configuration lies on a cycle iff its SCC has an internal edge. *)
  let bad_for_accept = ref None in
  let bad_for_reject = ref None in
  for c = 0 to scc.Scc.count - 1 do
    if Scc.has_internal_edge scc ~succs c then begin
      let members = scc.Scc.members.(c) in
      (match List.find_opt (fun i -> not (space.Space.accepting i)) members with
      | Some i when !bad_for_accept = None -> bad_for_accept := Some i
      | _ -> ());
      match List.find_opt (fun i -> not (space.Space.rejecting i)) members with
      | Some i when !bad_for_reject = None -> bad_for_reject := Some i
      | _ -> ()
    end
  done;
  match (!bad_for_accept, !bad_for_reject) with
  | None, Some _ -> Accepts
  | Some _, None -> Rejects
  | Some i, Some j ->
    Inconsistent
      (Printf.sprintf "runs can loop through non-accepting %s and non-rejecting %s"
         (space.Space.describe i) (space.Space.describe j))
  | None, None -> Inconsistent "no cycle found (space must model idling as self-loops)"

let unconditional space =
  T.with_span ~args:[ ("analysis", T.S "unconditional") ] "verdict" (fun () ->
      match space.Space.backend with
      | Space.Packed e when use_streaming e -> streaming_unconditional e space.Space.describe
      | _ -> unconditional_body space)

let rec adversarial space =
  if space.Space.kind <> Space.Explicit then
    invalid_arg "Decide.adversarial: needs an explicit space (node identity)";
  T.with_span ~args:[ ("analysis", T.S "adversarial") ] "verdict" (fun () ->
      match space.Space.backend with
      | Space.Packed e when use_streaming e && Engine.out_degree e <= 61 ->
        streaming_adversarial e space.Space.describe
      | Space.Packed e -> adversarial_verdict space.Space.describe (packed_adversarial_core e)
      | Space.Generic -> generic_adversarial space)

and generic_adversarial space =
  let n = space.Space.node_count in
  let succs = targets space in
  let scc = timed_scc ~vertices:space.Space.size ~succs in
  (* For each SCC: do its internal edges cover every node label, and does it
     contain non-accepting / non-rejecting configurations? *)
  let fair_non_accepting = ref None in
  let fair_non_rejecting = ref None in
  for c = 0 to scc.Scc.count - 1 do
    let members = scc.Scc.members.(c) in
    let covered = Array.make n false in
    let has_internal = ref false in
    List.iter
      (fun i ->
        List.iter
          (fun (label, j) ->
            if scc.Scc.component.(j) = c then begin
              has_internal := true;
              if label >= 0 && label < n then covered.(label) <- true
            end)
          (space.Space.succs i))
      members;
    if !has_internal && Array.for_all (fun b -> b) covered then begin
      (match List.find_opt (fun i -> not (space.Space.accepting i)) members with
      | Some i when !fair_non_accepting = None -> fair_non_accepting := Some i
      | _ -> ());
      match List.find_opt (fun i -> not (space.Space.rejecting i)) members with
      | Some i when !fair_non_rejecting = None -> fair_non_rejecting := Some i
      | _ -> ()
    end
  done;
  adversarial_verdict space.Space.describe (!fair_non_accepting, !fair_non_rejecting)

let synchronous ~max_steps m g =
  let seen = Hashtbl.create 256 in
  let rec go c step acc =
    if step > max_steps then None
    else begin
      let key = Config.to_array c in
      match Hashtbl.find_opt seen key with
      | Some first ->
        (* Cycle: configurations from index [first] to [step - 1]. *)
        let cycle = List.filter_map (fun (i, cfg) -> if i >= first then Some cfg else None) acc in
        let verdicts = List.map (Config.verdict m) cycle in
        if List.for_all (fun v -> v = `Accepting) verdicts then Some Accepts
        else if List.for_all (fun v -> v = `Rejecting) verdicts then Some Rejects
        else
          Some
            (Inconsistent
               "the synchronous run neither stabilises to acceptance nor to rejection")
      | None ->
        Hashtbl.add seen key step;
        let all = Listx.range (Graph.nodes g) in
        go (Config.step m g c all) (step + 1) ((step, c) :: acc)
    end
  in
  go (Config.initial m g) 0 []
