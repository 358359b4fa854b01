module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Scheduler = Dda_scheduler.Scheduler

type 's result = {
  final : 's Config.t;
  steps_taken : int;
  quiescent : bool;
  verdict : [ `Accepting | `Rejecting | `Mixed ];
  settled_at : int option;
}

let simulate ?on_step ?initial ~max_steps m g sched =
  if Scheduler.node_count sched <> Graph.nodes g then
    invalid_arg "Run.simulate: scheduler node count does not match the graph";
  let n = Graph.nodes g in
  let config = ref (match initial with Some c -> c | None -> Config.initial m g) in
  let verdict = ref (Config.verdict m !config) in
  (* settled: the step index at which the current verdict streak began. *)
  let settled = ref 0 in
  let unchanged_streak = ref 0 in
  let quiescent = ref (Config.is_quiescent m g !config) in
  let step = ref 0 in
  while (not !quiescent) && !step < max_steps do
    let selection = Scheduler.next sched in
    let before = !config in
    let after = Config.step m g before selection in
    incr step;
    (match on_step with
    | Some f -> f ~step:(!step - 1) ~selection ~before ~after
    | None -> ());
    if Config.equal before after then begin
      incr unchanged_streak;
      (* After n silent steps, check for a global fixpoint; cheap relative to
         the n steps just taken, and exact. *)
      if !unchanged_streak >= n then begin
        unchanged_streak := 0;
        if Config.is_quiescent m g after then quiescent := true
      end
    end
    else begin
      unchanged_streak := 0;
      config := after;
      let v = Config.verdict m after in
      if v <> !verdict then begin
        verdict := v;
        settled := !step
      end
    end
  done;
  let final_verdict = !verdict in
  {
    final = !config;
    steps_taken = !step;
    quiescent = !quiescent;
    verdict = final_verdict;
    settled_at = (match final_verdict with `Mixed -> None | `Accepting | `Rejecting -> Some !settled);
  }

let trace ?initial ~steps m g sched =
  let recorded = ref [] in
  let on_step ~step:_ ~selection ~before ~after:_ =
    recorded := (before, selection) :: !recorded
  in
  let result = simulate ~on_step ?initial ~max_steps:steps m g sched in
  (List.rev !recorded, result.final)

let consensus_time ?(attempts = 1) ~max_steps m g make_sched =
  let times =
    List.map
      (fun _ ->
        let sched = make_sched () in
        let r = simulate ~max_steps m g sched in
        match (r.verdict, r.settled_at) with
        | (`Accepting | `Rejecting), Some t when r.quiescent || r.steps_taken < max_steps -> Some t
        | (`Accepting | `Rejecting), Some t ->
          (* Ran to the horizon without quiescence: the verdict held to the
             end but might still flip; report the settling time anyway, it is
             what the experiment measures. *)
          Some t
        | _ -> None)
      (Dda_util.Listx.range attempts)
  in
  if List.exists (fun t -> t = None) times then None
  else begin
    let sorted = List.sort Stdlib.compare (List.filter_map (fun t -> t) times) in
    Some (List.nth sorted (List.length sorted / 2))
  end
