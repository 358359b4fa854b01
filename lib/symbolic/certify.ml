module Machine = Dda_machine.Machine
module Tabulate = Dda_machine.Tabulate
module M = Dda_multiset.Multiset
module Cov = Dda_wsts.Coverability
module Decide = Dda_verify.Decide
module T = Dda_telemetry.Telemetry

type certificate = Cutoff of int | Window of int

type t = {
  verdict : Decide.verdict;
  from_n : int;
  checked_to : int;
  certificate : certificate;
  configs : int;
  instances : (int * Decide.verdict) list;
}

let c_instances = T.counter "symbolic.instances"

let pp fmt r =
  let grade =
    match r.certificate with
    | Cutoff k -> Printf.sprintf "certified, coverability cutoff K=%d" k
    | Window w -> Printf.sprintf "stabilisation window %d, uncertified" w
  in
  Format.fprintf fmt "%a for all n >= %d (%s; checked to n = %d)"
    Decide.pp_verdict r.verdict r.from_n grade r.checked_to

(* Verdicts are compared up to their witness text: two [Inconsistent]
   verdicts describe different witness configurations at different n but
   mean the same thing for stabilisation. *)
let same_verdict v1 v2 =
  match (v1, v2) with
  | Decide.Accepts, Decide.Accepts -> true
  | Decide.Rejects, Decide.Rejects -> true
  | Decide.Inconsistent _, Decide.Inconsistent _ -> true
  | _ -> false

(* The certified horizon of a star family: a non-counting machine with a
   tabulatable state space gets the Lemma 3.5 cutoff [K]; instance n has
   pumped-label count [n - (|word| - 1)], so every label count is constant
   (fixed labels) or capped (the pumped one) from [n = |word| - 1 + K]. *)
let cutoff_horizon m (fam : Family.t) =
  if fam.Family.topology <> Family.Star || not (Machine.non_counting m) then
    None
  else
    match
      Tabulate.reachable_states ~max_states:14 ~labels:(Family.alphabet fam) m
    with
    | None -> None
    | Some states -> (
        match Cov.cutoff_bound ~states m with
        | k -> Some (k, String.length fam.Family.word - 1 + k)
        | exception Invalid_argument _ -> None)

type error = [ `Too_large of int | `Unsupported of string ]

(* One regime's search: the verdicts it has read so far (newest first),
   the instance at which it next looks at them, and its result once it has
   one. *)
type search = {
  regime : Decide.regime;
  mutable seen : (int * Decide.verdict) list;
  mutable target : int;
  mutable outcome : (t, error) result option;
  mutable analysis_s : float;
}

let decide_family ?(max_configs = 200_000) ?(window = 6) ~regimes m
    (fam : Family.t) =
  T.with_span
    ~args:[ ("family", T.S (Family.to_string fam)) ]
    "symbolic.certify"
  @@ fun () ->
  let n0 = Family.min_nodes fam in
  let budget = ref max_configs in
  let total = ref 0 in
  let explore n =
    let shape =
      match fam.Family.topology with
      | Family.Clique -> Counted.S_clique (Family.leaf_multiset fam n)
      | Family.Star ->
          Counted.S_star
            (String.make 1 fam.Family.word.[0], Family.leaf_multiset fam n)
    in
    let space = Counted.of_shape ~max_configs:!budget m shape in
    budget := !budget - space.Dda_verify.Space.size;
    total := !total + space.Dda_verify.Space.size;
    T.incr c_instances;
    space
  in
  (* smallest k such that the verdict is constant on [k .. horizon] *)
  let stable_from instances =
    let rec go from = function
      | [] | [ _ ] -> from
      | (n1, v1) :: ((_, v2) :: _ as rest) ->
          go (if same_verdict v1 v2 then from else n1 + 1) rest
    in
    match instances with [] -> n0 | (n, _) :: _ -> go n instances
  in
  (* the result of a search that has read every instance up to its target;
     [!total] then sums exactly those instances *)
  let result s certificate =
    let instances = List.rev s.seen in
    {
      verdict = snd (List.hd s.seen);
      from_n = stable_from instances;
      checked_to = s.target;
      certificate;
      configs = !total;
      instances;
    }
  in
  (* [first] is every search's first target; [conclude] is called when a
     search reaches its target, and either settles it or moves the target *)
  let first, conclude =
    match cutoff_horizon m fam with
    | Some (k, horizon) ->
        (max horizon n0, fun s -> s.outcome <- Some (Ok (result s (Cutoff k))))
    | None ->
        (* no certificate: look for [window] consecutive agreeing verdicts,
           extending the horizon a bounded number of times *)
        let window = max window 2 in
        let max_horizon = n0 + (4 * window) - 1 in
        ( min (n0 + window - 1) max_horizon,
          fun s ->
            let r = result s (Window window) in
            if r.checked_to - r.from_n + 1 >= window then s.outcome <- Some (Ok r)
            else if s.target >= max_horizon then
              s.outcome <-
                Some
                  (Error
                     (`Unsupported
                       (Printf.sprintf
                          "no stabilisation: verdicts of %s still changing at n = %d"
                          (Family.to_string fam) r.checked_to)))
            else s.target <- min (s.target + window) max_horizon )
  in
  let searches =
    List.map
      (fun regime -> { regime; seen = []; target = first; outcome = None; analysis_s = 0. })
      regimes
  in
  (* every search reads a contiguous range from [n0], so instance [n] is
     explored once, with the same remaining budget for every search that
     still needs it, and dropped once they have all read it *)
  let classify n space s =
    let t0 = Unix.gettimeofday () in
    let v = Decide.for_regime s.regime space in
    s.analysis_s <- s.analysis_s +. (Unix.gettimeofday () -. t0);
    s.seen <- (n, v) :: s.seen;
    if n = s.target then conclude s
  in
  let rec go n =
    match List.filter (fun s -> Option.is_none s.outcome) searches with
    | [] -> ()
    | live ->
        (match explore n with
        | space -> List.iter (classify n space) live
        | exception Counted.Too_large c ->
            List.iter (fun s -> s.outcome <- Some (Error (`Too_large (!total + c)))) live);
        go (n + 1)
  in
  go n0;
  List.map (fun s -> (Option.get s.outcome, s.analysis_s)) searches
