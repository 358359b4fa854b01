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

let decide_family ?(max_configs = 200_000) ?(window = 6) ~regime m
    (fam : Family.t) =
  T.with_span
    ~args:[ ("family", T.S (Family.to_string fam)) ]
    "symbolic.certify"
  @@ fun () ->
  let n0 = Family.min_nodes fam in
  let budget = ref max_configs in
  let total = ref 0 in
  let verdict_at n =
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
    Analysis.for_regime regime space
  in
  let explore_range lo hi acc =
    let rec go n acc =
      if n > hi then Ok (List.rev acc)
      else
        match verdict_at n with
        | v -> go (n + 1) ((n, v) :: acc)
        | exception Counted.Too_large c -> Error (`Too_large (!total + c))
    in
    go lo acc
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
  match cutoff_horizon m fam with
  | Some (k, horizon) -> (
      let horizon = max horizon n0 in
      match explore_range n0 horizon [] with
      | Error _ as e -> e
      | Ok instances ->
          let verdict = snd (List.nth instances (List.length instances - 1)) in
          Ok
            {
              verdict;
              from_n = stable_from instances;
              checked_to = horizon;
              certificate = Cutoff k;
              configs = !total;
              instances;
            })
  | None ->
      (* no certificate: look for [window] consecutive agreeing verdicts,
         extending the horizon a bounded number of times *)
      let window = max window 2 in
      let max_horizon = n0 + (4 * window) - 1 in
      let rec search lo acc =
        let hi = min (lo + window - 1) max_horizon in
        match explore_range lo hi acc with
        | Error _ as e -> e
        | Ok instances ->
            let from_n = stable_from instances in
            let checked_to = fst (List.nth instances (List.length instances - 1)) in
            if checked_to - from_n + 1 >= window then
              let verdict =
                snd (List.nth instances (List.length instances - 1))
              in
              Ok
                {
                  verdict;
                  from_n;
                  checked_to;
                  certificate = Window window;
                  configs = !total;
                  instances;
                }
            else if hi >= max_horizon then
              Error
                (`Unsupported
                  (Printf.sprintf
                     "no stabilisation: verdicts of %s still changing at n = %d"
                     (Family.to_string fam) checked_to))
            else search (hi + 1) (List.rev instances)
      in
      search n0 []
