type detection = Non_counting | Counting
type acceptance = Halting | Stable_consensus
type fairness = Dda_verify.Decide.regime = Adversarial | Pseudo_stochastic

type t = { detection : detection; acceptance : acceptance; fairness : fairness }

let all =
  List.concat_map
    (fun detection ->
      List.concat_map
        (fun acceptance ->
          List.map (fun fairness -> { detection; acceptance; fairness }) [ Adversarial; Pseudo_stochastic ])
        [ Halting; Stable_consensus ])
    [ Non_counting; Counting ]

let name c =
  Printf.sprintf "%c%c%c"
    (match c.detection with Non_counting -> 'd' | Counting -> 'D')
    (match c.acceptance with Halting -> 'a' | Stable_consensus -> 'A')
    (match c.fairness with Adversarial -> 'f' | Pseudo_stochastic -> 'F')

let of_name s =
  if String.length s <> 3 then None
  else begin
    let detection =
      match s.[0] with 'd' -> Some Non_counting | 'D' -> Some Counting | _ -> None
    in
    let acceptance =
      match s.[1] with 'a' -> Some Halting | 'A' -> Some Stable_consensus | _ -> None
    in
    let fairness =
      match s.[2] with 'f' -> Some Adversarial | 'F' -> Some Pseudo_stochastic | _ -> None
    in
    match (detection, acceptance, fairness) with
    | Some d, Some a, Some f -> Some { detection = d; acceptance = a; fairness = f }
    | _ -> None
  end

let equivalent c1 c2 =
  c1 = c2
  ||
  (* daf ≡ daF *)
  let is_da c = c.detection = Non_counting && c.acceptance = Halting in
  is_da c1 && is_da c2

let representatives = List.filter (fun c -> name c <> "daF") all

type power = Trivial | Cutoff_1 | Cutoff | NL | ISM_bounded | NSPACE_n

let power_name = function
  | Trivial -> "Trivial"
  | Cutoff_1 -> "Cutoff(1)"
  | Cutoff -> "Cutoff"
  | NL -> "NL"
  | ISM_bounded -> "⊆ ISM, ⊇ homogeneous thresholds"
  | NSPACE_n -> "NSPACE(n)"

let power_arbitrary c =
  match (c.detection, c.acceptance, c.fairness) with
  | _, Halting, _ -> Trivial
  | Counting, Stable_consensus, Adversarial -> Cutoff_1
  | Non_counting, Stable_consensus, Adversarial -> Cutoff_1
  | Non_counting, Stable_consensus, Pseudo_stochastic -> Cutoff
  | Counting, Stable_consensus, Pseudo_stochastic -> NL

let power_bounded_degree c =
  match (c.detection, c.acceptance, c.fairness) with
  | _, Halting, _ -> Trivial
  | Non_counting, Stable_consensus, Adversarial -> Cutoff_1
  | Counting, Stable_consensus, Adversarial -> ISM_bounded
  | Non_counting, Stable_consensus, Pseudo_stochastic -> NSPACE_n
  | Counting, Stable_consensus, Pseudo_stochastic -> NSPACE_n

let can_decide_majority c ~bounded_degree =
  let power = if bounded_degree then power_bounded_degree c else power_arbitrary c in
  match power with
  | NL | NSPACE_n | ISM_bounded -> true (* majority is a homogeneous threshold *)
  | Trivial | Cutoff_1 | Cutoff -> false

let pp fmt c = Format.pp_print_string fmt (name c)
