module G = Dda_graph.Graph
module Machine = Dda_machine.Machine
module P = Dda_presburger.Predicate
module Scheduler = Dda_scheduler.Scheduler

type packed = Packed : (string, 's) Machine.t -> packed

type regime = Dda_verify.Decide.regime = Adversarial | Pseudo_stochastic

let regime_name = function Adversarial -> "f" | Pseudo_stochastic -> "F"

let parse_regime = function
  | "f" | "adversarial" -> Ok Adversarial
  | "F" | "pseudo-stochastic" -> Ok Pseudo_stochastic
  | s -> Error (Printf.sprintf "unknown fairness %S (f | F)" s)

let split_on c s = String.split_on_char c s

(* Every graph error, concrete or family, carries the one [graph: ] prefix. *)
let graph_error r = Result.map_error (fun msg -> "graph: " ^ msg) r

let concrete_graph spec =
  match split_on ':' spec with
  | [ "grid"; _ ] -> Error "expected grid:WxH:<labels>"
  | [ topo; labels ] when String.length labels > 0 ->
    let ls = List.init (String.length labels) (fun i -> String.make 1 labels.[i]) in
    (match topo with
    | "cycle" -> Ok (G.cycle ls)
    | "line" -> Ok (G.line ls)
    | "clique" -> Ok (G.clique ls)
    | "star" -> (
      match ls with
      | centre :: (_ :: _ as leaves) -> Ok (G.star ~centre ~leaves)
      | _ -> Error "star needs at least two labels")
    | _ -> Error (Printf.sprintf "unknown topology %S (cycle|line|clique|star)" topo))
  | [ "grid"; dims; labels ] -> (
    match split_on 'x' dims with
    | [ w; h ] -> (
      match (int_of_string_opt w, int_of_string_opt h) with
      | Some w, Some h when w < 1 || h < 1 -> Error "grid dimensions must be >= 1"
      | Some w, Some h ->
        let n = String.length labels in
        (* [w * h] can wrap around: bound [h] by division before multiplying *)
        if h <= n / w && n = w * h then
          Ok (G.grid ~width:w ~height:h (fun x y -> String.make 1 labels.[(y * w) + x]))
        else if h > max_int / w then Error (Printf.sprintf "grid %dx%d is too large" w h)
        else Error (Printf.sprintf "grid %dx%d needs exactly %d labels" w h (w * h))
      | _ -> Error "grid dimensions must be integers")
    | _ -> Error "expected grid:WxH:<labels>")
  | _ -> Error "expected (cycle|line|clique|star):<labels> or grid:WxH:<labels>"

let parse_graph spec = graph_error (concrete_graph spec)

let alphabet_of g =
  Dda_util.Listx.dedup_sorted Stdlib.compare (Array.to_list (G.labels g))

let parse_protocol_exn spec g =
  let alphabet = alphabet_of g in
  match split_on ':' spec with
  | [ "exists"; l ] -> Ok (Packed (Dda_protocols.Cutoff_one.exists_label ~alphabet l))
  | [ "cutoff1"; l ] ->
    (* boolean example: label l occurs but label "b" does not *)
    Ok
      (Packed
         (Dda_protocols.Cutoff_one.machine ~alphabet
            (P.And (P.exists_label l, P.Not (P.exists_label "b")))))
  | [ "threshold"; args ] -> (
    match split_on ',' args with
    | [ l; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 ->
        Ok (Packed (Dda_protocols.Cutoff_broadcast.threshold ~alphabet ~label:l ~k))
      | _ -> Error "threshold:<label>,<k> needs k >= 1")
    | _ -> Error "threshold spec: threshold:<label>,<k>")
  | [ "majority-bounded"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Packed (Dda_protocols.Homogeneous.majority ~degree_bound:k))
    | _ -> Error "majority-bounded:<degree bound>")
  | [ "weak-majority-bounded"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 ->
      Ok (Packed (Dda_protocols.Homogeneous.weak_majority ~degree_bound:k))
    | _ -> Error "weak-majority-bounded:<degree bound>")
  | [ "majority-pop" ] ->
    Ok
      (Packed
         (Machine.relabel
            (fun l -> if l = "a" then 'a' else 'b')
            (Dda_extensions.Population.compile Dda_protocols.Pop_examples.majority_4state)))
  | [ "slp-majority" ] ->
    Ok
      (Packed
         (Dda_extensions.Population.compile
            (Dda_protocols.Semilinear_pop.threshold ~coeffs:[ ("a", 1); ("b", -1) ] ~c:1)))
  | [ "slp-mod"; args ] -> (
    match List.map int_of_string_opt (split_on ',' args) with
    | [ Some m; Some r ] when m >= 1 ->
      Ok
        (Packed
           (Dda_extensions.Population.compile
              (Dda_protocols.Semilinear_pop.remainder ~coeffs:[ ("a", 1); ("b", 1) ] ~m ~r)))
    | _ -> Error "slp-mod:<m>,<r>")
  | [ "odd-a-token" ] ->
    Ok
      (Packed
         (Machine.relabel
            (fun l -> if l = "a" then 'a' else 'b')
            (Dda_extensions.Strong_broadcast.to_daf Dda_protocols.Strong_examples.odd_a)))
  | _ ->
    Error
      "protocol spec: exists:<l> | cutoff1:<l> | threshold:<l>,<k> | \
       majority-bounded:<k> | weak-majority-bounded:<k> | majority-pop | \
       slp-majority | slp-mod:<m>,<r> | odd-a-token"

(* Protocol constructors validate their arguments with [invalid_arg]
   (e.g. a label outside the graph's alphabet); surface that as a parse
   error rather than an uncaught exception. *)
let parse_protocol spec g =
  try parse_protocol_exn spec g
  with Invalid_argument msg -> Error (Printf.sprintf "protocol %s: %s" spec msg)

(* --- Graph families ----------------------------------------------------- *)

type graph_spec =
  | Concrete of string G.t
  | Family of Dda_symbolic.Family.t

let parse_graph_spec spec =
  let n = String.length spec in
  graph_error
    (if n > 0 && spec.[n - 1] = '*' then
       Result.map (fun f -> Family f) (Dda_symbolic.Family.parse spec)
     else Result.map (fun g -> Concrete g) (concrete_graph spec))

let family_of_instance spec = Dda_symbolic.Family.of_instance_spec spec

let family_representative f =
  Dda_symbolic.Family.instance f (Dda_symbolic.Family.min_nodes f)

let parse_scheduler spec n =
  match split_on ':' spec with
  | [ "round-robin" ] -> Ok (Scheduler.round_robin ~n)
  | [ "synchronous" ] | [ "sync" ] -> Ok (Scheduler.synchronous ~n)
  | [ "random" ] -> Ok (Scheduler.random_exclusive ~n ~seed:1)
  | [ "random"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> Ok (Scheduler.random_exclusive ~n ~seed)
    | None -> Error "random:<seed>")
  | [ "adversary"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> Ok (Scheduler.random_adversary ~n ~seed)
    | None -> Error "adversary:<seed>")
  | [ "burst"; w ] -> (
    match int_of_string_opt w with
    | Some w when w >= 1 -> Ok (Scheduler.burst ~n ~width:w)
    | _ -> Error "burst:<width>")
  | [ "starve"; args ] -> (
    match List.map int_of_string_opt (split_on ',' args) with
    | [ Some v; Some p ] when v >= 0 && v < n && p >= 2 ->
      Ok (Scheduler.starve ~n ~victim:v ~period:p)
    | _ -> Error "starve:<victim>,<period>")
  | _ ->
    Error "scheduler: round-robin | synchronous | random[:seed] | adversary:seed | burst:w | starve:v,p"
