module Listx = Dda_util.Listx

type ('l, 's) t = {
  labels : 'l list;
  states : 's array;
  beta : int;
  init : ('l * int) list;
  profiles : int array array;
  delta : int array array;  (* delta.(q).(p) *)
  accepting : bool array;
  rejecting : bool array;
  pp_state : Format.formatter -> 's -> unit;
}

let state_count t = Array.length t.states
let profile_count t = Array.length t.profiles

(* All capped count vectors in [0, β]^k, in mixed-radix order (index i has
   digit i as the least significant). *)
let enumerate_profiles ~beta k =
  let total =
    let rec pow acc n = if n = 0 then acc else pow (acc * (beta + 1)) (n - 1) in
    pow 1 k
  in
  Array.init total (fun code ->
      let v = Array.make k 0 in
      let c = ref code in
      for i = 0 to k - 1 do
        v.(i) <- !c mod (beta + 1);
        c := !c / (beta + 1)
      done;
      v)

let profile_code ~beta v =
  let code = ref 0 in
  for i = Array.length v - 1 downto 0 do
    code := (!code * (beta + 1)) + v.(i)
  done;
  !code

let tabulate ~labels ~states m =
  let states = Array.of_list states in
  let q = Array.length states in
  let beta = m.Machine.beta in
  let entries =
    let rec pow acc n = if n = 0 then acc else pow (acc * (beta + 1)) (n - 1) in
    q * pow 1 q
  in
  if entries > 2_000_000 then
    invalid_arg "Tabulate: profile table too large (reduce states or beta)";
  let index = Hashtbl.create (2 * q) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem index s then invalid_arg "Tabulate: duplicate state";
      Hashtbl.add index s i)
    states;
  let find s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None -> invalid_arg "Tabulate: delta produced a state outside the enumeration"
  in
  let profiles = enumerate_profiles ~beta q in
  let neighbourhood_of profile =
    List.filter_map
      (fun i -> if profile.(i) > 0 then Some (states.(i), profile.(i)) else None)
      (Listx.range q)
  in
  let delta =
    Array.init q (fun qi ->
        Array.map (fun p -> find (m.Machine.delta states.(qi) (neighbourhood_of p))) profiles)
  in
  {
    labels;
    states;
    beta;
    init = List.map (fun l -> (l, find (m.Machine.init l))) labels;
    profiles;
    delta;
    accepting = Array.map m.Machine.accepting states;
    rejecting = Array.map m.Machine.rejecting states;
    pp_state = m.Machine.pp_state;
  }

(* --- Reachable enumeration and canonical dumps ----------------------------- *)

let reachable_states ?(max_states = 12) ~labels m =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let exception Bail in
  (* discovery order is deterministic: label order first, then profile
     enumeration order per pass — that determinism is what makes the
     enumeration usable as a canonical state order for fingerprints.
     States are only ever added, so the search bails as soon as it has
     found more than [max_states] *)
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      order := s :: !order;
      if Hashtbl.length seen > max_states then raise Bail
    end
  in
  let beta = m.Machine.beta in
  let entry_cap = 500_000 in
  try
    List.iter (fun l -> add (m.Machine.init l)) labels;
    let changed = ref true in
    while !changed do
      changed := false;
      let states = List.rev !order in
      let k = List.length states in
      (* check the table size BEFORE enumerating the pass, so an infeasible
         machine bails cheaply instead of after millions of delta calls *)
      let entries =
        let rec pow acc n = if acc > entry_cap || n = 0 then acc else pow (acc * (beta + 1)) (n - 1) in
        k * pow 1 k
      in
      if entries > entry_cap then raise Bail;
      let arr = Array.of_list states in
      let profiles = enumerate_profiles ~beta k in
      let before = Hashtbl.length seen in
      Array.iter
        (fun p ->
          let n =
            List.filter_map (fun i -> if p.(i) > 0 then Some (arr.(i), p.(i)) else None) (Listx.range k)
          in
          List.iter (fun q -> add (m.Machine.delta q n)) states)
        profiles;
      if Hashtbl.length seen > before then changed := true
    done;
    Some (List.rev !order)
  with Bail -> None

let canonical_dump ~label_key t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "beta=%d;" t.beta;
  add "labels=";
  List.iter (fun l -> add "%s," (String.escaped (label_key l))) t.labels;
  add ";init=";
  List.iter (fun (l, i) -> add "%s->%d," (String.escaped (label_key l)) i) t.init;
  add ";acc=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) t.accepting;
  add ";rej=";
  Array.iter (fun b -> add "%c" (if b then '1' else '0')) t.rejecting;
  add ";delta=";
  Array.iter
    (fun row ->
      Array.iter (fun d -> add "%d," d) row;
      add "|")
    t.delta;
  Buffer.contents buf

let to_machine t =
  let q = state_count t in
  Machine.create ~name:"tabulated" ~beta:t.beta
    ~init:(fun l ->
      match List.assoc_opt l t.init with
      | Some i -> i
      | None -> invalid_arg "Tabulate.to_machine: label outside the tabulated alphabet")
    ~delta:(fun s n ->
      let v = Array.make q 0 in
      List.iter (fun (i, c) -> v.(i) <- min t.beta (v.(i) + c)) n;
      t.delta.(s).(profile_code ~beta:t.beta v))
    ~accepting:(fun s -> t.accepting.(s))
    ~rejecting:(fun s -> t.rejecting.(s))
    ~pp_state:(fun fmt s -> t.pp_state fmt t.states.(s)) ()

(* --- Minimisation ---------------------------------------------------------- *)

let minimise_classes t =
  let q = state_count t in
  (* initial partition: acceptance classes *)
  let class_of = Array.init q (fun i -> (2 * Bool.to_int t.accepting.(i)) + Bool.to_int t.rejecting.(i)) in
  let normalise arr =
    (* renumber classes densely, preserving the partition *)
    let map = Hashtbl.create 8 in
    let next = ref 0 in
    Array.map
      (fun c ->
        match Hashtbl.find_opt map c with
        | Some d -> d
        | None ->
          let d = !next in
          incr next;
          Hashtbl.add map c d;
          d)
      arr
  in
  let class_of = ref (normalise class_of) in
  let n_classes arr = Array.fold_left (fun acc c -> max acc (c + 1)) 0 arr in
  let continue = ref true in
  while !continue do
    let classes = !class_of in
    let k = n_classes classes in
    (* signature of a state: for each class-profile, the set of destination
       classes over all concrete profiles projecting to it *)
    let project profile =
      let cp = Array.make k 0 in
      Array.iteri (fun i c -> cp.(classes.(i)) <- min t.beta (cp.(classes.(i)) + c)) profile;
      Array.to_list cp
    in
    let signature qi =
      let tbl = Hashtbl.create 32 in
      Array.iteri
        (fun pi profile ->
          let key = project profile in
          let dest = classes.(t.delta.(qi).(pi)) in
          let old = try Hashtbl.find tbl key with Not_found -> [] in
          if not (List.mem dest old) then Hashtbl.replace tbl key (dest :: old))
        t.profiles;
      Hashtbl.fold (fun key dests acc -> (key, List.sort compare dests) :: acc) tbl []
      |> List.sort compare
    in
    let sigs = Array.init q signature in
    (* split: group by (old class, signature) *)
    let groups = Hashtbl.create 16 in
    let next = ref 0 in
    let refined =
      Array.init q (fun i ->
          let key = (classes.(i), sigs.(i)) in
          match Hashtbl.find_opt groups key with
          | Some c -> c
          | None ->
            let c = !next in
            incr next;
            Hashtbl.add groups key c;
            c)
    in
    if n_classes refined = k then begin
      continue := false;
      (* stable: check single-valuedness *)
      let ok = Array.for_all (List.for_all (fun (_, dests) -> List.length dests = 1)) sigs in
      class_of := if ok then refined else [||]
    end
    else class_of := normalise refined
  done;
  if !class_of = [||] then None else Some !class_of

let minimise t =
  match minimise_classes t with
  | None -> None
  | Some classes ->
    let q = state_count t in
    let k = Array.fold_left (fun acc c -> max acc (c + 1)) 0 classes in
    if k = q then None (* no coarsening achieved *)
    else begin
      (* representative per class *)
      let rep = Array.make k (-1) in
      Array.iteri (fun i c -> if rep.(c) = -1 then rep.(c) <- i) classes;
      let accepting = Array.init k (fun c -> t.accepting.(rep.(c))) in
      let rejecting = Array.init k (fun c -> t.rejecting.(rep.(c))) in
      let delta c class_nbh =
        (* expand a class neighbourhood into a concrete profile by assigning
           each class count to the class representative; single-valuedness
           makes the choice irrelevant *)
        let v = Array.make q 0 in
        List.iter (fun (cls, cnt) -> v.(rep.(cls)) <- min t.beta cnt) class_nbh;
        classes.(t.delta.(rep.(c)).(profile_code ~beta:t.beta v))
      in
      let machine =
        Machine.create ~name:"minimised" ~beta:t.beta
          ~init:(fun l ->
            match List.assoc_opt l t.init with
            | Some i -> classes.(i)
            | None -> invalid_arg "Tabulate.minimise: label outside the tabulated alphabet")
          ~delta
          ~accepting:(fun c -> accepting.(c))
          ~rejecting:(fun c -> rejecting.(c))
          ~pp_state:(fun fmt c -> Format.fprintf fmt "⟦%a⟧" t.pp_state t.states.(rep.(c))) ()
      in
      let project s =
        let rec find i = if t.states.(i) = s then i else find (i + 1) in
        classes.(find 0)
      in
      Some (machine, project)
    end

let minimised_state_count t =
  match minimise_classes t with
  | None -> state_count t
  | Some classes -> Array.fold_left (fun acc c -> max acc (c + 1)) 0 classes
