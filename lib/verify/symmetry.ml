(* Node-permutation groups for symmetry reduction (see doc/INTERNALS.md).

   A value holds a full finite group of permutations of the communication
   graph's nodes, closed under composition, with the identity at index 0,
   plus the multiplication table that composes the quotient's potentials.
   Permutations are [int array]s; [p] maps node [v] to [p.(v)].

   Convention: a permutation acts on a configuration [c] by
   [(p . c).(v) = c.(p.(v))] — the engine reads a configuration {e through}
   the permutation.  With this convention [p . (q . c) = (compose q p) . c]
   where [compose q p] is the array [fun v -> q.(p.(v))]. *)

type t = {
  degree : int;  (* number of nodes *)
  perms : int array array;  (* perms.(0) is the identity *)
  mul : int array array;  (* mul.(i).(j) = index of [compose perms.(i) perms.(j)] *)
}

let max_order = 40_320 (* 8!; canonicalisation is linear in the order *)

let identity n = Array.init n (fun v -> v)

let compose q p = Array.init (Array.length p) (fun v -> q.(p.(v)))

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun v -> v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
    p

(* Generate the closure of [gens] under composition.  The group is finite, so
   inverses are powers and right-multiplication by generators from the
   identity reaches every element.  Discovery order, identity first. *)
let closure ~degree gens =
  List.iter
    (fun p ->
      if Array.length p <> degree then invalid_arg "Symmetry: permutation of wrong degree";
      if not (is_permutation p) then invalid_arg "Symmetry: not a permutation")
    gens;
  let tbl = Hashtbl.create 64 in
  let order = ref 0 in
  let elements = ref [] in
  let add p =
    if Hashtbl.mem tbl p then None
    else begin
      if !order >= max_order then invalid_arg "Symmetry: group too large";
      Hashtbl.add tbl p !order;
      elements := p :: !elements;
      incr order;
      Some p
    end
  in
  ignore (add (identity degree));
  let frontier = ref (List.filter_map add gens) in
  while !frontier <> [] do
    frontier :=
      List.concat_map
        (fun p -> List.filter_map (fun g -> add (compose p g)) gens)
        !frontier
  done;
  let perms = Array.of_list (List.rev !elements) in
  let index p =
    match Hashtbl.find_opt tbl p with
    | Some i -> i
    | None -> invalid_arg "Symmetry: closure is not closed (internal error)"
  in
  let n = Array.length perms in
  let mul = Array.init n (fun i -> Array.init n (fun j -> index (compose perms.(i) perms.(j)))) in
  { degree; perms; mul }

let of_generators ~degree gens = closure ~degree gens

let trivial n = closure ~degree:n []

let order g = Array.length g.perms

let is_trivial g = order g = 1

let line n =
  if n < 1 then invalid_arg "Symmetry.line";
  closure ~degree:n [ Array.init n (fun v -> n - 1 - v) ]

let cycle n =
  if n < 3 then invalid_arg "Symmetry.cycle";
  let rotate = Array.init n (fun v -> (v + 1) mod n) in
  let reflect = Array.init n (fun v -> (n - v) mod n) in
  closure ~degree:n [ rotate; reflect ]

(* A line or a cycle numbered along itself: its edges are exactly those
   between consecutive nodes (and, for a cycle, between the last and the
   first). *)
let of_graph g =
  let module G = Dda_graph.Graph in
  let n = G.nodes g and m = List.length (G.edges g) in
  let along k = List.for_all (fun v -> G.adjacent g v ((v + 1) mod n)) (List.init k Fun.id) in
  if n >= 3 && m = n && along n then Some (cycle n)
  else if n >= 2 && m = n - 1 && along (n - 1) then Some (line n)
  else None

let perms g = g.perms
let mul g = g.mul
let degree g = g.degree

let pp fmt g =
  Format.fprintf fmt "group of order %d on %d nodes" (order g) g.degree
