module Multiset = Dda_multiset.Multiset
module Listx = Dda_util.Listx

type linear = { base : int array; periods : int array list }
type t = linear list

let dimension = function [] -> None | l :: _ -> Some (Array.length l.base)

let check_vec v = Array.for_all (fun x -> x >= 0) v

let linear_set ~base ~periods =
  if not (check_vec base) then invalid_arg "Semilinear.linear_set: negative base";
  List.iter
    (fun p ->
      if Array.length p <> Array.length base then
        invalid_arg "Semilinear.linear_set: period dimension mismatch";
      if not (check_vec p) then invalid_arg "Semilinear.linear_set: negative period")
    periods;
  { base; periods }

let of_linear l = [ l ]
let union = ( @ )

let mem_linear l v =
  let d = Array.length l.base in
  if Array.length v <> d then invalid_arg "Semilinear.mem_linear: dimension mismatch";
  let residual = Array.init d (fun i -> v.(i) - l.base.(i)) in
  if not (check_vec residual) then false
  else begin
    (* DFS with memoisation: can [residual] be written as a nat-combination of
       the (non-zero) periods?  All periods are >= 0, so residuals shrink. *)
    let periods = List.filter (fun p -> Array.exists (fun x -> x > 0) p) l.periods in
    let seen = Hashtbl.create 64 in
    let rec solve r =
      if Array.for_all (fun x -> x = 0) r then true
      else begin
        let key = Array.to_list r in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          List.exists
            (fun p ->
              let r' = Array.init d (fun i -> r.(i) - p.(i)) in
              check_vec r' && solve r')
            periods
        end
      end
    in
    solve residual
  end

let mem t v = List.exists (fun l -> mem_linear l v) t

let unit_vec dim i = Array.init dim (fun j -> if i = j then 1 else 0)

let threshold_set ~dim ~coord ~k =
  if coord < 0 || coord >= dim then invalid_arg "Semilinear.threshold_set: coord";
  let base = Array.make dim 0 in
  base.(coord) <- max 0 k;
  [ { base; periods = List.map (unit_vec dim) (Listx.range dim) } ]

let mod_set ~dim ~coord ~r ~m =
  if m < 1 then invalid_arg "Semilinear.mod_set: modulus";
  if coord < 0 || coord >= dim then invalid_arg "Semilinear.mod_set: coord";
  let r = ((r mod m) + m) mod m in
  let base = Array.make dim 0 in
  base.(coord) <- r;
  let step = Array.make dim 0 in
  step.(coord) <- m;
  let other_periods = List.filter_map (fun i -> if i = coord then None else Some (unit_vec dim i)) (Listx.range dim) in
  [ { base; periods = step :: other_periods } ]

let agrees_with t ~alphabet ~box p =
  let boxes = Listx.cartesian_n (List.map (fun _ -> Listx.range_in 0 box) alphabet) in
  List.for_all
    (fun counts ->
      let v = Array.of_list counts in
      let l = Multiset.of_vector alphabet v in
      mem t v = Predicate.holds p l)
    boxes

let pp fmt t =
  let pp_vec fmt v =
    Format.fprintf fmt "(%a)" (Listx.pp_list ~sep:"," Format.pp_print_int) (Array.to_list v)
  in
  let pp_lin fmt l =
    Format.fprintf fmt "%a + <%a>" pp_vec l.base (Listx.pp_list ~sep:", " pp_vec) l.periods
  in
  Format.fprintf fmt "@[<v>%a@]" (Listx.pp_list ~sep:" ∪ " pp_lin) t
