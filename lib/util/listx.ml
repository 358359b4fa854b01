let range n = List.init (max 0 n) (fun i -> i)

let range_in lo hi = if hi < lo then [] else List.init (hi - lo + 1) (fun i -> lo + i)

let sum = List.fold_left ( + ) 0

let max_by score = function
  | [] -> invalid_arg "Listx.max_by: empty list"
  | x :: rest ->
    let better best candidate = if score candidate > score best then candidate else best in
    List.fold_left better x rest

let rec cartesian_n = function
  | [] -> [ [] ]
  | l :: rest ->
    let tails = cartesian_n rest in
    List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) l

let dedup_sorted cmp l =
  let sorted = List.sort cmp l in
  let rec go = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: (y :: _ as rest) -> if cmp x y = 0 then go rest else x :: go rest
  in
  go sorted

let group_counts cmp l =
  let sorted = List.sort cmp l in
  let rec go = function
    | [] -> []
    | x :: rest ->
      let same, others = List.partition (fun y -> cmp x y = 0) rest in
      (x, 1 + List.length same) :: go others
  in
  go sorted

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

let find_index_opt p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

let assoc_update k f dflt l =
  let rec go = function
    | [] -> [ (k, f dflt) ]
    | (k', v) :: rest -> if k' = k then (k', f v) :: rest else (k', v) :: go rest
  in
  go l

let pp_list ?(sep = "; ") pp_elt fmt l =
  let pp_sep fmt () = Format.pp_print_string fmt sep in
  Format.pp_print_list ~pp_sep pp_elt fmt l
