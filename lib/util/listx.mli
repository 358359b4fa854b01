(** Small list and array helpers used across the library. *)

val range : int -> int list
(** [range n] is [\[0; 1; ...; n-1\]]. *)

val range_in : int -> int -> int list
(** [range_in lo hi] is [\[lo; ...; hi\]] (inclusive); empty if [hi < lo]. *)

val sum : int list -> int

val max_by : ('a -> int) -> 'a list -> 'a
(** Maximum element under a score.  @raise Invalid_argument on []. *)

val cartesian_n : 'a list list -> 'a list list
(** [cartesian_n \[l1; ...; lk\]] enumerates all tuples, as lists of length k,
    taking one element from each [li], in lexicographic order. *)

val dedup_sorted : ('a -> 'a -> int) -> 'a list -> 'a list
(** Sort with [cmp] and remove duplicates. *)

val group_counts : ('a -> 'a -> int) -> 'a list -> ('a * int) list
(** [group_counts cmp l] sorts [l] and returns each distinct element with its
    multiplicity, in [cmp] order. *)

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list

val find_index_opt : ('a -> bool) -> 'a list -> int option

val assoc_update : 'a -> ('b -> 'b) -> 'b -> ('a * 'b) list -> ('a * 'b) list
(** [assoc_update k f dflt l] applies [f] to the binding of [k] (inserting
    [f dflt] if absent), preserving the order of existing bindings. *)

val pp_list :
  ?sep:string -> (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit
(** Print a list with separator (default ["; "]) and no brackets. *)
