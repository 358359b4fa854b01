(** Semilinear sets of label counts.

    Angluin et al. proved that standard population protocols compute exactly
    the semilinear predicates; the paper cites this landscape throughout
    (Section 1, Related work).  We provide exact membership for semilinear
    sets over [nat^d], so tests can cross-check protocol semantics against
    semilinear specifications.

    A {e linear set} is [base + nat·p₁ + ... + nat·p_k] with base and periods
    in [nat^d]; a {e semilinear set} is a finite union of linear sets.
    Membership is decided exactly by depth-first search over residual
    vectors (all periods are non-negative, so coordinates only decrease). *)

type linear = { base : int array; periods : int array list }
type t = linear list
(** A union of linear sets, all of the same dimension. *)

val dimension : t -> int option
(** [None] for the empty union. *)

val linear_set : base:int array -> periods:int array list -> linear
(** @raise Invalid_argument on dimension mismatch or negative entries. *)

val of_linear : linear -> t
val union : t -> t -> t

val mem_linear : linear -> int array -> bool
val mem : t -> int array -> bool

val threshold_set : dim:int -> coord:int -> k:int -> t
(** [{ v | v.(coord) >= k }] as a semilinear set. *)

val mod_set : dim:int -> coord:int -> r:int -> m:int -> t
(** [{ v | v.(coord) ≡ r mod m }]. *)

val agrees_with :
  t -> alphabet:string list -> box:int -> Predicate.t -> bool
(** Check, exhaustively on the box, that the semilinear set and the predicate
    define the same labelling property. *)

val pp : Format.formatter -> t -> unit
