(** Family verdicts: one decision for every instance size.

    [decide_family] explores the counted spaces of increasing instances of
    a family and looks for the verdict to stabilise.  Two certification
    grades:

    - {b Cutoff} (star families of non-counting machines): Lemma 3.5 makes
      the star system a WSTS, and [Coverability.cutoff_bound] yields a
      [K] such that the verdict is a function of the label count capped at
      [K].  Only the pumped label's count varies along the family, so once
      [n >= |word| - 1 + K] the capped count — hence the verdict — is
      constant.  Checking every instance up to that horizon therefore
      {e certifies} the verdict for all larger [n].
    - {b Window} (clique families, or counting machines): the buddy
      argument of Lemma 3.5 does not extend to cliques, so there is no
      certified cutoff; the verdict is extrapolated from a stabilisation
      window of consecutive agreeing instances and marked as such.

    The reported [from_n] is the smallest instance from which the verdict
    is constant up to the horizon. *)

type certificate =
  | Cutoff of int  (** Certified: coverability cutoff [K]. *)
  | Window of int  (** Heuristic: stabilisation window width. *)

type t = {
  verdict : Dda_verify.Decide.verdict;
  from_n : int;  (** The verdict holds for every instance with [n >= from_n]. *)
  checked_to : int;  (** Largest instance actually explored. *)
  certificate : certificate;
  configs : int;  (** Counted configurations summed over all instances. *)
  instances : (int * Dda_verify.Decide.verdict) list;  (** Per-n evidence. *)
}

val pp : Format.formatter -> t -> unit

type error = [ `Too_large of int | `Unsupported of string ]

val decide_family :
  ?max_configs:int ->
  ?window:int ->
  regimes:Dda_verify.Decide.regime list ->
  (string, 's) Dda_machine.Machine.t ->
  Family.t ->
  ((t, error) result * float) list
(** One result per regime of [regimes] (non-empty), in order, each with
    the seconds its regime's analyses took; the rest of the call's wall
    time is exploration, shared by every regime.

    The cutoff horizon is computed once, and each instance is explored
    once and classified under every regime still searching, then dropped.
    Each regime reads its own verdict sequence and stops where it would
    stop alone, so each result is the one [~regimes:[r]] gives.

    [max_configs] (default 200_000) bounds the {e total} number of counted
    configurations across all explored instances, mirroring the budget
    semantics of a single explicit decision.  Every regime explores a
    contiguous range from the smallest instance, so the budget left at an
    instance is the same for all of them.  [window] (default 6) is the
    stabilisation window for uncertified families.  [`Unsupported] is
    returned when no stabilisation window can be found within the
    exploration horizon — never for certified star families, whose horizon
    is exact. *)
