(** Commutative semirings for weighted parsing.

    The factorised-representation literature the paper builds on uses the
    same circuits for provenance (Olteanu–Závodný [28]): evaluating a
    representation over different semirings answers different questions.
    {!Weighted} runs its one CNF span chart and its one per-length table
    over any of these; recognition, tree counting, best-derivation and
    inside-probability all become instances, and {!Cyk} and {!Count_word}
    count on {!Checked_int} with {!Counting} as the overflow escape. *)

module type S = sig
  type t

  val zero : t
  (** neutral for {!plus}; annihilates {!times}. *)

  val one : t
  (** neutral for {!times}. *)

  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool

  val is_zero : t -> bool
  (** [is_zero v] holds exactly when [v] is {!zero}, so the dynamic
      programs can skip a product without changing any result; cheaper
      than [equal v zero] where equality normalises. *)

  val pp : Format.formatter -> t -> unit
end

(** Recognition: ∨ / ∧ over booleans. *)
module Boolean : S with type t = bool

(** Derivation counting: + / × over big integers. *)
module Counting : S with type t = Ucfg_util.Bignum.t

(** Derivation counting on native ints: + / × over non-negative counts,
    raising {!Checked_int.Overflow} where the result would leave the int
    range.  The counting DPs run here first and re-run at {!Counting} on
    overflow, so their results equal {!Counting}'s either way. *)
module Checked_int : sig
  include S with type t = int

  exception Overflow
end

(** Min-plus (tropical): cheapest derivation; [None] is +∞. *)
module Tropical : S with type t = int option

(** Inside probabilities: + / × over floats (no normalisation checks). *)
module Inside : S with type t = float

(** Univariate counting polynomials over big integers: with terminal-rule
    weights set to the indeterminate [x] for a marked letter, the weight
    of a length class is the generating polynomial of derivations by
    marked-letter count (the Parikh census of one letter). *)
module Polynomial : sig
  include S with type t = Ucfg_util.Bignum.t array

  (** the indeterminate [x]. *)
  val x : t

  (** [coeff p k] — the coefficient of [x^k] ([zero] beyond the degree). *)
  val coeff : t -> int -> Ucfg_util.Bignum.t
end

(** Free commutative-monoid-ish provenance: the multiset of derivations,
    each derivation being the multiset of rule tags used.  Exponential in
    general — meant for tiny examples and tests.  [plus] is multiset
    union, [times] the pairwise merge of tag multisets. *)
module Provenance : sig
  include S with type t = int list list

  (** [of_tag t] — the single derivation using rule tag [t] once. *)
  val of_tag : int -> t
end
