(** The paper's witness language family.

    [L_n = { (a+b)^k a (a+b)^(n-1) a (a+b)^(n-1-k) | 0 <= k <= n-1 }] — all
    binary words of length [2n] carrying two ['a']s at distance exactly [n]
    (Example 3).  Identifying a word with the pair of bit masks
    [(x, y) ∈ {0,1}^n × {0,1}^n] of its two halves (bit set iff ['a']),
    membership is exactly [x AND y ≠ 0]: the complement of set
    disjointness. *)

open Ucfg_word

(** [mem n w] decides membership of a word of length [2n].
    Words of a different length or over other characters are rejected. *)
val mem : int -> Word.t -> bool

(** [mem_code n code] decides membership from the packed code of a binary
    word of length [2n] (as produced by {!Ucfg_word.Word.to_bits}). *)
val mem_code : int -> int -> bool

(** [language n] is [L_n] — enumerated into the packed backend for
    [n <= 10] (a 4^n code scan), built symbolically on the factorised tier
    beyond (see {!language_factored}).  Both routes produce the same
    language; the representations compare equal through {!Lang.equal}. *)
val language : int -> Lang.t

(** [language_factored n] is [L_n] on tier T2, built as the union of the
    [n] slice chains [L_n^k] — Θ(2^n) hash-consed nodes, never an
    enumeration of the [4^n − 3^n] words, with exact Bignum cardinals.
    This is the reference object for the n ≥ 16 sweeps (E31).  [guard]
    bounds the unions (default: the ambient guard). *)
val language_factored : ?guard:Ucfg_exec.Guard.t -> int -> Lang.t

(** [codes n] enumerates the packed codes of [L_n] lazily. *)
val codes : int -> int Seq.t

(** [cardinal n] is [|L_n| = 4^n − 3^n], exactly. *)
val cardinal : int -> Ucfg_util.Bignum.t

(** [slice n k] is the language [L_n^k] of Example 8: words whose
    positions [k] and [k+n] (0-based) both carry ['a'].
    Requires [0 <= k <= n-1]. *)
val slice : int -> int -> Lang.t

(** [slice_mem n k w] decides membership in [L_n^k] without
    materialisation. *)
val slice_mem : int -> int -> Word.t -> bool

(** [star n] is the balanced-rectangle language [L*_n] of Example 6:
    words of length [2n] beginning and ending with [n/2] ['a']s.
    Requires [n] even. *)
val star : int -> Lang.t

val star_mem : int -> Word.t -> bool
