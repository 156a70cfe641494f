(** Sound static pre-checks for unambiguity — no enumeration.

    {!Ambiguity.check} decides unambiguity by exhaustively counting parse
    trees, which is exponential in word length.  This module provides the
    conservative, polynomial-time layer underneath the linter and the
    {!Ambiguity} fast path: cheap syntactic analyses (nullability and
    FIRST sets from {!Facts}, derived-length ranges) feeding two {e sound}
    verdicts:

    - a {b certificate of unambiguity}: every nonterminal has pairwise
      first-letter-disjoint rules, at most one nullable rule, and every
      rule admits at most one variable-length symbol, so rule choice and
      word factorisation are forced — no counting needed;
    - a {b definite-ambiguity witness}: a capped bottom-up tree-count probe
      that under-approximates the per-word tree count; any word reaching
      count 2 at a useful nonterminal is a real ambiguity witness.

    Both verdicts are conservative: [Unknown] is always a legal answer,
    and a conclusive answer is always correct (the agreement with
    {!Ambiguity.check} is property-tested). *)

(** [length_ranges g order] is, per nonterminal, [Some (min, max)] over
    the lengths of its derivable words ([None] when it derives nothing),
    for an acyclic [g] with [order] its topological order
    ({!Facts.topological_order}).  [max] saturates at a large sentinel
    rather than overflowing. *)
val length_ranges : Grammar.t -> int list -> (int * int) option array

(** [certificate g] — the sound unambiguity certificate, checked on the
    trimmed grammar: trimmed dependency graph acyclic, and for every
    nonterminal (i) at most one nullable rule, (ii) pairwise-disjoint rule
    FIRST sets, (iii) at most one variable-length symbol per rule.
    [true] implies [g] is unambiguous; [false] implies nothing. *)
val certificate : Grammar.t -> bool

(** [probe g order] under-approximates per-word parse-tree counts
    bottom-up along [order], keeping at most 64 words (lexicographically
    least) of length at most 64 per nonterminal, with saturating counts.
    Truncation only drops words, so every reported count is a lower
    bound: a count of 2 at a useful nonterminal of the trimmed grammar is
    a real ambiguity.  Returns the first [(nonterminal name, word)]
    witness found, scanning nonterminals bottom-up.  Expects an acyclic trimmed grammar and its topological
    order, as {!Trim.acyclic_trim} returns them. *)
val probe : Grammar.t -> int list -> (string * string) option

type verdict =
  | Unambiguous  (** certified by {!certificate} *)
  | Ambiguous of { nonterminal : string; word : string }
      (** [word] has at least two parse trees, exhibited below
          [nonterminal] (a name of the trimmed grammar) by {!probe} *)
  | Unknown  (** neither check is conclusive — fall back to counting *)

(** [verdict g] trims [g] and runs the certificate then the probe.  Returns [Unknown] when the trimmed grammar is cyclic
    (infinitely many parse trees — {!Ambiguity.check} rejects those
    upstream) or when both checks are inconclusive.  Sound: [Unambiguous]
    and [Ambiguous _] are never wrong. *)
val verdict : Grammar.t -> verdict
