(** Semiring-weighted parsing: the one CNF span chart and the one
    per-length table, over an arbitrary commutative semiring.

    For a CNF grammar with a weight per rule, the weight of a word is the
    semiring sum over its parse trees of the product of the rule weights
    used.  Instantiations:
    - {!Semiring.Boolean} with weight 1: recognition;
    - {!Semiring.Counting} with weight 1: parse-tree counting;
    - {!Semiring.Tropical}: the cheapest derivation;
    - {!Semiring.Inside}: inside probabilities of a weighted grammar;
    - {!Semiring.Provenance}: the full derivation provenance
      (how-provenance of the parse, in database terms).

    Every counting DP over CNF rules in this library is one of the two
    below: {!Cyk} fills {!Make.chart} at {!Semiring.Checked_int} (and
    {!Semiring.Counting} on overflow), and {!Count} and {!Direct_access}
    read {!Make.length_table} at {!Semiring.Counting}.

    On unambiguous grammars the sum has one addend per word — the paper's
    tractability side, generalised. *)

(** The grouped rule index of a CNF grammar: what the DPs loop over
    instead of the rule list. *)
type index = private {
  nn : int;  (** number of nonterminals *)
  term_pairs : (int * char) array;
      (** terminal rules [(a, c)] for [a -> c], in rule order *)
  bin_groups : ((int * int) * int array) array;
      (** binary rules grouped by right-hand side: [((b, c), lhss)] with
          every [a -> b c] in [lhss], groups in first-occurrence order.
          One split computes the product for [(b, c)] once and credits
          every lhs of the group. *)
}

(** [index g] — the index of [g], compiled once per grammar (memoised on
    {!Grammar.id} in a bounded, domain-safe cache).  Only the terminal and
    binary rules are indexed; callers check that [g] is in CNF. *)
val index : Grammar.t -> index

module Make (R : Semiring.S) : sig
  (** [chart ?rule_weight idx w] — the CNF span chart of a non-empty [w]:
      [chart.(pos).(len - 1).(a)] is the weight of the derivations of
      [w.[pos .. pos + len - 1]] from [a].  Products with a zero factor
      are skipped, no weight is multiplied in when [rule_weight] is
      absent (every rule weighs [R.one]), and the ambient
      {!Ucfg_exec.Guard} is polled once per cell of length [>= 2]. *)
  val chart :
    ?rule_weight:(Grammar.rule -> R.t) ->
    index -> string -> R.t array array array

  (** [length_table ?rule_weight g max_len] — the per-length table
      [d.(l).(a)]: the weight of the derivations of words of length [l]
      from [a], for [0 <= l <= max_len].  Column [0] holds only the start
      ε-rule's weight (the one ε-rule CNF allows).
      @raise Invalid_argument if [max_len < 0]; [g] must be in CNF. *)
  val length_table :
    ?rule_weight:(Grammar.rule -> R.t) -> Grammar.t -> int -> R.t array array

  (** [word_weight ?rule_weight g w] — the weight of [w].  [rule_weight]
      defaults to [R.one] everywhere (so Boolean/Counting give
      recognition/counting).
      @raise Invalid_argument if [g] is not in CNF. *)
  val word_weight :
    ?rule_weight:(Grammar.rule -> R.t) -> Grammar.t -> string -> R.t

  (** [length_weight ?rule_weight g len] — the semiring sum of the weights
      of all derivations of words of length exactly [len]. *)
  val length_weight :
    ?rule_weight:(Grammar.rule -> R.t) -> Grammar.t -> int -> R.t
end
