(** Unambiguous finite automata (UFAs).

    An NFA is unambiguous when every word has at most one accepting run.
    Like uCFGs, UFAs trade succinctness for counting: accepted-word counts
    are exact path counts.  The classical decision procedure is the
    self-product criterion: a trim NFA is ambiguous iff its product with
    itself has a useful off-diagonal state. *)

(** [off_diagonal_pair nfa] is the least pair [(p, q)], [p < q], of
    useful states (original ids) that the self-product reaches on a common
    prefix and that co-reach the finals on a common suffix — a proof that
    some word has two accepting runs; [None] when there is none, i.e. when
    [nfa] is unambiguous.  ε-free automata only.
    @raise Invalid_argument on ε-transitions. *)
val off_diagonal_pair : Nfa.t -> (int * int) option

(** [is_unambiguous nfa] is [off_diagonal_pair nfa = None].
    @raise Invalid_argument on ε-transitions. *)
val is_unambiguous : Nfa.t -> bool

(** [ambiguous_word nfa ~max_len] finds a word with two accepting runs by
    comparing path counts against determinized word counts, length by
    length. *)
val ambiguous_word : Nfa.t -> max_len:int -> string option

(** [count_words nfa len] counts accepted words of each length in
    [0..len]: directly by path counting when [nfa] is unambiguous,
    otherwise through determinization. *)
val count_words : Nfa.t -> int -> Ucfg_util.Bignum.t array
