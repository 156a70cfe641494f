(** CYK recognition, parsing and parse-tree counting for CNF grammars.

    Counting parse trees per word is the workhorse behind the unambiguity
    checks and behind the #P-flavoured experiments: for a CNF grammar the
    number of parse trees of a word is a simple O(|w|³·|G|) dynamic
    program.  The table here is {!Weighted}'s one CNF span chart, filled
    at {!Semiring.Checked_int} and refilled at {!Semiring.Counting} only
    when a count overflows the int range. *)

module Bignum = Ucfg_util.Bignum

type table

(** [build g w] fills the CYK table for word [w].
    @raise Invalid_argument when [g] is not in CNF. *)
val build : Grammar.t -> string -> table

(** [recognize g w] decides [w ∈ L(g)].  Handles [ε] via a start ε-rule. *)
val recognize : Grammar.t -> string -> bool

(** [count_trees g w] is the number of parse trees of [w] in [g].

    The chart is filled through {!Weighted.index}, compiled once per
    grammar (memoised on {!Grammar.id}), and counted on native ints,
    escaping to big integers only when a count overflows — results are
    identical either way. *)
val count_trees : Grammar.t -> string -> Bignum.t

(** [count_trees_batch g ws] is [List.map (count_trees g) ws], but the CNF
    check and the compiled rule index are shared across the whole batch —
    the entry point for callers that count thousands of words against one
    grammar. *)
val count_trees_batch : Grammar.t -> string list -> Bignum.t list

(** [parse g w] is some parse tree of [w], when [w ∈ L(g)]. *)
val parse : Grammar.t -> string -> Parse_tree.t option

(** [all_trees ?limit g w] lists the parse trees of [w] (at most [limit],
    default 1000). *)
val all_trees : ?limit:int -> Grammar.t -> string -> Parse_tree.t list

(** [derivable table a pos len] queries the table: does nonterminal [a]
    derive the subword at [pos] (0-based) of length [len]? *)
val derivable : table -> int -> int -> int -> bool

(** [occurrence_counts g w] — the inside–outside product: for every
    nonterminal occurrence [(a, pos, len)], the number of parse trees of
    [w] containing it.  This is the quantitative form of Observation 11:
    on an unambiguous grammar every count is 0 or 1, and the 1-entries
    are exactly the spans of the unique parse tree. *)
val occurrence_counts :
  Grammar.t -> string -> (int * int * int * Bignum.t) list
