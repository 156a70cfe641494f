(** Structural facts about a grammar, in one place.

    Every analysis of the reproduction first asks a grammar the same
    questions: which nonterminals are productive, useful, nullable; what
    their FIRST/LAST letters are; whether the dependency graph is acyclic
    and in which order its nonterminals come.  This module answers them
    with one rule-level least-fixpoint engine (a round-robin Kleene
    iteration over [Grammar.rules g]) and one
    dependency-graph pass (a DFS that yields the post-order and detects
    cycles at once).  Nothing is memoised: a caller that needs a fact
    twice computes it once and passes it on. *)

module Cset : Set.S with type elt = char

(** [productive g] marks nonterminals that derive at least one terminal
    word. *)
val productive : Grammar.t -> bool array

(** [useful g ~productive] marks nonterminals occurring in a parse tree:
    those reachable from the start symbol through rules whose nonterminals
    are all productive ([productive] is {!productive}[ g]). *)
val useful : Grammar.t -> productive:bool array -> bool array

(** [nullable g] marks nonterminals deriving the empty word. *)
val nullable : Grammar.t -> bool array

(** [rhs_nullable null rhs] — every symbol of [rhs] is a nullable
    nonterminal (so the right-hand side derives [ε]). *)
val rhs_nullable : bool array -> Grammar.sym list -> bool

(** [first_sets g ~nullable] is, per nonterminal, the set of first letters
    of its nonempty derivable words ([nullable] is {!nullable}[ g]). *)
val first_sets : Grammar.t -> nullable:bool array -> Cset.t array

(** [last_sets g ~nullable] — symmetrically, the possible last letters. *)
val last_sets : Grammar.t -> nullable:bool array -> Cset.t array

(** [rhs_first ~nullable ~first rhs] is the FIRST set of a right-hand
    side: first letters contributed by each symbol while all symbols
    before it are nullable. *)
val rhs_first :
  nullable:bool array -> first:Cset.t array -> Grammar.sym list -> Cset.t

(** [first_overlap firsts] finds two sets of [firsts] that share a letter,
    in O(k·|Σ|) for k sets: [Some (i, j, c)] with [i] the least index whose
    set meets a later one, [j] the least index after [i] whose set meets
    set [i], and [c] their least common letter; [None] when the sets are
    pairwise disjoint. *)
val first_overlap : Cset.t list -> (int * int * char) option

(** The depth {!min_depth} gives an unproductive nonterminal. *)
val unproductive_depth : int

(** [rhs_depth depth rhs] is the greatest [depth] of a nonterminal of
    [rhs] (0 without one). *)
val rhs_depth : int array -> Grammar.sym list -> int

(** [min_depth g] is, per nonterminal, the least height of a parse tree
    rooted there ({!unproductive_depth} when there is none). *)
val min_depth : Grammar.t -> int array

(** [postorder g] is the DFS post-order of the dependency graph (roots
    [0 .. n-1] in turn, children in rule order): on an acyclic grammar,
    every nonterminal comes after all nonterminals occurring in its
    rules. *)
val postorder : Grammar.t -> int list

(** [topological_order g] is [Some (postorder g)] when the dependency
    graph is acyclic, and [None] when it has a cycle. *)
val topological_order : Grammar.t -> int list option

(** [kept g ~useful] marks the nonterminals trimming keeps: the useful
    ones and the start symbol, which is never dropped. *)
val kept : Grammar.t -> useful:bool array -> bool array

(** [kept_rule kept a rhs] — trimming keeps the rule [a -> rhs]: [a] and
    every nonterminal of [rhs] are [kept]. *)
val kept_rule : bool array -> int -> Grammar.sym list -> bool

(** [has_finitely_many_trees g ~useful] decides whether [g] has finitely
    many parse trees: true iff the dependency graph of [Trim.trim g] is
    acyclic.  It is read off [g] without building the trimmed grammar
    ([useful] is {!useful}[ g]). *)
val has_finitely_many_trees : Grammar.t -> useful:bool array -> bool

(** [is_finite g ~useful] decides finiteness of [L(g)]: after trimming,
    the language is infinite iff some strongly connected component of the
    dependency graph contains a "growing" rule occurrence (pumping). *)
val is_finite : Grammar.t -> useful:bool array -> bool
