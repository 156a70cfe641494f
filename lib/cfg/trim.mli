(** Removing useless nonterminals.

    Section 2 assumes grammars have no redundant nonterminals: every
    nonterminal appears in some parse tree.  That is exactly the
    productive-and-reachable ("useful") restriction computed here, on top
    of the facts of {!Facts}. *)

(** [useful g] marks nonterminals appearing in at least one parse tree
    ({!Facts.useful} over {!Facts.productive}). *)
val useful : Grammar.t -> bool array

(** [trim g] restricts [g] to its useful nonterminals (the start symbol is
    always kept, so a grammar with empty language trims to a start symbol
    with no rules).  Parse trees are preserved exactly.  When nothing is
    useless, the grammar returned is [g] itself, so no grammar is rebuilt
    and structures memoised on {!Grammar.id} stay valid. *)
val trim : Grammar.t -> Grammar.t

(** [is_trim g] holds when every nonterminal of [g] is useful. *)
val is_trim : Grammar.t -> bool

(** [acyclic_trim g] is [Some (trim g, order)] when [g] has finitely many
    parse trees, with [order] the topological order of the trimmed grammar
    ({!Facts.postorder}: dependencies first); [None] otherwise. *)
val acyclic_trim : Grammar.t -> (Grammar.t * int list) option
