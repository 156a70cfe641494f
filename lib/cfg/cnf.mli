(** Chomsky normal form (Section 2).

    Every CFG converts to an equivalent CNF grammar with at most quadratic
    size blow-up; the paper assumes CNF throughout Sections 3–4.  The
    conversion here is the standard START/TERM/BIN/DEL/UNIT pipeline
    followed by a trim.  On ε-free grammars the parse trees of the result
    are in bijection with the original ones, so unambiguity is
    preserved. *)

(** [is_cnf g] — see {!Grammar.is_cnf}. *)
val is_cnf : Grammar.t -> bool

(** [of_grammar g] converts [g] to Chomsky normal form and trims the
    result.  The language is preserved exactly (including [ε]). *)
val of_grammar : Grammar.t -> Grammar.t

(** [ensure g] is [g] when it is already CNF and trim, otherwise
    [of_grammar g]. *)
val ensure : Grammar.t -> Grammar.t
