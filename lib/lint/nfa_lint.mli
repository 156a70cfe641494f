(** Static diagnostics for NFAs.

    Seven checks with stable codes, mirroring the grammar linter.  [N006]
    and [N007] together report the self-product criterion of
    {!Ucfg_automata.Unambiguous.off_diagonal_pair}: on the useful part of an
    ε-free automaton, a reachable and co-reachable off-diagonal product
    pair exists iff some word has two accepting runs — so [N006] is a
    {e definite} ambiguity proof and [N007] a {e certificate} of
    unambiguity.  Both are skipped (no claim either way) when the
    automaton has ε-transitions; [N003] points at
    {!Ucfg_automata.Nfa.remove_epsilon} in that case.

    {v
    N001  unreachable states                        structural  warning
    N002  states that reach no final state          structural  warning
    N003  ε-transitions present                     structural  info
    N004  nondeterministic fan-out                  structural  info
    N005  no initial or no final state              structural  warning
    N006  ambiguous: off-diagonal self-product pair definite    error
    N007  unambiguity certificate (self-product)    certificate info
    v} *)

(** The registry: every check this linter implements, in code order. *)
val checks : Diag.check list

(** [run a] runs every check and returns the diagnostics sorted
    errors-first (see {!Diag.sort}).  States are reported with the
    original automaton's ids. *)
val run : Ucfg_automata.Nfa.t -> Diag.t list
