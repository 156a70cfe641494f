(** Static diagnostics for grammars — the rule registry.

    Fifteen checks with stable codes.  Soundness statuses (see
    {!Diag.soundness}): [G015] is the unambiguity {e certificate} and the
    [Error]-severity firings of [G004]–[G007], [G009] and [G013] are
    {e definite} — they are never wrong, which is what lets
    {!Ucfg_cfg.Ambiguity.check} skip enumeration on a conclusive verdict.
    [G012] and [G014] are heuristics (may warn on unambiguous grammars);
    the rest are structural facts.

    {v
    G001  unproductive nonterminal                  structural  warning
    G002  unreachable nonterminal                   structural  warning
    G003  empty language                            structural  warning
    G004  self-referential rule                     definite    error/info
    G005  unit-rule cycle                           definite    error/warning
    G006  ε-cycle                                   definite    error/warning
    G007  dependency cycle (useful nonterminals)    definite    error/info
    G008  infinite language                         structural  info
    G009  duplicate rule via unit indirection       definite    error/warning
    G010  not in Chomsky normal form                structural  info
    G011  start symbol on a right-hand side         structural  info
    G012  vertical ambiguity (FIRST-set overlap)    heuristic   warning
    G013  definite ambiguity (bounded probe)        definite    error
    G014  horizontal ambiguity (two factorisations) heuristic   warning
    G015  unambiguity certificate                   certificate info
    v} *)

(** The registry: every check this linter implements, in code order. *)
val checks : Diag.check list

(** [run g] runs every check and returns the diagnostics sorted
    errors-first (see {!Diag.sort}).  The deep semantic tier
    ({!Semantic_lint.lint}, codes G016–G020) is a separate pass:
    [Ucfg_serve.Verbs.lint_diags] composes the two. *)
val run : Ucfg_cfg.Grammar.t -> Diag.t list

(** The unambiguity-certificate verdict as a typed value, so callers stop
    re-scanning diagnostic code strings.  [Certified_ambiguous] carries
    the definite diagnostic that proves ambiguity (the [Error]-severity
    firing of [G004]–[G007], [G009] or [G013] that fired first in sort
    order). *)
type certificate =
  | Certified_unambiguous  (** the [G015] certificate fired *)
  | Certified_ambiguous of Diag.t  (** a definite error — the proof *)
  | Certificate_unknown  (** neither conclusive *)

(** [certificate_verdict diags] extracts the typed certificate from a
    {!run} result.  Sound by construction — the qcheck suite asserts
    agreement with {!Ucfg_cfg.Ambiguity.check}. *)
val certificate_verdict : Diag.t list -> certificate

(** {!certificate_verdict} collapsed to the historical polymorphic
    variant. *)
val verdict : Diag.t list -> [ `Unambiguous | `Ambiguous | `Unknown ]
