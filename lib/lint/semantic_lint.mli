(** Semantic lint tier: decision procedures with counterexample witnesses.

    Universality, inclusion, equivalence and disjointness for the
    bounded-length grammars of the reproduction, decided {e without}
    enumerating the comparison language whenever a sound static
    unambiguity certificate holds.  The counting argument is Clemente's
    collapse for unambiguous CFGs (arXiv 2008.04667) specialised to
    uniform-length languages:

    - {b universality}: an unambiguous [G] whose words all have length
      [ℓ] satisfies [L(G) = Σ^ℓ] iff [|L(G)| = |Σ|^ℓ], and for an
      unambiguous grammar [|L(G)|] is exactly the total number of parse
      trees ({!Ucfg_cfg.Analysis.count_trees_total}) — no word is ever
      enumerated on the accept path;
    - {b inclusion} [L(G1) ⊆ L(G2)]: iff [|L(G1) ∩ L(G2)| = |L(G1)|],
      where membership of each word of [L(G1)] in [L(G2)] is an exact
      tree count ({!Ucfg_cfg.Count_word}) — [L(G2)] is never materialised;
    - {b disjointness} is inclusion in the complement; {b equivalence} is
      two-sided inclusion.

    When no certificate holds the procedures fall back to the {!Packed}
    language algebra: both languages are materialised per length and the
    verdict is a merge of sorted code arrays.  Either way a failing
    verdict carries the {e shortest, lexicographically least}
    counterexample (the least code in the packed difference / the first
    gap in the sorted codes).

    Every procedure is jobs-invariant — per-length sweeps fan over
    {!Ucfg_exec.Pool} through the order-preserving {!Ucfg_exec.Exec}
    combinators — and Guard-polled: a tripped deadline or budget degrades
    the verdict to {!Interrupted} (rendered as an R001–R003 partial-verdict
    diagnostic) instead of an escaped exception.

    Diagnostic codes (the registry is {!checks}):

    {v
    G016  non-universal (witness outside the language)  definite  error/info
    G017  inclusion / disjointness violation (witness)  definite  error
    G018  equivalence mismatch (witness)                definite  error
    G019  empty language — property decided vacuously   structural warning
    G020  counting/packed backend disagreement          definite  error
    v} *)

open Ucfg_cfg
module Bignum = Ucfg_util.Bignum

(** Which decision backend produced the verdict.  [Counting] is the
    certificate-gated exact-count route; [Packed] the materialise-and-merge
    route (also used to extract a witness when the counting route rejects
    universality).  [Mixed] marks a two-sided check whose directions took
    different routes. *)
type backend = Counting | Packed | Mixed

(** A failing verdict's witness: the shortest, lexicographically least
    word separating the two sides.  [in_first] / [in_second] record its
    membership in [L(G1)] and in the comparison language ([L(G2)], or
    [Σ^ℓ] for universality). *)
type counterexample = { word : string; in_first : bool; in_second : bool }

type status =
  | Holds  (** the property is true *)
  | Fails of counterexample  (** false, with a shortest witness *)
  | Interrupted of Ucfg_exec.Guard.reason
      (** the guard tripped — a partial verdict, not a refutation *)

type property = Universal | Includes | Equiv | Disjoint

type report = {
  property : property;
  status : status;
  backend : backend;
  vacuous : bool;
      (** some operand's language is empty — the verdict is decided
          vacuously (reported as G019) *)
  cardinal : Bignum.t option;  (** [|L(G1)|] when computed *)
  cardinal2 : Bignum.t option;
      (** [|L(G2)|] (or [|Σ^ℓ|] for universality) when computed *)
  cross_check : Diag.t option;
      (** [Some] (a G020 error) iff both backends ran and disagreed *)
}

(** The registry: the semantic checks G016–G020, in code order. *)
val checks : Diag.check list

(** [universal ?guard ?cross_check g] decides [L(g) = Σ^ℓ] (with [Σ] the
    grammar's alphabet and [ℓ] forced by uniformity — a language mixing
    lengths is never universal and the shorter-length witness is reported
    from the complement at the least populated length).  [~cross_check]
    (default [false]) forces both backends to run and compares their
    cardinals and witnesses, filling [cross_check] on disagreement.
    [guard] defaults to {!Ucfg_exec.Exec.current_guard}. *)
val universal :
  ?guard:Ucfg_exec.Guard.t -> ?cross_check:bool -> Grammar.t -> report

(** [includes ?guard ?cross_check g1 g2] decides [L(g1) ⊆ L(g2)]. *)
val includes :
  ?guard:Ucfg_exec.Guard.t -> ?cross_check:bool ->
  Grammar.t -> Grammar.t -> report

(** [equiv ?guard ?cross_check g1 g2] decides [L(g1) = L(g2)] (two-sided
    inclusion; the witness side flags tell which language owns it). *)
val equiv :
  ?guard:Ucfg_exec.Guard.t -> ?cross_check:bool ->
  Grammar.t -> Grammar.t -> report

(** [disjoint ?guard ?cross_check g1 g2] decides [L(g1) ∩ L(g2) = ∅]
    (inclusion of [L(g1)] in the complement of [L(g2)]). *)
val disjoint :
  ?guard:Ucfg_exec.Guard.t -> ?cross_check:bool ->
  Grammar.t -> Grammar.t -> report

(** [to_diags ?fail_severity r] renders a report through the {!Diag}
    pipeline: a G016/G017/G018 diagnostic (severity [fail_severity],
    default [Error]) for a failing verdict with the witness in the
    message, G019 for vacuous verdicts, G020 verbatim, and an R001–R003
    [Warning] for an interrupted (partial) verdict. *)
val to_diags : ?fail_severity:Diag.severity -> report -> Diag.t list

(** [lint ?guard ?cross_check g] is the deep tier behind
    [ucfg lint --semantic] (appended to {!Grammar_lint.run}): runs {!universal} with the backend
    cross-check on by default and renders non-universality as an [Info]
    fact (most grammars are not universal — the point is the witness),
    emptiness as G019 and backend disagreement as a G020 error. *)
val lint :
  ?guard:Ucfg_exec.Guard.t -> ?cross_check:bool -> Grammar.t -> Diag.t list
