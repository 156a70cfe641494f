(** The verbs the CLI and the daemon share: how an exception becomes a
    diagnostic and an exit code, when a diagnostic list means the guard
    tripped, and how each operation's verdict renders as the JSON payload
    the daemon caches.  [ucfg check --json] prints {!check_result}
    through {!Json.to_string}, so its line is byte for byte the daemon's
    [check] [result]. *)

open Ucfg_cfg

(** {2 The exit-code table} *)

(** [diagnose exn] is the diagnostic and exit code of a failure:
    - {!Ucfg_exec.Guard.Interrupt} → R001/R002/R003, exit 124;
    - [Invalid_argument]/[Failure] (bad input) → R010, exit 2;
    - anything else → R012, exit 70 ([EX_SOFTWARE]). *)
val diagnose : exn -> Ucfg_lint.Diag.t * int

(** [exit_code diags] — 124 when an R001–R003 diagnostic reports a guard
    trip (the semantic tier renders a trip as a partial verdict instead
    of raising; a trip wins), else 1 when an error fires, else 0. *)
val exit_code : Ucfg_lint.Diag.t list -> int

(** {2 Result payloads}

    Each raises {!Ucfg_exec.Guard.Interrupt} on a trip — a partial
    verdict is never a result — and [Invalid_argument] on unusable
    input. *)

(** [lint_diags ~guard ~semantic g] is the static report of
    {!Ucfg_lint.Grammar_lint.run}, merged in sort order with the deep tier
    ({!Ucfg_lint.Semantic_lint.lint} under [guard]) when [semantic]. *)
val lint_diags :
  guard:Ucfg_exec.Guard.t -> semantic:bool -> Grammar.t ->
  Ucfg_lint.Diag.t list

(** [lint ~guard ~semantic g] — [{diagnostics, errors, warnings, infos}]. *)
val lint : guard:Ucfg_exec.Guard.t -> semantic:bool -> Grammar.t -> Json.t

(** [ambiguity ~guard g] — [{unambiguous, total_trees, word_count, via,
    witness}]. *)
val ambiguity : guard:Ucfg_exec.Guard.t -> Grammar.t -> Json.t

(** [check_report ?guard ~cross_check ~property g1 g2] decides [property]
    (["universal"], ["includes"], ["equiv"] or ["disjoint"]; all but the
    first need [g2]).  A trip is an [Interrupted] status, not an
    exception.  @raise Invalid_argument on an unknown property or a
    missing [g2]. *)
val check_report :
  ?guard:Ucfg_exec.Guard.t ->
  cross_check:bool ->
  property:string ->
  Grammar.t ->
  Grammar.t option ->
  Ucfg_lint.Semantic_lint.report

(** [backend_name r] — ["count"], ["packed"] or ["mixed"]. *)
val backend_name : Ucfg_lint.Semantic_lint.report -> string

(** [check_result property r] — [{property, status, reason, backend,
    vacuous, cardinal, cardinal2, witness, diagnostics}], an interrupted
    report included. *)
val check_result : string -> Ucfg_lint.Semantic_lint.report -> Json.t

(** [check] is {!check_report} then {!check_result}, raising on a trip. *)
val check :
  guard:Ucfg_exec.Guard.t ->
  cross_check:bool ->
  property:string ->
  Grammar.t ->
  Grammar.t option ->
  Json.t

(** [rectangles ~guard g] — the Proposition 7 extraction and its cover
    verification. *)
val rectangles : guard:Ucfg_exec.Guard.t -> Grammar.t -> Json.t

(** [rank ~split g lang] — the communication matrix of [lang] (the
    language of [g]) cut at [split] (default: the middle) and its GF(2)
    and mod-p ranks. *)
val rank : split:int option -> Grammar.t -> Ucfg_lang.Lang.t -> Json.t
