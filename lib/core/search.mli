(** Exhaustive minimal representations for tiny languages — ground truth.

    The paper's bounds are asymptotic; for very small instances we can
    compute the actual minima: the minimal DFA in polynomial time
    (Myhill–Nerode), and the minimal CNF grammar — plain or unambiguous —
    by budgeted exhaustive search over rule sets. *)

open Ucfg_word
open Ucfg_lang

(** [minimal_dfa_states alpha l] — number of states of the minimal
    complete DFA of the finite language [l]. *)
val minimal_dfa_states : Alphabet.t -> Lang.t -> int

type grammar_search = {
  minimal_size : int option;
      (** smallest CNF grammar size found, [None] if none within caps *)
  witness : Ucfg_cfg.Grammar.t option;
  nodes_explored : int;
      (** deterministic at any job count on completed runs; on an
          interrupted run, the approximate cross-domain tick count —
          scheduling-dependent, report as partial progress *)
  budget_exhausted : bool;
  interrupted : Ucfg_exec.Guard.reason option;
      (** [Some r] when the ambient or explicit guard tripped mid-search:
          the run is partial, [minimal_size]/[witness] are [None].  The
          {e kind} of reason is jobs-invariant. *)
  memo_hits : int;  (** verdict-memo hits this run (0 with [~memo:false]) *)
  memo_misses : int;  (** verdict-memo misses this run *)
  resumed : bool;  (** a valid checkpoint was loaded and continued *)
  checkpoint_written : string option;
      (** path of the checkpoint written on a guard trip, if any *)
  checkpoint_warning : string option;
      (** set when a requested resume degraded to a fresh run: the
          checkpoint was corrupt, truncated, version-mismatched, or for
          different search parameters.  Never fatal, never a wrong
          answer. *)
}

(** [checkpoint_key ?unambiguous ?max_nonterminals ?max_size ?budget
    alpha l] is a stable hex digest of the full search identity —
    parameters and target language.  Callers use it to derive a
    per-search checkpoint directory (the CLI uses
    [_repro/search/<key>]); two searches share a key exactly when a
    checkpoint written by one is resumable by the other. *)
val checkpoint_key :
  ?unambiguous:bool ->
  ?max_nonterminals:int ->
  ?max_size:int ->
  ?budget:int ->
  Alphabet.t ->
  Lang.t ->
  string

(** [minimal_cnf_size ?guard ?unambiguous ?max_nonterminals ?max_size
    ?budget ?memo ?checkpoint ?resume alpha l] searches for the smallest
    CNF grammar (rules [A -> a] of size 1 and [A -> BC] of size 2)
    accepting exactly [l]; with [unambiguous = true] (default false),
    restricts to uCFGs.

    Defaults: 3 nonterminals, size cap 12, budget 3 million nodes.
    [l] must not contain [ε].

    [guard] (default {!Ucfg_exec.Exec.current_guard}) is polled at every
    search node; when it trips, the search returns a partial record with
    [interrupted = Some _] instead of raising.  The [?budget] node cap is
    a separate, deterministic mechanism and reports through
    [budget_exhausted] as before.

    [memo] (default true) shares candidate-verdict results through a
    sharded cross-domain {!Ucfg_exec.Memo} table keyed by canonical
    grammar text, target-language digest and the unambiguity flag.
    Memo hits cost the same single search tick as misses, so the memo
    never changes [nodes_explored], the verdict, the witness, or the
    budget semantics — only wall-clock.

    [checkpoint] and [resume] (default false) run the search in a
    {!Ucfg_exec.Checkpoint.session}: a guard trip mid-level persists the
    level, its completed branch outcomes, the replayed budget and the memo
    entries, reported in [checkpoint_written]; [resume] continues from
    there.  A damaged or mismatched checkpoint degrades to a fresh run
    with [checkpoint_warning] set. *)
val minimal_cnf_size :
  ?guard:Ucfg_exec.Guard.t ->
  ?unambiguous:bool ->
  ?max_nonterminals:int ->
  ?max_size:int ->
  ?budget:int ->
  ?memo:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  Alphabet.t ->
  Lang.t ->
  grammar_search
