(** Semantic analyses of grammars with (intended) finite languages.

    The paper is exclusively about finite languages, where everything about
    a grammar is decidable by exhaustive computation: the exact language
    (a Kleene fixpoint), the total number of parse trees (a DP over the
    acyclic dependency graph), and the fixed-length property of
    Observation 9.  Finiteness and the dependency order are structural
    facts, in {!Facts}. *)

open Ucfg_lang
module Bignum = Ucfg_util.Bignum

type overflow = [ `Length_exceeded of int | `Card_exceeded of int ]

(** [language ?packed ?max_len ?max_card g] is the exact language of [g],
    computed by a Kleene fixpoint over per-nonterminal word sets.  [Error]
    reports that some derivable word exceeds [max_len] (default 64) or that
    some nonterminal's set exceeds [max_card] (default 2_000_000) — in
    either case the grammar is too big to materialise, not necessarily
    infinite.

    When every intermediate language is uniform-length binary (the [L_n]
    constructions), the concatenation steps run on the tiered kernel —
    machine-integer codes ({!Ucfg_lang.Packed}) up to length 62, multi-limb
    codes ({!Ucfg_lang.Wide}) up to 128, and factorised circuits
    ({!Ucfg_lang.Factored}) beyond, or whenever the product cardinality is
    huge.  [~packed:false] (default [true]) forces the set representation
    throughout — the result is identical, only slower; it is the
    reference route the tests check the tiered fixpoint against.  [~factored:true] (default
    [false]) seeds the fixpoint on tier T2, so every derived language is a
    circuit: languages of billions of words stay a few hundred thousand
    hash-consed nodes and the n ≥ 16 sweeps (bench E31) terminate.  With
    [~factored:true] the [max_card] cap bounds the circuit's {e node count}
    (the memory actually used) instead of the cardinal.

    [~seeds] pins the denotations of selected nonterminals: when
    [seeds.(i)] is [Some l], nonterminal [i] starts at [l] and its rules
    are never applied.  This is the incremental-recomputation hook — a
    caller that re-runs the fixpoint on a locally modified grammar (as
    {!Ucfg_rect.Extract} does, dozens of times on a shrinking grammar)
    seeds every nonterminal whose language is unaffected and pays only
    for the ones above the change.

    [~acyclic:true] asserts that the dependency graph is acyclic (e.g. a
    length-annotated grammar) and skips the per-call cycle test that
    otherwise decides between the one-pass and the iterated fixpoint;
    passing it on a cyclic grammar is unspecified.

    [~guard] (default {!Ucfg_exec.Exec.current_guard}) is polled at every
    rule application and at every left word of a large concatenation, so a
    deadline or budget interrupts the fixpoint promptly on every domain.
    @raise Ucfg_exec.Guard.Interrupt once the guard trips. *)
val language :
  ?guard:Ucfg_exec.Guard.t ->
  ?packed:bool ->
  ?factored:bool ->
  ?acyclic:bool ->
  ?seeds:Lang.t option array ->
  ?max_len:int -> ?max_card:int -> Grammar.t -> (Lang.t, overflow) result

(** [language_exn ?guard ?packed ?acyclic ?seeds ?max_len ?max_card g]
    raises [Invalid_argument] instead of returning [Error]. *)
val language_exn :
  ?guard:Ucfg_exec.Guard.t ->
  ?packed:bool ->
  ?factored:bool ->
  ?acyclic:bool ->
  ?seeds:Lang.t option array ->
  ?max_len:int -> ?max_card:int -> Grammar.t -> Lang.t

(** [language_table ?guard ?packed ?acyclic ?seeds ?max_len ?max_card g] is
    the full per-nonterminal fixpoint table behind {!language} — [table.(i)]
    is the language of nonterminal [i] (seeded entries are returned as
    seeded). *)
val language_table :
  ?guard:Ucfg_exec.Guard.t ->
  ?packed:bool ->
  ?factored:bool ->
  ?acyclic:bool ->
  ?seeds:Lang.t option array ->
  ?max_len:int -> ?max_card:int -> Grammar.t -> (Lang.t array, overflow) result

val language_table_exn :
  ?guard:Ucfg_exec.Guard.t ->
  ?packed:bool ->
  ?factored:bool ->
  ?acyclic:bool ->
  ?seeds:Lang.t option array ->
  ?max_len:int -> ?max_card:int -> Grammar.t -> Lang.t array

(** [count_trees_total g] is the number of parse trees of [g] (all words
    together).  @raise Invalid_argument when there are infinitely many. *)
val count_trees_total : Grammar.t -> Bignum.t

(** [fixed_lengths g] is [Some lens] when every nonterminal of the trimmed
    grammar derives words of a single length — the situation of
    Observation 9 — with [lens.(a)] that length, indexed by the
    nonterminals of [Trim.trim g].  Returns the trimmed grammar alongside.
    [None] when some nonterminal derives words of different lengths.
    @raise Invalid_argument when the trimmed grammar is cyclic. *)
val fixed_lengths : Grammar.t -> (Grammar.t * int array) option

(** [witness_tree g a] is some parse tree rooted at [a], if [a] is
    productive.  Deterministic (first usable rule, recursively). *)
val witness_tree : Grammar.t -> int -> Parse_tree.t option

(** [witness_word g] is the yield of [witness_tree g (start g)]. *)
val witness_word : Grammar.t -> string option
