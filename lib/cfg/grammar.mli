(** Context free grammars (Definition 2 of the paper).

    A grammar is a set of rules [A -> W] with [W] a string of terminals and
    nonterminals, plus a start symbol.  Nonterminals are small integers
    carrying a printable name; terminals are characters of the grammar's
    alphabet.  The size measure is the paper's: the sum of the lengths of
    all right-hand sides — the measure that matches factorised
    representations (not the rule count of Bucher et al.). *)

open Ucfg_word

type sym =
  | T of char  (** terminal *)
  | N of int  (** nonterminal id *)

type rule = { lhs : int; rhs : sym list }

type t

(** [make ~alphabet ~names ~rules ~start] validates and builds a grammar:
    every nonterminal id must index [names], every terminal must belong to
    [alphabet], and duplicate rules are collapsed.
    @raise Invalid_argument on ill-formed input. *)
val make :
  alphabet:Alphabet.t -> names:string array -> rules:rule list -> start:int -> t

(** [id g] is a process-unique identifier, assigned at construction.  Two
    structurally equal grammars built separately have different ids; use it
    as a key when memoising structures derived from a grammar value (the
    CYK rule index does). *)
val id : t -> int

val alphabet : t -> Alphabet.t
val start : t -> int
val nonterminal_count : t -> int
val name : t -> int -> string
val names : t -> string array
val rules : t -> rule list
val rule_count : t -> int

(** [rules_of g a] is the right-hand sides of [a], in insertion order. *)
val rules_of : t -> int -> sym list list

(** The paper's size measure: [sum over rules of |rhs|]. *)
val size : t -> int

(** [has_rule g a rhs] tests for the exact rule [a -> rhs]. *)
val has_rule : t -> int -> sym list -> bool

(** [is_cnf g] holds when every rule is [A -> BC] or [A -> a], except that
    the start symbol may have an [A -> ε] rule provided the start symbol
    occurs on no right-hand side (Chomsky normal form as used in
    Section 2). *)
val is_cnf : t -> bool

(** [map_nonterminals g f ~names ~start] renames nonterminal ids through
    the injective map [f]. *)
val map_nonterminals : t -> (int -> int) -> names:string array -> start:int -> t

(** Direct dependency edges [lhs -> B] for each nonterminal [B] occurring
    on a right-hand side of [lhs].  The list is duplicate-free: however
    many times [B] occurs across the right-hand sides of [lhs], the edge
    [(lhs, B)] appears exactly once, in first-occurrence order. *)
val dependency_edges : t -> (int * int) list

val pp_sym : t -> Format.formatter -> sym -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Imperative construction helper: allocate nonterminals with [fresh],
    add rules, then [finish]. *)
module Builder : sig
  type grammar := t
  type b

  (** [create ?guard alpha] — [add_rule] ticks [guard] (default
      {!Ucfg_exec.Guard.unlimited}, never the ambient guard), so a caller
      can bound a construction whose size grows with its parameter. *)
  val create : ?guard:Ucfg_exec.Guard.t -> Alphabet.t -> b

  (** [fresh b name] allocates a new nonterminal. *)
  val fresh : b -> string -> int

  (** [fresh_memo b name] returns the existing nonterminal called [name]
      or allocates one. *)
  val fresh_memo : b -> string -> int

  val add_rule : b -> int -> sym list -> unit
  val finish : b -> start:int -> grammar
end
