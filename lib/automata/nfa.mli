(** Nondeterministic finite automata.

    The paper's Theorem 1(2) states that [L_n] has an NFA of size [Θ(n)];
    this module provides the general NFA machinery and {!Ln_nfa} the
    concrete construction.  States are integers [0..states-1]; automata
    may have several initial states and ε-transitions (removable with
    {!remove_epsilon}). *)

open Ucfg_word

type t

(** [make ~alphabet ~states ~initials ~finals ~transitions ~epsilons]
    validates and builds an NFA.  [transitions] are labelled edges
    [(src, char, dst)]; [epsilons] are [(src, dst)] pairs.
    @raise Invalid_argument on out-of-range states or foreign symbols. *)
val make :
  alphabet:Alphabet.t ->
  states:int ->
  initials:int list ->
  finals:int list ->
  transitions:(int * char * int) list ->
  ?epsilons:(int * int) list ->
  unit ->
  t

val alphabet : t -> Alphabet.t
val state_count : t -> int
val transition_count : t -> int
val epsilon_count : t -> int

(** The paper-style size of an NFA: states plus transitions (a robust
    measure for [Θ]-statements; both components are [Θ(n)] for
    {!Ln_nfa.build}). *)
val size : t -> int

val initials : t -> int list
val finals : t -> int list
val is_final : t -> int -> bool
val transitions : t -> (int * char * int) list
val epsilons : t -> (int * int) list

(** [step t state c] is the set of states reachable by one [c]-edge
    (no ε-closure applied). *)
val step : t -> int -> char -> int list

(** [eps_closure t states] closes a state set under ε-edges. *)
val eps_closure : t -> int list -> int list

(** [accepts t w] decides membership by subset simulation. *)
val accepts : t -> string -> bool

(** [remove_epsilon t] is an equivalent ε-free NFA on the same states. *)
val remove_epsilon : t -> t

(** [reverse t] accepts the mirror language. *)
val reverse : t -> t

(** [union a b] accepts [L(a) ∪ L(b)] (disjoint sum of states). *)
val union : t -> t -> t

(** [product a b] accepts [L(a) ∩ L(b)]; both must be ε-free.
    @raise Invalid_argument on ε-transitions or alphabet mismatch. *)
val product : t -> t -> t

(** [reachability t] is [(reach, coreach)]: the states reachable from an
    initial state, and those from which a final state is reachable, over
    labelled and ε-transitions alike. *)
val reachability : t -> bool array * bool array

(** [trim t] restricts to useful (reachable and co-reachable) states. *)
val trim : t -> t

(** [language t ~max_len] is the set of accepted words of length
    [<= max_len]. *)
val language : t -> max_len:int -> Ucfg_lang.Lang.t

(** [count_paths_by_length t len] is the number of accepting runs per word
    length [0..len] (counts runs, not words: equals word counts exactly
    when the automaton is unambiguous).  Requires an ε-free automaton. *)
val count_paths_by_length : t -> int -> Ucfg_util.Bignum.t array

(** [of_word_list alpha ws] is a trie-shaped NFA (in fact a DFA) for a
    finite list of words. *)
val of_word_list : Alphabet.t -> string list -> t

val pp : Format.formatter -> t -> unit
