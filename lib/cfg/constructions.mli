(** The paper's grammar constructions.

    Three families, all for the witness language [L_n]:
    - Example 3: the Kimelfeld–Martens–Niewerth grammar [G_t] of size
      [Θ(t)] accepting [L_{2^t + 1}] — exponentially succinct but
      ambiguous;
    - Appendix A: a CFG of size [Θ(log n)] accepting [L_n] for every [n];
    - Example 4: an unambiguous CFG for [L_n] of size [2^Θ(n)] — the upper
      bound matching (up to the exponent's constant) the paper's lower
      bound.

    Plus the trivial grammar of an arbitrary finite language (one rule per
    word), used as a baseline everywhere. *)

open Ucfg_lang

(** [example3 t] is the grammar [G_t] of Example 3, accepting
    [L_{2^t + 1}]; size [Θ(t)].  Requires [t >= 0]. *)
val example3 : int -> Grammar.t

(** [log_cfg n] is the Appendix A grammar accepting [L_n]; size
    [Θ(log n)].  Requires [n >= 1]. *)
val log_cfg : int -> Grammar.t

(** [example4 n] is the unambiguous grammar of Example 4 accepting [L_n];
    size [2^Θ(n)].  Requires [n >= 1].

    Two deliberate deviations from the paper's text:
    - [A_ε] is elided instead of given an ε-rule, as is the unused [C_0];
    - the paper's rule [A_i → A_w a C_{n-i} A_w̄ a C_{n-i}] takes the
      second-half prefix to be exactly the complement [w̄], which
      under-generates: "no match before position i" allows the pair
      [(b, b)] at earlier positions, not only [(a, b)] and [(b, a)].
      (Concretely, [baba ∈ L_2] is not generated by the literal rule.)
      We enumerate all "a-disjoint" prefix pairs — three choices per
      position — which is exact, still unambiguous, and still of size
      [2^Θ(n)]. *)
val example4 : ?guard:Ucfg_exec.Guard.t -> int -> Grammar.t

(** [example4_literal n] is Example 4 exactly as printed in the paper,
    with the second-half prefix forced to the complement [w̄].  It is
    unambiguous but {e under-generates}: its language is the proper subset
    of [L_n] of words whose first matched pair is preceded only by
    [(a,b)]/[(b,a)] position pairs — e.g. [baba ∈ L_2] is missing.  Kept
    as an executable exhibit of the reproduction finding; use
    {!example4} for the corrected grammar. *)
val example4_literal : int -> Grammar.t

(** [of_language alpha l] is the trivial grammar: one rule [S -> w] per
    word.  Its size is the total length of the language. *)
val of_language :
  ?guard:Ucfg_exec.Guard.t -> Ucfg_word.Alphabet.t -> Lang.t -> Grammar.t

(** [sigma_chain alpha k] is a grammar generating exactly [Σ^k] with a
    right-linear chain ([k >= 1]); unambiguous, size [Θ(k·|Σ|)]. *)
val sigma_chain : Ucfg_word.Alphabet.t -> int -> Grammar.t

(** The named constructions, by the name the CLI's [--kind] and [KIND:N]
    specs and the daemon's [kind]/[kind2] fields use: [log] ({!log_cfg}),
    [example3] ({!example3}, the parameter is [t]), [example4]
    ({!example4}) and [trivial] ({!of_language} of [L_n]).  [guard]
    bounds the two whose size is exponential in the parameter (default:
    never trips), so a request naming a huge construction trips its
    guard instead of building it. *)
val kinds : (string * (?guard:Ucfg_exec.Guard.t -> int -> Grammar.t)) list
