(** Tier T2 of the language kernel: factorised languages as circuits.

    A uniform-length binary language is represented {e symbolically} as a
    level-indexed binary decision DAG — the circuit form of the paper's
    d-representations restricted to the right-linear (OBDD-style) vtree: a
    node at height [h] denotes a set of words of length [h]; its ['a] child
    denotes the residual after reading ['a], its ['b] child after ['b];
    the two sinks at height 0 denote [{ε}] and [∅].  This is exactly a
    deterministic d-rep ({!Ucfg_fr.Drep} via [Ucfg_fr.Iso.drep_of_factored])
    whose product gates split letter-first — so cardinals are exact Bignum
    model counts, never enumerations, and the KMN isomorphism connects the
    tier to the paper's uCFG lower bound machinery.

    Nodes are hash-consed in one global manager (a mutex-guarded table, so
    the tier is domain-safe): structurally equal languages are physically
    equal nodes, making {!equal} O(1) and every [apply]-style operation
    properly memoisable.  Node identifiers are an internal detail — their
    numeric values depend on construction order and are never observable in
    results, which keeps the tier jobs-invariant.  Every table of the tier
    (the manager, the per-call memos, the visited sets of the walks) is
    keyed by one immediate int built from node ids, so lookups neither
    allocate nor hash polymorphically; ids stay below 2{^31}, and the
    manager raises [Failure] rather than exceed that range.

    All potentially long walks ({!cardinal}, {!node_count}, [apply] loops)
    poll a {!Ucfg_exec.Guard.t} (default the ambient
    {!Ucfg_exec.Exec.current_guard}).

    The ladder is T0 ({!Packed}, len ≤ 62) → T1 ({!Wide}, len ≤ 128) →
    T2 (this module, any length); {!Lang} dispatches automatically, and
    also escalates here on {e cardinality} (huge concatenation products at
    small lengths) — the escape that unlocks the n ≥ 16 sweeps. *)

type t

(** {1 Structure} *)

type node

val root : t -> node

(** Stable within one process run only; never expose in output. *)
val node_id : node -> int

val view : node -> [ `Accept | `Reject | `Branch of node * node ]

(** Whether the node denotes a non-empty set — exact (the canonical empty
    diagram of each height is a unique hash-consed node), O(1).  Lets
    traversals prune dead (all-reject) subtrees. *)
val node_nonempty : node -> bool

(** {2 Raw builders}

    For callers that construct a diagram directly (e.g. {!Ln}'s symbolic
    slice chains) instead of going through a word list.  [branch lo hi]
    hash-conses the node reading ['a] into [lo] and ['b] into [hi]
    ([Invalid_argument] on unequal child heights); [accept]/[reject] are
    the sinks; [reject_all h] is the empty language of height [h];
    [of_root len root] wraps a root of height [len] as a language
    ([Invalid_argument] on a height mismatch). *)

val accept : node

val reject : node
val branch : node -> node -> node
val reject_all : int -> node
val of_root : int -> node -> t

(** Uniform word length (the height of the root). *)
val length : t -> int

(** Reachable branch nodes — the memory cost of the representation, used
    as the [max_card] proxy where enumerated tiers use the cardinal.  Its
    visited set grows with the DAG walked, not with the number of nodes
    the process has built. *)
val node_count : ?guard:Ucfg_exec.Guard.t -> t -> int

(** {1 Construction} *)

val empty : int -> t
val full : int -> t
val singleton_word : string -> t
val of_word_list : int -> string list -> t
val of_packed : Packed.t -> t
val of_wide : Wide.t -> t

(** {1 Queries} *)

val is_empty : t -> bool
val is_full : t -> bool
val mem : t -> string -> bool

(** Exact model count by a memoised path sum — O(nodes), never O(2^len).
    The sum runs in native ints below height 62 (where a count is at most
    2{^61}) and in {!Ucfg_util.Bignum} only at nodes of height ≥ 62. *)
val cardinal : ?guard:Ucfg_exec.Guard.t -> t -> Ucfg_util.Bignum.t

(** [cardinal_int t] is the cardinal when it fits a native [int]; below
    length 62 it never leaves native ints. *)
val cardinal_int : ?guard:Ucfg_exec.Guard.t -> t -> int option

(** Least word in lexicographic order — a single descent. *)
val min_word : t -> string option

(** Least word of length [length t] {e not} in the language ([None] when
    full) — a descent through non-full children; the symbolic analogue of
    the T0/T1 gap scans. *)
val min_absent_word : t -> string option

(** {1 Algebra}

    Binary operations require equal lengths ([Invalid_argument]
    otherwise); all are memoised applies, O(|t1|·|t2|) nodes. *)

val union : ?guard:Ucfg_exec.Guard.t -> t -> t -> t
val inter : ?guard:Ucfg_exec.Guard.t -> t -> t -> t
val diff : ?guard:Ucfg_exec.Guard.t -> t -> t -> t

(** [complement t] is [Σ^len \ t] — a sink swap, O(|t|), the operation
    the explicit tiers cannot afford above len 62. *)
val complement : ?guard:Ucfg_exec.Guard.t -> t -> t

(** [concat t1 t2] substitutes [t2]'s root for [t1]'s accept sink —
    O(|t1| + |t2|) nodes, independent of the cardinal product. *)
val concat : ?guard:Ucfg_exec.Guard.t -> t -> t -> t

(** O(1): hash-consing makes structural equality physical. *)
val equal : t -> t -> bool

val subset : ?guard:Ucfg_exec.Guard.t -> t -> t -> bool
val disjoint : ?guard:Ucfg_exec.Guard.t -> t -> t -> bool

(** {1 Enumeration}

    Lexicographic; only for languages known to be small — the whole point
    of the tier is that results need not fit in memory. *)

val words : t -> string Seq.t
val iter_words : (string -> unit) -> t -> unit
val filter : (string -> bool) -> t -> t
val pp : Format.formatter -> t -> unit
