(** Sharded cross-domain memo table.

    One table is shared by every domain of a parallel search: a fixed
    power-of-two array of shards, each an independent mutex + hashtable,
    with the shard picked by key hash — so two domains contend only when
    their keys collide on a shard, never on a global lock.  Keys and
    values are strings (callers hash their structured keys, typically to
    an MD5 hex digest), which keeps the table agnostic of its domain and
    makes checkpoint serialisation trivial.

    Inserts are first-writer-wins: a key, once bound, keeps its original
    value.  Memoised computations must therefore be deterministic in the
    key — which is exactly the memoisation contract — and under that
    contract the table never changes a result, only skips recomputing
    it. *)

type t

(** [create ?shards ()] — [shards] (default 16) is rounded up to a power
    of two. *)
val create : ?shards:int -> unit -> t

(** [find t key] is the bound value, if any.  Updates the hit/miss
    counters. *)
val find : t -> string -> string option

(** [set t key value] binds [key] unless already bound (first writer
    wins).  Counts an insert only when the binding is new. *)
val set : t -> string -> string -> unit

(** Number of bindings, summed over shards. *)
val length : t -> int

type stats = { hits : int; misses : int; inserts : int }

val stats : t -> stats

(** All bindings sorted by key — a deterministic dump for checkpoints
    (deterministic given the binding set; under parallelism the set
    itself depends on where the run was interrupted). *)
val entries : t -> (string * string) list

(** [add_entries t kvs] bulk-loads checkpointed bindings, first writer
    wins, without touching the counters — restored entries are history,
    not this run's work. *)
val add_entries : t -> (string * string) list -> unit

(** [verdict memo key decide] is the memoised boolean [decide ()]: looked
    up under [key], decided and bound on a miss.  [key] is forced only
    when [memo] is on, so its hashing costs nothing without a memo. *)
val verdict : t option -> string Lazy.t -> (unit -> bool) -> bool
