(** Content-addressed artifact cache: in-memory LRU over a verified
    on-disk store.

    Keys are 32-char hex digests ({!Ucfg_cfg.Canon.digest} of the
    canonical grammar text plus the operation and its parameters); values
    are opaque byte strings (the daemon stores rendered JSON result
    payloads).  Lookups hit, in order: the in-process LRU (a mutex-guarded
    hash table with last-use stamps, scanned for the oldest entry on
    eviction), then the disk store under [dir/<k[0..1]>/<key>.entry].

    Every disk entry is a self-verifying {!Ucfg_exec.Checkpoint} file
    ([ucfg-cache v1] header) — the header records the MD5 and byte
    length of the payload, and a read that fails either check reports
    {!Corrupt} instead of returning bytes, so a truncated or bit-flipped
    entry can degrade only to a recomputation, never to a wrong answer.
    Writes go through a unique temp file in the same directory followed by
    [Unix.rename], which is atomic on POSIX: concurrent writers of the
    same key race only over {e which complete entry} survives, and readers
    never observe a partial one.

    All operations are safe to call from multiple domains. *)

type t

(** [create ?mem_capacity ?disk_max_bytes ?dir ()] — [mem_capacity]
    (default 512) bounds the LRU entry count; [dir] (default [None])
    enables the disk tier and is created on demand.  [disk_max_bytes]
    (default unbounded) caps the total size of the disk store: after each
    store the tier is scanned and oldest-stamp entries are deleted until
    the cap holds again (stamps are mtimes, refreshed on disk hits, so
    eviction is LRU; a concurrent reader of an evicted entry degrades to a
    recomputation, never a wrong answer).
    @raise Invalid_argument when [disk_max_bytes <= 0]. *)
val create : ?mem_capacity:int -> ?disk_max_bytes:int -> ?dir:string -> unit -> t

(** [dir t] is the disk root, if the disk tier is enabled. *)
val dir : t -> string option

type lookup =
  | Memory of string  (** hit in the LRU *)
  | Disk of string  (** hit on disk, verified, promoted into the LRU *)
  | Miss  (** no entry *)
  | Corrupt  (** a disk entry exists but failed verification *)

(** [lookup t key] — [key] must be lowercase hex. *)
val lookup : t -> string -> lookup

(** [store t key payload] inserts into the LRU and (when enabled) writes
    the disk entry atomically, replacing any previous or corrupt one. *)
val store : t -> string -> string -> unit

(** Monotonic counters since {!create}.  [corrupt] counts failed disk
    verifications; [evictions] LRU evictions; [disk_evictions] entry files
    deleted by the [disk_max_bytes] cap. *)
type stats = {
  lookups : int;
  mem_hits : int;
  disk_hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  evictions : int;
  disk_evictions : int;
}

val stats : t -> stats

(** [close t] quiesces the cache for shutdown: subsequent {!store}s are
    dropped (no new disk writes begin) and {!lookup}s stop touching the
    disk tier (memory hits still serve).  Disk writes already in flight
    finish or lose their temp file — the store's atomic-rename discipline
    means a racing writer can never leave a partial entry.  Idempotent;
    safe to call while workers still hold the cache. *)
val close : t -> unit

(** [entry_path t key] is the disk path the entry lives at (diagnostics,
    tests), when the disk tier is enabled. *)
val entry_path : t -> string -> string option
