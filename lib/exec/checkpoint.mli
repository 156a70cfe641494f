(** Self-verifying files, and the search checkpoints built on them.

    A self-verifying file holds one opaque payload behind a header
    [<magic> <md5> <len>] (the magic is a name and a format version, e.g.
    [ucfg-search v1]) followed by exactly [len] payload bytes.  {!write}
    writes to a unique temp file and renames — atomic on POSIX, so a
    reader (or a concurrent writer) sees the old file or the new one,
    never a splice.  {!read} re-verifies everything: a missing header, an
    unknown magic or version, a length mismatch, a digest mismatch, or
    trailing garbage all degrade to {!Invalid} — the caller recomputes or
    restarts with a warning, it never trusts damaged bytes.  The serve
    disk cache ([ucfg-cache v1]) and the search checkpoints
    ([ucfg-search v1]) are both this format.

    A checkpoint is the single file [dir/checkpoint].  Payload syntax and
    versioning-on-meaning are the caller's problem: searches prepend a
    parameter line to the payload and treat a mismatch as {e their}
    invalidity.  Bumping the format version here invalidates every
    existing checkpoint at once, by design. *)

type load =
  | Loaded of string  (** the verified payload *)
  | Absent  (** no such file *)
  | Invalid of string  (** damaged or version-mismatched; the reason *)

(** [write ~magic path payload] creates [path]'s directory as needed and
    atomically writes the self-verifying file. *)
val write : magic:string -> string -> string -> unit

(** [read ~magic path] verifies the file at [path] against [magic];
    {!Absent} when it cannot be opened. *)
val read : magic:string -> string -> load

(** [file ~dir] is the checkpoint path [dir/checkpoint]. *)
val file : dir:string -> string

(** [save ~dir payload] creates [dir] as needed and atomically writes the
    checkpoint; returns the path written. *)
val save : dir:string -> string -> string

val load : dir:string -> load

(** [clear ~dir] removes the checkpoint file if present (best-effort). *)
val clear : dir:string -> unit
