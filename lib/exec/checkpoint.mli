(** Self-verifying files, and the resumable-search sessions built on them.

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

    A checkpoint is the single file [dir/checkpoint], written and read
    only through a {!session}.  Bumping the format version here
    invalidates every existing checkpoint at once, by design. *)

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

(** Raised by a search's body parser on a line it does not accept. *)
exception Reject

(** [nat ~max text] is the integer [text] when it lies in [0, max];
    {!Reject} otherwise. *)
val nat : max:int -> string -> int

(** A resumable search: its checkpoint identity, memo persistence and
    load / trip / finish lifecycle.  The payload is the params line, the
    search's own body lines, then one [memo <key> <v>] line per binding. *)
type 'a session = private {
  dir : string option;  (** the checkpoint directory, if any *)
  params : string;  (** the search identity, the payload's first line *)
  memo : Memo.t option;  (** the search's verdict memo, if on *)
  restored : 'a option;  (** the parsed body of a resumed checkpoint *)
  warning : string option;
      (** why a requested resume degraded to a fresh run (R021) *)
}

(** [open_session ~dir ~resume ~params memo parse] starts a search.  With
    [resume] and a [dir], a checkpoint whose first line is [params] is
    loaded: its [memo] lines go into [memo], every other non-empty line,
    split on spaces, goes to [parse], whose result becomes [restored].
    A damaged file, another search's params line, or a body that [parse]
    rejects ({!Reject}, [Failure] or [Invalid_argument]) leaves
    [restored = None] and sets [warning]; nothing is loaded into [memo]. *)
val open_session :
  dir:string option -> resume:bool -> params:string -> Memo.t option ->
  (string list list -> 'a) -> 'a session

(** [trip s body] atomically writes the params line, the [body] lines and
    the memo entries to the checkpoint; the path written, [None] without
    a directory. *)
val trip : 'a session -> string list -> string option

(** [finish s] removes the checkpoint of a completed search (best-effort). *)
val finish : 'a session -> unit

(** [memo_counts s] is this run's memo [(hits, misses)], [(0, 0)] without
    a memo. *)
val memo_counts : 'a session -> int * int
