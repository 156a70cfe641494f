(** Exact minimum disjoint rectangle covers for tiny instances.

    Proposition 16 lower-bounds disjoint covers asymptotically; this
    module computes ground truth for small [n] by iterative-deepening
    search: cover the target mask-set with balanced ordered set
    rectangles, pairwise disjoint, of minimum number.  The branching
    enumerates the maximal rectangles (per balanced ordered partition)
    that contain the smallest uncovered element and stay inside the
    remaining set.  A work budget keeps it total.

    Iterative deepening re-proves the same subproblems at every depth
    bound, so the search keeps a transposition table over
    [(remaining, k)] subtree verdicts and a per-[(partition, remaining)]
    cache of generated candidate rectangles (both on by default via
    [?memo]).  Verdicts are deterministic in their key, so memoisation
    never changes an outcome — it only skips re-deriving it, which also
    means a memoised run can reach an [Exact] answer within a budget
    that a memo-free run exhausts.

    With a [?checkpoint] directory the run is a
    {!Ucfg_exec.Checkpoint.session}: a guard trip or an exhausted node
    budget persists the refuted-size cursor and the transposition
    entries, and [~resume:true] continues without re-deriving either. *)

type outcome =
  | Exact of int  (** the minimum disjoint cover size *)
  | Budget_exhausted of int
      (** search aborted; the argument is a proven lower bound (all
          smaller sizes were refuted before the budget ran out) *)
  | Interrupted of int * Ucfg_exec.Guard.reason
      (** the guard tripped (deadline, tick budget or cancellation); the
          argument is the same proven lower bound as above *)

type run = {
  outcome : outcome;
  nodes : int;  (** search nodes ticked by this run (resumes restart at 0) *)
  memo_hits : int;  (** transposition-table hits (0 with [~memo:false]) *)
  memo_misses : int;
  resumed : bool;  (** a valid checkpoint was loaded and continued *)
  checkpoint_written : string option;
      (** path of the checkpoint written on interruption or budget
          exhaustion, if any *)
  checkpoint_warning : string option;
      (** set when a requested resume degraded to a fresh run *)
}

(** [minimum ?guard ~n target] — the target is a list of masks (words of
    length [2n]); typically [L_n]'s codes.  [budget] caps the number of
    search nodes (default [2_000_000]); [guard] (default
    {!Ucfg_exec.Exec.current_guard}) is polled at every node and turns a
    trip into [Interrupted] instead of raising. *)
val minimum :
  ?guard:Ucfg_exec.Guard.t ->
  ?budget:int ->
  ?memo:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  n:int ->
  int list ->
  outcome

(** [minimum_run] is {!minimum} with the full run record: node count,
    transposition statistics and checkpoint/resume status. *)
val minimum_run :
  ?guard:Ucfg_exec.Guard.t ->
  ?budget:int ->
  ?memo:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  n:int ->
  int list ->
  run

(** [minimum_ln ?guard ?budget n] — specialised to [L_n]. *)
val minimum_ln : ?guard:Ucfg_exec.Guard.t -> ?budget:int -> int -> outcome
