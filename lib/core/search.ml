open Ucfg_word
open Ucfg_lang
open Ucfg_cfg
open Ucfg_automata
module G = Grammar
module Memo = Ucfg_exec.Memo
module Checkpoint = Ucfg_exec.Checkpoint

let minimal_dfa_states alpha l =
  let nfa = Nfa.of_word_list alpha (Lang.elements l) in
  Dfa.state_count (Determinize.minimal_dfa nfa)

type grammar_search = {
  minimal_size : int option;
  witness : G.t option;
  nodes_explored : int;
  budget_exhausted : bool;
  interrupted : Ucfg_exec.Guard.reason option;
  memo_hits : int;
  memo_misses : int;
  resumed : bool;
  checkpoint_written : string option;
  checkpoint_warning : string option;
}

(* The search fans out over the top-level rule-set frontier: for each
   nonterminal count [k] and each candidate rule index [i], one branch
   explores exactly the rule sets whose lowest-index rule is [i].  In
   (k, i) order the branches partition the level exactly as the
   sequential include-first backtracking does, so replaying the branch
   outcomes in that order reproduces the sequential verdict — witness,
   node count and budget behaviour included — for any number of domains:

   - every branch runs against the level's remaining budget as a local
     cap, so no branch does more work than a sequential run could;
   - the replay walks the outcomes in frontier order, accumulating each
     branch's deterministic tick count, and declares the budget exhausted
     at exactly the branch where the sequential counter would have
     overflowed;
   - a branch that finds a witness or hits the cap publishes its rank, and
     branches strictly to the right abort — their outcomes are never
     consulted by the replay, so cancellation affects wall-clock only.

   Two layers ride on that determinism:

   - a sharded cross-domain memo table over [accepts_exactly] verdicts,
     keyed by MD5 of the candidate's canonical text, the target language
     digest and the unambiguity flag.  A memo hit costs the same single
     tick as a miss, so [nodes_explored] and the budget replay are
     byte-identical with the memo on, off, cold or warm, at any job
     count — the memo only moves wall-clock;
   - a branch interrupted by the resource guard reports [Guarded] instead
     of unwinding the level, so completed sibling outcomes survive the
     trip and can be checkpointed.  Branch outcomes are deterministic
     functions of (level, rank, cap), which makes them safe to reload in
     a later process: the resumed replay is indistinguishable from one
     that computed every branch itself. *)
type branch_outcome =
  | Found of G.t * int  (* witness and ticks spent reaching it *)
  | Exhausted of int    (* subtree fully explored, ticks spent *)
  | Capped              (* ran out of the level's remaining budget *)
  | Cancelled           (* aborted: an earlier branch terminated the level *)
  | Guarded of Ucfg_exec.Guard.reason
      (* the resource guard tripped inside this branch: no outcome *)

exception Branch_capped
exception Branch_cancelled

let rec publish_rank terminal rank =
  let cur = Atomic.get terminal in
  if rank < cur && not (Atomic.compare_and_set terminal cur rank) then
    publish_rank terminal rank

let names k = Array.init k (fun i -> Printf.sprintf "N%d" i)

(* --- checkpoint body codec ------------------------------------------------ *)

(* CNF rules as one space-free token per rule: [T<lhs>.<charcode>] or
   [B<lhs>.<B>.<C>], ';'-joined.  Reconstruction through [G.make] with the
   same N0..Nk-1 names makes a reloaded witness byte-identical to the one
   the interrupted run would have returned. *)
let encode_rules rules =
  String.concat ";"
    (List.map
       (fun { G.lhs; rhs } ->
          match rhs with
          | [ G.T c ] -> Printf.sprintf "T%d.%d" lhs (Char.code c)
          | [ G.N b; G.N c ] -> Printf.sprintf "B%d.%d.%d" lhs b c
          | _ -> invalid_arg "Search: non-CNF rule in checkpoint")
       rules)

(* [G.make] and [Char.chr] reject an index or a code out of range *)
let nat = Checkpoint.nat ~max:max_int

let decode_rules text =
  List.map
    (fun item ->
       if item = "" then raise Checkpoint.Reject;
       let body = String.sub item 1 (String.length item - 1) in
       match (item.[0], String.split_on_char '.' body) with
       | 'T', [ a; code ] -> { G.lhs = nat a; rhs = [ G.T (Char.chr (nat code)) ] }
       | 'B', [ a; b; c ] -> { G.lhs = nat a; rhs = [ G.N (nat b); G.N (nat c) ] }
       | _ -> raise Checkpoint.Reject)
    (String.split_on_char ';' text)

(* the parameter line doubles as the checkpoint identity: a resumed run
   with any differing parameter (or target language) degrades to fresh *)
let params_line ~unambiguous ~max_nonterminals ~max_size ~budget alpha digest =
  Printf.sprintf "params cnf %b %d %d %d %s %s" unambiguous max_nonterminals
    max_size budget
    (String.concat "."
       (List.map (fun c -> string_of_int (Char.code c)) (Alphabet.chars alpha)))
    digest

(* the one set of defaults, so a checkpoint key names exactly the run that
   the same optional arguments start *)
let default_max_nonterminals = 3
let default_max_size = 12
let default_budget = 3_000_000

let checkpoint_key ?(unambiguous = false)
    ?(max_nonterminals = default_max_nonterminals)
    ?(max_size = default_max_size) ?(budget = default_budget) alpha l =
  Digest.to_hex
    (Digest.string
       (params_line ~unambiguous ~max_nonterminals ~max_size ~budget alpha
          (Lang.digest l)))

let minimal_cnf_size ?guard ?(unambiguous = false)
    ?(max_nonterminals = default_max_nonterminals)
    ?(max_size = default_max_size) ?(budget = default_budget) ?(memo = true)
    ?checkpoint ?(resume = false) alpha l =
  if Lang.mem "" l then invalid_arg "Search.minimal_cnf_size: ε not supported";
  let guard =
    match guard with
    | Some gd -> gd
    | None -> Ucfg_exec.Exec.current_guard ()
  in
  (* raw count of branch ticks across all domains — the partial progress
     reported when the guard interrupts the search mid-level.  Unlike the
     replayed [consumed] counter it is scheduling-dependent, and the
     callers label it as approximate. *)
  let explored = Atomic.make 0 in
  let max_word_len =
    List.fold_left max 0 (Lang.lengths l)
  in
  let target_digest = Lang.digest l in
  (* a checkpoint body: the replayed budget, the interrupted level and
     that level's completed branch outcomes by rank *)
  let parse_body lines =
    let consumed0 = ref 0 and level0 = ref 0 in
    let outcomes : (int, branch_outcome) Hashtbl.t = Hashtbl.create 64 in
    (* no tick count exceeds the budget, so the replay's sums cannot
       overflow *)
    let ticks = Checkpoint.nat ~max:budget in
    List.iter
      (function
        | [ "consumed"; n ] -> consumed0 := ticks n
        | [ "level"; s ] -> level0 := Checkpoint.nat ~max:max_size s
        | [ "outcome"; rank; "E"; t ] ->
          Hashtbl.replace outcomes (nat rank) (Exhausted (ticks t))
        | [ "outcome"; rank; "C" ] -> Hashtbl.replace outcomes (nat rank) Capped
        | [ "outcome"; rank; "F"; t; k; rules ] ->
          let k = Checkpoint.nat ~max:max_nonterminals k in
          let g =
            G.make ~alphabet:alpha ~names:(names k) ~rules:(decode_rules rules)
              ~start:0
          in
          Hashtbl.replace outcomes (nat rank) (Found (g, ticks t))
        | _ -> raise Checkpoint.Reject)
      lines;
    if !level0 < 1 then raise Checkpoint.Reject;
    (!consumed0, !level0, outcomes)
  in
  let session =
    Checkpoint.open_session ~dir:checkpoint ~resume
      ~params:
        (params_line ~unambiguous ~max_nonterminals ~max_size ~budget alpha
           target_digest)
      (if memo then Some (Memo.create ()) else None)
      parse_body
  in
  (* the candidate rule universe for k nonterminals, with costs; built once
     per search — the universes depend only on k, never on the size level *)
  let rules_for k =
    let terminal =
      List.concat_map
        (fun a ->
           List.map (fun c -> ({ G.lhs = a; rhs = [ G.T c ] }, 1))
             (Alphabet.chars alpha))
        (Ucfg_util.Prelude.range 0 k)
    in
    let binary =
      List.concat_map
        (fun a ->
           List.concat_map
             (fun b ->
                List.map
                  (fun c -> ({ G.lhs = a; rhs = [ G.N b; G.N c ] }, 2))
                  (Ucfg_util.Prelude.range 0 k))
             (Ucfg_util.Prelude.range 0 k))
        (Ucfg_util.Prelude.range 0 k)
    in
    Array.of_list (terminal @ binary)
  in
  let universes = Array.init (max_nonterminals + 1) rules_for in
  let accepts_exactly ~tick rules k =
    tick ();
    let g = G.make ~alphabet:alpha ~names:(names k) ~rules ~start:0 in
    let decide () =
      match
        Analysis.language ~guard ~max_len:max_word_len
          ~max_card:(4 * Lang.cardinal l + 16) g
      with
      | Error _ -> false
      | Ok lg ->
        Lang.equal lg l
        && (not unambiguous
            || (Facts.has_finitely_many_trees g ~useful:(Trim.useful g)
                && Ambiguity.is_unambiguous ~guard g))
    in
    (* Canon-identical candidates share one verdict across branches,
       nonterminal counts, domains and resumed runs; the single tick above
       is paid either way, so the memo is invisible to the deterministic
       node accounting *)
    Memo.verdict session.memo
      (lazy
        (Digest.to_hex
           (Digest.string
              (String.concat "\x00"
                 [ Canon.canonical g; target_digest;
                   (if unambiguous then "u" else "p") ]))))
      decide
  in
  (* all rule sets of cost exactly [s] over [universe] whose first rule is
     [first]; ticks are branch-local so the count is schedule-independent *)
  let run_branch ~k ~universe ~s ~cap ~terminal ~rank ~first () =
    let ticks = ref 0 in
    let tick () =
      Ucfg_exec.Guard.tick guard;
      Atomic.incr explored;
      if Atomic.get terminal < rank then raise Branch_cancelled;
      incr ticks;
      if !ticks > cap then raise Branch_capped
    in
    let len = Array.length universe in
    let rec dfs idx remaining chosen =
      tick ();
      if remaining = 0 then begin
        if accepts_exactly ~tick (List.rev chosen) k then
          Some
            (G.make ~alphabet:alpha ~names:(names k) ~rules:(List.rev chosen)
               ~start:0)
        else None
      end
      else if idx >= len then None
      else begin
        let rule, cost = universe.(idx) in
        let hit =
          if cost <= remaining then dfs (idx + 1) (remaining - cost) (rule :: chosen)
          else None
        in
        match hit with Some _ -> hit | None -> dfs (idx + 1) remaining chosen
      end
    in
    let rule, cost = universe.(first) in
    match dfs (first + 1) (s - cost) [ rule ] with
    | Some g ->
      publish_rank terminal rank;
      Found (g, !ticks)
    | None -> Exhausted !ticks
    | exception Branch_capped ->
      publish_rank terminal rank;
      Capped
    | exception Branch_cancelled -> Cancelled
    | exception Ucfg_exec.Guard.Interrupt r ->
      (* keep the level alive: completed siblings still report, and the
         checkpoint below records them.  The root reason is CAS-recorded,
         so every Guarded branch carries the same kind. *)
      Guarded r
  in
  let consumed =
    ref (match session.restored with Some (c, _, _) -> c | None -> 0)
  in
  let empty_stored : (int, branch_outcome) Hashtbl.t = Hashtbl.create 1 in
  let run_level ~stored s =
    let level_start = !consumed in
    let cap = budget - level_start in
    let branches =
      List.concat_map
        (fun k ->
           let universe = universes.(k) in
           List.filter_map
             (fun i ->
                if snd universe.(i) <= s then Some (k, universe, i) else None)
             (Ucfg_util.Prelude.range 0 (Array.length universe)))
        (Ucfg_util.Prelude.range_incl 1 max_nonterminals)
    in
    (* the lowest checkpointed terminal rank: fresh branches strictly to
       its right can never be consulted by the replay, so they are not
       even scheduled *)
    let stored_terminal =
      Hashtbl.fold
        (fun rank o acc ->
           match o with Found _ | Capped -> min rank acc | _ -> acc)
        stored max_int
    in
    let terminal = Atomic.make stored_terminal in
    let outcomes =
      Ucfg_exec.Exec.run_list
        (List.mapi
           (fun rank (k, universe, first) () ->
              match Hashtbl.find_opt stored rank with
              | Some o -> o
              | None ->
                if rank > stored_terminal then Cancelled
                else run_branch ~k ~universe ~s ~cap ~terminal ~rank ~first ())
           branches)
    in
    let rec replay acc = function
      | [] -> `Exhausted acc
      | Found (g, t) :: _ ->
        if acc + t <= cap then `Found (g, acc + t) else `Out_of_budget
      | Exhausted t :: rest ->
        if acc + t <= cap then replay (acc + t) rest else `Out_of_budget
      | Capped :: _ -> `Out_of_budget
      | Guarded r :: _ -> `Guarded r
      | Cancelled :: _ ->
        (* unreachable: a cancelled branch is always preceded in frontier
           order by a Found or Capped branch, where the replay stops *)
        assert false
    in
    match replay 0 outcomes with
    | `Found (g, d) ->
      consumed := level_start + d;
      `Found g
    | `Exhausted d ->
      consumed := level_start + d;
      `Done
    | `Out_of_budget -> `Out_of_budget
    | `Guarded r ->
      (* [consumed] still holds the level-start value: an incomplete level
         commits nothing, the resumed replay re-accounts it in full *)
      `Guarded (r, outcomes)
  in
  (* scheduling-dependent non-outcomes (Cancelled, Guarded) are never
     persisted *)
  let trip s outcomes =
    Checkpoint.trip session
      (Printf.sprintf "consumed %d" !consumed
       :: Printf.sprintf "level %d" s
       :: List.filter_map Fun.id
            (List.mapi
               (fun rank -> function
                  | Exhausted t ->
                    Some (Printf.sprintf "outcome %d E %d" rank t)
                  | Capped -> Some (Printf.sprintf "outcome %d C" rank)
                  | Found (g, t) ->
                    Some
                      (Printf.sprintf "outcome %d F %d %d %s" rank t
                         (G.nonterminal_count g) (encode_rules (G.rules g)))
                  | Cancelled | Guarded _ -> None)
               outcomes))
  in
  let rec over_sizes s =
    if s > max_size then `Complete (None, None, false, !consumed)
    else begin
      let stored =
        match session.restored with
        | Some (_, s0, tbl) when s0 = s -> tbl
        | _ -> empty_stored
      in
      match run_level ~stored s with
      | `Found g -> `Complete (Some s, Some g, false, !consumed)
      | `Out_of_budget ->
        (* the sequential counter raises the moment it passes the budget *)
        `Complete (None, None, true, budget + 1)
      | `Guarded (r, outcomes) -> `Interrupted (r, trip s outcomes)
      | `Done -> over_sizes (s + 1)
    end
  in
  let start_level =
    match session.restored with Some (_, s0, _) -> s0 | None -> 1
  in
  let outcome =
    (* branches catch their own Interrupts; this backstop covers a trip in
       the orchestration itself (no level in flight, nothing to checkpoint) *)
    try over_sizes start_level
    with Ucfg_exec.Guard.Interrupt r -> `Interrupted (r, None)
  in
  let record (minimal_size, witness, budget_exhausted, nodes_explored)
      interrupted checkpoint_written =
    let memo_hits, memo_misses = Checkpoint.memo_counts session in
    { minimal_size; witness; nodes_explored; budget_exhausted; interrupted;
      memo_hits; memo_misses; resumed = Option.is_some session.restored;
      checkpoint_written; checkpoint_warning = session.warning }
  in
  match outcome with
  | `Complete fields ->
    Checkpoint.finish session;
    record fields None None
  | `Interrupted (r, written) ->
    record (None, None, false, Atomic.get explored) (Some r) written
