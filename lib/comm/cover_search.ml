open Ucfg_rect
module IntSet = Set.Make (Int)
module Memo = Ucfg_exec.Memo
module Checkpoint = Ucfg_exec.Checkpoint

type outcome =
  | Exact of int
  | Budget_exhausted of int
  | Interrupted of int * Ucfg_exec.Guard.reason

type run = {
  outcome : outcome;
  nodes : int;
  memo_hits : int;
  memo_misses : int;
  resumed : bool;
  checkpoint_written : string option;
  checkpoint_warning : string option;
}

exception Out_of_budget

(* all subsets of a list, lazily: the eager version materialised all 2^n
   lists up front with quadratic append copying; this one streams them in
   the same order, so consumers tick-poll as they go and short-circuit
   without paying for the unvisited tail *)
let rec subsets = function
  | [] -> Seq.return []
  | x :: rest ->
    let s = subsets rest in
    Seq.append s (Seq.map (fun l -> x :: l) s)

let minimum_run ?guard ?(budget = 2_000_000) ?(memo = true) ?checkpoint
    ?(resume = false) ~n target =
  let guard =
    match guard with
    | Some gd -> gd
    | None -> Ucfg_exec.Exec.current_guard ()
  in
  let partitions = List.mapi (fun i p -> (i, p)) (Partition.all_balanced ~n) in
  let target_set = IntSet.of_list target in
  let set_text s =
    String.concat "," (List.map string_of_int (IntSet.elements s))
  in
  let params =
    Printf.sprintf "params cover %d %d %s" n budget
      (Digest.to_hex (Digest.string (set_text target_set)))
  in
  (* the refuted cursor and the transposition entries survive a trip: a
     resumed run skips the already-refuted sizes and replays none of the
     recorded subtree verdicts.  Singletons cover any target, so a cursor
     at or past its size is impossible. *)
  let session =
    Checkpoint.open_session ~dir:checkpoint ~resume ~params
      (if memo then Some (Memo.create ()) else None)
      (List.fold_left
         (fun _ -> function
            | [ "refuted"; k ] ->
              Checkpoint.nat ~max:(IntSet.cardinal target_set - 1) k
            | _ -> raise Checkpoint.Reject)
         0)
  in
  let nodes = ref 0 in
  let tick () =
    Ucfg_exec.Guard.tick guard;
    incr nodes;
    if !nodes > budget then raise Out_of_budget
  in
  (* maximal candidate rectangles for one balanced partition [p]: contain
     the element [w], lie inside [remaining]; exhaustive over component
     subsets, streamed lazily *)
  let partition_candidates p remaining w =
    let ins = Partition.inside p and out = Partition.outside p in
    let o_w = w land out and i_w = w land ins in
    (* values occurring in remaining *)
    let outers = Hashtbl.create 16 and inners = Hashtbl.create 16 in
    IntSet.iter
      (fun m ->
         Hashtbl.replace outers (m land out) ();
         Hashtbl.replace inners (m land ins) ())
      remaining;
    let outer_vals =
      Hashtbl.fold (fun k () acc -> if k <> o_w then k :: acc else acc)
        outers []
    in
    let inner_vals =
      Hashtbl.fold (fun k () acc -> if k <> i_w then k :: acc else acc)
        inners []
    in
    if List.length outer_vals > 10 || List.length inner_vals > 10 then
      raise Out_of_budget
    else
      Seq.concat_map
        (fun os ->
           let os = o_w :: os in
           Seq.filter_map
             (fun is ->
                let is = i_w :: is in
                tick ();
                let members =
                  List.concat_map (fun o -> List.map (fun i -> o lor i) is) os
                in
                if List.for_all (fun m -> IntSet.mem m remaining) members
                then Some (IntSet.of_list members)
                else None)
             (subsets inner_vals))
        (subsets outer_vals)
  in
  (* iterative deepening revisits the same [remaining] at every depth
     bound, so per-(partition, remaining) candidate lists are cached once
     complete; [w] is determined by [remaining] (its minimum).  A cached
     partition costs no ticks on revisit — the work was already paid. *)
  let cand_cache : (int * int list, IntSet.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let candidates remaining w =
    Seq.concat_map
      (fun (pi, p) ->
         if memo then begin
           let key = (pi, IntSet.elements remaining) in
           match Hashtbl.find_opt cand_cache key with
           | Some lst -> List.to_seq lst
           | None ->
             let lst = List.of_seq (partition_candidates p remaining w) in
             Hashtbl.add cand_cache key lst;
             List.to_seq lst
         end
         else partition_candidates p remaining w)
      (List.to_seq partitions)
  in
  let trans_key remaining k =
    Digest.to_hex
      (Digest.string (Printf.sprintf "%d:%s" k (set_text remaining)))
  in
  (* depth-limited DFS: can [remaining] be covered with [k] rectangles?
     The verdict is a deterministic function of (remaining, k), so
     completed verdicts go through the transposition table; aborted
     subtrees (budget, guard, width bailout) raise past it and are never
     recorded *)
  let rec covers remaining k =
    tick ();
    if IntSet.is_empty remaining then true
    else if k = 0 then false
    else begin
      let decide () =
        let w = IntSet.min_elt remaining in
        Seq.exists
          (fun members -> covers (IntSet.diff remaining members) (k - 1))
          (candidates remaining w)
      in
      Memo.verdict session.memo (lazy (trans_key remaining k)) decide
    end
  in
  let start_refuted = Option.value session.restored ~default:0 in
  let refuted = ref start_refuted in
  let result outcome checkpoint_written =
    let memo_hits, memo_misses = Checkpoint.memo_counts session in
    { outcome; nodes = !nodes; memo_hits; memo_misses;
      resumed = Option.is_some session.restored; checkpoint_written;
      checkpoint_warning = session.warning }
  in
  let finish outcome =
    Checkpoint.finish session;
    result outcome None
  in
  let trip outcome =
    result outcome
      (Checkpoint.trip session [ Printf.sprintf "refuted %d" !refuted ])
  in
  try
    if IntSet.is_empty target_set then finish (Exact 0)
    else begin
      let rec loop k =
        if covers target_set k then finish (Exact k)
        else begin
          refuted := k;
          loop (k + 1)
        end
      in
      loop (start_refuted + 1)
    end
  with
  | Out_of_budget -> trip (Budget_exhausted (!refuted + 1))
  | Ucfg_exec.Guard.Interrupt r -> trip (Interrupted (!refuted + 1, r))

let minimum ?guard ?budget ?memo ?checkpoint ?resume ~n target =
  (minimum_run ?guard ?budget ?memo ?checkpoint ?resume ~n target).outcome

let minimum_ln ?guard ?budget n =
  minimum ?guard ?budget ~n (List.of_seq (Ucfg_lang.Ln.codes n))
