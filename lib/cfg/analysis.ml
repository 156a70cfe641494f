open Ucfg_lang
open Grammar
module Bignum = Ucfg_util.Bignum

type overflow = [ `Length_exceeded of int | `Card_exceeded of int ]

exception Overflowed of overflow

(* --- exact language ------------------------------------------------------ *)

(* below this many (u, v) pairs a concatenation step stays sequential *)
let par_pair_threshold = 1 lsl 12

let language_table ?guard ?(packed = true) ?(factored = false)
    ?(acyclic = false) ?(seeds = [||]) ?(max_len = 64)
    ?(max_card = 2_000_000) g =
  let guard =
    match guard with
    | Some gd -> gd
    | None -> Ucfg_exec.Exec.current_guard ()
  in
  let n = nonterminal_count g in
  let sets = Array.make n Lang.empty in
  (* a seeded nonterminal's denotation is pinned: its entry starts at the
     seed and its rules are never applied — the incremental-recomputation
     hook (Extract re-runs the fixpoint dozens of times on a shrinking
     grammar whose languages only change above the deleted nonterminal) *)
  let seeded i = i < Array.length seeds && Option.is_some seeds.(i) in
  (* concatenate the denotations of a right-hand side, truncating words
     longer than [max_len] (and recording the truncation) *)
  let truncated = ref false in
  (* with [packed = false] the seeds stay set-backed, so every derived
     language does too and the fixpoint follows the pre-packed baseline;
     with [factored = true] they start on tier T2 and the whole fixpoint
     runs on circuits — languages of 4^16 words never enumerate *)
  let seed l =
    if factored then Lang.factor l else if packed then l else Lang.unpack l
  in
  (* the [max_card] cap bounds *memory*: on the enumerated representations
     that is the cardinal; on tier T2 it is the circuit's node count (a
     factorised language of billions of words can be a few-hundred-
     thousand-node DAG, which is the whole point of the tier) *)
  let size_proxy merged =
    match Lang.to_factored merged with
    | Some f ->
      if factored then Factored.node_count ~guard f
      else
        Option.value ~default:max_int (Factored.cardinal_int ~guard f)
    | None -> Lang.cardinal merged
  in
  for i = 0 to min n (Array.length seeds) - 1 do
    match seeds.(i) with Some l -> sets.(i) <- seed l | None -> ()
  done;
  let denote_sym = function
    | T c -> seed (Lang.singleton (String.make 1 c))
    | N i -> sets.(i)
  in
  (* acc · s, the hot inner step: large products are partitioned over the
     left words across domains — the union of the per-chunk sets and the
     or of the per-chunk truncation flags do not depend on the partition,
     so the result is identical to the sequential fold *)
  let concat_step_sets acc s =
    let concat_chunk us =
      let trunc = ref false in
      let set =
        List.fold_left
          (fun out u ->
             Ucfg_exec.Guard.tick guard;
             Lang.fold
               (fun v out ->
                  let w = u ^ v in
                  if String.length w > max_len then begin
                    trunc := true;
                    out
                  end
                  else Lang.add w out)
               s out)
          Lang.empty us
      in
      (set, !trunc)
    in
    if
      Ucfg_exec.Exec.jobs () <= 1
      || Lang.cardinal acc * Lang.cardinal s < par_pair_threshold
    then begin
      let set, trunc = concat_chunk (Lang.elements acc) in
      if trunc then truncated := true;
      set
    end
    else
      Ucfg_exec.Exec.parallel_map concat_chunk
        (Ucfg_exec.Exec.chunks (Lang.elements acc))
      |> List.fold_left
        (fun out (set, trunc) ->
           if trunc then truncated := true;
           Lang.union out set)
        Lang.empty
  in
  (* uniform length of a tiered operand — O(1); [None] on the set form *)
  let tier_len l =
    match Lang.tier l with `Set -> None | _ -> Lang.uniform_length l
  in
  let concat_step acc s =
    match tier_len acc, tier_len s with
    | Some la, Some lb ->
      if la + lb > max_len then begin
        (* both operands are uniform-length, so the cutoff the set path
           applies per word is all-or-nothing here *)
        truncated := true;
        Lang.empty
      end
      else
        (* the tiered product: T0 sorted machine-integer codes end to end
           (chunked over domains inside Lang.concat when large), T1
           multi-limb codes, or — when either side is factorised or the
           product cardinality is huge — a T2 circuit substitution *)
        Lang.concat acc s
    | _ -> concat_step_sets acc s
  in
  let concat_all rhs =
    List.fold_left
      (fun acc sym -> concat_step acc (denote_sym sym))
      (seed (Lang.singleton "")) rhs
  in
  let apply_rule { lhs; rhs } =
    Ucfg_exec.Guard.tick guard;
    if seeded lhs then false
    else begin
      let add = concat_all rhs in
      let merged = Lang.union sets.(lhs) add in
      if Lang.equal merged sets.(lhs) then false
      else begin
        sets.(lhs) <- merged;
        if size_proxy merged > max_card then
          raise (Overflowed (`Card_exceeded max_card));
        true
      end
    end
  in
  try
    (match
       if acyclic then Some (Facts.postorder g) else Facts.topological_order g
     with
     | Some order ->
       (* acyclic: one bottom-up pass in dependency order suffices *)
       List.iter
         (fun a ->
            if not (seeded a) then
              List.iter
                (fun rhs -> ignore (apply_rule { lhs = a; rhs }))
                (rules_of g a))
         order
     | None ->
       let changed = ref true in
       while !changed do
         Ucfg_exec.Guard.check guard;
         changed := false;
         List.iter (fun r -> if apply_rule r then changed := true) (rules g)
       done);
    if !truncated then Error (`Length_exceeded max_len) else Ok sets
  with Overflowed o -> Error o

let language ?guard ?packed ?factored ?acyclic ?seeds ?max_len ?max_card g =
  Result.map
    (fun sets -> sets.(start g))
    (language_table ?guard ?packed ?factored ?acyclic ?seeds ?max_len ?max_card
       g)

let overflow_exn = function
  | Ok v -> v
  | Error (`Length_exceeded n) ->
    invalid_arg (Printf.sprintf "Analysis.language: word length above %d" n)
  | Error (`Card_exceeded n) ->
    invalid_arg (Printf.sprintf "Analysis.language: more than %d words" n)

let language_exn ?guard ?packed ?factored ?acyclic ?seeds ?max_len ?max_card
    g =
  overflow_exn
    (language ?guard ?packed ?factored ?acyclic ?seeds ?max_len ?max_card g)

let language_table_exn ?guard ?packed ?factored ?acyclic ?seeds ?max_len
    ?max_card g =
  overflow_exn
    (language_table ?guard ?packed ?factored ?acyclic ?seeds ?max_len ?max_card
       g)

let count_trees_total g =
  match Trim.acyclic_trim g with
  | None ->
    invalid_arg "Analysis.count_trees_total: infinitely many parse trees"
  | Some (g, order) ->
    let memo = Array.make (nonterminal_count g) Bignum.zero in
    List.iter
      (fun a ->
         let per_rule rhs =
           List.fold_left
             (fun acc sym ->
                match sym with
                | T _ -> acc
                | N i -> Bignum.mul acc memo.(i))
             Bignum.one rhs
         in
         memo.(a) <- Bignum.sum (List.map per_rule (rules_of g a)))
      order;
    memo.(start g)

let fixed_lengths g =
  match Trim.acyclic_trim g with
  | None -> invalid_arg "Analysis.fixed_lengths: cyclic grammar"
  | Some (g, order) ->
    let lens = Array.make (nonterminal_count g) (-1) in
    let consistent = ref true in
    List.iter
      (fun a ->
         List.iter
           (fun rhs ->
              let len =
                List.fold_left
                  (fun acc sym ->
                     match sym with T _ -> acc + 1 | N i -> acc + lens.(i))
                  0 rhs
              in
              if lens.(a) < 0 then lens.(a) <- len
              else if lens.(a) <> len then consistent := false)
           (rules_of g a))
      order;
    if !consistent then Some (g, lens) else None

let witness_tree g a =
  let depth = Facts.min_depth g in
  if depth.(a) >= Facts.unproductive_depth then None
  else begin
    let rec build a =
      (* a depth-minimal rule guarantees termination even on cyclic
         grammars *)
      let best =
        List.fold_left
          (fun best rhs ->
             let d = Facts.rhs_depth depth rhs in
             match best with
             | Some (bd, _) when bd <= d -> best
             | _ when d < Facts.unproductive_depth -> Some (d, rhs)
             | _ -> best)
          None (rules_of g a)
      in
      match best with
      | None -> assert false
      | Some (_, rhs) ->
        Parse_tree.Node
          ( a,
            List.map
              (function T c -> Parse_tree.Leaf c | N i -> build i)
              rhs )
    in
    Some (build a)
  end

let witness_word g =
  Option.map Parse_tree.yield (witness_tree g (start g))
