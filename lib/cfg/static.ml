open Grammar

(* --- derived-length ranges (acyclic only) -------------------------------- *)

(* word lengths of an acyclic grammar can still be astronomically large
   (lengths multiply down the DAG), so additions saturate *)
let len_cap = max_int / 4

let ( +! ) a b = if a >= len_cap - b then len_cap else a + b

let length_ranges g order =
  let n = nonterminal_count g in
  let ranges = Array.make n None in
  List.iter
    (fun a ->
       List.iter
         (fun rhs ->
            let range =
              List.fold_left
                (fun acc sym ->
                   match (acc, sym) with
                   | None, _ -> None
                   | Some (lo, hi), T _ -> Some (lo +! 1, hi +! 1)
                   | Some (lo, hi), N i ->
                     (match ranges.(i) with
                      | None -> None
                      | Some (lo', hi') -> Some (lo +! lo', hi +! hi')))
                (Some (0, 0)) rhs
            in
            match (range, ranges.(a)) with
            | None, _ -> ()
            | Some r, None -> ranges.(a) <- Some r
            | Some (lo, hi), Some (lo', hi') ->
              ranges.(a) <- Some (min lo lo', max hi hi'))
         (rules_of g a))
    order;
  ranges

(* --- the unambiguity certificate ----------------------------------------- *)

(* On a trimmed acyclic grammar, unambiguity follows when, for every
   nonterminal A,
     (i)  at most one rule of A is nullable — so ε determines its rule;
     (ii) the FIRST sets of A's rules are pairwise disjoint — so the first
          letter of a nonempty word determines its rule;
     (iii) every rule has at most one variable-length symbol — so, the
          rule being fixed, the word length forces every split point.
   Induction on derivation depth then gives a unique tree per word. *)
let certificate_trimmed g order =
  let nullable = Facts.nullable g in
  let first = Facts.first_sets g ~nullable in
  let ranges = length_ranges g order in
  let variable = function
    | T _ -> false
    | N i -> (match ranges.(i) with None -> true | Some (lo, hi) -> lo <> hi)
  in
  let nt_ok a =
    let rhss = rules_of g a in
    List.length (List.filter (Facts.rhs_nullable nullable) rhss) <= 1
    && Facts.first_overlap
         (List.map (Facts.rhs_first ~nullable ~first) rhss) = None
    && List.for_all
         (fun rhs -> List.length (List.filter variable rhs) <= 1)
         rhss
  in
  List.for_all nt_ok (List.init (nonterminal_count g) Fun.id)

let certificate g =
  match Trim.acyclic_trim g with
  | Some (g, order) -> certificate_trimmed g order
  | None -> false

(* --- the bounded tree-count probe ---------------------------------------- *)

module Smap = Map.Make (String)

(* counts saturate well below the int overflow threshold of products *)
let count_cap = 1 lsl 30

let sat_add a b = if a >= count_cap - b then count_cap else a + b
let sat_mul a b = if a >= count_cap || b >= count_cap then count_cap
  else Stdlib.min count_cap (a * b)

let truncate_map k m =
  if Smap.cardinal m <= k then m
  else
    (* keep the lexicographically least k words: deterministic, and
       truncation only drops words, never lowers a kept count *)
    fst
      (Smap.fold
         (fun w c (acc, cnt) ->
            if cnt < k then (Smap.add w c acc, cnt + 1) else (acc, cnt))
         m (Smap.empty, 0))

(* per nonterminal, the probe keeps at most this many words, of at most
   this length *)
let max_words = 64
let max_len = 64

let probe g order =
  let n = nonterminal_count g in
  let counts = Array.make n Smap.empty in
  let witness = ref None in
  let combine acc sym_map =
    Smap.fold
      (fun u cu acc ->
         Smap.fold
           (fun v cv acc ->
              let w = u ^ v in
              if String.length w > max_len then acc
              else
                let c = sat_mul cu cv in
                Smap.update w
                  (function None -> Some c | Some c' -> Some (sat_add c c'))
                  acc)
           sym_map acc)
      acc Smap.empty
  in
  List.iter
    (fun a ->
       let m =
         List.fold_left
           (fun acc rhs ->
              let rule_map =
                List.fold_left
                  (fun acc sym ->
                     let sym_map =
                       match sym with
                       | T c -> Smap.singleton (String.make 1 c) 1
                       | N i -> counts.(i)
                     in
                     combine acc sym_map)
                  (Smap.singleton "" 1) rhs
              in
              Smap.union (fun _ c c' -> Some (sat_add c c')) acc rule_map)
           Smap.empty (rules_of g a)
       in
       let m = truncate_map max_words m in
       counts.(a) <- m;
       if !witness = None then
         Smap.iter
           (fun w c -> if c >= 2 && !witness = None then
               witness := Some (name g a, w))
           m)
    order;
  !witness

(* --- the combined verdict ------------------------------------------------ *)

type verdict =
  | Unambiguous
  | Ambiguous of { nonterminal : string; word : string }
  | Unknown

let verdict g =
  match Trim.acyclic_trim g with
  | None -> Unknown
  | Some (g, order) ->
    if certificate_trimmed g order then Unambiguous
    else
      match probe g order with
      | Some (nonterminal, word) -> Ambiguous { nonterminal; word }
      | None -> Unknown
