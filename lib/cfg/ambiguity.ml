open Ucfg_lang
module Bignum = Ucfg_util.Bignum

type method_ = Certificate | Static_witness of string | Counting

type verdict = {
  unambiguous : bool;
  total_trees : Bignum.t option;
  word_count : int option;
  via : method_;
}

let check_by_counting ?guard ?factored ?max_len ?max_card g =
  (* the exhaustive path: materialising the language dominates, and
     [Analysis.language] partitions its concatenation steps across the
     [Ucfg_exec] domain pool (or, with [~factored:true], runs entirely on
     tier-T2 circuits whose cardinals are exact model counts); the tree
     total is a cheap polynomial DP *)
  let lang = Analysis.language_exn ?guard ?factored ?max_len ?max_card g in
  let words = Lang.cardinal_big lang in
  let total_trees = Analysis.count_trees_total g in
  let unambiguous = Bignum.equal total_trees words in
  {
    unambiguous;
    total_trees = Some total_trees;
    word_count = Bignum.to_int words;
    via = Counting;
  }

let check ?guard ?factored ?max_len ?max_card ?(fast = true) g =
  match Trim.acyclic_trim g with
  | None ->
    (* a trimmed grammar with a dependency cycle pumps parse trees;
       infinitely many trees over finitely many words forces a word with
       two trees (the trimmed grammar is non-empty, else it is acyclic) *)
    invalid_arg "Ambiguity.check: infinitely many parse trees (grammar is \
                 trivially ambiguous on a finite language)"
  | Some (g, _) ->
    match if fast then Static.verdict g else Static.Unknown with
    | Static.Unambiguous ->
      (* certified unambiguous: every word has exactly one tree, so the
         polynomial tree-count DP doubles as the word count — the language
         is never materialised *)
      let total = Analysis.count_trees_total g in
      {
        unambiguous = true;
        total_trees = Some total;
        word_count = Bignum.to_int total;
        via = Certificate;
      }
    | Static.Ambiguous { word; _ } ->
      (* a sound witness: no need to enumerate anything *)
      {
        unambiguous = false;
        total_trees = None;
        word_count = None;
        via = Static_witness word;
      }
    | Static.Unknown -> check_by_counting ?guard ?factored ?max_len ?max_card g

let is_unambiguous ?guard ?factored ?max_len ?max_card ?fast g =
  (check ?guard ?factored ?max_len ?max_card ?fast g).unambiguous

type profile = {
  word_total : int;
  ambiguous_words : int;
  max_trees : Bignum.t;
  histogram : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Tree census: per-word parse-tree multiplicities for the whole grammar
   in one bottom-up sweep, instead of one CYK table per word.  A weighted
   language maps each derivable word to its number of parse trees; rule
   concatenation convolves the weights and alternatives add them.  On
   uniform-length binary languages the words are packed machine codes
   ({!Ucfg_lang.Packed}) and a rule product is a sorted merge of code
   blocks — the same kernel the language fixpoint runs on. *)

module Census = struct
  type t =
    | Packed of { len : int; codes : int array; counts : Bignum.t array }
        (** codes strictly increasing *)
    | Set of (string, Bignum.t) Hashtbl.t

  let to_set = function
    | Set h -> h
    | Packed { len; codes; counts } ->
      let h = Hashtbl.create (Array.length codes) in
      Array.iteri
        (fun i c ->
           Hashtbl.replace h (Ucfg_lang.Packed.word_of_code ~len c) counts.(i))
        codes;
      h

  let of_word w c =
    if
      String.length w <= Ucfg_lang.Packed.max_length
      && String.for_all (fun ch -> ch = 'a' || ch = 'b') w
    then
      Packed
        {
          len = String.length w;
          codes = [| Ucfg_lang.Packed.code_of_word w |];
          counts = [| c |];
        }
    else begin
      let h = Hashtbl.create 1 in
      Hashtbl.replace h w c;
      Set h
    end

  (* weighted concatenation (one rule product step) *)
  let concat a b =
    match a, b with
    | ( Packed { len = la; codes = ca; counts = wa },
        Packed { len = lb; codes = cb; counts = wb } )
      when la + lb <= Ucfg_lang.Packed.max_length ->
      (* codes concatenate as [cu lsl lb lor cv]: for each u in order the
         block over v is ascending, and blocks for successive u are
         disjoint and ascending — the product is born sorted *)
      let na = Array.length ca and nb = Array.length cb in
      let codes = Array.make (na * nb) 0 in
      let counts = Array.make (na * nb) Bignum.zero in
      let k = ref 0 in
      for i = 0 to na - 1 do
        let hi = ca.(i) lsl lb in
        for j = 0 to nb - 1 do
          codes.(!k) <- hi lor cb.(j);
          counts.(!k) <- Bignum.mul wa.(i) wb.(j);
          incr k
        done
      done;
      Packed { len = la + lb; codes; counts }
    | _ ->
      let ha = to_set a and hb = to_set b in
      let h = Hashtbl.create (Hashtbl.length ha * Hashtbl.length hb) in
      Hashtbl.iter
        (fun u cu ->
           Hashtbl.iter
             (fun v cv ->
                let w = u ^ v in
                let prev = Option.value ~default:Bignum.zero (Hashtbl.find_opt h w) in
                Hashtbl.replace h w (Bignum.add prev (Bignum.mul cu cv)))
             hb)
        ha;
      Set h

  let is_empty = function
    | Packed { codes; _ } -> Array.length codes = 0
    | Set h -> Hashtbl.length h = 0

  (* weighted union (sum of the rule alternatives) *)
  let add a b =
    if is_empty a then b
    else if is_empty b then a
    else
    match a, b with
    | ( Packed { len = la; codes = ca; counts = wa },
        Packed { len = lb; codes = cb; counts = wb } )
      when la = lb ->
      let na = Array.length ca and nb = Array.length cb in
      let codes = Array.make (na + nb) 0 in
      let counts = Array.make (na + nb) Bignum.zero in
      let k = ref 0 and i = ref 0 and j = ref 0 in
      while !i < na && !j < nb do
        let x = ca.(!i) and y = cb.(!j) in
        if x < y then begin
          codes.(!k) <- x; counts.(!k) <- wa.(!i); incr i
        end
        else if y < x then begin
          codes.(!k) <- y; counts.(!k) <- wb.(!j); incr j
        end
        else begin
          codes.(!k) <- x;
          counts.(!k) <- Bignum.add wa.(!i) wb.(!j);
          incr i; incr j
        end;
        incr k
      done;
      while !i < na do codes.(!k) <- ca.(!i); counts.(!k) <- wa.(!i); incr i; incr k done;
      while !j < nb do codes.(!k) <- cb.(!j); counts.(!k) <- wb.(!j); incr j; incr k done;
      if !k = na + nb then Packed { len = la; codes; counts }
      else
        Packed
          { len = la; codes = Array.sub codes 0 !k; counts = Array.sub counts 0 !k }
    | _ ->
      let ha = to_set a in
      let hb = to_set b in
      let h = Hashtbl.copy ha in
      Hashtbl.iter
        (fun w c ->
           let prev = Option.value ~default:Bignum.zero (Hashtbl.find_opt h w) in
           Hashtbl.replace h w (Bignum.add prev c))
        hb;
      Set h

  let empty () = Set (Hashtbl.create 1)

  (* iterate in word order (packed code order = lexicographic order) *)
  let iter f = function
    | Packed { len; codes; counts } ->
      Array.iteri
        (fun i c -> f (Ucfg_lang.Packed.word_of_code ~len c) counts.(i))
        codes
    | Set h ->
      Hashtbl.fold (fun w c acc -> (w, c) :: acc) h []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (w, c) -> f w c)
end

(* per-nonterminal census over the (acyclic) dependency graph; the guard
   is polled before every weighted concatenation, the quadratic step *)
let census guard g order =
  let counts = Array.make (Grammar.nonterminal_count g) (Census.empty ()) in
  List.iter
    (fun a ->
       let total =
         List.fold_left
           (fun acc rhs ->
              let product =
                List.fold_left
                  (fun acc sym ->
                     if Census.is_empty acc then acc
                     else begin
                       Ucfg_exec.Guard.tick guard;
                       Census.concat acc
                         (match sym with
                          | Grammar.T c ->
                            Census.of_word (String.make 1 c) Bignum.one
                          | Grammar.N b -> counts.(b))
                     end)
                  (Census.of_word "" Bignum.one)
                  rhs
              in
              Census.add acc product)
           (Census.empty ())
           (Grammar.rules_of g a)
       in
       counts.(a) <- total)
    order;
  counts.(Grammar.start g)

let profile ?guard ?factored ?max_len ?max_card g =
  let guard =
    match guard with
    | Some gd -> gd
    | None -> Ucfg_exec.Exec.current_guard ()
  in
  let g = Trim.trim g in
  let lang = Analysis.language_exn ~guard ?factored ?max_len ?max_card g in
  let g, order =
    match Trim.acyclic_trim g with
    | Some trimmed -> trimmed
    | None -> invalid_arg "Ambiguity.profile: infinitely many parse trees"
  in
  let hist = Hashtbl.create 16 in
  let max_trees = ref Bignum.zero in
  let ambiguous_words = ref 0 in
  (* one censused sweep over the grammar replaces a per-word CYK table;
     the result is deterministic (no pool involvement) and identical to
     counting each word separately — property-tested against
     {!Count_word.trees_with} *)
  Census.iter
    (fun _w c ->
       if Bignum.compare c Bignum.one > 0 then incr ambiguous_words;
       if Bignum.compare c !max_trees > 0 then max_trees := c;
       let key = Bignum.to_string c in
       Hashtbl.replace hist key
         (1 + Option.value ~default:0 (Hashtbl.find_opt hist key)))
    (census guard g order);
  let histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
    |> List.sort (fun (a, _) (b, _) ->
        compare (Bignum.of_string a) (Bignum.of_string b))
  in
  {
    word_total = Lang.cardinal lang;
    ambiguous_words = !ambiguous_words;
    max_trees = !max_trees;
    histogram;
  }

let ambiguous_witness ?guard ?factored ?max_len ?max_card ?(fast = true) g =
  let guard =
    match guard with
    | Some gd -> gd
    | None -> Ucfg_exec.Exec.current_guard ()
  in
  match Trim.acyclic_trim g with
  | None ->
    invalid_arg "Ambiguity.ambiguous_witness: infinitely many parse trees"
  | Some (g, _) ->
    match if fast then Static.verdict g else Static.Unknown with
    | Static.Ambiguous { word; _ } -> Some word
    | Static.Unambiguous -> None
    | Static.Unknown ->
      let lang = Analysis.language_exn ~guard ?factored ?max_len ?max_card g in
      (* candidate words are scanned in parallel chunks; [parallel_find_map]
         returns the first hit in word order, matching the sequential scan.
         One compiled plan serves every candidate. *)
      let p = Count_word.plan g in
      Ucfg_exec.Exec.parallel_find_map
        (fun w ->
           Ucfg_exec.Guard.tick guard;
           if Bignum.compare (Count_word.trees_with p w) Bignum.one > 0 then
             Some w
           else None)
        (Lang.elements lang)
