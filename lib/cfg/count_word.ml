open Grammar
module Bignum = Ucfg_util.Bignum

(* A plan hoists everything that does not depend on the word out of the
   per-word DP: trimming, the finiteness check (a DFS), and the
   rule arrays with a per-lhs rule index.  [Ambiguity.profile] counts every
   word of a language against one grammar, so paying those once instead of
   per word is the difference between O(words · |G|) setup and O(|G|). *)
type plan = {
  trimmed : Grammar.t;
  rules_arr : rule array;
  rhs_arr : sym array array;
  by_lhs_idx : int array array;  (* rule indices per lhs, rule order *)
}

let plan g =
  match Trim.acyclic_trim g with
  | None -> invalid_arg "Count_word.trees: infinitely many parse trees"
  | Some (g, _) ->
    let rules_arr = Array.of_list (rules g) in
    let by_lhs = Array.make (nonterminal_count g) [] in
    Array.iteri (fun ridx r -> by_lhs.(r.lhs) <- ridx :: by_lhs.(r.lhs)) rules_arr;
    {
      trimmed = g;
      rules_arr;
      rhs_arr = Array.map (fun r -> Array.of_list r.rhs) rules_arr;
      by_lhs_idx = Array.map (fun l -> Array.of_list (List.rev l)) by_lhs;
    }

(* The DP is written once over a counting semiring and instantiated
   twice: overflow-checked native ints for the common case (ambiguity
   checking needs counts 0/1/2+), big integers as the escape hatch. *)
module Dp (Num : Semiring.S) = struct
  let run p w =
    let n = String.length w in
    let nt_memo : (int, Num.t) Hashtbl.t = Hashtbl.create 256 in
    let seq_memo : (int, Num.t) Hashtbl.t = Hashtbl.create 256 in
    (* memo keys packed into a single int: positions fit in [span] values,
       suffix offsets in [krad] — k is bounded by the longest rhs, not by
       the word, so it needs its own radix (packing it with [span] made
       distinct (ridx, k) pairs alias on short words: at w = "" every key
       collapsed to ridx + k + i + j, and a suffix count of one rule could
       answer for another) *)
    let span = n + 1 in
    let krad =
      1 + Array.fold_left (fun m rhs -> max m (Array.length rhs)) 0 p.rhs_arr
    in
    let nt_key a i j = ((a * span) + i) * span + j in
    let seq_key ridx k i j = ((((ridx * krad) + k) * span) + i) * span + j in
    (* #ways nonterminal a derives w[i..j) *)
    let rec nt a i j =
      let key = nt_key a i j in
      match Hashtbl.find_opt nt_memo key with
      | Some v -> v
      | None ->
        (* seed with zero to cut ε-cycles: trimmed acyclic grammars never
           revisit, but the guard is harmless *)
        Hashtbl.replace nt_memo key Num.zero;
        let total = ref Num.zero in
        Array.iter
          (fun ridx -> total := Num.plus !total (seq ridx 0 i j))
          p.by_lhs_idx.(a);
        Hashtbl.replace nt_memo key !total;
        !total
    (* #ways the suffix rhs_arr.(ridx)[k..] derives w[i..j) *)
    and seq ridx k i j =
      let rhs = p.rhs_arr.(ridx) in
      let len = Array.length rhs in
      if k = len then if i = j then Num.one else Num.zero
      else begin
        let key = seq_key ridx k i j in
        match Hashtbl.find_opt seq_memo key with
        | Some v -> v
        | None ->
          let total = ref Num.zero in
          begin
            match rhs.(k) with
            | T c ->
              if i < j && Char.equal w.[i] c then
                total := seq ridx (k + 1) (i + 1) j
            | N b ->
              for mid = i to j do
                let left = nt b i mid in
                if not (Num.is_zero left) then
                  total :=
                    Num.plus !total (Num.times left (seq ridx (k + 1) mid j))
              done
          end;
          Hashtbl.replace seq_memo key !total;
          !total
      end
    in
    nt (start p.trimmed) 0 n
end

module Int_dp = Dp (Semiring.Checked_int)
module Big_dp = Dp (Semiring.Counting)

let trees_with p w =
  match Int_dp.run p w with
  | v -> Bignum.of_int v
  | exception Semiring.Checked_int.Overflow -> Big_dp.run p w

let trees g w = trees_with (plan g) w

let trees_batch g ws =
  let p = plan g in
  List.map (trees_with p) ws

let recognize g w = Bignum.sign (trees g w) > 0
