open Grammar
module Bignum = Ucfg_util.Bignum

type t = {
  g : Grammar.t;
  max_len : int;
  (* counts.(l).(a) = derivations of words of length l from a: the
     per-length table of {!Weighted} (column 0 holds the start ε-rule) *)
  counts : Bignum.t array array;
}

module Counts = Weighted.Make (Semiring.Counting)

let create g ~max_len =
  if not (Grammar.is_cnf g) then
    invalid_arg "Direct_access.create: grammar not in CNF";
  if max_len < 0 then invalid_arg "Direct_access.create: negative max_len";
  { g; max_len; counts = Counts.length_table g max_len }

let grammar t = t.g
let max_len t = t.max_len

let count_length t len =
  if len < 0 || len > t.max_len then Bignum.zero
  else t.counts.(len).(start t.g)

let total t =
  Bignum.sum
    (List.map (count_length t) (Ucfg_util.Prelude.range_incl 0 t.max_len))

(* the idx-th word derived from nonterminal [a] at length [l], in canonical
   order: rule order, then split position, then left, then right *)
let rec word_at t a l idx =
  let remaining = ref idx in
  let result = ref None in
  List.iter
    (fun rhs ->
       if !result = None then
         match rhs with
         | [ T c ] ->
           if l = 1 then begin
             if Bignum.is_zero !remaining then result := Some (String.make 1 c)
             else remaining := Bignum.pred !remaining
           end
         | [ N b; N c ] ->
           let k = ref 1 in
           while !result = None && !k <= l - 1 do
             let cnt_b = t.counts.(!k).(b) in
             let cnt_c = t.counts.(l - !k).(c) in
             let cnt = Bignum.mul cnt_b cnt_c in
             if Bignum.compare !remaining cnt < 0 then begin
               let idx_b, idx_c = Bignum.divmod !remaining cnt_c in
               result :=
                 Some (word_at t b !k idx_b ^ word_at t c (l - !k) idx_c)
             end
             else remaining := Bignum.sub !remaining cnt;
             incr k
           done
         | _ -> ())
    (rules_of t.g a);
  match !result with
  | Some w -> w
  | None -> invalid_arg "Direct_access.word_at: index out of range"

let nth t i =
  if Bignum.sign i < 0 then None
  else begin
    let rec over_lengths l i =
      if l > t.max_len then None
      else begin
        let c = count_length t l in
        if Bignum.compare i c < 0 then
          if l = 0 then Some "" else Some (word_at t (start t.g) l i)
        else over_lengths (l + 1) (Bignum.sub i c)
      end
    in
    over_lengths 0 i
  end

let rank t w =
  let l = String.length w in
  if l > t.max_len then None
  else if l = 0 then
    if Bignum.is_zero (count_length t 0) then None else Some Bignum.zero
  else begin
    let table = Cyk.build t.g w in
    if not (Cyk.derivable table (start t.g) 0 l) then None
    else begin
      (* rank of the canonical (first) derivation of w[pos..pos+len) from a *)
      let rec rank_in a pos len =
        let acc = ref Bignum.zero in
        let result = ref None in
        List.iter
          (fun rhs ->
             if !result = None then
               match rhs with
               | [ T c ] ->
                 if len = 1 then begin
                   if Char.equal w.[pos] c then result := Some !acc
                   else acc := Bignum.succ !acc
                 end
               | [ N b; N c ] ->
                 let k = ref 1 in
                 while !result = None && !k <= len - 1 do
                   let cnt_b = t.counts.(!k).(b) in
                   let cnt_c = t.counts.(len - !k).(c) in
                   if
                     Cyk.derivable table b pos !k
                     && Cyk.derivable table c (pos + !k) (len - !k)
                   then begin
                     let rb = rank_in b pos !k in
                     let rc = rank_in c (pos + !k) (len - !k) in
                     result :=
                       Some
                         (Bignum.add !acc
                            (Bignum.add (Bignum.mul rb cnt_c) rc))
                   end
                   else acc := Bignum.add !acc (Bignum.mul cnt_b cnt_c);
                   incr k
                 done
               | _ -> ())
          (rules_of t.g a);
        match !result with
        | Some r -> r
        | None -> assert false (* derivable was checked *)
      in
      let before =
        Bignum.sum
          (List.map (count_length t) (Ucfg_util.Prelude.range 0 l))
      in
      Some (Bignum.add before (rank_in (start t.g) 0 l))
    end
  end

let sample t rng =
  let n = total t in
  if Bignum.is_zero n then None else nth t (Bignum.random rng n)
