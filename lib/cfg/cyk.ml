open Grammar
module Bignum = Ucfg_util.Bignum

(* counts.(pos).(len-1).(a) = number of parse trees of w[pos..pos+len-1]
   rooted at a: {!Weighted}'s span chart, filled on overflow-checked
   native ints — ambiguity checking only needs small counts — and refilled
   in big integers iff a count overflows.  The grammar's rule index is
   compiled once and memoised on {!Grammar.id} by {!Weighted.index}. *)
type counts =
  | Ints of int array array array
  | Bigs of Bignum.t array array array

type table = {
  g : Grammar.t;
  idx : Weighted.index;
  w : string;
  counts : counts;
}

module Int_chart = Weighted.Make (Semiring.Checked_int)
module Big_chart = Weighted.Make (Semiring.Counting)

let build_with idx g w =
  let counts =
    match Int_chart.chart idx w with
    | c -> Ints c
    | exception Semiring.Checked_int.Overflow -> Bigs (Big_chart.chart idx w)
  in
  { g; idx; w; counts }

let build g w =
  if not (Grammar.is_cnf g) then invalid_arg "Cyk.build: grammar not in CNF";
  build_with (Weighted.index g) g w

let count_at t pos len a =
  match t.counts with
  | Ints c -> Bignum.of_int c.(pos).(len - 1).(a)
  | Bigs c -> c.(pos).(len - 1).(a)

let positive_at t pos len a =
  match t.counts with
  | Ints c -> c.(pos).(len - 1).(a) > 0
  | Bigs c -> Bignum.sign c.(pos).(len - 1).(a) > 0

let start_epsilon_count g =
  if Grammar.has_rule g (start g) [] then Bignum.one else Bignum.zero

let count_trees g w =
  if String.length w = 0 then start_epsilon_count g
  else begin
    let t = build g w in
    count_at t 0 (String.length w) (start g)
  end

let count_trees_batch g ws =
  (* one CNF check, one compiled index, thousands of words *)
  if not (Grammar.is_cnf g) then
    invalid_arg "Cyk.count_trees_batch: grammar not in CNF";
  let idx = Weighted.index g in
  List.map
    (fun w ->
       if String.length w = 0 then start_epsilon_count g
       else begin
         let t = build_with idx g w in
         count_at t 0 (String.length w) (start g)
       end)
    ws

let recognize g w = Bignum.sign (count_trees g w) > 0

let derivable t a pos len =
  len >= 1
  && pos >= 0
  && pos + len <= String.length t.w
  && positive_at t pos len a

(* Enumerate parse trees from a filled table, lazily, capped by the
   caller, in rule order. *)
let trees_of_cell t a pos len =
  let rec gen a pos len : Parse_tree.t Seq.t =
    if len = 1 then
      (* terminal rule, and possibly binary rules do not apply at len 1 *)
      if Grammar.has_rule t.g a [ T t.w.[pos] ] then
        Seq.return (Parse_tree.Node (a, [ Parse_tree.Leaf t.w.[pos] ]))
      else Seq.empty
    else
      List.to_seq (rules_of t.g a)
      |> Seq.concat_map (function
        | [ N b; N c ] ->
          Seq.init (len - 1) (fun i -> i + 1)
          |> Seq.concat_map (fun split ->
              if derivable t b pos split && derivable t c (pos + split) (len - split)
              then
                Seq.concat_map
                  (fun lt ->
                     Seq.map
                       (fun rt -> Parse_tree.Node (a, [ lt; rt ]))
                       (gen c (pos + split) (len - split)))
                  (gen b pos split)
              else Seq.empty)
        | _ -> Seq.empty)
  in
  gen a pos len

let parse g w =
  if String.length w = 0 then
    if Grammar.has_rule g (start g) [] then Some (Parse_tree.Node (start g, []))
    else None
  else begin
    let t = build g w in
    let n = String.length w in
    if not (derivable t (start g) 0 n) then None
    else
      match (trees_of_cell t (start g) 0 n) () with
      | Seq.Nil -> None
      | Seq.Cons (tree, _) -> Some tree
  end

let occurrence_counts g w =
  let t = build g w in
  let n = String.length w in
  let idx = t.idx in
  let nn = idx.nn in
  let inside pos len a = count_at t pos len a in
  (* outside.(pos).(len-1).(a): parse-ways of the context around the
     span.  Products of inside entries can exceed the int range even when
     every inside entry fits, so this stays in big integers. *)
  let outside =
    Array.init n (fun pos ->
        Array.init (n - pos) (fun _ -> Array.make nn Bignum.zero))
  in
  if n > 0 then begin
    outside.(0).(n - 1).(start g) <- Bignum.one;
    for len = n downto 2 do
      for pos = 0 to n - len do
        Array.iter
          (fun ((b, c), lhss) ->
             (* the contribution of a -> b c is linear in out_a, so the
                lhs group can be summed before touching the children *)
             let out_bc =
               Array.fold_left
                 (fun acc a -> Bignum.add acc outside.(pos).(len - 1).(a))
                 Bignum.zero lhss
             in
             if Bignum.sign out_bc > 0 then
               for split = 1 to len - 1 do
                 let in_b = inside pos split b in
                 let in_c = inside (pos + split) (len - split) c in
                 if Bignum.sign in_c > 0 then
                   outside.(pos).(split - 1).(b) <-
                     Bignum.add
                       outside.(pos).(split - 1).(b)
                       (Bignum.mul out_bc in_c);
                 if Bignum.sign in_b > 0 then
                   outside.(pos + split).(len - split - 1).(c) <-
                     Bignum.add
                       outside.(pos + split).(len - split - 1).(c)
                       (Bignum.mul out_bc in_b)
               done)
          idx.bin_groups
      done
    done
  end;
  let acc = ref [] in
  for pos = n - 1 downto 0 do
    for len = n - pos downto 1 do
      for a = nn - 1 downto 0 do
        let occ = Bignum.mul (inside pos len a) outside.(pos).(len - 1).(a) in
        if Bignum.sign occ > 0 then acc := (a, pos, len, occ) :: !acc
      done
    done
  done;
  !acc

let all_trees ?(limit = 1000) g w =
  if String.length w = 0 then
    if Grammar.has_rule g (start g) [] then [ Parse_tree.Node (start g, []) ]
    else []
  else begin
    let t = build g w in
    let n = String.length w in
    trees_of_cell t (start g) 0 n
    |> Seq.take limit |> List.of_seq
  end
