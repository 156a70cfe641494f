open Ucfg_word
open Ucfg_lang
open Grammar
module B = Grammar.Builder

let example3 t =
  if t < 0 then invalid_arg "Constructions.example3: t must be >= 0";
  let b = B.create Alphabet.binary in
  let a_ = Array.init (t + 1) (fun i -> B.fresh b (Printf.sprintf "A%d" i)) in
  let b_ = Array.init (t + 1) (fun i -> B.fresh b (Printf.sprintf "B%d" i)) in
  for i = 1 to t do
    B.add_rule b a_.(i) [ N b_.(i - 1); N a_.(i - 1) ];
    B.add_rule b a_.(i) [ N a_.(i - 1); N b_.(i - 1) ];
    B.add_rule b b_.(i) [ N b_.(i - 1); N b_.(i - 1) ]
  done;
  B.add_rule b a_.(0) [ N b_.(0); T 'a'; N b_.(t); T 'a' ];
  B.add_rule b a_.(0) [ T 'a'; N b_.(t); T 'a'; N b_.(0) ];
  B.add_rule b b_.(0) [ T 'a' ];
  B.add_rule b b_.(0) [ T 'b' ];
  B.finish b ~start:a_.(t)

(* A balanced binary tree over a list of leaf payloads; used to combine the
   blocks of the Appendix A construction. *)
type 'a tree = Leaf of 'a | Branch of 'a tree * 'a tree

let rec balanced_tree = function
  | [] -> invalid_arg "balanced_tree: empty"
  | [ x ] -> Leaf x
  | l ->
    let rec split i acc = function
      | rest when i = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (i - 1) (x :: acc) rest
    in
    let half = List.length l / 2 in
    let left, right = split half [] l in
    Branch (balanced_tree left, balanced_tree right)

let log_cfg n =
  if n < 1 then invalid_arg "Constructions.log_cfg: n must be >= 1";
  let b = B.create Alphabet.binary in
  if n = 1 then begin
    (* L_1 = {aa} *)
    let s = B.fresh b "S" in
    B.add_rule b s [ T 'a'; T 'a' ];
    B.finish b ~start:s
  end
  else begin
    (* blocks: binary decomposition of n-1 *)
    let blocks = Ucfg_util.Prelude.binary_digits (n - 1) in
    let max_i = List.fold_left max 0 blocks in
    (* B_i generates all words of length 2^i *)
    let b_ = Array.init (max_i + 1) (fun i -> B.fresh b (Printf.sprintf "B%d" i)) in
    B.add_rule b b_.(0) [ T 'a' ];
    B.add_rule b b_.(0) [ T 'b' ];
    for i = 1 to max_i do
      B.add_rule b b_.(i) [ N b_.(i - 1); N b_.(i - 1) ]
    done;
    (* S generates w' of length n-1 *)
    let s = B.fresh b "S" in
    B.add_rule b s (List.map (fun i -> N b_.(i)) blocks);
    (* A_i: a block of length 2^i with aS a inserted somewhere *)
    let a_ = Array.init (max_i + 1) (fun i -> B.fresh b (Printf.sprintf "A%d" i)) in
    B.add_rule b a_.(0) [ N b_.(0); T 'a'; N s; T 'a' ];
    B.add_rule b a_.(0) [ T 'a'; N s; T 'a'; N b_.(0) ];
    for i = 1 to max_i do
      B.add_rule b a_.(i) [ N b_.(i - 1); N a_.(i - 1) ];
      B.add_rule b a_.(i) [ N a_.(i - 1); N b_.(i - 1) ]
    done;
    (* the combination tree over the blocks: C_v = insertion happens below
       v, D_v = plain blocks *)
    let tree = balanced_tree blocks in
    let counter = ref 0 in
    let rec build = function
      | Leaf i ->
        incr counter;
        let c = B.fresh b (Printf.sprintf "C_leaf%d" !counter) in
        let d = B.fresh b (Printf.sprintf "D_leaf%d" !counter) in
        B.add_rule b c [ N a_.(i) ];
        B.add_rule b d [ N b_.(i) ];
        (c, d)
      | Branch (l, r) ->
        let cl, dl = build l in
        let cr, dr = build r in
        incr counter;
        let c = B.fresh b (Printf.sprintf "C%d" !counter) in
        let d = B.fresh b (Printf.sprintf "D%d" !counter) in
        B.add_rule b c [ N cl; N dr ];
        B.add_rule b c [ N dl; N cr ];
        B.add_rule b d [ N dl; N dr ];
        (c, d)
    in
    let c_root, _d_root = build tree in
    B.finish b ~start:c_root
  end

let example4 ?guard n =
  if n < 1 then invalid_arg "Constructions.example4: n must be >= 1";
  let b = B.create ?guard Alphabet.binary in
  let s = B.fresh b "S" in
  (* C_j generates Σ^j, for 1 <= j <= n-1 *)
  let c_ = Array.make n (-1) in
  if n >= 2 then begin
    c_.(1) <- B.fresh b "C1";
    B.add_rule b c_.(1) [ T 'a' ];
    B.add_rule b c_.(1) [ T 'b' ];
    for j = 2 to n - 1 do
      c_.(j) <- B.fresh b (Printf.sprintf "C%d" j);
      B.add_rule b c_.(j) [ T 'a'; N c_.(j - 1) ];
      B.add_rule b c_.(j) [ T 'b'; N c_.(j - 1) ]
    done
  end;
  (* A_w -> w, allocated on demand *)
  let word_nt = Hashtbl.create 256 in
  let nt_of_word w =
    match Hashtbl.find_opt word_nt w with
    | Some id -> id
    | None ->
      let id = B.fresh b (Printf.sprintf "A_%s" w) in
      Hashtbl.add word_nt w id;
      B.add_rule b id (List.init (String.length w) (fun i -> T w.[i]));
      id
  in
  (* optionally reference A_w: elided entirely when w = ε *)
  let opt_word w = if String.length w = 0 then [] else [ N (nt_of_word w) ] in
  let opt_c j = if j = 0 then [] else [ N c_.(j) ] in
  (* all pairs (p, q) of length len with no position j where p.[j] and
     q.[j] are both 'a' — three choices per position.  The paper's
     Example 4 takes only q = complement p, which under-generates (it
     misses early pairs (b,b)); the correction enumerates every
     "a-disjoint" pair, keeping the grammar unambiguous and exact. *)
  let nomatch_pairs len =
    let rec gen len =
      if len = 0 then Seq.return ("", "")
      else
        Seq.concat_map
          (fun (p, q) ->
             List.to_seq
               [ ("a" ^ p, "b" ^ q); ("b" ^ p, "a" ^ q); ("b" ^ p, "b" ^ q) ])
          (gen (len - 1))
    in
    gen len
  in
  for i = 1 to n do
    let a_i = B.fresh b (Printf.sprintf "A%d" i) in
    B.add_rule b s [ N a_i ];
    Seq.iter
      (fun (p, q) ->
         if i < n then
           B.add_rule b a_i
             (opt_word p @ [ T 'a' ] @ opt_c (n - i) @ opt_word q
              @ [ T 'a' ] @ opt_c (n - i))
         else
           B.add_rule b a_i
             (opt_word p @ [ T 'a' ] @ opt_word q @ [ T 'a' ]))
      (nomatch_pairs (i - 1))
  done;
  B.finish b ~start:s

let example4_literal n =
  if n < 1 then invalid_arg "Constructions.example4_literal: n must be >= 1";
  let b = B.create Alphabet.binary in
  let s = B.fresh b "S" in
  let c_ = Array.make n (-1) in
  if n >= 2 then begin
    c_.(1) <- B.fresh b "C1";
    B.add_rule b c_.(1) [ T 'a' ];
    B.add_rule b c_.(1) [ T 'b' ];
    for j = 2 to n - 1 do
      c_.(j) <- B.fresh b (Printf.sprintf "C%d" j);
      B.add_rule b c_.(j) [ T 'a'; N c_.(j - 1) ];
      B.add_rule b c_.(j) [ T 'b'; N c_.(j - 1) ]
    done
  end;
  let word_nt = Hashtbl.create 256 in
  let nt_of_word w =
    match Hashtbl.find_opt word_nt w with
    | Some id -> id
    | None ->
      let id = B.fresh b (Printf.sprintf "A_%s" w) in
      Hashtbl.add word_nt w id;
      B.add_rule b id (List.init (String.length w) (fun i -> T w.[i]));
      id
  in
  let opt_word w = if String.length w = 0 then [] else [ N (nt_of_word w) ] in
  let opt_c j = if j = 0 then [] else [ N c_.(j) ] in
  for i = 1 to n do
    let a_i = B.fresh b (Printf.sprintf "A%d" i) in
    B.add_rule b s [ N a_i ];
    Seq.iter
      (fun w ->
         (* the paper's rule: second-half prefix is the exact complement *)
         let wbar = Word.complement w in
         if i < n then
           B.add_rule b a_i
             (opt_word w @ [ T 'a' ] @ opt_c (n - i) @ opt_word wbar
              @ [ T 'a' ] @ opt_c (n - i))
         else
           B.add_rule b a_i
             (opt_word w @ [ T 'a' ] @ opt_word wbar @ [ T 'a' ]))
      (Word.enumerate Alphabet.binary (i - 1))
  done;
  B.finish b ~start:s

let of_language ?guard alpha l =
  let b = B.create ?guard alpha in
  let s = B.fresh b "S" in
  Lang.iter
    (fun w -> B.add_rule b s (List.init (String.length w) (fun i -> T w.[i])))
    l;
  B.finish b ~start:s

let sigma_chain alpha k =
  if k < 1 then invalid_arg "Constructions.sigma_chain: k must be >= 1";
  let b = B.create alpha in
  let nts =
    Array.init k (fun i -> B.fresh b (Printf.sprintf "Sig%d" (k - i)))
  in
  (* nts.(0) generates Σ^k, nts.(k-1) generates Σ^1 *)
  for i = 0 to k - 2 do
    List.iter
      (fun c -> B.add_rule b nts.(i) [ T c; N nts.(i + 1) ])
      (Alphabet.chars alpha)
  done;
  List.iter (fun c -> B.add_rule b nts.(k - 1) [ T c ]) (Alphabet.chars alpha);
  B.finish b ~start:nts.(0)

let kinds =
  [ ("log", fun ?guard:_ n -> log_cfg n);
    ("example3", fun ?guard:_ t -> example3 t);
    ("example4", example4);
    ("trivial",
     fun ?guard n ->
       (* [Ln.language n], with its factorised route (n > 10) under [guard] *)
       let l = if n <= 10 then Ln.language n else Ln.language_factored ?guard n in
       of_language ?guard Alphabet.binary l) ]
