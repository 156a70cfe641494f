open Grammar

(* --- the grouped rule index -------------------------------------------- *)

type index = {
  nn : int;
  term_pairs : (int * char) array;
  bin_groups : ((int * int) * int array) array;
}

let make_index g =
  let term = ref [] in
  let groups : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let group_order = ref [] in
  List.iter
    (fun { lhs; rhs } ->
       match rhs with
       | [ T c ] -> term := (lhs, c) :: !term
       | [ N b; N c ] -> (
           match Hashtbl.find_opt groups (b, c) with
           | Some l -> l := lhs :: !l
           | None ->
             Hashtbl.add groups (b, c) (ref [ lhs ]);
             group_order := (b, c) :: !group_order)
       | _ -> ())
    (rules g);
  {
    nn = nonterminal_count g;
    term_pairs = Array.of_list (List.rev !term);
    bin_groups =
      List.rev_map
        (fun bc -> (bc, Array.of_list (List.rev !(Hashtbl.find groups bc))))
        !group_order
      |> Array.of_list;
  }

(* Bounded memo keyed on the grammar id; grammars are constructed freely
   (every [Trim.trim] that drops a rule mints one), so the cache is reset rather than grown
   without bound.  Pool workers share it, hence the mutex. *)
let index_cache : (int, index) Hashtbl.t = Hashtbl.create 16
let index_cache_mutex = Mutex.create ()
let index_cache_cap = 128

let index g =
  let gid = Grammar.id g in
  match
    Mutex.protect index_cache_mutex (fun () ->
        Hashtbl.find_opt index_cache gid)
  with
  | Some idx -> idx
  | None ->
    let idx = make_index g in
    Mutex.protect index_cache_mutex (fun () ->
        if Hashtbl.length index_cache >= index_cache_cap then
          Hashtbl.reset index_cache;
        Hashtbl.replace index_cache gid idx);
    idx

(* --- the counting dynamic programs --------------------------------------- *)

module Make (R : Semiring.S) = struct
  (* rule weights laid out like the index, computed once per call; [None]
     when every weight is [R.one], so nothing is multiplied by it *)
  type weights = { term_w : R.t array; bin_w : R.t array array }

  let weights rule_weight idx =
    Option.map
      (fun rw ->
         {
           term_w =
             Array.map
               (fun (a, c) -> rw { lhs = a; rhs = [ T c ] })
               idx.term_pairs;
           bin_w =
             Array.map
               (fun ((b, c), lhss) ->
                  Array.map (fun a -> rw { lhs = a; rhs = [ N b; N c ] }) lhss)
               idx.bin_groups;
         })
      rule_weight

  (* cell.(a) += the weight of the terminal rule [i] = (a, c) *)
  let add_terminal ws cell i a =
    let x = match ws with None -> R.one | Some ws -> ws.term_w.(i) in
    cell.(a) <- R.plus cell.(a) x

  (* one split: every binary rule a -> b c adds its weight ·
     left.(b) · right.(c) to cell.(a).  The product is formed once per
     right-hand-side group, and zero factors are skipped. *)
  let combine idx ws cell left right =
    Array.iteri
      (fun gi ((b, c), lhss) ->
         let x = left.(b) in
         if not (R.is_zero x) then begin
           let y = right.(c) in
           if not (R.is_zero y) then begin
             let p = R.times x y in
             match ws with
             | None -> Array.iter (fun a -> cell.(a) <- R.plus cell.(a) p) lhss
             | Some ws ->
               let wg = ws.bin_w.(gi) in
               Array.iteri
                 (fun i a -> cell.(a) <- R.plus cell.(a) (R.times wg.(i) p))
                 lhss
           end
         end)
      idx.bin_groups

  let epsilon_weight rule_weight g =
    if not (Grammar.has_rule g (start g) []) then R.zero
    else
      match rule_weight with
      | None -> R.one
      | Some rw -> rw { lhs = start g; rhs = [] }

  let chart ?rule_weight idx w =
    let n = String.length w in
    let ws = weights rule_weight idx in
    let guard = Ucfg_exec.Exec.current_guard () in
    let chart =
      Array.init n (fun pos ->
          Array.init (n - pos) (fun _ -> Array.make idx.nn R.zero))
    in
    for pos = 0 to n - 1 do
      Array.iteri
        (fun i (a, c) ->
           if Char.equal w.[pos] c then add_terminal ws chart.(pos).(0) i a)
        idx.term_pairs
    done;
    for len = 2 to n do
      for pos = 0 to n - len do
        Ucfg_exec.Guard.tick guard;
        let cell = chart.(pos).(len - 1) in
        for split = 1 to len - 1 do
          combine idx ws cell
            chart.(pos).(split - 1)
            chart.(pos + split).(len - split - 1)
        done
      done
    done;
    chart

  let length_table ?rule_weight g max_len =
    if max_len < 0 then invalid_arg "Weighted.length_table: negative length";
    let idx = index g in
    let ws = weights rule_weight idx in
    let d = Array.make_matrix (max_len + 1) idx.nn R.zero in
    d.(0).(start g) <- epsilon_weight rule_weight g;
    if max_len >= 1 then
      Array.iteri (fun i (a, _) -> add_terminal ws d.(1) i a) idx.term_pairs;
    for l = 2 to max_len do
      for k = 1 to l - 1 do
        combine idx ws d.(l) d.(k) d.(l - k)
      done
    done;
    d

  let word_weight ?rule_weight g w =
    if not (Grammar.is_cnf g) then
      invalid_arg "Weighted.word_weight: grammar not in CNF";
    let n = String.length w in
    if n = 0 then epsilon_weight rule_weight g
    else (chart ?rule_weight (index g) w).(0).(n - 1).(start g)

  let length_weight ?rule_weight g len =
    if not (Grammar.is_cnf g) then
      invalid_arg "Weighted.length_weight: grammar not in CNF";
    (length_table ?rule_weight g len).(len).(start g)
end
