module Bignum = Ucfg_util.Bignum

(* Self-product criterion.  On the useful part, a word with two distinct
   accepting runs yields a reachable, co-reachable product state (p, q)
   with p <> q (the runs differ somewhere); conversely such a state splices
   into two distinct accepting runs of one word.  Distinct initial states
   reachable on the same (empty) prefix count as well, which the product's
   initial pairs cover.  The product is symmetric, so the least pair has
   p < q. *)
let off_diagonal_pair nfa =
  if Nfa.epsilon_count nfa > 0 then
    invalid_arg "Unambiguous.off_diagonal_pair: ε-transitions not supported";
  let reach, coreach = Nfa.reachability nfa in
  let useful s = reach.(s) && coreach.(s) in
  let n = Nfa.state_count nfa in
  (* the labelled edges between useful states, forwards and backwards *)
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (s, c, d) ->
       if useful s && useful d then begin
         succ.(s) <- (c, d) :: succ.(s);
         pred.(d) <- (c, s) :: pred.(d)
       end)
    (Nfa.transitions nfa);
  (* the product pairs reachable from seeds x seeds along equal letters *)
  let pairs seeds edges =
    let seen = Hashtbl.create 256 in
    let queue = Queue.create () in
    let push pq =
      if not (Hashtbl.mem seen pq) then begin
        Hashtbl.add seen pq ();
        Queue.add pq queue
      end
    in
    let seeds = List.filter useful seeds in
    List.iter (fun p -> List.iter (fun q -> push (p, q)) seeds) seeds;
    while not (Queue.is_empty queue) do
      let p, q = Queue.pop queue in
      List.iter
        (fun (c, p') ->
           List.iter
             (fun (c', q') -> if Char.equal c c' then push (p', q'))
             edges.(q))
        edges.(p)
    done;
    seen
  in
  let fwd = pairs (Nfa.initials nfa) succ in
  let bwd = pairs (Nfa.finals nfa) pred in
  Hashtbl.fold
    (fun (p, q) () best ->
       if p < q && Hashtbl.mem bwd (p, q) then
         match best with
         | Some pq when pq <= (p, q) -> best
         | _ -> Some (p, q)
       else best)
    fwd None

let is_unambiguous nfa = off_diagonal_pair nfa = None

let count_paths nfa len = Nfa.count_paths_by_length nfa len

let count_words_via_dfa nfa len =
  let dfa = Determinize.run_exn nfa in
  Dfa.count_words_by_length dfa len

let ambiguous_word nfa ~max_len =
  let dfa = Determinize.run_exn nfa in
  let words = Dfa.count_words_by_length dfa max_len in
  let paths = count_paths nfa max_len in
  (* find the shortest length where paths exceed words, then locate a word
     of that length with two runs by direct path counting per word *)
  let rec find_len l =
    if l > max_len then None
    else if Bignum.compare paths.(l) words.(l) > 0 then Some l
    else find_len (l + 1)
  in
  match find_len 0 with
  | None -> None
  | Some l ->
    let count_runs w =
      (* runs of w: dynamic program over positions *)
      let n = Nfa.state_count nfa in
      let vec = Array.make n Bignum.zero in
      List.iter (fun s -> vec.(s) <- Bignum.one) (Nfa.initials nfa);
      let cur = ref vec in
      String.iter
        (fun c ->
           let nxt = Array.make n Bignum.zero in
           Array.iteri
             (fun s x ->
                if Bignum.sign x > 0 then
                  List.iter
                    (fun d -> nxt.(d) <- Bignum.add nxt.(d) x)
                    (Nfa.step nfa s c))
             !cur;
           cur := nxt)
        w;
      let acc = ref Bignum.zero in
      Array.iteri
        (fun s x -> if Nfa.is_final nfa s then acc := Bignum.add !acc x)
        !cur;
      !acc
    in
    Seq.find
      (fun w -> Bignum.compare (count_runs w) Bignum.one > 0)
      (Ucfg_word.Word.enumerate (Nfa.alphabet nfa) l)

let count_words nfa len =
  if is_unambiguous nfa then count_paths nfa len
  else count_words_via_dfa nfa len
