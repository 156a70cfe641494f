open Ucfg_word
module Bignum = Ucfg_util.Bignum

type t = {
  alphabet : Alphabet.t;
  states : int;
  initials : int list;
  finals : bool array;
  (* delta.(s) = list of (char, dst); eps.(s) = ε-successors *)
  delta : (char * int) list array;
  eps : int list array;
}

let check_state states s =
  if s < 0 || s >= states then
    invalid_arg (Printf.sprintf "Nfa: state %d out of range" s)

let make ~alphabet ~states ~initials ~finals ~transitions ?(epsilons = [])
    () =
  if states < 0 then invalid_arg "Nfa.make: negative state count";
  List.iter (check_state states) initials;
  List.iter (check_state states) finals;
  let fin = Array.make states false in
  List.iter (fun s -> fin.(s) <- true) finals;
  let delta = Array.make states [] in
  let eps = Array.make states [] in
  List.iter
    (fun (src, c, dst) ->
       check_state states src;
       check_state states dst;
       if not (Alphabet.mem alphabet c) then
         invalid_arg (Printf.sprintf "Nfa.make: symbol %c not in alphabet" c);
       delta.(src) <- (c, dst) :: delta.(src))
    transitions;
  List.iter
    (fun (src, dst) ->
       check_state states src;
       check_state states dst;
       eps.(src) <- dst :: eps.(src))
    epsilons;
  Array.iteri (fun i l -> delta.(i) <- List.sort_uniq compare (List.rev l)) delta;
  Array.iteri (fun i l -> eps.(i) <- List.sort_uniq compare (List.rev l)) eps;
  { alphabet; states; initials = List.sort_uniq compare initials; finals = fin;
    delta; eps }

let alphabet t = t.alphabet
let state_count t = t.states

let transition_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.delta

let epsilon_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.eps

let size t = t.states + transition_count t + epsilon_count t

let initials t = t.initials

let finals t =
  let acc = ref [] in
  for s = t.states - 1 downto 0 do
    if t.finals.(s) then acc := s :: !acc
  done;
  !acc

let is_final t s =
  check_state t.states s;
  t.finals.(s)

let transitions t =
  let acc = ref [] in
  Array.iteri
    (fun src l -> List.iter (fun (c, dst) -> acc := (src, c, dst) :: !acc) l)
    t.delta;
  List.rev !acc

let epsilons t =
  let acc = ref [] in
  Array.iteri (fun src l -> List.iter (fun dst -> acc := (src, dst) :: !acc) l) t.eps;
  List.rev !acc

let step t s c =
  check_state t.states s;
  List.filter_map (fun (c', dst) -> if Char.equal c c' then Some dst else None)
    t.delta.(s)

let eps_closure t states =
  let seen = Array.make t.states false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let acc = ref [] in
  for s = t.states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let step_set t states c =
  let seen = Array.make t.states false in
  List.iter
    (fun s -> List.iter (fun d -> seen.(d) <- true) (step t s c))
    states;
  let acc = ref [] in
  for s = t.states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  eps_closure t !acc

let accepts t w =
  let current = ref (eps_closure t t.initials) in
  String.iter (fun c -> current := step_set t !current c) w;
  List.exists (fun s -> t.finals.(s)) !current

let remove_epsilon t =
  (* standard backward-closure: s --c--> d in the result iff
     s =ε=>* s' --c--> d in t; s final iff its closure meets a final *)
  let transitions = ref [] in
  let finals = ref [] in
  for s = 0 to t.states - 1 do
    let cl = eps_closure t [ s ] in
    if List.exists (fun x -> t.finals.(x)) cl then finals := s :: !finals;
    List.iter
      (fun s' ->
         List.iter (fun (c, d) -> transitions := (s, c, d) :: !transitions)
           t.delta.(s'))
      cl
  done;
  make ~alphabet:t.alphabet ~states:t.states ~initials:t.initials
    ~finals:!finals ~transitions:!transitions ()

let reverse t =
  let transitions =
    List.map (fun (s, c, d) -> (d, c, s)) (transitions t)
  in
  let epsilons = List.map (fun (s, d) -> (d, s)) (epsilons t) in
  make ~alphabet:t.alphabet ~states:t.states ~initials:(finals t)
    ~finals:t.initials ~transitions ~epsilons ()

let union a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Nfa.union: alphabet mismatch";
  let shift = a.states in
  let transitions =
    transitions a
    @ List.map (fun (s, c, d) -> (s + shift, c, d + shift)) (transitions b)
  in
  let epsilons =
    epsilons a @ List.map (fun (s, d) -> (s + shift, d + shift)) (epsilons b)
  in
  make ~alphabet:a.alphabet ~states:(a.states + b.states)
    ~initials:(initials a @ List.map (( + ) shift) (initials b))
    ~finals:(finals a @ List.map (( + ) shift) (finals b))
    ~transitions ~epsilons ()

let product a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Nfa.product: alphabet mismatch";
  if epsilon_count a > 0 || epsilon_count b > 0 then
    invalid_arg "Nfa.product: ε-transitions not supported";
  let encode p q = (p * b.states) + q in
  let transitions = ref [] in
  for p = 0 to a.states - 1 do
    List.iter
      (fun (c, p') ->
         for q = 0 to b.states - 1 do
           List.iter
             (fun (c', q') ->
                if Char.equal c c' then
                  transitions := (encode p q, c, encode p' q') :: !transitions)
             b.delta.(q)
         done)
      a.delta.(p)
  done;
  let initials =
    List.concat_map (fun p -> List.map (encode p) (initials b)) (initials a)
  in
  let finals =
    List.concat_map (fun p -> List.map (encode p) (finals b)) (finals a)
  in
  make ~alphabet:a.alphabet ~states:(a.states * b.states) ~initials ~finals
    ~transitions:!transitions ()

let reachability t =
  let fwd = Array.make t.states false in
  let rec forward s =
    if not fwd.(s) then begin
      fwd.(s) <- true;
      List.iter (fun (_, d) -> forward d) t.delta.(s);
      List.iter forward t.eps.(s)
    end
  in
  List.iter forward t.initials;
  (* backward over reversed edges *)
  let pred = Array.make t.states [] in
  Array.iteri
    (fun s l -> List.iter (fun (_, d) -> pred.(d) <- s :: pred.(d)) l)
    t.delta;
  Array.iteri (fun s l -> List.iter (fun d -> pred.(d) <- s :: pred.(d)) l) t.eps;
  let bwd = Array.make t.states false in
  let rec backward s =
    if not bwd.(s) then begin
      bwd.(s) <- true;
      List.iter backward pred.(s)
    end
  in
  for s = 0 to t.states - 1 do
    if t.finals.(s) then backward s
  done;
  (fwd, bwd)

let trim t =
  let fwd, bwd = reachability t in
  let keep = Array.init t.states (fun s -> fwd.(s) && bwd.(s)) in
  let remap = Array.make t.states (-1) in
  let next = ref 0 in
  Array.iteri
    (fun s k ->
       if k then begin
         remap.(s) <- !next;
         incr next
       end)
    keep;
  let live s = keep.(s) in
  make ~alphabet:t.alphabet ~states:!next
    ~initials:(List.filter_map (fun s -> if live s then Some remap.(s) else None)
                 t.initials)
    ~finals:(List.filter_map
               (fun s -> if live s then Some remap.(s) else None)
               (finals t))
    ~transitions:(List.filter_map
                    (fun (s, c, d) ->
                       if live s && live d then Some (remap.(s), c, remap.(d))
                       else None)
                    (transitions t))
    ~epsilons:(List.filter_map
                 (fun (s, d) ->
                    if live s && live d then Some (remap.(s), remap.(d))
                    else None)
                 (epsilons t))
    ()

let language t ~max_len =
  let alpha = t.alphabet in
  let rec explore states len acc prefix =
    let acc =
      if List.exists (fun s -> t.finals.(s)) states then
        Ucfg_lang.Lang.add prefix acc
      else acc
    in
    if len = max_len then acc
    else
      List.fold_left
        (fun acc c ->
           match step_set t states c with
           | [] -> acc
           | next -> explore next (len + 1) acc (prefix ^ String.make 1 c))
        acc (Alphabet.chars alpha)
  in
  explore (eps_closure t t.initials) 0 Ucfg_lang.Lang.empty ""

let count_paths_by_length t len =
  if epsilon_count t > 0 then
    invalid_arg "Nfa.count_paths_by_length: ε-transitions not supported";
  (* vec.(s) = number of runs of the current length from an initial state
     to s *)
  let vec = Array.make t.states Bignum.zero in
  List.iter (fun s -> vec.(s) <- Bignum.one) t.initials;
  let result = Array.make (len + 1) Bignum.zero in
  let count_accepting v =
    let acc = ref Bignum.zero in
    Array.iteri (fun s x -> if t.finals.(s) then acc := Bignum.add !acc x) v;
    !acc
  in
  result.(0) <- count_accepting vec;
  let current = ref vec in
  for l = 1 to len do
    let next = Array.make t.states Bignum.zero in
    Array.iteri
      (fun s x ->
         if Bignum.sign x > 0 then
           List.iter
             (fun (_, d) -> next.(d) <- Bignum.add next.(d) x)
             t.delta.(s))
      !current;
    current := next;
    result.(l) <- count_accepting next
  done;
  result

let of_word_list alpha ws =
  (* a trie: one state per distinct prefix *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let count = ref 0 in
  let node p =
    match Hashtbl.find_opt ids p with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add ids p id;
      id
  in
  let transitions = ref [] in
  let finals = ref [] in
  let root = node "" in
  List.iter
    (fun w ->
       let len = String.length w in
       for i = 0 to len - 1 do
         let src = node (String.sub w 0 i) in
         let dst = node (String.sub w 0 (i + 1)) in
         transitions := (src, w.[i], dst) :: !transitions
       done;
       finals := node w :: !finals)
    ws;
  make ~alphabet:alpha ~states:!count ~initials:[ root ] ~finals:!finals
    ~transitions:(List.sort_uniq compare !transitions)
    ()

let pp fmt t =
  Format.fprintf fmt "@[<v>states: %d@,initials: %s@,finals: %s@," t.states
    (String.concat "," (List.map string_of_int t.initials))
    (String.concat "," (List.map string_of_int (finals t)));
  List.iter
    (fun (s, c, d) -> Format.fprintf fmt "%d --%c--> %d@," s c d)
    (transitions t);
  List.iter (fun (s, d) -> Format.fprintf fmt "%d --ε--> %d@," s d) (epsilons t);
  Format.fprintf fmt "@]"
