open Grammar

module Cset = Set.Make (Char)

(* --- the rule fixpoint --------------------------------------------------- *)

let fixpoint g bottom step =
  let v = Array.make (nonterminal_count g) bottom in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
         match step v r with
         | Some x ->
           v.(r.lhs) <- x;
           changed := true
         | None -> ())
      (rules g)
  done;
  v

(* the boolean instances: a nonterminal is marked once one of its rules
   satisfies [holds] against the marks so far *)
let mark g holds =
  fixpoint g false (fun v { lhs; rhs } ->
      if (not v.(lhs)) && holds v rhs then Some true else None)

let all_nonterminals p rhs = List.for_all (function T _ -> true | N i -> p i) rhs

let productive g = mark g (fun v rhs -> all_nonterminals (Array.get v) rhs)

let rhs_nullable null rhs =
  List.for_all (function T _ -> false | N i -> null.(i)) rhs

let nullable g = mark g rhs_nullable

(* a derives a word of length >= 1 through rules whose nonterminals all
   lie in [through] *)
let nonempty g ~through =
  mark g (fun v rhs ->
      all_nonterminals (Array.get through) rhs
      && List.exists (function T _ -> true | N i -> v.(i)) rhs)

(* the letters [sets] gives to the symbols of [syms] while every symbol
   before them derives ε *)
let leading ~nullable sets syms =
  let rec walk acc = function
    | [] -> acc
    | T c :: _ -> Cset.add c acc
    | N i :: rest ->
      let acc = Cset.union sets.(i) acc in
      if nullable.(i) then walk acc rest else acc
  in
  walk Cset.empty syms

let rhs_first ~nullable ~first rhs = leading ~nullable first rhs

let letter_sets g ~nullable orient =
  fixpoint g Cset.empty (fun sets { lhs; rhs } ->
      let s = Cset.union sets.(lhs) (leading ~nullable sets (orient rhs)) in
      if Cset.equal s sets.(lhs) then None else Some s)

let first_sets g ~nullable = letter_sets g ~nullable Fun.id
let last_sets g ~nullable = letter_sets g ~nullable List.rev

let unproductive_depth = max_int / 2

let rhs_depth depth rhs =
  List.fold_left
    (fun acc sym -> match sym with T _ -> acc | N i -> max acc depth.(i))
    0 rhs

let min_depth g =
  fixpoint g unproductive_depth (fun depth { lhs; rhs } ->
      let d = rhs_depth depth rhs in
      if d < unproductive_depth && d + 1 < depth.(lhs) then Some (d + 1)
      else None)

let first_overlap = function
  | [] | [ _ ] -> None
  | firsts ->
    let firsts = Array.of_list firsts in
    (* holders.(c): the indices whose set holds letter c, ascending *)
    let holders = Array.make 256 [] in
    for i = Array.length firsts - 1 downto 0 do
      Cset.iter
        (fun c -> holders.(Char.code c) <- i :: holders.(Char.code c))
        firsts.(i)
    done;
    let i =
      Array.fold_left
        (fun acc -> function k :: _ :: _ -> min acc k | _ -> acc)
        max_int holders
    in
    if i = max_int then None
    else
      let j =
        Cset.fold
          (fun c acc ->
             match List.find_opt (fun k -> k > i) holders.(Char.code c) with
             | Some k -> min acc k
             | None -> acc)
          firsts.(i) max_int
      in
      Some (i, j, Cset.min_elt (Cset.inter firsts.(i) firsts.(j)))

(* --- the dependency graph ------------------------------------------------ *)

let useful g ~productive =
  let reach = Array.make (nonterminal_count g) false in
  let rec visit a =
    if not reach.(a) then begin
      reach.(a) <- true;
      List.iter
        (fun rhs ->
           (* only rules usable in a parse tree: all nonterminals productive *)
           if all_nonterminals (Array.get productive) rhs then
             List.iter (function N i -> visit i | T _ -> ()) rhs)
        (rules_of g a)
    end
  in
  if productive.(start g) then visit (start g);
  reach

(* One DFS over the rules [follow] admits, children in rule order: the
   post-order (dependencies first), and whether some edge closed a cycle
   (led back onto the DFS stack; a self-loop included). *)
let dfs g follow =
  let n = nonterminal_count g in
  let state = Array.make n `New in
  let order = ref [] in
  let cyclic = ref false in
  let rec visit a =
    state.(a) <- `Open;
    List.iter
      (fun rhs ->
         if follow a rhs then
           List.iter
             (function
               | T _ -> ()
               | N i ->
                 (match state.(i) with
                  | `New -> visit i
                  | `Open -> cyclic := true
                  | `Done -> ()))
             rhs)
      (rules_of g a);
    state.(a) <- `Done;
    order := a :: !order
  in
  for a = 0 to n - 1 do
    if state.(a) = `New then visit a
  done;
  (List.rev !order, !cyclic)

let postorder g = fst (dfs g (fun _ _ -> true))

let topological_order g =
  match dfs g (fun _ _ -> true) with
  | order, false -> Some order
  | _, true -> None

let kept g ~useful = Array.mapi (fun i u -> u || i = start g) useful

let kept_rule kept a rhs = kept.(a) && all_nonterminals (Array.get kept) rhs

let has_finitely_many_trees g ~useful =
  not (snd (dfs g (kept_rule (kept g ~useful))))

(* strongly connected components (Tarjan): [comp.(v)] names v's *)
let components n adj =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           strong w;
           low.(v) <- min low.(v) low.(w)
         end
         else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  comp

let is_finite g ~useful =
  let n = nonterminal_count g in
  let kept = kept g ~useful in
  let rules = List.filter (fun { lhs; rhs } -> kept_rule kept lhs rhs) (rules g) in
  let nonempty = nonempty g ~through:useful in
  let adj = Array.make n [] in
  List.iter
    (fun { lhs; rhs } ->
       List.iter (function N b -> adj.(lhs) <- b :: adj.(lhs) | T _ -> ()) rhs)
    rules;
  let comp = components n adj in
  (* A rule occurrence lhs -> ... B ... is "growing" when the siblings of
     B can derive a nonempty word; a growing edge inside an SCC lets us
     pump: A =>+ u A v with |uv| >= 1. *)
  let growing { lhs; rhs } =
    List.exists
      (function
        | T _ -> false
        | N b ->
          comp.(lhs) = comp.(b)
          && begin
            (* siblings of this occurrence of b *)
            let rec sib_nonempty skipped = function
              | [] -> false
              | T _ :: _ -> true
              | N i :: rest ->
                if i = b && not skipped then sib_nonempty true rest
                else nonempty.(i) || sib_nonempty skipped rest
            in
            sib_nonempty false rhs
          end)
      rhs
  in
  not (List.exists growing rules)
