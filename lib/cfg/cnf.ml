open Grammar

let is_cnf = Grammar.is_cnf

(* START: fresh start symbol S0 with the single rule S0 -> S, so the start
   symbol never occurs on a right-hand side. *)
let add_start g =
  let n = nonterminal_count g in
  let names = Array.append (names g) [| name g (start g) ^ "'" |] in
  let rules = { lhs = n; rhs = [ N (start g) ] } :: rules g in
  make ~alphabet:(alphabet g) ~names ~rules ~start:n

(* TERM: terminals in right-hand sides of length >= 2 get proxy
   nonterminals. *)
let lift_terminals g =
  let proxies = Hashtbl.create 8 in
  let extra_names = ref [] in
  let count = ref (nonterminal_count g) in
  let proxy c =
    match Hashtbl.find_opt proxies c with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      extra_names := Printf.sprintf "T_%c" c :: !extra_names;
      Hashtbl.add proxies c id;
      id
  in
  let rules =
    List.map
      (fun { lhs; rhs } ->
         if List.length rhs >= 2 then
           { lhs;
             rhs = List.map (function T c -> N (proxy c) | N i -> N i) rhs }
         else { lhs; rhs })
      (rules g)
  in
  let proxy_rules =
    Hashtbl.fold (fun c id acc -> { lhs = id; rhs = [ T c ] } :: acc) proxies []
  in
  let names =
    Array.append (names g) (Array.of_list (List.rev !extra_names))
  in
  make ~alphabet:(alphabet g) ~names ~rules:(rules @ proxy_rules)
    ~start:(start g)

(* BIN: split right-hand sides of length > 2 with a chain of fresh
   nonterminals. *)
let binarize g =
  let extra_names = ref [] in
  let count = ref (nonterminal_count g) in
  let extra_rules = ref [] in
  let fresh base =
    let id = !count in
    incr count;
    extra_names := Printf.sprintf "%s#%d" base (id - nonterminal_count g) :: !extra_names;
    id
  in
  let rec chain base = function
    | [ x; y ] -> [ x; y ]
    | x :: (_ :: _ :: _ as rest) ->
      let a = fresh base in
      (* bind the recursive result first: the recursive call mutates
         [extra_rules], so it must not race the read of [!extra_rules] *)
      let inner = chain base rest in
      extra_rules := (a, inner) :: !extra_rules;
      [ x; N a ]
    | short -> short
  in
  let rules =
    List.map
      (fun { lhs; rhs } ->
         if List.length rhs > 2 then { lhs; rhs = chain (name g lhs) rhs }
         else { lhs; rhs })
      (rules g)
  in
  let extra =
    List.rev_map (fun (lhs, rhs) -> { lhs; rhs }) !extra_rules
  in
  let names =
    Array.append (names g) (Array.of_list (List.rev !extra_names))
  in
  make ~alphabet:(alphabet g) ~names ~rules:(rules @ extra) ~start:(start g)

(* DEL: eliminate ε-rules, keeping the language.  Operates on right-hand
   sides of length <= 2.  Only the start symbol may keep an ε-rule. *)
let eliminate_epsilon g =
  let nul = Facts.nullable g in
  let variants { lhs; rhs } =
    match rhs with
    | [] -> []
    | [ _ ] -> [ { lhs; rhs } ]
    | [ x; y ] ->
      let base = [ { lhs; rhs } ] in
      let base =
        match x with
        | N i when nul.(i) -> { lhs; rhs = [ y ] } :: base
        | _ -> base
      in
      let base =
        match y with
        | N i when nul.(i) -> { lhs; rhs = [ x ] } :: base
        | _ -> base
      in
      base
    | _ -> invalid_arg "Cnf.eliminate_epsilon: rhs longer than 2"
  in
  let rules = List.concat_map variants (rules g) in
  let rules =
    if nul.(start g) then { lhs = start g; rhs = [] } :: rules else rules
  in
  make ~alphabet:(alphabet g) ~names:(names g) ~rules ~start:(start g)

(* UNIT: eliminate unit rules A -> B by copying B's non-unit rules up every
   unit chain.  Only nonterminals with outgoing unit edges need a closure
   walk — everything else keeps its own non-unit rules — so the pass is
   linear in the grammar plus the (small) unit sub-graph. *)
let eliminate_unit g =
  let n = nonterminal_count g in
  let direct = Array.make n [] in
  List.iter
    (fun { lhs; rhs } ->
       match rhs with [ N b ] -> direct.(lhs) <- b :: direct.(lhs) | _ -> ())
    (rules g);
  let closure a =
    (* all b with a =>* b via unit rules, reflexively; visits only the
       unit sub-graph *)
    let seen = Hashtbl.create 8 in
    let rec visit b =
      if not (Hashtbl.mem seen b) then begin
        Hashtbl.add seen b ();
        List.iter visit direct.(b)
      end
    in
    visit a;
    Hashtbl.fold (fun b () acc -> b :: acc) seen []
  in
  let new_rules = ref [] in
  let copy_non_unit a b =
    List.iter
      (fun rhs ->
         match rhs with
         | [ N _ ] -> ()
         | _ -> new_rules := { lhs = a; rhs } :: !new_rules)
      (rules_of g b)
  in
  for a = 0 to n - 1 do
    match direct.(a) with
    | [] -> copy_non_unit a a
    | _ -> List.iter (copy_non_unit a) (closure a)
  done;
  make ~alphabet:(alphabet g) ~names:(names g) ~rules:!new_rules
    ~start:(start g)

let of_grammar g =
  g |> add_start |> lift_terminals |> binarize |> eliminate_epsilon
  |> eliminate_unit |> Trim.trim

let ensure g = if is_cnf g && Trim.is_trim g then g else of_grammar g
