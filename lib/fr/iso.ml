open Ucfg_cfg
module G = Grammar

let drep_of_cfg g =
  match Trim.acyclic_trim g with
  | None -> invalid_arg "Iso.drep_of_cfg: cyclic grammar"
  | Some (g, _) when G.rules_of g (G.start g) = [] ->
    Drep.make ~alphabet:(G.alphabet g) ~nodes:[| Drep.Union [] |] ~root:0
  | Some (g, order) ->
    (* nodes are emitted bottom-up: letters first, then per nonterminal (in
       dependency order) its rule products followed by its union gate *)
    let nodes = ref [] in
    let count = ref 0 in
    let push nd =
      nodes := nd :: !nodes;
      let id = !count in
      incr count;
      id
    in
    let letter_ids =
      List.map
        (fun c -> (c, push (Drep.Letter c)))
        (Ucfg_word.Alphabet.chars (G.alphabet g))
    in
    let eps_id = lazy (push Drep.Eps) in
    let nt_gate = Array.make (G.nonterminal_count g) (-1) in
    List.iter
      (fun a ->
         let rule_gates =
           List.map
             (fun rhs ->
                match rhs with
                | [] -> Lazy.force eps_id
                | [ sym ] -> begin
                    match sym with
                    | G.T c -> List.assoc c letter_ids
                    | G.N b -> nt_gate.(b)
                  end
                | _ ->
                  push
                    (Drep.Prod
                       (List.map
                          (function
                            | G.T c -> List.assoc c letter_ids
                            | G.N b -> nt_gate.(b))
                          rhs)))
             (G.rules_of g a)
         in
         nt_gate.(a) <- push (Drep.Union rule_gates))
      order;
    Drep.make ~alphabet:(G.alphabet g)
      ~nodes:(Array.of_list (List.rev !nodes))
      ~root:nt_gate.(G.start g)

(* The language-kernel end of the correspondence: a tier-T2 circuit
   ({!Ucfg_lang.Factored}) is a d-representation whose product gates all
   split letter-first.  Each branch node becomes a union of (letter ×
   residual) products, skipping reject children — by construction the
   union arms start with distinct letters and every product factorises
   uniquely, so the result is {e deterministic} and [Drep.count_tuples]
   equals the circuit's model count. *)
let drep_of_factored f =
  let module F = Ucfg_lang.Factored in
  let nodes = ref [] in
  let count = ref 0 in
  let push nd =
    nodes := nd :: !nodes;
    let id = !count in
    incr count;
    id
  in
  let a_id = push (Drep.Letter 'a') in
  let b_id = push (Drep.Letter 'b') in
  let eps_id = lazy (push Drep.Eps) in
  (* node ids are ints: an int-specialised table, no polymorphic hash *)
  let module Id_tbl = Hashtbl.Make (Int) in
  let memo = Id_tbl.create 256 in
  (* gates for the children are pushed before the parent, so every child
     index is smaller — the bottom-up order [Drep.make] validates *)
  let rec gate nd =
    match Id_tbl.find_opt memo (F.node_id nd) with
    | Some id -> id
    | None ->
      let id =
        match F.view nd with
        | `Accept -> Lazy.force eps_id
        | `Reject -> push (Drep.Union [])
        | `Branch (lo, hi) ->
          let arm letter child =
            match F.view child with
            | `Reject -> None
            | `Accept -> Some letter
            | `Branch _ when not (F.node_nonempty child) ->
              (* dead subtree (canonical empty of its height): the arm
                 denotes nothing — drop it instead of exporting junk *)
              None
            | `Branch _ -> Some (push (Drep.Prod [ letter; gate child ]))
          in
          let arms =
            List.filter_map Fun.id [ arm a_id lo; arm b_id hi ]
          in
          (match arms with [ g ] -> g | _ -> push (Drep.Union arms))
      in
      Id_tbl.replace memo (F.node_id nd) id;
      id
  in
  let root = gate (F.root f) in
  Drep.make ~alphabet:Ucfg_word.Alphabet.binary
    ~nodes:(Array.of_list (List.rev !nodes))
    ~root

let cfg_of_drep d =
  let n = Drep.node_count d in
  let names = Array.init n (fun i -> Printf.sprintf "G%d" i) in
  let rules = ref [] in
  for i = 0 to n - 1 do
    match Drep.node d i with
    | Drep.Letter c -> rules := { G.lhs = i; rhs = [ G.T c ] } :: !rules
    | Drep.Eps -> rules := { G.lhs = i; rhs = [] } :: !rules
    | Drep.Union children ->
      List.iter
        (fun j -> rules := { G.lhs = i; rhs = [ G.N j ] } :: !rules)
        children
    | Drep.Prod children ->
      rules :=
        { G.lhs = i; rhs = List.map (fun j -> G.N j) children } :: !rules
  done;
  G.make ~alphabet:(Drep.alphabet d) ~names ~rules:(List.rev !rules)
    ~start:(Drep.root d)
