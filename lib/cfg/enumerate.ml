open Grammar

let trees g =
  match Trim.acyclic_trim g with
  | None -> invalid_arg "Enumerate.trees: infinitely many parse trees"
  | Some (g, _) ->
    (* expand rules in declaration order; acyclicity bounds the recursion *)
    let rec trees_of a () =
      (List.to_seq (rules_of g a)
       |> Seq.concat_map (fun rhs ->
           Seq.map
             (fun children -> Parse_tree.Node (a, children))
             (trees_of_rhs rhs)))
        ()
    and trees_of_rhs = function
      | [] -> Seq.return []
      | T c :: rest ->
        Seq.map (fun tl -> Parse_tree.Leaf c :: tl) (trees_of_rhs rest)
      | N b :: rest ->
        Seq.concat_map
          (fun hd -> Seq.map (fun tl -> hd :: tl) (trees_of_rhs rest))
          (trees_of b)
    in
    trees_of (start g)

let derivation_words g = Seq.map Parse_tree.yield (trees g)

let words g () =
  (* the seen-set is allocated per traversal so the sequence stays
     persistent *)
  let seen = Hashtbl.create 256 in
  (Seq.filter
     (fun w ->
        if Hashtbl.mem seen w then false
        else begin
          Hashtbl.add seen w ();
          true
        end)
     (derivation_words g))
    ()
