open Grammar

let useful g = Facts.useful g ~productive:(Facts.productive g)

(* [g] restricted to the [kept] nonterminals and the rules between them;
   with nothing to drop, [g] itself, and with it its id *)
let restrict g kept =
  if Array.for_all Fun.id kept then g
  else begin
    let ids = List.filter (Array.get kept) (List.init (nonterminal_count g) Fun.id) in
    let remap = Array.make (nonterminal_count g) (-1) in
    List.iteri (fun i a -> remap.(a) <- i) ids;
    let remap_sym = function T c -> T c | N i -> N remap.(i) in
    let new_rules =
      List.filter_map
        (fun { lhs; rhs } ->
           if Facts.kept_rule kept lhs rhs then
             Some { lhs = remap.(lhs); rhs = List.map remap_sym rhs }
           else None)
        (rules g)
    in
    make ~alphabet:(alphabet g)
      ~names:(Array.of_list (List.map (name g) ids))
      ~rules:new_rules ~start:remap.(start g)
  end

let trim g = restrict g (Facts.kept g ~useful:(useful g))

let is_trim g = Array.for_all Fun.id (useful g)

let acyclic_trim g =
  let useful = useful g in
  if not (Facts.has_finitely_many_trees g ~useful) then None
  else begin
    let trimmed = restrict g (Facts.kept g ~useful) in
    Some (trimmed, Facts.postorder trimmed)
  end
