open Ucfg_cfg
open Grammar
module D = Diag

let checks =
  [
    { D.code = "G001"; title = "unproductive nonterminal";
      soundness = D.Structural };
    { D.code = "G002"; title = "unreachable nonterminal";
      soundness = D.Structural };
    { D.code = "G003"; title = "empty language"; soundness = D.Structural };
    { D.code = "G004"; title = "self-referential rule";
      soundness = D.Definite };
    { D.code = "G005"; title = "unit-rule cycle"; soundness = D.Definite };
    { D.code = "G006"; title = "\xce\xb5-cycle"; soundness = D.Definite };
    { D.code = "G007"; title = "dependency cycle among useful nonterminals";
      soundness = D.Definite };
    { D.code = "G008"; title = "infinite language"; soundness = D.Structural };
    { D.code = "G009"; title = "duplicate rule via unit indirection";
      soundness = D.Definite };
    { D.code = "G010"; title = "not in Chomsky normal form";
      soundness = D.Structural };
    { D.code = "G011"; title = "start symbol on a right-hand side";
      soundness = D.Structural };
    { D.code = "G012"; title = "vertical ambiguity (FIRST-set overlap)";
      soundness = D.Heuristic };
    { D.code = "G013"; title = "definite ambiguity (bounded tree-count probe)";
      soundness = D.Definite };
    { D.code = "G014"; title = "horizontal ambiguity (two factorisations)";
      soundness = D.Heuristic };
    { D.code = "G015"; title = "unambiguity certificate";
      soundness = D.Certificate };
  ]

(* --- helpers ------------------------------------------------------------- *)

let rhs_to_string g rhs =
  if rhs = [] then "\xce\xb5"
  else
    String.concat " "
      (List.map (fun s -> Format.asprintf "%a" (Grammar.pp_sym g) s) rhs)

(* first cycle (as a node list) in the directed graph over [0..n-1], or
   None; simple colored DFS, deterministic *)
let find_cycle n edges =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let cycle = ref None in
  let rec visit path v =
    if !cycle = None then begin
      color.(v) <- 1;
      List.iter
        (fun w ->
           if !cycle = None then
             if color.(w) = 1 then begin
               (* unwind [path] back to [w] to extract the cycle *)
               let rec take acc = function
                 | [] -> acc
                 | x :: _ when x = w -> w :: acc
                 | x :: rest -> take (x :: acc) rest
               in
               cycle := Some (take [ v ] path)
             end
             else if color.(w) = 0 then visit (v :: path) w)
        adj.(v);
      if color.(v) = 1 then color.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    if color.(v) = 0 && !cycle = None then visit [] v
  done;
  !cycle

let cycle_to_string g cyc =
  String.concat " -> " (List.map (fun a -> "<" ^ name g a ^ ">") cyc)
  ^ " -> <"
  ^ name g (List.hd cyc)
  ^ ">"

(* --- the linter ---------------------------------------------------------- *)

let run g =
  let n = nonterminal_count g in
  let prod = Facts.productive g in
  let useful_nt = Facts.useful g ~productive:prod in
  let useful i = useful_nt.(i) in
  let finite = Facts.is_finite g ~useful:useful_nt in
  let finitely_many_trees = Facts.has_finitely_many_trees g ~useful:useful_nt in
  let order = Facts.topological_order g in
  let null = Facts.nullable g in
  let first = Facts.first_sets g ~nullable:null in
  let last = Facts.last_sets g ~nullable:null in
  let usable rhs = List.for_all (function T _ -> true | N i -> prod.(i)) rhs in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* G001 / G002: useless nonterminals *)
  for i = 0 to n - 1 do
    if not prod.(i) then
      emit
        (D.make ~code:"G001" ~severity:D.Warning ~loc:(D.Nonterminal (name g i))
           ~hint:"remove it, or add a rule deriving a terminal word"
           "nonterminal derives no terminal word; rules mentioning it are dead")
    else if (not (useful i)) && i <> start g then
      emit
        (D.make ~code:"G002" ~severity:D.Warning ~loc:(D.Nonterminal (name g i))
           ~hint:"remove it, or reference it from a reachable rule"
           "nonterminal occurs in no parse tree rooted at the start symbol")
  done;
  (* G003: empty language *)
  if not prod.(start g) then
    emit
      (D.make ~code:"G003" ~severity:D.Warning
         ~loc:(D.Nonterminal (name g (start g)))
         "the start symbol derives no word: the language is empty");
  (* G004: self-referential rules *)
  for a = 0 to n - 1 do
    List.iteri
      (fun idx rhs ->
         if List.exists (function N i -> i = a | T _ -> false) rhs then
           if useful a && usable rhs && finite then
             emit
               (D.make ~code:"G004" ~severity:D.Error
                  ~loc:(D.Rule (name g a, idx))
                  ~hint:"unfold or remove the recursion"
                  (Printf.sprintf
                     "directly recursive rule pumps parse trees over a \
                      finite language: <%s> is definitely ambiguous"
                     (name g a)))
           else
             emit
               (D.make ~code:"G004" ~severity:D.Info
                  ~loc:(D.Rule (name g a, idx))
                  "directly recursive rule (infinitely many parse trees if \
                   ever used)"))
      (rules_of g a)
  done;
  (* unit / ε edges for the two cycle checks *)
  let unit_edges =
    List.filter_map
      (fun { lhs; rhs } -> match rhs with [ N b ] -> Some (lhs, b) | _ -> None)
      (rules g)
  in
  let eps_edges =
    (* a -> b through a non-unit rule whose remaining symbols all derive ε:
       a =>+ b inserting only ε-subtrees *)
    List.concat_map
      (fun { lhs; rhs } ->
         if List.length rhs < 2 then []
         else
           List.concat
             (List.mapi
                (fun i s ->
                   match s with
                   | N b
                     when Facts.rhs_nullable null
                            (List.filteri (fun j _ -> j <> i) rhs) ->
                     [ (lhs, b) ]
                   | _ -> [])
                rhs))
      (rules g)
  in
  let cycle_check code what hint edges =
    let useful_edges = List.filter (fun (a, b) -> useful a && useful b) edges in
    match find_cycle n useful_edges with
    | Some cyc ->
      emit
        (D.make ~code ~severity:D.Error ~loc:(D.Nonterminal (name g (List.hd cyc)))
           ~hint
           (Printf.sprintf
              "%s %s: every word below it has unboundedly many parse trees \
               — definitely ambiguous"
              what (cycle_to_string g cyc)))
    | None ->
      (match find_cycle n edges with
       | Some cyc ->
         emit
           (D.make ~code ~severity:D.Warning
              ~loc:(D.Nonterminal (name g (List.hd cyc)))
              ~hint
              (Printf.sprintf "%s %s (among useless nonterminals)" what
                 (cycle_to_string g cyc)))
       | None -> ())
  in
  (* G005 / G006: unit-rule and ε cycles *)
  cycle_check "G005" "unit-rule cycle" "collapse the chain of unit rules"
    unit_edges;
  cycle_check "G006" "\xce\xb5-cycle"
    "break the cycle of \xce\xb5-deriving contexts" eps_edges;
  (* G007: general dependency cycle on the useful part *)
  if not finitely_many_trees then begin
    let dep_edges =
      List.filter (fun (a, b) -> useful a && useful b) (dependency_edges g)
    in
    match find_cycle n dep_edges with
    | Some cyc ->
      if finite then
        emit
          (D.make ~code:"G007" ~severity:D.Error
             ~loc:(D.Nonterminal (name g (List.hd cyc)))
             ~hint:"acyclic grammars suffice for finite languages"
             (Printf.sprintf
                "dependency cycle %s with a finite language: infinitely many \
                 parse trees over finitely many words — definitely ambiguous"
                (cycle_to_string g cyc)))
      else
        emit
          (D.make ~code:"G007" ~severity:D.Info
             ~loc:(D.Nonterminal (name g (List.hd cyc)))
             (Printf.sprintf
                "dependency cycle %s: infinitely many parse trees; \
                 counting-based checks are unavailable"
                (cycle_to_string g cyc)))
    | None -> ()
  end;
  (* G008: infinite language *)
  if not finite then
    emit
      (D.make ~code:"G008" ~severity:D.Info ~loc:D.Whole
         "the language is infinite — outside the finite-language scope of \
          the exhaustive analyses (Ambiguity.check will reject)");
  (* G009: duplicate rule via unit indirection *)
  for a = 0 to n - 1 do
    List.iteri
      (fun idx rhs ->
         match rhs with
         | [ N b ] when b <> a ->
           List.iter
             (fun beta ->
                if beta <> [ N b ] && usable beta && has_rule g a beta then
                  emit
                    (D.make ~code:"G009"
                       ~severity:(if useful a then D.Error else D.Warning)
                       ~loc:(D.Rule (name g a, idx))
                       ~hint:"drop the unit rule or the duplicated alternative"
                       (Printf.sprintf
                          "<%s> -> <%s> and <%s> -> %s duplicate <%s> -> %s: \
                           every word of that alternative gets two parse trees%s"
                          (name g a) (name g b) (name g b)
                          (rhs_to_string g beta) (name g a)
                          (rhs_to_string g beta)
                          (if useful a then " — definitely ambiguous" else ""))))
             (rules_of g b)
         | _ -> ())
      (rules_of g a)
  done;
  (* G010 / G011: CNF readiness, and the first rule mentioning the start
     symbol *)
  let start_site =
    List.find_map
      (fun a ->
         Option.map (fun idx -> (a, idx))
           (List.find_index (List.mem (N (start g))) (rules_of g a)))
      (List.init n Fun.id)
  in
  let cnf_violations =
    List.concat_map
      (fun a ->
         List.concat
           (List.mapi
              (fun idx rhs ->
                 match rhs with
                 | [ T _ ] | [ N _; N _ ] -> []
                 | [] when a = start g && start_site = None -> []
                 | _ -> [ (a, idx, rhs) ])
              (rules_of g a)))
      (List.init n Fun.id)
  in
  (match cnf_violations with
   | [] -> ()
   | (a, idx, rhs) :: _ ->
     emit
       (D.make ~code:"G010" ~severity:D.Info ~loc:(D.Rule (name g a, idx))
          ~hint:"Cnf.of_grammar normalises within a quadratic size bound"
          (Printf.sprintf
             "%d rule%s break%s Chomsky normal form (first: <%s> -> %s)"
             (List.length cnf_violations)
             (if List.length cnf_violations = 1 then "" else "s")
             (if List.length cnf_violations = 1 then "s" else "")
             (name g a) (rhs_to_string g rhs))));
  Option.iter
    (fun (a, idx) ->
       emit
         (D.make ~code:"G011" ~severity:D.Info ~loc:(D.Rule (name g a, idx))
            "the start symbol occurs on a right-hand side (blocks the CNF \
             start-\xce\xb5 convention)"))
    start_site;
  (* G012: vertical-ambiguity heuristic *)
  for a = 0 to n - 1 do
    if useful a then begin
      let rhss = rules_of g a in
      if List.length rhss >= 2 then begin
        let overlap =
          Facts.first_overlap
            (List.map (Facts.rhs_first ~nullable:null ~first) rhss)
        in
        let nullable_rules =
          List.length (List.filter (Facts.rhs_nullable null) rhss)
        in
        match (overlap, nullable_rules >= 2) with
        | Some (i, j, c), _ ->
          emit
            (D.make ~code:"G012" ~severity:D.Warning
               ~loc:(D.Nonterminal (name g a))
               ~hint:"disjoint FIRST sets per nonterminal make rule choice \
                      deterministic"
               (Printf.sprintf
                  "rules #%d and #%d can both start a word with '%c' — \
                   possible vertical ambiguity"
                  i j c))
        | None, true ->
          emit
            (D.make ~code:"G012" ~severity:D.Warning
               ~loc:(D.Nonterminal (name g a))
               "two rules derive \xce\xb5 — \xce\xb5 has two parse trees here")
        | None, false -> ()
      end
    end
  done;
  (* G013 / G015: the sound verdicts *)
  (match Static.verdict g with
   | Static.Ambiguous { nonterminal; word } ->
     emit
       (D.make ~code:"G013" ~severity:D.Error ~loc:(D.Nonterminal nonterminal)
          ~hint:"Ambiguity.ambiguous_witness reproduces a witness"
          (Printf.sprintf
             "%S has at least two parse trees below <%s> (bounded \
              tree-count probe) — definitely ambiguous"
             word nonterminal))
   | Static.Unambiguous ->
     emit
       (D.make ~code:"G015" ~severity:D.Info ~loc:D.Whole
          "certified unambiguous: pairwise-disjoint FIRST sets, at most one \
           nullable rule per nonterminal, and at most one variable-length \
           symbol per rule")
   | Static.Unknown -> ());
  (* G014: horizontal-ambiguity heuristic (length ranges need acyclicity) *)
  (match order with
   | None -> ()
   | Some order ->
    let ranges = Static.length_ranges g order in
    let variable = function
      | T _ -> false
      | N i ->
        (match ranges.(i) with None -> true | Some (lo, hi) -> lo <> hi)
    in
    let sym_first = function
      | T c -> Facts.Cset.singleton c
      | N i -> first.(i)
    in
    let sym_last = function
      | T c -> Facts.Cset.singleton c
      | N i -> last.(i)
    in
    let sym_nullable = function T _ -> false | N i -> null.(i) in
    for a = 0 to n - 1 do
      if useful a then
        List.iteri
          (fun idx rhs ->
             if List.length (List.filter variable rhs) >= 2 then begin
               let rec adjacent = function
                 | x :: (y :: _ as rest) ->
                   if
                     sym_nullable x || sym_nullable y
                     || not
                          (Facts.Cset.disjoint (sym_last x) (sym_first y))
                   then true
                   else adjacent rest
                 | _ -> false
               in
               if adjacent rhs then
                 emit
                   (D.make ~code:"G014" ~severity:D.Warning
                      ~loc:(D.Rule (name g a, idx))
                      ~hint:"fixed-length or boundary-disjoint symbols force \
                             a unique factorisation"
                      "two variable-length symbols share a movable boundary \
                       — a word may factorise in two ways")
             end)
          (rules_of g a)
    done);
  D.sort (List.rev !diags)

type certificate =
  | Certified_unambiguous
  | Certified_ambiguous of D.t
  | Certificate_unknown

let definite_error_codes = [ "G004"; "G005"; "G006"; "G007"; "G009"; "G013" ]

let certificate_verdict diags =
  match
    List.find_opt
      (fun (d : D.t) ->
         d.severity = D.Error && List.mem d.code definite_error_codes)
      diags
  with
  | Some proof -> Certified_ambiguous proof
  | None ->
    if List.exists (fun (d : D.t) -> d.code = "G015") diags then
      Certified_unambiguous
    else Certificate_unknown

let verdict diags =
  match certificate_verdict diags with
  | Certified_ambiguous _ -> `Ambiguous
  | Certified_unambiguous -> `Unambiguous
  | Certificate_unknown -> `Unknown
