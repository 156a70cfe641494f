open Ucfg_automata
module D = Diag

let checks =
  [
    { D.code = "N001"; title = "unreachable states"; soundness = D.Structural };
    { D.code = "N002"; title = "states that reach no final state";
      soundness = D.Structural };
    { D.code = "N003"; title = "\xce\xb5-transitions present";
      soundness = D.Structural };
    { D.code = "N004"; title = "nondeterministic fan-out";
      soundness = D.Structural };
    { D.code = "N005"; title = "no initial or no final state";
      soundness = D.Structural };
    { D.code = "N006"; title = "ambiguous: off-diagonal self-product pair";
      soundness = D.Definite };
    { D.code = "N007"; title = "unambiguity certificate (self-product)";
      soundness = D.Certificate };
  ]

let sample_ids ids =
  let shown = List.filteri (fun i _ -> i < 4) ids in
  String.concat ", " (List.map string_of_int shown)
  ^ if List.length ids > 4 then ", ..." else ""

let run a =
  let n = Nfa.state_count a in
  let reach, co = Nfa.reachability a in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* N001 / N002: useless states *)
  let unreachable =
    List.filter (fun s -> not reach.(s)) (List.init n (fun i -> i))
  in
  let dead =
    List.filter (fun s -> reach.(s) && not co.(s)) (List.init n (fun i -> i))
  in
  if unreachable <> [] then
    emit
      (D.make ~code:"N001" ~severity:D.Warning
         ~loc:(D.State (List.hd unreachable))
         ~hint:"Nfa.trim removes them"
         (Printf.sprintf "%d state%s unreachable from the initial states (%s)"
            (List.length unreachable)
            (if List.length unreachable = 1 then "" else "s")
            (sample_ids unreachable)));
  if dead <> [] then
    emit
      (D.make ~code:"N002" ~severity:D.Warning ~loc:(D.State (List.hd dead))
         ~hint:"Nfa.trim removes them"
         (Printf.sprintf "%d reachable state%s cannot reach a final state (%s)"
            (List.length dead)
            (if List.length dead = 1 then "" else "s")
            (sample_ids dead)));
  (* N003: ε-transitions *)
  let eps_free = Nfa.epsilon_count a = 0 in
  if not eps_free then
    emit
      (D.make ~code:"N003" ~severity:D.Info ~loc:D.Whole
         ~hint:"Nfa.remove_epsilon yields an equivalent \xce\xb5-free automaton"
         (Printf.sprintf
            "%d \xce\xb5-transition%s present; the self-product ambiguity \
             checks (N006/N007) are skipped"
            (Nfa.epsilon_count a)
            (if Nfa.epsilon_count a = 1 then "" else "s")));
  (* N004: nondeterministic fan-out — (state, letter) pairs with several
     successors.  None of these (plus a single initial state and ε-freeness)
     means the automaton is a DFA, hence trivially unambiguous. *)
  let fanout = Hashtbl.create 64 in
  List.iter
    (fun (s, c, _) ->
       Hashtbl.replace fanout (s, c)
         (1 + Option.value ~default:0 (Hashtbl.find_opt fanout (s, c))))
    (Nfa.transitions a);
  let nondet =
    Hashtbl.fold (fun k v acc -> if v >= 2 then k :: acc else acc) fanout []
    |> List.sort compare
  in
  (match nondet with
   | [] -> ()
   | (s, c) :: _ ->
     emit
       (D.make ~code:"N004" ~severity:D.Info ~loc:(D.State s)
          (Printf.sprintf
             "%d nondeterministic choice%s (first: state %d has several \
              '%c'-successors) — the only possible source of ambiguity"
             (List.length nondet)
             (if List.length nondet = 1 then "" else "s")
             s c)));
  (* N005: trivially empty automaton *)
  if Nfa.initials a = [] || Nfa.finals a = [] then
    emit
      (D.make ~code:"N005" ~severity:D.Warning ~loc:D.Whole
         (Printf.sprintf "no %s state: the language is empty"
            (if Nfa.initials a = [] then "initial" else "final")));
  (* N006 / N007: self-product criterion on the useful part, original ids *)
  if eps_free && Nfa.initials a <> [] && Nfa.finals a <> [] then begin
    match Unambiguous.off_diagonal_pair a with
    | Some (p, q) ->
      emit
        (D.make ~code:"N006" ~severity:D.Error ~loc:(D.State p)
           ~hint:"Unambiguous.ambiguous_word finds a witness word"
           (Printf.sprintf
              "states %d and %d are simultaneously reachable on a common \
               prefix and co-reachable on a common suffix: some word has \
               two accepting runs — definitely ambiguous"
              p q))
    | None ->
      emit
        (D.make ~code:"N007" ~severity:D.Info ~loc:D.Whole
           "certified unambiguous: the self-product has no useful \
            off-diagonal pair, so every word has at most one accepting run")
  end;
  D.sort (List.rev !diags)
