(* Tests for the static-analysis subsystem: the diagnostic type and its
   renderers, every grammar and NFA lint code on handcrafted instances, the
   JSON encoding, and qcheck properties tying the sound verdicts to the
   exhaustive ambiguity decision. *)

open Ucfg_word
open Ucfg_cfg
open Ucfg_lint
module G = Grammar
module D = Diag
module SL = Semantic_lint
module Lang = Ucfg_lang.Lang
module Packed = Ucfg_lang.Packed
module Bignum = Ucfg_util.Bignum
module Exec = Ucfg_exec.Exec
module Guard = Ucfg_exec.Guard

(* flip the process-wide pool, restoring the previous size afterwards *)
let with_global_jobs jobs f =
  let saved = Exec.jobs () in
  Exec.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

let codes diags = List.map (fun (d : D.t) -> d.code) diags
let has_code c diags = List.mem c (codes diags)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let diag_with c diags =
  match List.find_opt (fun (d : D.t) -> d.code = c) diags with
  | Some d -> d
  | None -> Alcotest.failf "expected a %s diagnostic" c

(* S -> AB | BA; A -> a; B -> b — unambiguous, certified *)
let tiny () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A"; "B" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.N 1; G.N 2 ] };
        { G.lhs = 0; rhs = [ G.N 2; G.N 1 ] };
        { G.lhs = 1; rhs = [ G.T 'a' ] };
        { G.lhs = 2; rhs = [ G.T 'b' ] };
      ]
    ~start:0

(* S -> AA; A -> a | aa — "aaa" has two trees *)
let amb () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.N 1; G.N 1 ] };
        { G.lhs = 1; rhs = [ G.T 'a' ] };
        { G.lhs = 1; rhs = [ G.T 'a'; G.T 'a' ] };
      ]
    ~start:0

(* --- grammar codes, one by one ------------------------------------------ *)

let test_useless_nonterminals () =
  (* A unproductive (no rules); B productive but unreachable *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A"; "B" |]
      ~rules:
        [ { G.lhs = 0; rhs = [ G.T 'a' ] }; { G.lhs = 2; rhs = [ G.T 'b' ] } ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  Alcotest.(check bool) "G001 fires" true (has_code "G001" ds);
  Alcotest.(check bool) "G002 fires" true (has_code "G002" ds);
  let d = diag_with "G001" ds in
  Alcotest.(check bool) "G001 locates A" true (d.loc = D.Nonterminal "A")

let test_empty_language () =
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:[ { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] } ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  Alcotest.(check bool) "G003 fires" true (has_code "G003" ds);
  (* the start symbol is unproductive, so no definite-ambiguity error *)
  Alcotest.(check bool) "no errors" false (D.has_errors ds)

let test_self_reference () =
  (* S -> S is usable and useful over the finite language {a} *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:[ { G.lhs = 0; rhs = [ G.N 0 ] }; { G.lhs = 0; rhs = [ G.T 'a' ] } ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  let d = diag_with "G004" ds in
  Alcotest.(check bool) "G004 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "G005 also fires (unit self-loop)" true
    (has_code "G005" ds);
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous)

let test_unit_cycle () =
  (* A <-> B unit cycle over {a} *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A"; "B" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1 ] };
          { G.lhs = 1; rhs = [ G.N 2 ] };
          { G.lhs = 2; rhs = [ G.N 1 ] };
          { G.lhs = 1; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  let d = diag_with "G005" ds in
  Alcotest.(check bool) "G005 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous)

let test_epsilon_cycle () =
  (* A -> B N, B -> A N, N -> ε: A =>+ A through ε-context; language {a} *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "A"; "B"; "N" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1; G.N 2 ] };
          { G.lhs = 1; rhs = [ G.N 0; G.N 2 ] };
          { G.lhs = 2; rhs = [] };
          { G.lhs = 0; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  let d = diag_with "G006" ds in
  Alcotest.(check bool) "G006 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous)

let test_infinite_language () =
  (* S -> aS | a: dependency cycle, infinite language — info only *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] };
          { G.lhs = 0; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  Alcotest.(check bool) "G007 fires" true (has_code "G007" ds);
  Alcotest.(check bool) "G008 fires" true (has_code "G008" ds);
  Alcotest.(check bool) "no errors (S -> aS | a is unambiguous)" false
    (D.has_errors ds);
  Alcotest.(check bool) "verdict unknown" true
    (Grammar_lint.verdict ds = `Unknown)

let test_unit_duplication () =
  (* S -> A and S -> aa duplicate A -> aa *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1 ] };
          { G.lhs = 0; rhs = [ G.T 'a'; G.T 'a' ] };
          { G.lhs = 1; rhs = [ G.T 'a'; G.T 'a' ] };
        ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  let d = diag_with "G009" ds in
  Alcotest.(check bool) "G009 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "G013 confirms" true (has_code "G013" ds);
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous);
  (* cross-check the definite verdict against the exhaustive decision *)
  Alcotest.(check bool) "exhaustive check agrees" false
    (Ambiguity.is_unambiguous ~fast:false g)

let test_cnf_and_start_on_rhs () =
  let ds_tiny = Grammar_lint.run (tiny ()) in
  Alcotest.(check bool) "tiny is CNF" false (has_code "G010" ds_tiny);
  let ds_amb = Grammar_lint.run (amb ()) in
  Alcotest.(check bool) "amb is not CNF" true (has_code "G010" ds_amb);
  (* B -> S b puts the start symbol on a right-hand side *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "B" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a' ] };
          { G.lhs = 1; rhs = [ G.N 0; G.T 'b' ] };
        ]
      ~start:0
  in
  let ds = Grammar_lint.run g in
  Alcotest.(check bool) "G011 fires" true (has_code "G011" ds);
  Alcotest.(check bool) "G002 flags B" true (has_code "G002" ds)

let test_heuristics_and_probe () =
  let ds = Grammar_lint.run (amb ()) in
  (* A's two rules share FIRST = {a}; S -> A A has a movable boundary *)
  Alcotest.(check bool) "G012 fires" true (has_code "G012" ds);
  Alcotest.(check bool) "G014 fires" true (has_code "G014" ds);
  let d = diag_with "G013" ds in
  Alcotest.(check bool) "G013 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "G013 names the witness" true
    (contains_substring d.message "aaa");
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous)

let test_certificate () =
  let ds = Grammar_lint.run (tiny ()) in
  Alcotest.(check bool) "G015 fires" true (has_code "G015" ds);
  Alcotest.(check bool) "no errors" false (D.has_errors ds);
  Alcotest.(check bool) "verdict unambiguous" true
    (Grammar_lint.verdict ds = `Unambiguous)

let test_registry_complete () =
  let expected =
    [ "G001"; "G002"; "G003"; "G004"; "G005"; "G006"; "G007"; "G008"; "G009";
      "G010"; "G011"; "G012"; "G013"; "G014"; "G015" ]
  in
  Alcotest.(check (list string)) "grammar registry codes" expected
    (List.map (fun (c : D.check) -> c.code) Grammar_lint.checks);
  Alcotest.(check (list string)) "nfa registry codes"
    [ "N001"; "N002"; "N003"; "N004"; "N005"; "N006"; "N007" ]
    (List.map (fun (c : D.check) -> c.code) Nfa_lint.checks);
  Alcotest.(check (list string)) "semantic registry codes"
    [ "G016"; "G017"; "G018"; "G019"; "G020" ]
    (List.map (fun (c : D.check) -> c.code) SL.checks)

(* --- the semantic tier ---------------------------------------------------- *)

(* Σ^2 via S -> AA, A -> a | b — universal, certified unambiguous *)
let full2 () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.N 1; G.N 1 ] };
        { G.lhs = 1; rhs = [ G.T 'a' ] };
        { G.lhs = 1; rhs = [ G.T 'b' ] };
      ]
    ~start:0

(* {ab}: a strict subset of tiny's {ab, ba} *)
let just_ab () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
    ~rules:[ { G.lhs = 0; rhs = [ G.T 'a'; G.T 'b' ] } ]
    ~start:0

(* {aa, bb}: disjoint from tiny's {ab, ba} *)
let pair_aa_bb () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.T 'a'; G.T 'a' ] };
        { G.lhs = 0; rhs = [ G.T 'b'; G.T 'b' ] };
      ]
    ~start:0

(* the start symbol is unproductive: L = ∅ *)
let empty_g () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
    ~rules:[ { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] } ]
    ~start:0

let big = Alcotest.testable Bignum.pp Bignum.equal
let card_opt = Alcotest.(option big)

let check_status what expected (r : SL.report) =
  let pp_status ppf (s : SL.status) =
    match s with
    | SL.Holds -> Format.fprintf ppf "Holds"
    | SL.Fails w ->
      Format.fprintf ppf "Fails %S (in_first %b, in_second %b)" w.SL.word
        w.SL.in_first w.SL.in_second
    | SL.Interrupted reason ->
      Format.fprintf ppf "Interrupted %s" (Guard.reason_code reason)
  in
  Alcotest.check (Alcotest.testable pp_status ( = )) what expected r.SL.status

let test_semantic_universal_unit () =
  let r = SL.universal (full2 ()) in
  check_status "Σ^2 grammar is universal" SL.Holds r;
  Alcotest.(check bool) "decided by counting" true (r.SL.backend = SL.Counting);
  Alcotest.check card_opt "|L| = 4" (Some (Bignum.of_int 4)) r.SL.cardinal;
  (* the cross-check forces the packed route too and must agree *)
  let rx = SL.universal ~cross_check:true (full2 ()) in
  check_status "cross-checked verdict unchanged" SL.Holds rx;
  Alcotest.(check bool) "backends agree" true (rx.SL.cross_check = None);
  let r2 = SL.universal (tiny ()) in
  check_status "{ab, ba} misses \"aa\""
    (SL.Fails { SL.word = "aa"; in_first = false; in_second = true })
    r2;
  Alcotest.(check bool) "counting engaged on the certified grammar" true
    (r2.SL.backend = SL.Counting);
  Alcotest.check card_opt "|L| = 2" (Some (Bignum.of_int 2)) r2.SL.cardinal;
  let r3 = SL.universal (empty_g ()) in
  Alcotest.(check bool) "empty language is vacuously non-universal" true
    (r3.SL.vacuous && (match r3.SL.status with SL.Fails _ -> true | _ -> false));
  Alcotest.check card_opt "|L| = 0" (Some Bignum.zero) r3.SL.cardinal

let test_semantic_relational_unit () =
  let r = SL.includes (just_ab ()) (tiny ()) in
  check_status "{ab} ⊆ {ab, ba}" SL.Holds r;
  Alcotest.(check bool) "certificate routes to counting" true
    (r.SL.backend = SL.Counting);
  Alcotest.check card_opt "|L1| = 1" (Some (Bignum.of_int 1)) r.SL.cardinal;
  let r2 = SL.includes (tiny ()) (just_ab ()) in
  check_status "reverse fails on the least extra word"
    (SL.Fails { SL.word = "ba"; in_first = true; in_second = false })
    r2;
  let r3 = SL.disjoint (tiny ()) (pair_aa_bb ()) in
  check_status "{ab, ba} ∥ {aa, bb}" SL.Holds r3;
  let r4 = SL.disjoint (tiny ()) (full2 ()) in
  check_status "overlap witnessed by the least shared word"
    (SL.Fails { SL.word = "ab"; in_first = true; in_second = true })
    r4;
  let r5 = SL.equiv (tiny ()) (tiny ()) in
  check_status "L = L" SL.Holds r5;
  let r6 = SL.equiv (tiny ()) (just_ab ()) in
  check_status "G1-side witness"
    (SL.Fails { SL.word = "ba"; in_first = true; in_second = false })
    r6;
  let r7 = SL.equiv (just_ab ()) (tiny ()) in
  check_status "G2-side witness"
    (SL.Fails { SL.word = "ba"; in_first = false; in_second = true })
    r7;
  let r8 = SL.includes (empty_g ()) (tiny ()) in
  check_status "∅ ⊆ L vacuously" SL.Holds r8;
  Alcotest.(check bool) "flagged vacuous" true r8.SL.vacuous;
  Alcotest.(check bool) "G019 rendered" true
    (has_code "G019" (SL.to_diags r8))

(* L = ∅ beside a useless, infinite <X>: the semantic checks materialise
   the trimmed grammar, so <X>'s word sets are never built.  Untrimmed,
   the materialisation ran until a 20 s timeout killed it; the 5 s guard
   turns such a regression into a failure instead of a hang. *)
let useless_infinite () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S"; "X" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.N 0; G.T 'a' ] };
        { G.lhs = 1; rhs = [ G.N 1; G.N 1; G.T 'a' ] };
        { G.lhs = 1; rhs = [ G.T 'b'; G.T 'a' ] };
      ]
    ~start:0

let test_semantic_useless_unbuilt () =
  let guard () = Guard.create ~timeout:5. () in
  let r = SL.universal ~guard:(guard ()) (useless_infinite ()) in
  check_status "the empty language is not universal"
    (SL.Fails { SL.word = ""; in_first = false; in_second = true })
    r;
  let ds = SL.to_diags r in
  Alcotest.(check bool) "G016 + G019" true
    (has_code "G016" ds && has_code "G019" ds);
  check_status "∅ ⊆ L vacuously" SL.Holds
    (SL.includes ~guard:(guard ()) (useless_infinite ()) (tiny ()));
  check_status "packed route on the right operand"
    (SL.Fails { SL.word = "ab"; in_first = true; in_second = false })
    (SL.includes ~guard:(guard ()) ~cross_check:true (tiny ())
       (useless_infinite ()))

let test_semantic_guard_trip () =
  (* the packed sweep on log n=6 needs more than 3 guard ticks: the budget
     trips, the verdict degrades to a partial one, and the kind must not
     depend on the job count *)
  let kind jobs =
    with_global_jobs jobs (fun () ->
      let guard = Guard.create ~budget:3 () in
      let r = SL.universal ~guard (Constructions.log_cfg 6) in
      match r.SL.status with
      | SL.Interrupted reason -> Guard.reason_code reason
      | SL.Holds -> "holds"
      | SL.Fails _ -> "fails")
  in
  Alcotest.(check string) "budget trips at jobs 1" "budget" (kind 1);
  Alcotest.(check string) "same kind at jobs 4" "budget" (kind 4);
  let guard = Guard.create ~budget:3 () in
  let r = SL.universal ~guard (Constructions.log_cfg 6) in
  let ds = SL.to_diags r in
  let d = diag_with "R002" ds in
  Alcotest.(check bool) "partial verdict is a warning" true
    (d.severity = D.Warning);
  Alcotest.(check bool) "says partial" true
    (contains_substring d.message "partial verdict");
  (* an immediate deadline degrades the same way, as R001 *)
  let timed jobs =
    with_global_jobs jobs (fun () ->
      let guard = Guard.create ~timeout:1e-9 () in
      match (SL.equiv ~guard (Constructions.log_cfg 5) (tiny ())).SL.status with
      | SL.Interrupted reason -> Guard.reason_code reason
      | _ -> "decided")
  in
  Alcotest.(check string) "timeout trips at jobs 1" "timeout" (timed 1);
  Alcotest.(check string) "same kind at jobs 4" "timeout" (timed 4)

let test_certificate_verdict_typed () =
  (match Grammar_lint.certificate_verdict (Grammar_lint.run (tiny ())) with
   | Grammar_lint.Certified_unambiguous -> ()
   | _ -> Alcotest.fail "tiny should be certified unambiguous");
  (match Grammar_lint.certificate_verdict (Grammar_lint.run (amb ())) with
   | Grammar_lint.Certified_ambiguous proof ->
     Alcotest.(check bool) "the proof is an error diagnostic" true
       (proof.D.severity = D.Error)
   | _ -> Alcotest.fail "amb should carry an ambiguity proof");
  let inf =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] };
          { G.lhs = 0; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  match Grammar_lint.certificate_verdict (Grammar_lint.run inf) with
  | Grammar_lint.Certificate_unknown -> ()
  | _ -> Alcotest.fail "an infinite language is inconclusive"

let test_semantic_lint_tier () =
  let ds = D.sort (Grammar_lint.run (tiny ()) @ SL.lint (tiny ())) in
  let d = diag_with "G016" ds in
  Alcotest.(check bool) "non-universality is an Info fact" true
    (d.severity = D.Info);
  Alcotest.(check bool) "carries the witness" true
    (contains_substring d.message "aa");
  Alcotest.(check bool) "syntactic tier still runs" true (has_code "G015" ds);
  Alcotest.(check bool) "no errors" false (D.has_errors ds);
  Alcotest.(check bool) "the default run is unchanged" false
    (has_code "G016" (Grammar_lint.run (tiny ())));
  (* the deep tier stays silent when the language cannot be materialised *)
  let inf =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] };
          { G.lhs = 0; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  let ds_inf = D.sort (Grammar_lint.run inf @ SL.lint inf) in
  Alcotest.(check bool) "no semantic codes on an infinite language" false
    (List.exists (fun c -> has_code c ds_inf)
       [ "G016"; "G017"; "G018"; "G019"; "G020" ])

let test_packed_first_codes () =
  (* {ab, ba} at length 2: codes 1 and 2, so the first gap is 0 ("aa") *)
  let p = Packed.of_codes ~len:2 [| 1; 2 |] in
  Alcotest.(check (option int)) "first_code" (Some 1) (Packed.first_code p);
  Alcotest.(check (option string)) "min_word" (Some "ab") (Packed.min_word p);
  Alcotest.(check (option int)) "first gap" (Some 0)
    (Packed.first_absent_code p);
  Alcotest.(check (option int)) "empty has no code" None
    (Packed.first_code (Packed.empty 3));
  Alcotest.(check (option int)) "empty's gap is 0" (Some 0)
    (Packed.first_absent_code (Packed.empty 3));
  Alcotest.(check (option int)) "full has no gap" None
    (Packed.first_absent_code (Packed.full 2));
  Alcotest.(check (option int)) "Σ^0 = {ε} has no gap" None
    (Packed.first_absent_code (Packed.full 0));
  (* the sparse construction path (len > 16 stores a code array) *)
  let q = Packed.of_sorted_codes ~len:20 [| 0; 1; 2; 5 |] in
  Alcotest.(check (option int)) "sparse first_code" (Some 0)
    (Packed.first_code q);
  Alcotest.(check (option int)) "sparse gap after the prefix" (Some 3)
    (Packed.first_absent_code q);
  let r = Packed.of_sorted_codes ~len:20 (Array.init 4 Fun.id) in
  Alcotest.(check (option int)) "gapless prefix: gap = cardinal" (Some 4)
    (Packed.first_absent_code r)

(* --- the fast path in Ambiguity.check ----------------------------------- *)

let test_fast_path_certificate () =
  let v = Ambiguity.check (tiny ()) in
  Alcotest.(check bool) "unambiguous" true v.Ambiguity.unambiguous;
  Alcotest.(check bool) "via certificate" true
    (v.Ambiguity.via = Ambiguity.Certificate);
  Alcotest.(check (option int)) "word count from the poly DP" (Some 2)
    v.Ambiguity.word_count

let test_fast_path_witness () =
  let v = Ambiguity.check (amb ()) in
  Alcotest.(check bool) "ambiguous" false v.Ambiguity.unambiguous;
  Alcotest.(check bool) "via static witness" true
    (match v.Ambiguity.via with
     | Ambiguity.Static_witness _ -> true
     | _ -> false);
  Alcotest.(check (option string)) "witness word" (Some "aaa")
    (Ambiguity.ambiguous_witness (amb ()));
  let slow = Ambiguity.check ~fast:false (amb ()) in
  Alcotest.(check bool) "exhaustive path used" true
    (slow.Ambiguity.via = Ambiguity.Counting);
  Alcotest.(check bool) "same answer" false slow.Ambiguity.unambiguous

let test_fast_path_contract () =
  (* infinite language must still raise, fast path or not *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] };
          { G.lhs = 0; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  Alcotest.(check bool) "infinite raises" true
    (match Ambiguity.check g with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_fast_path_log_cfg_16 () =
  (* |L_16| = 4^16 - 3^16 (about 4.3e9 words) is far past the exhaustive
     count, so this verdict can only come from the static pre-checks *)
  let ds = Grammar_lint.run (Constructions.log_cfg 16) in
  Alcotest.(check bool) "verdict ambiguous" true
    (Grammar_lint.verdict ds = `Ambiguous)

(* --- NFA codes ----------------------------------------------------------- *)

let mk_nfa ?(epsilons = []) ~states ~initials ~finals transitions =
  Ucfg_automata.Nfa.make ~alphabet:Alphabet.binary ~states ~initials ~finals
    ~transitions ~epsilons ()

let test_nfa_useless_states () =
  (* state 2 unreachable; state 3 reachable but dead *)
  let a =
    mk_nfa ~states:4 ~initials:[ 0 ] ~finals:[ 1 ]
      [ (0, 'a', 1); (2, 'b', 1); (0, 'b', 3) ]
  in
  let ds = Nfa_lint.run a in
  Alcotest.(check bool) "N001 fires" true (has_code "N001" ds);
  Alcotest.(check bool) "N002 fires" true (has_code "N002" ds);
  Alcotest.(check bool) "N007 certifies" true (has_code "N007" ds)

let test_nfa_epsilon_skips_product () =
  let a =
    mk_nfa ~states:2 ~initials:[ 0 ] ~finals:[ 1 ] ~epsilons:[ (0, 1) ]
      [ (0, 'a', 1) ]
  in
  let ds = Nfa_lint.run a in
  Alcotest.(check bool) "N003 fires" true (has_code "N003" ds);
  Alcotest.(check bool) "N006 skipped" false (has_code "N006" ds);
  Alcotest.(check bool) "N007 skipped" false (has_code "N007" ds)

let test_nfa_fanout_and_empty () =
  let a =
    mk_nfa ~states:3 ~initials:[ 0 ] ~finals:[ 1; 2 ]
      [ (0, 'a', 1); (0, 'a', 2); (1, 'b', 1) ]
  in
  Alcotest.(check bool) "N004 fires" true (has_code "N004" (Nfa_lint.run a));
  let dfa = mk_nfa ~states:2 ~initials:[ 0 ] ~finals:[ 1 ] [ (0, 'a', 1) ] in
  Alcotest.(check bool) "no N004 on a DFA" false
    (has_code "N004" (Nfa_lint.run dfa));
  let empty = mk_nfa ~states:1 ~initials:[ 0 ] ~finals:[] [] in
  let ds = Nfa_lint.run empty in
  Alcotest.(check bool) "N005 fires" true (has_code "N005" ds);
  Alcotest.(check bool) "no product claim" false
    (has_code "N006" ds || has_code "N007" ds)

let test_nfa_ambiguous () =
  (* two accepting runs of "a": 0-a->1 and 0-a->2 *)
  let a =
    mk_nfa ~states:3 ~initials:[ 0 ] ~finals:[ 1; 2 ]
      [ (0, 'a', 1); (0, 'a', 2) ]
  in
  let ds = Nfa_lint.run a in
  let d = diag_with "N006" ds in
  Alcotest.(check bool) "N006 is an error" true (d.severity = D.Error);
  Alcotest.(check bool) "names the pair" true
    (contains_substring d.message "states 1 and 2");
  Alcotest.(check bool) "agrees with Unambiguous" false
    (Ucfg_automata.Unambiguous.is_unambiguous a)

let test_nfa_ln_build_ambiguous () =
  let ds = Nfa_lint.run (Ucfg_automata.Ln_nfa.build 4) in
  Alcotest.(check bool) "the Theorem 1(2) NFA is ambiguous" true
    (has_code "N006" ds)

(* --- JSON ----------------------------------------------------------------- *)

(* a minimal JSON reader, enough to validate the linter's encoder *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let next () =
      if !pos >= len then raise (Bad "eof");
      let c = s.[!pos] in
      incr pos;
      c
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if next () <> c then raise (Bad (Printf.sprintf "expected %c" c))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (match next () with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'u' ->
             let hex = String.init 4 (fun _ -> next ()) in
             Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
           | c -> raise (Bad (Printf.sprintf "bad escape %c" c)));
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elements []
        end
      | Some 'n' ->
        pos := !pos + 4;
        Null
      | Some 't' ->
        pos := !pos + 4;
        Bool true
      | Some 'f' ->
        pos := !pos + 5;
        Bool false
      | Some c when c = '-' || ('0' <= c && c <= '9') ->
        let start = !pos in
        let is_num c =
          c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
          || ('0' <= c && c <= '9')
        in
        while (match peek () with Some c -> is_num c | None -> false) do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
      | _ -> raise (Bad "unexpected")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then raise (Bad "trailing garbage");
    v
end

let test_json_wellformed () =
  let check_diags diags =
    match Json.parse (D.list_to_json diags) with
    | Json.Arr items ->
      Alcotest.(check int) "one object per diagnostic" (List.length diags)
        (List.length items);
      List.iter
        (function
          | Json.Obj fields ->
            List.iter
              (fun k ->
                 Alcotest.(check bool) (k ^ " present") true
                   (List.mem_assoc k fields))
              [ "code"; "severity"; "location"; "message"; "hint" ];
            (match List.assoc "location" fields with
             | Json.Obj loc ->
               Alcotest.(check bool) "location kind" true
                 (List.mem_assoc "kind" loc)
             | _ -> Alcotest.fail "location is not an object")
          | _ -> Alcotest.fail "array element is not an object")
        items
    | _ -> Alcotest.fail "not a JSON array"
  in
  check_diags (Grammar_lint.run (amb ()));
  check_diags (Grammar_lint.run (Constructions.log_cfg 4));
  check_diags (Nfa_lint.run (Ucfg_automata.Ln_nfa.build 3));
  (* escaping: a message with quotes and newlines survives *)
  let tricky =
    [ D.make ~code:"G999" ~severity:D.Info ~loc:D.Whole "say \"hi\"\n\ttab" ]
  in
  match Json.parse (D.list_to_json tricky) with
  | Json.Arr [ Json.Obj fields ] ->
    Alcotest.(check bool) "message round-trips" true
      (List.assoc "message" fields = Json.Str "say \"hi\"\n\ttab")
  | _ -> Alcotest.fail "tricky encoding broke"

let test_text_report () =
  let report =
    Format.asprintf "%a" D.pp_report (Grammar_lint.run (amb ()))
  in
  Alcotest.(check bool) "mentions G013" true
    (contains_substring report "G013");
  Alcotest.(check bool) "has a summary line" true
    (contains_substring report "error")

(* --- golden output --------------------------------------------------------- *)

(* One md5 over the text of every structural fact and lint report on a
   fixed corpus: seeded wild grammars (cycles, unit rules, ε-rules,
   unproductive and unreachable nonterminals, any start), the paper's
   constructions at the `make lint` sizes, the example grammar files, and
   seeded ε-free NFAs.  Any byte that moves changes the digest. *)

let wild_grammar rng =
  let module Rng = Ucfg_util.Rng in
  let n = 1 + Rng.int rng 5 in
  let sym () =
    if Rng.int rng 2 = 0 then G.T (if Rng.bool rng then 'a' else 'b')
    else G.N (Rng.int rng n)
  in
  let rules =
    List.concat
      (List.init n (fun lhs ->
           List.init (Rng.int rng 4) (fun _ ->
               { G.lhs; rhs = List.init (Rng.int rng 4) (fun _ -> sym ()) })))
  in
  G.make ~alphabet:Alphabet.binary
    ~names:(Array.init n (Printf.sprintf "X%d"))
    ~rules ~start:(Rng.int rng n)

let wild_nfa rng =
  let module Rng = Ucfg_util.Rng in
  let states = 1 + Rng.int rng 6 in
  let pick () = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init states Fun.id) in
  Ucfg_automata.Nfa.make ~alphabet:Alphabet.binary ~states ~initials:(pick ())
    ~finals:(pick ())
    ~transitions:
      (List.init (Rng.int rng (3 * states)) (fun _ ->
           ( Rng.int rng states,
             (if Rng.bool rng then 'a' else 'b'),
             Rng.int rng states )))
    ()

let guarded f = try f () with Invalid_argument m -> "invalid: " ^ m

let grammar_facts buf g =
  let add s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  let ints l = String.concat " " (List.map string_of_int l) in
  add (G.to_string g);
  add (D.list_to_json (Grammar_lint.run g));
  add
    (match Static.verdict g with
     | Static.Unambiguous -> "unambiguous"
     | Static.Ambiguous { nonterminal; word } -> nonterminal ^ " " ^ word
     | Static.Unknown -> "unknown");
  add (G.to_string (Trim.trim g));
  let useful = Trim.useful g in
  add (Printf.sprintf "%b %b" (Facts.is_finite g ~useful)
         (Facts.has_finitely_many_trees g ~useful));
  add (Option.value ~default:"none" (Analysis.witness_word g));
  let order = Facts.topological_order g in
  add (match order with Some o -> ints o | None -> "cyclic");
  Option.iter
    (fun order ->
       add
         (String.concat " "
            (Array.to_list
               (Array.map
                  (function
                    | None -> "-"
                    | Some (lo, hi) -> Printf.sprintf "%d..%d" lo hi)
                  (Static.length_ranges g order)))))
    order;
  add (guarded (fun () -> G.to_string (Cnf.of_grammar g)))

let golden_corpus () =
  let rng = Ucfg_util.Rng.create 2021 in
  (* sequenced lets: the three families draw from one stream in order *)
  let cyclic = List.init 300 (fun _ -> wild_grammar rng) in
  (* acyclic ones, denser, so the certificate and the probe both fire *)
  let acyclic =
    List.init 100 (fun i ->
        Random_grammar.general rng ~nonterminals:(2 + (i mod 4)) ~max_rules:3
          ~max_rhs_len:3)
  in
  let fixed =
    List.init 50 (fun i ->
        Random_grammar.fixed_length rng ~word_len:(3 + (i mod 4)) ~variants:2)
  in
  let wild = cyclic @ acyclic @ fixed in
  let kinds =
    List.map
      (fun (kind, n) -> (List.assoc kind Constructions.kinds) ?guard:None n)
      [ ("example4", 4); ("trivial", 3); ("log", 6); ("example3", 2) ]
  in
  let dir = "../examples/grammars" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".cfg")
    |> List.map (fun f ->
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
        |> Grammar_io.parse Alphabet.binary)
  in
  (wild, kinds, files)

let test_golden_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let wild, kinds, files = golden_corpus () in
  List.iter (grammar_facts buf) (wild @ kinds @ files);
  Alcotest.(check int) "example grammar files" 5 (List.length files);
  (* the deep tier composed after the static report, on a few tiny inputs *)
  List.iter
    (fun g ->
       Buffer.add_string buf
         (D.list_to_json
            (Ucfg_serve.Verbs.lint_diags ~guard:(Exec.current_guard ())
               ~semantic:true g)))
    ([ tiny (); amb () ] @ files);
  let rng = Ucfg_util.Rng.create 2109 in
  for _ = 1 to 200 do
    let a = wild_nfa rng in
    Buffer.add_string buf (D.list_to_json (Nfa_lint.run a));
    Buffer.add_string buf
      (string_of_bool (Ucfg_automata.Unambiguous.is_unambiguous a))
  done;
  Alcotest.(check string) "md5 of every fact and report"
    "8224100ad1c9aa7c457b4a5304ba5b20"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- properties ----------------------------------------------------------- *)

let arb_seed = QCheck.int_range 0 100_000

let prop_lint_verdict_sound =
  QCheck.Test.make
    ~name:"conclusive lint verdicts agree with exhaustive Ambiguity.check"
    ~count:80 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:4 ~max_rules:3 ~max_rhs_len:3
       in
       match Grammar_lint.verdict (Grammar_lint.run g) with
       | `Unknown -> true
       | verdict -> (
         match Ambiguity.check ~fast:false g with
         | v -> v.Ambiguity.unambiguous = (verdict = `Unambiguous)
         | exception Invalid_argument _ -> QCheck.assume_fail ()))

let prop_fast_equals_slow =
  QCheck.Test.make
    ~name:"Ambiguity.check fast path agrees with the exhaustive path"
    ~count:80 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:4 ~max_rules:3 ~max_rhs_len:3
       in
       match
         ( Ambiguity.is_unambiguous ~fast:true g,
           Ambiguity.is_unambiguous ~fast:false g )
       with
       | a, b -> a = b
       | exception Invalid_argument _ -> QCheck.assume_fail ())

let random_nfa seed =
  let rng = Ucfg_util.Rng.create seed in
  let states = 2 + Ucfg_util.Rng.int rng 3 in
  let transitions =
    List.init
      (1 + Ucfg_util.Rng.int rng (2 * states))
      (fun _ ->
         ( Ucfg_util.Rng.int rng states,
           (if Ucfg_util.Rng.bool rng then 'a' else 'b'),
           Ucfg_util.Rng.int rng states ))
  in
  mk_nfa ~states ~initials:[ 0 ]
    ~finals:[ Ucfg_util.Rng.int rng states ]
    transitions

let prop_nfa_product_criterion =
  QCheck.Test.make
    ~name:"N006 fires exactly on ambiguous NFAs (random)" ~count:200 arb_seed
    (fun seed ->
       let a = random_nfa seed in
       let ambiguous = not (Ucfg_automata.Unambiguous.is_unambiguous a) in
       has_code "N006" (Nfa_lint.run a) = ambiguous)

(* --- semantic tier vs brute-force enumeration ----------------------------- *)

let random_g rng =
  Random_grammar.general rng ~nonterminals:4 ~max_rules:3 ~max_rhs_len:3

(* shortest-then-lexicographically-least word, the order every semantic
   witness is specified in *)
let least_word lang =
  Lang.fold
    (fun w acc ->
       match acc with
       | Some b when (String.length b, b) <= (String.length w, w) -> acc
       | _ -> Some w)
    lang None

let prop_semantic_universal_vs_brute =
  QCheck.Test.make
    ~name:"Semantic_lint.universal agrees with brute-force enumeration"
    ~count:200 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g = random_g rng in
       match Analysis.language_exn g with
       | exception Invalid_argument _ -> QCheck.assume_fail ()
       | lang ->
         let brute =
           (not (Lang.is_empty lang))
           && (match Lang.uniform_length lang with
               | Some l -> Lang.equal lang (Lang.full Alphabet.binary l)
               | None -> false)
         in
         let r = SL.universal ~cross_check:true g in
         r.SL.cross_check = None
         && (match r.SL.status with
             | SL.Holds -> brute
             | SL.Fails w ->
               (not brute) && w.SL.in_first = Lang.mem w.SL.word lang
             | SL.Interrupted _ -> false))

let prop_semantic_relational_vs_brute =
  QCheck.Test.make
    ~name:
      "Semantic_lint inclusion/equivalence/disjointness agree with \
       brute-force Lang algebra, with least witnesses"
    ~count:200 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g1 = random_g rng in
       let g2 = random_g rng in
       match (Analysis.language_exn g1, Analysis.language_exn g2) with
       | exception Invalid_argument _ -> QCheck.assume_fail ()
       | l1, l2 ->
         let fails_on expected (r : SL.report) in_first in_second =
           match r.SL.status with
           | SL.Fails w ->
             Some w.SL.word = expected
             && w.SL.in_first = in_first && w.SL.in_second = in_second
           | _ -> false
         in
         let inc = SL.includes ~cross_check:true g1 g2 in
         let inc_ok =
           if Lang.subset l1 l2 then inc.SL.status = SL.Holds
           else fails_on (least_word (Lang.diff l1 l2)) inc true false
         in
         let dis = SL.disjoint ~cross_check:true g1 g2 in
         let dis_ok =
           if Lang.disjoint l1 l2 then dis.SL.status = SL.Holds
           else fails_on (least_word (Lang.inter l1 l2)) dis true true
         in
         let eqv = SL.equiv ~cross_check:true g1 g2 in
         let eqv_ok =
           if Lang.equal l1 l2 then eqv.SL.status = SL.Holds
           else if not (Lang.subset l1 l2) then
             fails_on (least_word (Lang.diff l1 l2)) eqv true false
           else fails_on (least_word (Lang.diff l2 l1)) eqv false true
         in
         inc_ok && dis_ok && eqv_ok
         && List.for_all
              (fun (r : SL.report) -> r.SL.cross_check = None)
              [ inc; dis; eqv ])

(* every observable field of a report, flattened for equality *)
let report_fingerprint (r : SL.report) =
  let status =
    match r.SL.status with
    | SL.Holds -> "holds"
    | SL.Fails w ->
      Printf.sprintf "fails:%s:%b:%b" w.SL.word w.SL.in_first w.SL.in_second
    | SL.Interrupted reason -> "interrupted:" ^ Guard.reason_code reason
  in
  let card = function None -> "-" | Some c -> Bignum.to_string c in
  Printf.sprintf "%s|%s|%b|%s|%s|%b" status
    (match r.SL.backend with
     | SL.Counting -> "counting"
     | SL.Packed -> "packed"
     | SL.Mixed -> "mixed")
    r.SL.vacuous (card r.SL.cardinal) (card r.SL.cardinal2)
    (r.SL.cross_check = None)

let prop_semantic_jobs_invariant =
  QCheck.Test.make
    ~name:"semantic reports are identical at jobs 1 and jobs 4" ~count:60
    arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g1 = random_g rng in
       let g2 = random_g rng in
       let run jobs =
         with_global_jobs jobs (fun () ->
           try
             Some
               (List.map report_fingerprint
                  [
                    SL.universal ~cross_check:true g1;
                    SL.includes g1 g2;
                    SL.equiv g1 g2;
                    SL.disjoint g1 g2;
                  ])
           with Invalid_argument _ -> None)
       in
       match (run 1, run 4) with
       | Some a, Some b -> a = b
       | None, None -> QCheck.assume_fail ()
       | _ -> false)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lint_verdict_sound; prop_fast_equals_slow; prop_nfa_product_criterion;
      prop_semantic_universal_vs_brute; prop_semantic_relational_vs_brute;
      prop_semantic_jobs_invariant ]

let () =
  Alcotest.run "ucfg_lint"
    [
      ( "grammar codes",
        [
          Alcotest.test_case "useless nonterminals" `Quick
            test_useless_nonterminals;
          Alcotest.test_case "empty language" `Quick test_empty_language;
          Alcotest.test_case "self reference" `Quick test_self_reference;
          Alcotest.test_case "unit cycle" `Quick test_unit_cycle;
          Alcotest.test_case "epsilon cycle" `Quick test_epsilon_cycle;
          Alcotest.test_case "infinite language" `Quick test_infinite_language;
          Alcotest.test_case "unit duplication" `Quick test_unit_duplication;
          Alcotest.test_case "CNF and start on rhs" `Quick
            test_cnf_and_start_on_rhs;
          Alcotest.test_case "heuristics and probe" `Quick
            test_heuristics_and_probe;
          Alcotest.test_case "certificate" `Quick test_certificate;
          Alcotest.test_case "registry" `Quick test_registry_complete;
        ] );
      ( "semantic tier",
        [
          Alcotest.test_case "universality" `Quick test_semantic_universal_unit;
          Alcotest.test_case "useless nonterminals stay unbuilt" `Quick
            test_semantic_useless_unbuilt;
          Alcotest.test_case "inclusion, equivalence, disjointness" `Quick
            test_semantic_relational_unit;
          Alcotest.test_case "guard trip degrades to partial" `Quick
            test_semantic_guard_trip;
          Alcotest.test_case "typed certificate verdict" `Quick
            test_certificate_verdict_typed;
          Alcotest.test_case "deep tier in Grammar_lint.run" `Quick
            test_semantic_lint_tier;
          Alcotest.test_case "packed first codes" `Quick
            test_packed_first_codes;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "certificate" `Quick test_fast_path_certificate;
          Alcotest.test_case "witness" `Quick test_fast_path_witness;
          Alcotest.test_case "contract preserved" `Quick
            test_fast_path_contract;
          Alcotest.test_case "log_cfg 16 verdict" `Quick
            test_fast_path_log_cfg_16;
        ] );
      ( "nfa codes",
        [
          Alcotest.test_case "useless states" `Quick test_nfa_useless_states;
          Alcotest.test_case "epsilon skips product" `Quick
            test_nfa_epsilon_skips_product;
          Alcotest.test_case "fan-out and empty" `Quick
            test_nfa_fanout_and_empty;
          Alcotest.test_case "ambiguous pair" `Quick test_nfa_ambiguous;
          Alcotest.test_case "L_n NFA" `Quick test_nfa_ln_build_ambiguous;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "JSON well-formed" `Quick test_json_wellformed;
          Alcotest.test_case "text report" `Quick test_text_report;
        ] );
      ( "golden",
        [ Alcotest.test_case "facts and reports md5" `Quick test_golden_digest ]
      );
      ("properties", qtests);
    ]
