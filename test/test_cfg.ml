(* Tests for the CFG substrate: grammar core, trimming, CNF, analyses,
   parsing, counting, enumeration, the Lemma 10 transform and the paper's
   constructions. *)

open Ucfg_word
open Ucfg_lang
open Ucfg_cfg
module BN = Ucfg_util.Bignum
module G = Grammar

let lang = Alcotest.testable Lang.pp Lang.equal
let bn = Alcotest.testable BN.pp BN.equal

(* a tiny handwritten grammar: S -> AB | BA; A -> a; B -> b
   language {ab, ba}, unambiguous *)
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

(* ambiguous: S -> AA; A -> a | aa ... "aaa" has two trees *)
let amb () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.N 1; G.N 1 ] };
        { G.lhs = 1; rhs = [ G.T 'a' ] };
        { G.lhs = 1; rhs = [ G.T 'a'; G.T 'a' ] };
      ]
    ~start:0

(* infinite: S -> aS | a *)
let infinite () =
  G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
    ~rules:
      [
        { G.lhs = 0; rhs = [ G.T 'a'; G.N 0 ] };
        { G.lhs = 0; rhs = [ G.T 'a' ] };
      ]
    ~start:0

(* --- grammar core ------------------------------------------------------ *)

let test_size_measure () =
  (* the paper's measure: sum of |rhs| *)
  Alcotest.(check int) "tiny size" 6 (G.size (tiny ()));
  Alcotest.(check int) "amb size" 5 (G.size (amb ()))

let test_dependency_edges_deduplicated () =
  (* S mentions A twice in one rule and once in another: one edge *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1; G.N 1 ] };
          { G.lhs = 0; rhs = [ G.N 1; G.T 'a' ] };
          { G.lhs = 1; rhs = [ G.T 'a' ] };
        ]
      ~start:0
  in
  Alcotest.(check (list (pair int int)))
    "edges are unique" [ (0, 1) ] (G.dependency_edges g)

let test_duplicate_rules_collapse () =
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:
        [ { G.lhs = 0; rhs = [ G.T 'a' ] }; { G.lhs = 0; rhs = [ G.T 'a' ] } ]
      ~start:0
  in
  Alcotest.(check int) "rule set semantics" 1 (G.rule_count g)

let test_make_validates () =
  Alcotest.check_raises "bad nonterminal"
    (Invalid_argument "Grammar.make: nonterminal 3 out of range") (fun () ->
        ignore
          (G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
             ~rules:[ { G.lhs = 0; rhs = [ G.N 3 ] } ]
             ~start:0));
  Alcotest.check_raises "bad terminal"
    (Invalid_argument "Grammar.make: terminal z not in alphabet") (fun () ->
        ignore
          (G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
             ~rules:[ { G.lhs = 0; rhs = [ G.T 'z' ] } ]
             ~start:0))

let test_builder () =
  let b = G.Builder.create Alphabet.binary in
  let s = G.Builder.fresh b "S" in
  let a = G.Builder.fresh_memo b "A" in
  let a' = G.Builder.fresh_memo b "A" in
  Alcotest.(check int) "memoized" a a';
  G.Builder.add_rule b s [ G.N a ];
  G.Builder.add_rule b a [ G.T 'a' ];
  let g = G.Builder.finish b ~start:s in
  Alcotest.(check int) "two nonterminals" 2 (G.nonterminal_count g);
  Alcotest.check lang "language" (Lang.singleton "a") (Analysis.language_exn g)

(* --- trim --------------------------------------------------------------- *)

let test_trim_removes_useless () =
  (* U unproductive, V unreachable *)
  let g =
    G.make ~alphabet:Alphabet.binary
      ~names:[| "S"; "U"; "V" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a' ] };
          { G.lhs = 0; rhs = [ G.N 1 ] };
          { G.lhs = 1; rhs = [ G.N 1 ] };
          { G.lhs = 2; rhs = [ G.T 'b' ] };
        ]
      ~start:0
  in
  let t = Trim.trim g in
  Alcotest.(check int) "only S left" 1 (G.nonterminal_count t);
  Alcotest.(check bool) "is_trim" true (Trim.is_trim t);
  Alcotest.check lang "language preserved" (Lang.singleton "a")
    (Analysis.language_exn t)

let test_trim_empty_language () =
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:[ { G.lhs = 0; rhs = [ G.N 0 ] } ]
      ~start:0
  in
  let t = Trim.trim g in
  Alcotest.check lang "empty" Lang.empty (Analysis.language_exn t)

(* --- analysis ----------------------------------------------------------- *)

let test_language_fixpoint () =
  Alcotest.check lang "tiny" (Lang.of_list [ "ab"; "ba" ])
    (Analysis.language_exn (tiny ()));
  Alcotest.check lang "amb" (Lang.of_list [ "aa"; "aaa"; "aaaa" ])
    (Analysis.language_exn (amb ()))

let test_language_overflow () =
  match Analysis.language ~max_len:3 (infinite ()) with
  | Error (`Length_exceeded 3) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected length overflow"

let test_is_finite () =
  let is_finite g = Facts.is_finite g ~useful:(Trim.useful g) in
  Alcotest.(check bool) "tiny finite" true (is_finite (tiny ()));
  Alcotest.(check bool) "infinite" false (is_finite (infinite ()));
  (* a cyclic but useless nonterminal does not make the language infinite *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "U" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'a' ] };
          { G.lhs = 1; rhs = [ G.T 'a'; G.N 1 ] };
        ]
      ~start:0
  in
  Alcotest.(check bool) "useless cycle" true (is_finite g)

let test_count_trees_total () =
  Alcotest.check bn "tiny: 2 trees" (BN.of_int 2)
    (Analysis.count_trees_total (tiny ()));
  (* amb: words aa (1 tree: A.A), aaa (2 trees), aaaa (1 tree: AA.AA)
     total = 4 *)
  Alcotest.check bn "amb: 4 trees" (BN.of_int 4)
    (Analysis.count_trees_total (amb ()))

let test_witness () =
  (match Analysis.witness_word (tiny ()) with
   | Some w -> Alcotest.(check bool) "in language" true (w = "ab" || w = "ba")
   | None -> Alcotest.fail "expected witness");
  (* witness terminates even on cyclic grammars *)
  match Analysis.witness_word (infinite ()) with
  | Some "a" -> ()
  | other ->
    Alcotest.failf "expected shortest witness, got %s"
      (Option.value ~default:"none" other)

let test_fixed_lengths () =
  match Analysis.fixed_lengths (Cnf.of_grammar (tiny ())) with
  | Some (g, lens) -> Alcotest.(check int) "start len" 2 lens.(G.start g)
  | None -> Alcotest.fail "tiny is fixed-length"

let test_fixed_lengths_rejects () =
  Alcotest.(check bool)
    "amb not fixed-length" true
    (Analysis.fixed_lengths (Cnf.of_grammar (amb ())) = None)

(* --- CNF ---------------------------------------------------------------- *)

let constructions_sample () =
  [
    ("tiny", tiny ());
    ("amb", amb ());
    ("example3(1)", Constructions.example3 1);
    ("log_cfg(4)", Constructions.log_cfg 4);
    ("log_cfg(5)", Constructions.log_cfg 5);
    ("example4(3)", Constructions.example4 3);
  ]

let test_cnf_preserves_language () =
  List.iter
    (fun (name, g) ->
       let g' = Cnf.of_grammar g in
       Alcotest.(check bool) (name ^ " is cnf") true (Cnf.is_cnf g');
       Alcotest.check lang
         (name ^ " language preserved")
         (Analysis.language_exn g) (Analysis.language_exn g'))
    (constructions_sample ())

let test_cnf_size_bound () =
  List.iter
    (fun (name, g) ->
       let g' = Cnf.of_grammar g in
       (* |G'| <= c·|G|^2 with the paper's constant 1 once |G| is beyond
          toy size; we allow the additive slack of the START rule *)
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d <= %d^2" name (G.size g') (G.size g))
         true
         (G.size g' <= (G.size g * G.size g) + 4))
    (constructions_sample ())

let test_cnf_epsilon () =
  (* language containing ε: S -> ε | ab *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S" |]
      ~rules:[ { G.lhs = 0; rhs = [] }; { G.lhs = 0; rhs = [ G.T 'a'; G.T 'b' ] } ]
      ~start:0
  in
  let g' = Cnf.of_grammar g in
  Alcotest.(check bool) "cnf" true (Cnf.is_cnf g');
  Alcotest.check lang "keeps ε" (Lang.of_list [ ""; "ab" ])
    (Analysis.language_exn g')

let test_nullable () =
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1; G.T 'a' ] };
          { G.lhs = 1; rhs = [] };
          { G.lhs = 1; rhs = [ G.T 'b' ] };
        ]
      ~start:0
  in
  let nul = Facts.nullable g in
  Alcotest.(check bool) "A nullable" true nul.(1);
  Alcotest.(check bool) "S not nullable" false nul.(0)

(* --- parsing and counting ---------------------------------------------- *)

let test_cyk_recognize () =
  let g = Cnf.of_grammar (tiny ()) in
  Alcotest.(check bool) "ab" true (Cyk.recognize g "ab");
  Alcotest.(check bool) "ba" true (Cyk.recognize g "ba");
  Alcotest.(check bool) "aa" false (Cyk.recognize g "aa");
  Alcotest.(check bool) "abc-length" false (Cyk.recognize g "aba")

let test_cyk_count_ambiguous () =
  (* count trees of the ORIGINAL amb grammar via Count_word (CNF may merge
     duplicate rules) *)
  Alcotest.check bn "aaa has 2 trees" (BN.of_int 2)
    (Count_word.trees (amb ()) "aaa");
  Alcotest.check bn "aa has 1 tree" BN.one (Count_word.trees (amb ()) "aa");
  Alcotest.check bn "a has 0 trees" BN.zero (Count_word.trees (amb ()) "a")

(* regression: the suffix-DP memo key used the word span as the radix for
   the rhs offset, so on words shorter than the longest rhs distinct
   (rule, offset) pairs aliased — at w = "" the count of S -> C a C's "a C"
   suffix (0) answered for S -> C, and ε vanished from the language *)
let test_count_word_short_word_memo () =
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "C" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.T 'b'; G.T 'a'; G.T 'b' ] };
          { G.lhs = 0; rhs = [ G.N 1; G.T 'a'; G.N 1 ] };
          { G.lhs = 0; rhs = [ G.N 1 ] };
          { G.lhs = 1; rhs = [] };
        ]
      ~start:0
  in
  Alcotest.check bn "ε has 1 tree" BN.one (Count_word.trees g "");
  Alcotest.check bn "a has 1 tree" BN.one (Count_word.trees g "a");
  Alcotest.check bn "bab has 1 tree" BN.one (Count_word.trees g "bab");
  Alcotest.check bn "b has 0 trees" BN.zero (Count_word.trees g "b")

let test_cyk_parse_valid () =
  let g = Cnf.of_grammar (Constructions.log_cfg 3) in
  let w = "aabaab" in
  match Cyk.parse g w with
  | None -> Alcotest.fail "should parse"
  | Some t ->
    Alcotest.(check string) "yield" w (Parse_tree.yield t);
    Alcotest.(check bool) "valid" true (Parse_tree.is_valid g (G.start g) t)

let test_cyk_all_trees () =
  let g = Cnf.of_grammar (Constructions.example3 1) in
  (* "aaaaaa" (= the Figure 1 word) has at least two parse trees: the
     grammar is ambiguous *)
  let trees = Cyk.all_trees ~limit:10 g "aaaaaa" in
  Alcotest.(check bool) "at least 2 trees" true (List.length trees >= 2);
  List.iter
    (fun t ->
       Alcotest.(check string) "yields back" "aaaaaa" (Parse_tree.yield t);
       Alcotest.(check bool) "valid" true (Parse_tree.is_valid g (G.start g) t))
    trees

let test_earley_agrees_with_cyk () =
  List.iter
    (fun (name, g) ->
       let cnf = Cnf.of_grammar g in
       let l = Analysis.language_exn g in
       match Lang.uniform_length l with
       | None -> ()
       | Some len ->
         Seq.iter
           (fun w ->
              let e = Earley.recognize g w in
              let c = Cyk.recognize cnf w in
              let m = Lang.mem w l in
              if e <> m || c <> m then
                Alcotest.failf "%s: disagreement on %s (earley=%b cyk=%b mem=%b)"
                  name w e c m)
           (Word.enumerate Alphabet.binary len))
    [ ("tiny", tiny ());
      ("log_cfg(3)", Constructions.log_cfg 3);
      ("example4(2)", Constructions.example4 2) ]

let test_earley_epsilon_rules () =
  (* S -> A S a | ε ; A -> ε : accepts a^k *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1; G.N 0; G.T 'a' ] };
          { G.lhs = 0; rhs = [] };
          { G.lhs = 1; rhs = [] };
        ]
      ~start:0
  in
  Alcotest.(check bool) "ε" true (Earley.recognize g "");
  Alcotest.(check bool) "aaa" true (Earley.recognize g "aaa");
  Alcotest.(check bool) "ab" false (Earley.recognize g "ab")

let test_ambiguity_decisions () =
  Alcotest.(check bool) "tiny unambiguous" true (Ambiguity.is_unambiguous (tiny ()));
  Alcotest.(check bool) "amb ambiguous" false (Ambiguity.is_unambiguous (amb ()));
  Alcotest.(check (option string))
    "witness" (Some "aaa")
    (Ambiguity.ambiguous_witness (amb ()))

let test_count_unambiguous_dp () =
  (* example4 is unambiguous: the DP counts exactly |L_n| *)
  List.iter
    (fun n ->
       let g = Cnf.of_grammar (Constructions.example4 n) in
       Alcotest.check bn
         (Printf.sprintf "DP count |L_%d|" n)
         (Ln.cardinal n)
         (Count.words_unambiguous g (2 * n)))
    [ 1; 2; 3; 4; 5 ]

let test_count_ambiguous_overcounts () =
  (* example3 is ambiguous: derivation counting strictly exceeds |L| *)
  let g = Cnf.of_grammar (Constructions.example3 1) in
  let derivs = Count.words_unambiguous g 6 in
  let words = Count.words_by_enumeration g in
  Alcotest.(check bool)
    (Printf.sprintf "derivations %s > words %s" (BN.to_string derivs)
       (BN.to_string words))
    true
    (BN.compare derivs words > 0)

let test_enumerate () =
  let g = Constructions.example4 2 in
  let words = List.of_seq (Enumerate.words g) in
  Alcotest.check lang "enumerates L_2" (Ln.language 2) (Lang.of_list words);
  Alcotest.(check int) "no duplicates" (Lang.cardinal (Ln.language 2))
    (List.length words);
  (* unambiguous grammars need no dedup: derivation_words already distinct *)
  let dwords = List.of_seq (Enumerate.derivation_words g) in
  Alcotest.(check int) "derivations = words" (List.length words)
    (List.length dwords)

let test_enumerate_ambiguous_repeats () =
  let g = Constructions.example3 1 in
  let dwords = List.of_seq (Enumerate.derivation_words g) in
  let words = List.of_seq (Enumerate.words g) in
  Alcotest.(check bool) "repeats present" true
    (List.length dwords > List.length words);
  Alcotest.check lang "words = L_3" (Ln.language 3) (Lang.of_list words)

(* --- the paper's constructions ----------------------------------------- *)

let test_example3_language () =
  List.iter
    (fun t ->
       let n = (1 lsl t) + 1 in
       Alcotest.check lang
         (Printf.sprintf "G_%d accepts L_%d" t n)
         (Ln.language n)
         (Analysis.language_exn (Constructions.example3 t)))
    [ 0; 1 ]

let test_example3_size_linear () =
  let sizes = List.map (fun t -> G.size (Constructions.example3 t)) [ 1; 2; 4; 8 ] in
  (match sizes with
   | [ s1; s2; s4; s8 ] ->
     Alcotest.(check bool) "monotone" true (s1 < s2 && s2 < s4 && s4 < s8);
     (* Θ(t): constant increments *)
     Alcotest.(check int) "linear growth" (s8 - s4) (2 * (s4 - s2))
   | _ -> assert false)

let test_example3_ambiguous () =
  Alcotest.(check bool) "G_1 ambiguous" false
    (Ambiguity.is_unambiguous (Constructions.example3 1))

let test_log_cfg_language () =
  List.iter
    (fun n ->
       Alcotest.check lang
         (Printf.sprintf "log_cfg %d accepts L_%d" n n)
         (Ln.language n)
         (Analysis.language_exn (Constructions.log_cfg n)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_log_cfg_size_logarithmic () =
  (* size grows like log n: doubling n adds roughly a constant *)
  let size n = G.size (Constructions.log_cfg n) in
  let s16 = size 16 and s256 = size 256 and s4096 = size 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "log growth: %d %d %d" s16 s256 s4096)
    true
    (s256 - s16 < 8 * (s16 + 1) && s4096 - s256 < 2 * (s256 - s16 + 20));
  (* explicit sanity ceiling: c·log n for a small c *)
  List.iter
    (fun n ->
       Alcotest.(check bool)
         (Printf.sprintf "size(log_cfg %d) = %d <= 40·log2 n + 40" n (size n))
         true
         (size n <= (40 * Ucfg_util.Prelude.log2_ceil n) + 40))
    [ 2; 3; 7; 16; 100; 1000; 4096 ]

let test_example4_language_and_unambiguity () =
  List.iter
    (fun n ->
       let g = Constructions.example4 n in
       Alcotest.check lang
         (Printf.sprintf "example4 %d accepts L_%d" n n)
         (Ln.language n) (Analysis.language_exn g);
       Alcotest.(check bool)
         (Printf.sprintf "example4 %d unambiguous" n)
         true (Ambiguity.is_unambiguous g))
    [ 1; 2; 3; 4; 5 ]

let test_example4_size_exponential () =
  let size n = G.size (Constructions.example4 n) in
  (* doubling n should far more than double the size *)
  Alcotest.(check bool) "exponential" true
    (size 12 > 100 * size 6 / 10 * 4);
  Alcotest.(check bool) "2^(n-1) rules at level n" true
    (G.rule_count (Constructions.example4 10) >= 1 lsl 9)

let test_example4_literal_undergenerates () =
  (* the executable exhibit of the reproduction finding: the paper's
     literal Example 4 misses words whose early pairs are (b,b) *)
  List.iter
    (fun n ->
       let g = Constructions.example4_literal n in
       let lit = Analysis.language_exn g in
       Alcotest.(check bool)
         (Printf.sprintf "literal ⊊ L_%d" n)
         true
         (Lang.subset lit (Ln.language n)
          && not (Lang.equal lit (Ln.language n)));
       (* what exists is still unambiguous *)
       Alcotest.(check bool) "literal unambiguous" true
         (Ambiguity.is_unambiguous g))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "baba missing at n=2" false
    (Lang.mem "baba" (Analysis.language_exn (Constructions.example4_literal 2)));
  Alcotest.(check bool) "baba in L_2" true (Ln.mem 2 "baba");
  (* n = 1 has no earlier positions: literal and corrected coincide *)
  Alcotest.check lang "n=1 coincides"
    (Analysis.language_exn (Constructions.example4 1))
    (Analysis.language_exn (Constructions.example4_literal 1))

let test_of_language () =
  let l = Ln.language 2 in
  let g = Constructions.of_language Alphabet.binary l in
  Alcotest.check lang "trivial grammar" l (Analysis.language_exn g);
  Alcotest.(check int) "size = total length" (4 * Lang.cardinal l) (G.size g);
  Alcotest.(check bool) "unambiguous" true (Ambiguity.is_unambiguous g)

let test_sigma_chain () =
  let g = Constructions.sigma_chain Alphabet.binary 3 in
  Alcotest.check lang "Σ^3" (Lang.full Alphabet.binary 3)
    (Analysis.language_exn g);
  Alcotest.(check bool) "unambiguous" true (Ambiguity.is_unambiguous g)

(* --- Lemma 10 transform ------------------------------------------------- *)

let test_length_annotate_preserves () =
  List.iter
    (fun (name, g) ->
       let ann = Length_annotate.annotate g in
       Alcotest.check lang
         (name ^ ": language preserved")
         (Analysis.language_exn g)
         (Analysis.language_exn ann.Length_annotate.grammar))
    [ ("tiny", tiny ());
      ("log_cfg(3)", Constructions.log_cfg 3);
      ("example3(1)", Constructions.example3 1);
      ("example4(2)", Constructions.example4 2) ]

let test_length_annotate_size_bound () =
  (* Lemma 10: |G'| <= n·|G| where G is the CNF grammar *)
  List.iter
    (fun (name, g) ->
       let cnf = Cnf.ensure g in
       let ann = Length_annotate.annotate g in
       let n = ann.Length_annotate.word_length in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d <= %d·%d" name
            (G.size ann.Length_annotate.grammar)
            n (G.size cnf))
         true
         (G.size ann.Length_annotate.grammar <= n * G.size cnf))
    [ ("tiny", tiny ()); ("log_cfg(4)", Constructions.log_cfg 4);
      ("example4(3)", Constructions.example4 3) ]

let test_length_annotate_unambiguity_preserved () =
  let ann = Length_annotate.annotate (Constructions.example4 3) in
  Alcotest.(check bool) "still unambiguous" true
    (Ambiguity.is_unambiguous ann.Length_annotate.grammar)

let test_length_annotate_positions () =
  (* the index really is the 1-based start position of the span *)
  let ann = Length_annotate.annotate (Constructions.log_cfg 2) in
  let g = ann.Length_annotate.grammar in
  let n = ann.Length_annotate.word_length in
  Array.iteri
    (fun a (_, i) ->
       let len = ann.Length_annotate.span_length.(a) in
       Alcotest.(check bool)
         (Printf.sprintf "span (%d,%d) inside word" i len)
         true
         (i >= 1 && i + len - 1 <= n))
    ann.Length_annotate.origin;
  Alcotest.(check int) "start at position 1" 1
    (snd ann.Length_annotate.origin.(G.start g))

(* --- textual grammar format ----------------------------------------------- *)

let test_grammar_io_parse () =
  let g =
    Grammar_io.parse Alphabet.binary
      {|# the tiny grammar
start: <S>
<S> -> <A> <B> | <B> <A>
<A> -> a
<B> -> b|}
  in
  Alcotest.check lang "language" (Lang.of_list [ "ab"; "ba" ])
    (Analysis.language_exn g);
  Alcotest.(check int) "size" 6 (G.size g)

let test_grammar_io_epsilon () =
  let g = Grammar_io.parse Alphabet.binary "start: <S>\n<S> -> ε | a" in
  Alcotest.check lang "with ε" (Lang.of_list [ ""; "a" ])
    (Analysis.language_exn g)

let test_grammar_io_roundtrip () =
  List.iter
    (fun (name, g) ->
       let g' = Grammar_io.parse (G.alphabet g) (Grammar_io.to_string g) in
       Alcotest.check lang (name ^ " roundtrip")
         (Analysis.language_exn g) (Analysis.language_exn g'))
    [
      ("tiny", tiny ()); ("log_cfg 4", Constructions.log_cfg 4);
      ("example3 1", Constructions.example3 1);
      ("example4 2", Constructions.example4 2);
    ]

let test_grammar_io_errors () =
  List.iter
    (fun s ->
       match Grammar_io.parse Alphabet.binary s with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "expected parse error on %S" s)
    [
      "<S> -> a";            (* no start *)
      "start: <S>\n<S> -> z"; (* foreign terminal *)
      "start: <S>\nnonsense"; (* bad line *)
      "start: a";             (* start must be a nonterminal *)
    ]

(* --- closure operations -------------------------------------------------- *)

let test_ops_union () =
  let a = Constructions.of_language Alphabet.binary (Lang.of_list [ "ab" ]) in
  let b = Constructions.of_language Alphabet.binary (Lang.of_list [ "ba"; "bb" ]) in
  let u = Ops.union a b in
  Alcotest.check lang "union" (Lang.of_list [ "ab"; "ba"; "bb" ])
    (Analysis.language_exn u);
  Alcotest.(check int) "size additive" (G.size a + G.size b + 2) (G.size u);
  (* disjoint operands keep unambiguity *)
  Alcotest.(check bool) "unambiguous" true (Ambiguity.is_unambiguous u)

let test_ops_union_overlap_ambiguous () =
  let a = Constructions.of_language Alphabet.binary (Lang.of_list [ "ab"; "aa" ]) in
  let b = Constructions.of_language Alphabet.binary (Lang.of_list [ "ab" ]) in
  Alcotest.(check bool) "overlap makes it ambiguous" false
    (Ambiguity.is_unambiguous (Ops.union a b))

let test_ops_concat () =
  let a = Constructions.sigma_chain Alphabet.binary 2 in
  let b = Constructions.of_language Alphabet.binary (Lang.of_list [ "a" ]) in
  let c = Ops.concat a b in
  Alcotest.check lang "Σ²·a"
    (Lang.concat (Lang.full Alphabet.binary 2) (Lang.singleton "a"))
    (Analysis.language_exn c);
  Alcotest.(check bool) "unambiguous" true (Ambiguity.is_unambiguous c)

(* --- direct access (unranking) ------------------------------------------- *)

let test_direct_access_roundtrip () =
  let g = Cnf.of_grammar (Constructions.example4 3) in
  let da = Direct_access.create g ~max_len:6 in
  let total = Option.get (BN.to_int (Direct_access.total da)) in
  Alcotest.(check int) "total = |L_3|" 37 total;
  (* nth is a bijection onto the language, and rank inverts it *)
  let seen = Hashtbl.create 64 in
  for i = 0 to total - 1 do
    match Direct_access.nth da (BN.of_int i) with
    | None -> Alcotest.failf "nth %d missing" i
    | Some w ->
      if Hashtbl.mem seen w then Alcotest.failf "duplicate %s" w;
      Hashtbl.add seen w ();
      if not (Ln.mem 3 w) then Alcotest.failf "nth %d = %s not in L_3" i w;
      (match Direct_access.rank da w with
       | Some r when BN.equal r (BN.of_int i) -> ()
       | Some r ->
         Alcotest.failf "rank(nth %d) = %s" i (BN.to_string r)
       | None -> Alcotest.failf "rank %s missing" w)
  done;
  Alcotest.(check (option string)) "out of range" None
    (Direct_access.nth da (BN.of_int total));
  Alcotest.(check bool) "rank of non-member" true
    (Direct_access.rank da "bbbbbb" = None)

let test_direct_access_sampling () =
  let g = Cnf.of_grammar (Constructions.example4 2) in
  let da = Direct_access.create g ~max_len:4 in
  let rng = Ucfg_util.Rng.create 9 in
  let counts = Hashtbl.create 7 in
  let draws = 7000 in
  for _ = 1 to draws do
    match Direct_access.sample da rng with
    | Some w ->
      Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
    | None -> Alcotest.fail "sample failed"
  done;
  Alcotest.(check int) "all 7 words drawn" 7 (Hashtbl.length counts);
  Hashtbl.iter
    (fun w c ->
       (* uniform: expect 1000 each; allow generous slack *)
       if c < 700 || c > 1300 then
         Alcotest.failf "word %s drawn %d times (expected ~1000)" w c)
    counts

let test_direct_access_ambiguous_counts_derivations () =
  let g = Cnf.of_grammar (Constructions.example3 1) in
  (* 37 words, but more derivations: direct access indexes derivations *)
  let da = Direct_access.create g ~max_len:6 in
  Alcotest.(check bool) "more derivations than words" true
    (BN.compare (Direct_access.total da) (BN.of_int 37) > 0)

(* --- SLPs (grammar-based compression) ------------------------------------ *)

let test_slp_basic () =
  let w = "abbaabab" in
  let s = Slp.of_word w in
  Alcotest.(check string) "roundtrip" w (Slp.to_word s);
  Alcotest.(check string) "length" "8" (BN.to_string (Slp.length s));
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Slp.make: children must precede their node") (fun () ->
        ignore (Slp.make ~nodes:[| Slp.Pair (0, 0); Slp.Char 'a' |] ~root:0))

let test_slp_power () =
  let base = Slp.of_word "ab" in
  let big = Slp.power base (1 lsl 20) in
  Alcotest.(check bool) "tiny program" true (Slp.size big < 64);
  Alcotest.check (Alcotest.testable BN.pp BN.equal) "length 2^21"
    (BN.two_pow 21) (Slp.length big);
  (* random access without expansion *)
  Alcotest.(check char) "char 0" 'a' (Slp.char_at big BN.zero);
  Alcotest.(check char) "char 1" 'b' (Slp.char_at big BN.one);
  Alcotest.(check char) "char at 2^20 (even)" 'a'
    (Slp.char_at big (BN.two_pow 20));
  Alcotest.(check char) "last" 'b' (Slp.char_at big (BN.pred (BN.two_pow 21)))

let test_slp_fibonacci () =
  let f10 = Slp.fibonacci 10 in
  (* |F_10| = Fib(10) = 55; F_k starts "abaab..." for k >= 5 *)
  Alcotest.check (Alcotest.testable BN.pp BN.equal) "length Fib 10"
    (BN.of_int 55) (Slp.length f10);
  let w = Slp.to_word f10 in
  Alcotest.(check string) "prefix" "abaab" (String.sub w 0 5);
  (* the defining recurrence: F_k = F_{k-1} F_{k-2} *)
  Alcotest.(check string) "recurrence" w
    (Slp.to_word (Slp.concat (Slp.fibonacci 9) (Slp.fibonacci 8)));
  Alcotest.(check bool) "equal_naive agrees" true
    (Slp.equal_naive f10 (Slp.concat (Slp.fibonacci 9) (Slp.fibonacci 8)));
  (* linear size for exponential length *)
  Alcotest.(check bool) "small program" true (Slp.size (Slp.fibonacci 40) < 100)

let test_slp_compression () =
  (* hash-consing compresses aligned repetition *)
  let w = String.concat "" (List.init 64 (fun _ -> "ab")) in
  let s = Slp.of_word w in
  Alcotest.(check bool)
    (Printf.sprintf "compressed: %d nodes for %d chars" (Slp.size s)
       (String.length w))
    true
    (Slp.size s < 20);
  Alcotest.(check string) "roundtrip" w (Slp.to_word s)

let test_slp_char_at_agrees () =
  let w = "abbabaabbaababba" in
  let s = Slp.of_word w in
  String.iteri
    (fun i c ->
       Alcotest.(check char)
         (Printf.sprintf "char %d" i)
         c
         (Slp.char_at s (BN.of_int i)))
    w

let test_slp_to_grammar () =
  let s = Slp.power (Slp.of_word "ab") 4 in
  let g = Slp.to_grammar Alphabet.binary s in
  Alcotest.check lang "singleton language" (Lang.singleton "abababab")
    (Analysis.language_exn g);
  Alcotest.(check bool) "unambiguous" true (Ambiguity.is_unambiguous g)

(* --- inside–outside occurrence counts -------------------------------------- *)

let test_occurrence_counts_unambiguous () =
  (* Observation 11, quantitatively: on a uCFG every occurrence count is 1
     and the marked spans are exactly the unique parse tree's spans *)
  let g = Cnf.of_grammar (Constructions.example4 3) in
  let w = "aabaab" in
  let occs = Cyk.occurrence_counts g w in
  List.iter
    (fun (_, _, _, c) ->
       if not (BN.equal c BN.one) then Alcotest.fail "count != 1 on a uCFG")
    occs;
  (* the spans reconstruct the unique tree: compare against the parse *)
  let tree = Option.get (Cyk.parse g w) in
  let rec spans pos = function
    | Parse_tree.Leaf _ -> []
    | Parse_tree.Node (a, children) ->
      let len = Parse_tree.leaf_count (Parse_tree.Node (a, children)) in
      let _, below =
        List.fold_left
          (fun (p, acc) child ->
             (p + Parse_tree.leaf_count child, acc @ spans p child))
          (pos, []) children
      in
      (a, pos, len) :: below
  in
  let tree_spans = List.sort_uniq compare (spans 0 tree) in
  let occ_spans =
    List.sort_uniq compare (List.map (fun (a, p, l, _) -> (a, p, l)) occs)
  in
  Alcotest.(check (list (triple int int int))) "spans = tree spans" tree_spans
    occ_spans

let test_occurrence_counts_ambiguous () =
  (* on an ambiguous grammar, the root occurrence count is the tree count *)
  let g = Cnf.of_grammar (Constructions.example3 1) in
  let w = "aaaaaa" in
  let total = Cyk.count_trees g w in
  let root_occ =
    List.find_map
      (fun (a, p, l, c) ->
         if a = G.start g && p = 0 && l = 6 then Some c else None)
      (Cyk.occurrence_counts g w)
  in
  Alcotest.(check bool) "root count = #trees" true
    (match root_occ with Some c -> BN.equal c total | None -> false)

(* --- polynomial semiring (Parikh census) ----------------------------------- *)

module WPoly = Weighted.Make (Semiring.Polynomial)

let census_weight r =
  match r.G.rhs with
  | [ G.T 'a' ] -> Semiring.Polynomial.x
  | _ -> Semiring.Polynomial.one

let test_polynomial_census () =
  (* the generating polynomial of L_3 by number of a's, vs enumeration *)
  let n = 3 in
  let g = Cnf.of_grammar (Constructions.example4 n) in
  let poly = WPoly.length_weight ~rule_weight:census_weight g (2 * n) in
  let by_count = Array.make ((2 * n) + 1) 0 in
  Lang.iter
    (fun w ->
       let k =
         String.fold_left (fun acc c -> if c = 'a' then acc + 1 else acc) 0 w
       in
       by_count.(k) <- by_count.(k) + 1)
    (Ln.language n);
  Array.iteri
    (fun k expected ->
       if
         not
           (BN.equal
              (Semiring.Polynomial.coeff poly k)
              (BN.of_int expected))
       then
         Alcotest.failf "census coefficient %d: got %s, want %d" k
           (BN.to_string (Semiring.Polynomial.coeff poly k))
           expected)
    by_count

let test_polynomial_algebra () =
  let open Semiring.Polynomial in
  (* (1 + x)² = 1 + 2x + x² *)
  let p = plus one x in
  Alcotest.(check bool) "square" true
    (equal (times p p)
       [| BN.one; BN.of_int 2; BN.one |]);
  Alcotest.(check bool) "zero annihilates" true (equal (times zero p) zero);
  Alcotest.(check bool) "trailing zeros ignored" true
    (equal [| BN.one; BN.zero |] [| BN.one |])

(* --- semiring-weighted parsing -------------------------------------------- *)

module WBool = Weighted.Make (Semiring.Boolean)
module WCount = Weighted.Make (Semiring.Counting)
module WTrop = Weighted.Make (Semiring.Tropical)
module WProb = Weighted.Make (Semiring.Inside)
module WProv = Weighted.Make (Semiring.Provenance)

let test_weighted_boolean_is_recognition () =
  let g = Cnf.of_grammar (Constructions.log_cfg 3) in
  Seq.iter
    (fun w ->
       if WBool.word_weight g w <> Cyk.recognize g w then
         Alcotest.failf "boolean weight disagrees on %s" w)
    (Word.enumerate Alphabet.binary 6)

let test_weighted_counting_is_tree_count () =
  let g = Cnf.of_grammar (Constructions.example3 1) in
  Seq.iter
    (fun w ->
       if not (BN.equal (WCount.word_weight g w) (Cyk.count_trees g w)) then
         Alcotest.failf "counting weight disagrees on %s" w)
    (Word.enumerate Alphabet.binary 6)

let test_weighted_tropical_cnf_tree_size () =
  (* with weight 1 per rule, the cheapest derivation of a length-ℓ word in
     CNF uses exactly 2ℓ - 1 rules *)
  let g = Cnf.of_grammar (Constructions.log_cfg 3) in
  let cost = WTrop.word_weight ~rule_weight:(fun _ -> Some 1) g "aabaab" in
  Alcotest.(check (option int)) "2·6 - 1 rules" (Some 11) cost;
  Alcotest.(check (option int)) "non-member = ∞" None
    (WTrop.word_weight ~rule_weight:(fun _ -> Some 1) g "aabbba")

let test_weighted_inside_probability () =
  (* S -> AB; A -> a | b (½ each); B -> b: P(ab) = ½ *)
  let g =
    G.make ~alphabet:Alphabet.binary ~names:[| "S"; "A"; "B" |]
      ~rules:
        [
          { G.lhs = 0; rhs = [ G.N 1; G.N 2 ] };
          { G.lhs = 1; rhs = [ G.T 'a' ] };
          { G.lhs = 1; rhs = [ G.T 'b' ] };
          { G.lhs = 2; rhs = [ G.T 'b' ] };
        ]
      ~start:0
  in
  let weight r =
    match r.G.rhs with [ G.T ('a' | 'b') ] when r.G.lhs = 1 -> 0.5 | _ -> 1.0
  in
  Alcotest.(check bool) "P(ab) = 0.5" true
    (Semiring.Inside.equal 0.5 (WProb.word_weight ~rule_weight:weight g "ab"));
  (* the two length-2 words have total inside weight 1 *)
  Alcotest.(check bool) "Σ = 1" true
    (Semiring.Inside.equal 1.0 (WProb.length_weight ~rule_weight:weight g 2))

let test_weighted_provenance () =
  (* the provenance of a word in the ambiguous grammar lists one tag
     multiset per parse tree *)
  let g = Cnf.of_grammar (Constructions.example3 1) in
  let rules_arr = Array.of_list (G.rules g) in
  let tag_of r =
    let rec find i = if rules_arr.(i) = r then i else find (i + 1) in
    find 0
  in
  let prov =
    WProv.word_weight
      ~rule_weight:(fun r -> Semiring.Provenance.of_tag (tag_of r))
      g "aaaaaa"
  in
  Alcotest.(check int) "one derivation set per tree"
    (Option.get (BN.to_int (Cyk.count_trees g "aaaaaa")))
    (List.length prov)

let test_weighted_length_consistency () =
  (* Σ over length = the Count module's derivation counts *)
  let g = Cnf.of_grammar (Constructions.example4 4) in
  let by_len = Count.derivations_by_length g 8 in
  for l = 0 to 8 do
    if not (BN.equal by_len.(l) (WCount.length_weight g l)) then
      Alcotest.failf "length %d mismatch" l
  done

(* --- ambiguity profile ---------------------------------------------------- *)

let test_ambiguity_profile () =
  let p = Ambiguity.profile (Constructions.example3 1) in
  Alcotest.(check int) "37 words" 37 p.Ambiguity.word_total;
  Alcotest.(check bool) "some ambiguous words" true (p.Ambiguity.ambiguous_words > 0);
  Alcotest.(check bool) "max degree >= 2" true
    (BN.compare p.Ambiguity.max_trees (BN.of_int 2) >= 0);
  (* histogram masses add up to the word count *)
  Alcotest.(check int) "histogram total" 37
    (Ucfg_util.Prelude.sum_int (List.map snd p.Ambiguity.histogram));
  let unam = Ambiguity.profile (Constructions.example4 3) in
  Alcotest.(check int) "uCFG: no ambiguous words" 0 unam.Ambiguity.ambiguous_words;
  Alcotest.(check (list (pair string int))) "degenerate histogram"
    [ ("1", 37) ] unam.Ambiguity.histogram

(* --- properties on random grammars ------------------------------------- *)

let arb_seed = QCheck.int_range 0 100_000

let prop_cnf_preserves_language_random =
  QCheck.Test.make ~name:"CNF conversion preserves language (random)" ~count:60
    arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:4 ~max_rules:3 ~max_rhs_len:3
       in
       match Analysis.language ~max_len:30 g with
       | Error _ -> QCheck.assume_fail ()
       | Ok l -> Lang.equal l (Analysis.language_exn ~max_len:30 (Cnf.of_grammar g)))

let prop_trim_preserves_language_random =
  QCheck.Test.make ~name:"trim preserves language (random)" ~count:60 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:5 ~max_rules:3 ~max_rhs_len:3
       in
       match Analysis.language ~max_len:30 g with
       | Error _ -> QCheck.assume_fail ()
       | Ok l -> Lang.equal l (Analysis.language_exn ~max_len:30 (Trim.trim g)))

let prop_cyk_matches_count_word =
  QCheck.Test.make ~name:"CYK tree counts match general counting on CNF" ~count:40
    arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g = Random_grammar.fixed_length rng ~word_len:4 ~variants:2 in
       (* g is already CNF by construction *)
       QCheck.assume (G.is_cnf g);
       Seq.for_all
         (fun w -> BN.equal (Cyk.count_trees g w) (Count_word.trees g w))
         (Word.enumerate Alphabet.binary 4))

let prop_fixed_length_grammar_is_fixed_length =
  QCheck.Test.make ~name:"random fixed-length grammars have fixed length"
    ~count:40 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g = Random_grammar.fixed_length rng ~word_len:5 ~variants:2 in
       match Analysis.fixed_lengths g with
       | Some (g', lens) -> lens.(G.start g') = 5
       | None -> false)

let prop_earley_equals_membership =
  QCheck.Test.make ~name:"Earley decides membership (random)" ~count:30 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:4 ~max_rules:3 ~max_rhs_len:2
       in
       match Analysis.language ~max_len:16 g with
       | Error _ -> QCheck.assume_fail ()
       | Ok l ->
         Seq.for_all
           (fun w -> Earley.recognize g w = Lang.mem w l)
           (Word.enumerate Alphabet.binary 3))

let prop_derivations_dominate_words =
  QCheck.Test.make ~name:"derivation counts dominate word counts" ~count:40
    arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g = Random_grammar.fixed_length rng ~word_len:5 ~variants:3 in
       let derivs = Count.words_unambiguous g 5 in
       let words = Count.words_by_enumeration g in
       BN.compare derivs words >= 0)

(* --- the brute-force counting oracle ----------------------------------- *)

(* Every counting entry point is checked against one independent oracle:
   [Enumerate.trees] grouped by yield.  [census g] maps each word to its
   number of parse trees, and returns the longest yield. *)
let census g =
  let tbl = Hashtbl.create 64 and longest = ref 0 in
  Seq.iter
    (fun t ->
       let w = Parse_tree.yield t in
       longest := max !longest (String.length w);
       Hashtbl.replace tbl w
         (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
    (Enumerate.trees g);
  (tbl, !longest)

let oracle_count tbl w = Option.value ~default:0 (Hashtbl.find_opt tbl w)

let words_upto n =
  Seq.concat_map
    (Word.enumerate Alphabet.binary)
    (List.to_seq (Ucfg_util.Prelude.range_incl 0 n))

(* the oracle's cap: grammars with more trees or longer words are skipped
   so that enumeration stays cheap *)
let oracle_sized g =
  BN.compare (Analysis.count_trees_total g) (BN.of_int 4000) <= 0
  && (let _, longest = census g in longest <= 8)

(* the general-grammar entry points: per-word counts and the total *)
let general_counts_agree g =
  let tbl, longest = census g in
  let total = Hashtbl.fold (fun _ k acc -> acc + k) tbl 0 in
  BN.equal (Analysis.count_trees_total g) (BN.of_int total)
  && Seq.for_all
    (fun w -> BN.equal (Count_word.trees g w) (BN.of_int (oracle_count tbl w)))
    (words_upto (longest + 1))

(* the CNF entry points: per-word counts, recognition and per-length
   counts, enumerated on the CNF grammar itself *)
let cnf_counts_agree c =
  let tbl, longest = census c in
  let max_len = longest + 1 in
  let by_len = Array.make (max_len + 1) 0 in
  Hashtbl.iter
    (fun w k -> by_len.(String.length w) <- by_len.(String.length w) + k)
    tbl;
  let da = Direct_access.create c ~max_len in
  let derivs = Count.derivations_by_length c max_len in
  Seq.for_all
    (fun w ->
       let k = BN.of_int (oracle_count tbl w) in
       BN.equal (Count_word.trees c w) k
       && BN.equal (Cyk.count_trees c w) k
       && BN.equal (WCount.word_weight c w) k
       && WBool.word_weight c w = (oracle_count tbl w > 0)
       && Cyk.recognize c w = (oracle_count tbl w > 0))
    (words_upto max_len)
  && List.for_all
    (fun l ->
       let k = BN.of_int by_len.(l) in
       BN.equal (WCount.length_weight c l) k
       && BN.equal derivs.(l) k
       && BN.equal (Direct_access.count_length da l) k)
    (Ucfg_util.Prelude.range_incl 0 max_len)

let prop_counting_oracle_general =
  QCheck.Test.make ~name:"general counts = enumerated trees (and on its CNF)"
    ~count:100 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         Random_grammar.general rng ~nonterminals:4 ~max_rules:4 ~max_rhs_len:3
       in
       let c = Cnf.of_grammar g in
       QCheck.assume (oracle_sized g && oracle_sized c);
       general_counts_agree g && cnf_counts_agree c)

let prop_counting_oracle_fixed_length =
  QCheck.Test.make ~name:"fixed-length CNF counts = enumerated trees"
    ~count:40 arb_seed
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g = Random_grammar.fixed_length rng ~word_len:5 ~variants:3 in
       QCheck.assume (G.is_cnf g && oracle_sized g);
       general_counts_agree g && cnf_counts_agree g)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cnf_preserves_language_random;
      prop_trim_preserves_language_random;
      prop_cyk_matches_count_word;
      prop_fixed_length_grammar_is_fixed_length;
      prop_earley_equals_membership;
      prop_derivations_dominate_words;
      prop_counting_oracle_general;
      prop_counting_oracle_fixed_length;
    ]

let () =
  Alcotest.run "ucfg_cfg"
    [
      ( "grammar",
        [
          Alcotest.test_case "size measure" `Quick test_size_measure;
          Alcotest.test_case "duplicate rules collapse" `Quick
            test_duplicate_rules_collapse;
          Alcotest.test_case "dependency edges deduplicated" `Quick
            test_dependency_edges_deduplicated;
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "builder" `Quick test_builder;
        ] );
      ( "trim",
        [
          Alcotest.test_case "removes useless" `Quick test_trim_removes_useless;
          Alcotest.test_case "empty language" `Quick test_trim_empty_language;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "language fixpoint" `Quick test_language_fixpoint;
          Alcotest.test_case "overflow reporting" `Quick test_language_overflow;
          Alcotest.test_case "finiteness" `Quick test_is_finite;
          Alcotest.test_case "total tree count" `Quick test_count_trees_total;
          Alcotest.test_case "witness" `Quick test_witness;
          Alcotest.test_case "fixed lengths" `Quick test_fixed_lengths;
          Alcotest.test_case "fixed lengths rejects" `Quick
            test_fixed_lengths_rejects;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "preserves language" `Quick
            test_cnf_preserves_language;
          Alcotest.test_case "size bound" `Quick test_cnf_size_bound;
          Alcotest.test_case "epsilon handling" `Quick test_cnf_epsilon;
          Alcotest.test_case "nullable" `Quick test_nullable;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "cyk recognize" `Quick test_cyk_recognize;
          Alcotest.test_case "tree counting" `Quick test_cyk_count_ambiguous;
          Alcotest.test_case "short-word memo keys" `Quick
            test_count_word_short_word_memo;
          Alcotest.test_case "cyk parse validity" `Quick test_cyk_parse_valid;
          Alcotest.test_case "all trees (Figure 1)" `Quick test_cyk_all_trees;
          Alcotest.test_case "earley agrees" `Quick test_earley_agrees_with_cyk;
          Alcotest.test_case "earley epsilon" `Quick test_earley_epsilon_rules;
        ] );
      ( "ambiguity+counting",
        [
          Alcotest.test_case "decisions" `Quick test_ambiguity_decisions;
          Alcotest.test_case "uCFG DP counting" `Quick test_count_unambiguous_dp;
          Alcotest.test_case "ambiguous overcounts" `Quick
            test_count_ambiguous_overcounts;
          Alcotest.test_case "enumerate unambiguous" `Quick test_enumerate;
          Alcotest.test_case "enumerate ambiguous repeats" `Quick
            test_enumerate_ambiguous_repeats;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "example3 language" `Quick test_example3_language;
          Alcotest.test_case "example3 size Θ(t)" `Quick test_example3_size_linear;
          Alcotest.test_case "example3 ambiguous" `Quick test_example3_ambiguous;
          Alcotest.test_case "log_cfg language" `Slow test_log_cfg_language;
          Alcotest.test_case "log_cfg size Θ(log n)" `Quick
            test_log_cfg_size_logarithmic;
          Alcotest.test_case "example4 language+unambiguity" `Quick
            test_example4_language_and_unambiguity;
          Alcotest.test_case "example4 size 2^Θ(n)" `Quick
            test_example4_size_exponential;
          Alcotest.test_case "example4 literal under-generates" `Quick
            test_example4_literal_undergenerates;
          Alcotest.test_case "of_language" `Quick test_of_language;
          Alcotest.test_case "sigma_chain" `Quick test_sigma_chain;
        ] );
      ( "grammar-io",
        [
          Alcotest.test_case "parse" `Quick test_grammar_io_parse;
          Alcotest.test_case "epsilon" `Quick test_grammar_io_epsilon;
          Alcotest.test_case "roundtrip" `Quick test_grammar_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_grammar_io_errors;
        ] );
      ( "ops",
        [
          Alcotest.test_case "union" `Quick test_ops_union;
          Alcotest.test_case "union overlap" `Quick
            test_ops_union_overlap_ambiguous;
          Alcotest.test_case "concat" `Quick test_ops_concat;
        ] );
      ( "direct-access",
        [
          Alcotest.test_case "nth/rank bijection" `Quick
            test_direct_access_roundtrip;
          Alcotest.test_case "uniform sampling" `Quick
            test_direct_access_sampling;
          Alcotest.test_case "ambiguous counts derivations" `Quick
            test_direct_access_ambiguous_counts_derivations;
        ] );
      ( "slp",
        [
          Alcotest.test_case "basic" `Quick test_slp_basic;
          Alcotest.test_case "power (2^20 word)" `Quick test_slp_power;
          Alcotest.test_case "fibonacci words" `Quick test_slp_fibonacci;
          Alcotest.test_case "hash-consing compresses" `Quick
            test_slp_compression;
          Alcotest.test_case "char_at" `Quick test_slp_char_at_agrees;
          Alcotest.test_case "to_grammar" `Quick test_slp_to_grammar;
        ] );
      ( "inside-outside",
        [
          Alcotest.test_case "uCFG spans = unique tree" `Quick
            test_occurrence_counts_unambiguous;
          Alcotest.test_case "ambiguous root count" `Quick
            test_occurrence_counts_ambiguous;
        ] );
      ( "polynomial census",
        [
          Alcotest.test_case "L_3 by #a's" `Quick test_polynomial_census;
          Alcotest.test_case "algebra" `Quick test_polynomial_algebra;
        ] );
      ( "weighted (semirings)",
        [
          Alcotest.test_case "boolean = recognition" `Quick
            test_weighted_boolean_is_recognition;
          Alcotest.test_case "counting = tree counts" `Quick
            test_weighted_counting_is_tree_count;
          Alcotest.test_case "tropical tree size" `Quick
            test_weighted_tropical_cnf_tree_size;
          Alcotest.test_case "inside probability" `Quick
            test_weighted_inside_probability;
          Alcotest.test_case "provenance" `Quick test_weighted_provenance;
          Alcotest.test_case "length consistency" `Quick
            test_weighted_length_consistency;
        ] );
      ( "ambiguity-profile",
        [ Alcotest.test_case "histogram" `Quick test_ambiguity_profile ] );
      ( "length-annotate (Lemma 10)",
        [
          Alcotest.test_case "preserves language" `Quick
            test_length_annotate_preserves;
          Alcotest.test_case "size bound n·|G|" `Quick
            test_length_annotate_size_bound;
          Alcotest.test_case "preserves unambiguity" `Quick
            test_length_annotate_unambiguity_preserved;
          Alcotest.test_case "position semantics" `Quick
            test_length_annotate_positions;
        ] );
      ("properties", qtests);
    ]
