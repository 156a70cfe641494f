(* The packed-language backend and the rule-indexed counting kernels:
   [Packed] agrees with the set representation on every operation, the
   CYK / Count_word int fast paths agree with the big-integer paths across
   the overflow boundary, the batch APIs agree with per-word calls, the
   set-backed fixpoint agrees with the packed one, and everything is
   invariant under the job count. *)

open Ucfg_word
open Ucfg_lang
open Ucfg_cfg
open Ucfg_exec
module Bignum = Ucfg_util.Bignum

let lang = Alcotest.testable Lang.pp Lang.equal
let bignum = Alcotest.testable Bignum.pp Bignum.equal

(* flip the process-wide pool, restoring the previous size afterwards *)
let with_global_jobs jobs f =
  let saved = Exec.jobs () in
  Exec.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

(* --- generators -------------------------------------------------------- *)

(* a random uniform-length binary language: a length <= 12 and a subset of
   codes below 2^len, spanning both the dense (len <= 16 here, always) and
   the code-array construction paths *)
let gen_word len =
  QCheck.Gen.map
    (fun bits -> String.init len (fun i -> if (bits lsr i) land 1 = 1 then 'b' else 'a'))
    (QCheck.Gen.int_bound (max 0 ((1 lsl len) - 1)))

let gen_lang =
  QCheck.Gen.(
    int_range 0 12 >>= fun len ->
    list_size (int_bound 40) (gen_word len) >>= fun ws -> return (len, ws))

let arb_lang = QCheck.make ~print:(fun (_, ws) -> String.concat "," ws) gen_lang

let arb_lang_pair =
  QCheck.make
    ~print:(fun ((_, a), (_, b)) ->
      String.concat "," a ^ " / " ^ String.concat "," b)
    QCheck.Gen.(
      gen_lang >>= fun (len, a) ->
      list_size (int_bound 40) (gen_word len) >>= fun b ->
      return ((len, a), (len, b)))

(* the set-backed reference: plain sorted-unique word lists *)
let ref_of ws = List.sort_uniq compare ws

let packed_of ws = Lang.pack (Lang.of_list ws)

(* --- Packed vs the set representation ---------------------------------- *)

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"pack is lossless and sorted" ~count:500 arb_lang
    (fun (_, ws) ->
       let l = packed_of ws in
       (ws = [] || Lang.to_packed l <> None)
       && Lang.elements l = ref_of ws)

let prop_boolean_ops_agree =
  QCheck.Test.make ~name:"union/inter/diff agree with sets" ~count:500
    arb_lang_pair
    (fun ((_, a), (_, b)) ->
       let pa = packed_of a and pb = packed_of b in
       let sa = ref_of a and sb = ref_of b in
       Lang.elements (Lang.union pa pb)
       = List.sort_uniq compare (sa @ sb)
       && Lang.elements (Lang.inter pa pb)
          = List.filter (fun w -> List.mem w sb) sa
       && Lang.elements (Lang.diff pa pb)
          = List.filter (fun w -> not (List.mem w sb)) sa)

let prop_predicates_agree =
  QCheck.Test.make ~name:"equal/subset/disjoint/mem agree with sets"
    ~count:500 arb_lang_pair
    (fun ((_, a), (_, b)) ->
       let pa = packed_of a and pb = packed_of b in
       let sa = ref_of a and sb = ref_of b in
       Lang.equal pa pb = (sa = sb)
       && Lang.subset pa pb = List.for_all (fun w -> List.mem w sb) sa
       && Lang.disjoint pa pb
          = List.for_all (fun w -> not (List.mem w sb)) sa
       && List.for_all (fun w -> Lang.mem w pa) sa
       && Lang.cardinal pa = List.length sa)

let prop_concat_agrees =
  QCheck.Test.make ~name:"concat agrees with sets (and with |A|*|B|)"
    ~count:300 arb_lang_pair
    (fun ((_, a), (_, b)) ->
       let pa = packed_of a and pb = packed_of b in
       let sa = ref_of a and sb = ref_of b in
       let brute =
         List.sort_uniq compare
           (List.concat_map (fun u -> List.map (fun v -> u ^ v) sb) sa)
       in
       let c = Lang.concat pa pb in
       Lang.elements c = brute
       && Lang.cardinal c = List.length sa * List.length sb)

let prop_complement_full_agree =
  QCheck.Test.make ~name:"full/complement_within agree with sets" ~count:300
    arb_lang
    (fun (len, ws) ->
       let p = packed_of ws in
       let full = Lang.full Alphabet.binary len in
       let comp = Lang.complement_within Alphabet.binary len p in
       Lang.cardinal full = 1 lsl len
       && Lang.cardinal comp = (1 lsl len) - List.length (ref_of ws)
       && Lang.is_empty (Lang.inter comp p)
       && Lang.equal (Lang.union comp p) full)

let prop_iteration_order =
  QCheck.Test.make
    ~name:"iter/fold/to_seq/choose visit lexicographic order" ~count:300
    arb_lang
    (fun (_, ws) ->
       let p = packed_of ws in
       let sorted = ref_of ws in
       let via_iter = ref [] in
       Lang.iter (fun w -> via_iter := w :: !via_iter) p;
       List.rev !via_iter = sorted
       && Lang.fold (fun w acc -> w :: acc) p [] = List.rev sorted
       && List.of_seq (Lang.to_seq p) = sorted
       && Lang.choose_opt p
          = (match sorted with [] -> None | w :: _ -> Some w))

let prop_lengths_sorted =
  (* the satellite fix: mixed-length accumulation via sort_uniq *)
  QCheck.Test.make ~name:"lengths is sorted-unique on mixed languages"
    ~count:300
    QCheck.(small_list (string_gen_of_size (Gen.int_bound 6) (Gen.oneofl [ 'a'; 'b'; 'c' ])))
    (fun ws ->
       let l = Lang.of_list ws in
       Lang.lengths l
       = List.sort_uniq compare (List.map String.length (ref_of ws)))

let test_ln_packed () =
  (* L_n now materialises straight into the packed backend *)
  List.iter
    (fun n ->
       let l = Ln.language n in
       Alcotest.(check bool)
         (Printf.sprintf "L_%d packed" n)
         true
         (Lang.to_packed l <> None);
       Alcotest.(check bool)
         (Printf.sprintf "L_%d cardinal" n)
         true
         (Bignum.equal (Ln.cardinal n) (Bignum.of_int (Lang.cardinal l)));
       Alcotest.(check bool)
         (Printf.sprintf "L_%d membership" n)
         true
         (Lang.for_all (Ln.mem n) l))
    [ 1; 2; 3; 4 ]

(* --- the counting kernels across the overflow boundary ----------------- *)

(* S -> S S | a counts binary trees: a^(n+1) has Catalan(n) parse trees.
   Catalan(35) overflows a 63-bit int, so checking a^33 .. a^37 drives the
   CYK kernel across the int -> Bignum escape and validates both sides
   against an independent big-integer recurrence. *)
let catalan_grammar =
  Grammar.make ~alphabet:Alphabet.binary ~names:[| "S" |]
    ~rules:
      Grammar.
        [
          { lhs = 0; rhs = [ N 0; N 0 ] }; { lhs = 0; rhs = [ T 'a' ] };
        ]
    ~start:0

let catalan =
  (* C_0 = 1, C_{n+1} = Σ C_i · C_{n-i} *)
  let memo = Hashtbl.create 64 in
  let rec c n =
    if n = 0 then Bignum.one
    else
      match Hashtbl.find_opt memo n with
      | Some v -> v
      | None ->
        let total = ref Bignum.zero in
        for i = 0 to n - 1 do
          total := Bignum.add !total (Bignum.mul (c i) (c (n - 1 - i)))
        done;
        Hashtbl.replace memo n !total;
        !total
  in
  c

let test_cyk_overflow_boundary () =
  List.iter
    (fun n ->
       Alcotest.check bignum
         (Printf.sprintf "Catalan(%d)" (n - 1))
         (catalan (n - 1))
         (Cyk.count_trees catalan_grammar (String.make n 'a')))
    [ 1; 2; 5; 33; 34; 35; 36; 37 ]

let test_cyk_batch_agrees () =
  let ws = List.init 38 (fun n -> String.make n 'a') in
  Alcotest.(check (list string))
    "batch = per-word"
    (List.map Bignum.to_string (List.map (Cyk.count_trees catalan_grammar) ws))
    (List.map Bignum.to_string (Cyk.count_trees_batch catalan_grammar ws))

let test_count_word_batch_agrees () =
  let g = Constructions.log_cfg 4 in
  let ws = Lang.elements (Analysis.language_exn g) in
  Alcotest.(check (list string))
    "batch = per-word"
    (List.map Bignum.to_string (List.map (Count_word.trees g) ws))
    (List.map Bignum.to_string (Count_word.trees_batch g ws))

let test_cyk_agrees_with_count_word () =
  (* two independent counting algorithms (indexed CYK on CNF vs the
     general-grammar DP) must agree word by word *)
  let g =
    Grammar.make ~alphabet:Alphabet.binary ~names:[| "S"; "A"; "B" |]
      ~rules:
        Grammar.
          [
            { lhs = 0; rhs = [ N 1; N 2 ] };
            { lhs = 0; rhs = [ N 2; N 1 ] };
            { lhs = 1; rhs = [ T 'a' ] };
            { lhs = 2; rhs = [ T 'b' ] };
            { lhs = 2; rhs = [ N 1; N 1 ] };
          ]
      ~start:0
  in
  Lang.iter
    (fun w ->
       Alcotest.check bignum w (Count_word.trees g w) (Cyk.count_trees g w))
    (Lang.full Alphabet.binary 4)

(* --- the set-backed fixpoint vs the packed default ---------------------- *)

(* [~packed:false] keeps every intermediate language set-backed, so it is
   an independent route to the language the tiered fixpoint computes (and
   to the same overflow, when a word outgrows [max_len]).  Even seeds draw uniform-length grammars (the packed concatenation path),
   odd seeds mixed-length ones (the set path under both settings). *)
let prop_fixpoint_set_vs_packed =
  QCheck.Test.make ~name:"Analysis.language: set = packed fixpoint"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let rng = Ucfg_util.Rng.create seed in
       let g =
         if seed land 1 = 0 then
           Random_grammar.fixed_length rng
             ~word_len:(1 + Ucfg_util.Rng.int rng 8)
             ~variants:2
         else
           Random_grammar.general rng ~nonterminals:4 ~max_rules:3
             ~max_rhs_len:3
       in
       match (Analysis.language ~packed:false g, Analysis.language g) with
       | Ok set, Ok packed ->
         Lang.equal set packed && Lang.cardinal set = Lang.cardinal packed
       | Error e1, Error e2 -> e1 = e2
       | _ -> false)

let test_log_cfg_both_fixpoints () =
  for n = 1 to 7 do
    let g = Constructions.log_cfg n in
    List.iter
      (fun packed ->
         Alcotest.check lang
           (Printf.sprintf "L(log_cfg %d), packed=%b" n packed)
           (Ln.language n)
           (Analysis.language_exn ~packed g))
      [ false; true ]
  done

(* --- job-count invariance ---------------------------------------------- *)

let prop_language_jobs_invariant =
  QCheck.Test.make ~name:"Analysis.language invariant under UCFG_JOBS"
    ~count:8
    QCheck.(int_range 2 5)
    (fun n ->
       let g = Constructions.log_cfg n in
       let l1 = with_global_jobs 1 (fun () -> Analysis.language_exn g) in
       let l4 = with_global_jobs 4 (fun () -> Analysis.language_exn g) in
       Lang.equal l1 l4
       && Lang.elements l1 = Lang.elements l4
       && Lang.equal l1 (Ln.language n))

let test_profile_jobs_invariant () =
  let g = Constructions.log_cfg 4 in
  let p1 = with_global_jobs 1 (fun () -> Ambiguity.profile g) in
  let p4 = with_global_jobs 4 (fun () -> Ambiguity.profile g) in
  Alcotest.(check int) "word_total" p1.Ambiguity.word_total p4.Ambiguity.word_total;
  Alcotest.(check int)
    "ambiguous_words" p1.Ambiguity.ambiguous_words p4.Ambiguity.ambiguous_words;
  Alcotest.check bignum "max_trees" p1.Ambiguity.max_trees p4.Ambiguity.max_trees;
  Alcotest.(check (list (pair string int)))
    "histogram" p1.Ambiguity.histogram p4.Ambiguity.histogram

let test_concat_jobs_invariant () =
  (* large packed product: exercises the chunked parallel path *)
  let l = Ln.language 4 in
  let c1 = with_global_jobs 1 (fun () -> Lang.concat l l) in
  let c4 = with_global_jobs 4 (fun () -> Lang.concat l l) in
  Alcotest.check lang "jobs 1 = jobs 4" c1 c4;
  Alcotest.(check bool) "stays packed" true (Lang.to_packed c1 <> None);
  Alcotest.(check int)
    "cardinal" (Lang.cardinal l * Lang.cardinal l) (Lang.cardinal c1)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pack_roundtrip; prop_boolean_ops_agree; prop_predicates_agree;
      prop_concat_agrees; prop_complement_full_agree; prop_iteration_order;
      prop_lengths_sorted; prop_language_jobs_invariant;
      prop_fixpoint_set_vs_packed;
    ]

let () =
  Alcotest.run "ucfg_packed"
    [
      ( "packed",
        Alcotest.test_case "L_n is packed" `Quick test_ln_packed :: qtests );
      ( "kernels",
        [
          Alcotest.test_case "CYK across the overflow boundary" `Quick
            test_cyk_overflow_boundary;
          Alcotest.test_case "CYK batch = per-word" `Quick
            test_cyk_batch_agrees;
          Alcotest.test_case "Count_word batch = per-word" `Quick
            test_count_word_batch_agrees;
          Alcotest.test_case "CYK = Count_word" `Quick
            test_cyk_agrees_with_count_word;
          Alcotest.test_case "profile invariant under jobs" `Quick
            test_profile_jobs_invariant;
          Alcotest.test_case "packed concat invariant under jobs" `Quick
            test_concat_jobs_invariant;
          Alcotest.test_case "L(log_cfg n) on both fixpoints" `Quick
            test_log_cfg_both_fixpoints;
        ] );
    ]
