(* Command line interface to the library: build the paper's grammars and
   automata, check them, count, extract rectangle covers, and print the
   certified bounds. *)

open Cmdliner
open Ucfg_lang
open Ucfg_cfg
open Ucfg_core
module Bignum = Ucfg_util.Bignum
module Diag = Ucfg_lint.Diag
module Json = Ucfg_serve.Json
module Verbs = Ucfg_serve.Verbs

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Language parameter n.")

(* every subcommand takes --jobs and sizes the Ucfg_exec pool before its
   body runs; results are identical at any job count, only wall-clock moves *)
let jobs_term =
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"JOBS"
          ~doc:
            "Domains used by the parallel execution pool (default: \
             $(b,UCFG_JOBS) or the machine's core count; 1 disables \
             parallelism).")
  in
  Term.(const (fun jobs -> Option.iter Ucfg_exec.Exec.set_jobs jobs) $ jobs_arg)

(* --timeout/--budget install a per-invocation resource guard as the
   ambient [Ucfg_exec.Exec] guard; every long-running library loop polls
   it cooperatively, and a trip surfaces as a diagnostic with exit code
   124 (the GNU timeout convention) *)
let guard_term =
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Abort the computation after $(docv) seconds of wall clock; \
             exits 124 with a diagnostic.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Abort after $(docv) guard ticks (loop iterations, summed \
             across domains); exits 124 with a diagnostic.")
  in
  Term.(
    const (fun timeout budget ->
        if timeout <> None || budget <> None then
          Ucfg_exec.Exec.set_guard (Ucfg_exec.Guard.create ?timeout ?budget ()))
    $ timeout_arg $ budget_arg)

(* --jobs then --timeout/--budget, shared by every subcommand *)
let common_term = Term.(const (fun () () -> ()) $ jobs_term $ guard_term)

(* the CLI's release version: also echoed by the serve daemon's ping and
   recorded in bombard reports *)
let version = "1.3.0"

let kind_names = List.map fst Constructions.kinds

let kind_arg =
  Arg.(
    value
    & opt (enum (List.map (fun k -> (k, k)) kind_names)) "log"
    & info [ "kind" ] ~docv:"KIND"
        ~doc:
          "Grammar construction: $(b,log) (Appendix A), $(b,example3) (the \
           KMN grammar, n interpreted as t), $(b,example4) (the unambiguous \
           grammar), $(b,trivial) (one rule per word).")

let build_grammar kind n = (List.assoc kind Constructions.kinds) ?guard:None n

let load_grammar path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Grammar_io.parse Ucfg_word.Alphabet.binary text

let from_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "from-file" ] ~docv:"PATH"
        ~doc:
          "Load a grammar from a file (Grammar_io text format over the \
           binary alphabet) instead of building a construction.")

(* --- separation ---------------------------------------------------------- *)

let separation_cmd =
  let run () ns =
    let reports = Ucfg_exec.Exec.parallel_map Separation.run ns in
    Report.print_table ~title:"Theorem 1 separation"
      ~headers:Separation.headers (Separation.rows reports)
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ]
      & info [ "ns" ] ~docv:"N,N,..." ~doc:"Values of n to report.")
  in
  Cmd.v (Cmd.info "separation" ~doc:"The Theorem 1 size table for L_n.")
    Term.(const run $ common_term $ ns_arg)

(* --- grammar ------------------------------------------------------------- *)

let grammar_cmd =
  let run () kind n print check from_file =
    let g =
      match from_file with
      | Some path -> load_grammar path
      | None -> build_grammar kind n
    in
    Printf.printf "size: %d\nnonterminals: %d\nrules: %d\n" (Grammar.size g)
      (Grammar.nonterminal_count g) (Grammar.rule_count g);
    if check then begin
      (if from_file = None then begin
         let expected =
           Ln.language (if kind = "example3" then (1 lsl n) + 1 else n)
         in
         let actual = Analysis.language_exn g in
         Printf.printf "accepts L_n exactly: %b\n" (Lang.equal expected actual)
       end);
      Printf.printf "unambiguous: %b\n" (Ambiguity.is_unambiguous g)
    end;
    if print then print_endline (Grammar.to_string g)
  in
  let print_arg =
    Arg.(value & flag & info [ "print" ] ~doc:"Print all rules.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Verify the language against brute force and decide ambiguity.")
  in
  Cmd.v
    (Cmd.info "grammar"
       ~doc:"Build one of the paper's grammars for L_n, or load one.")
    Term.(
      const run $ common_term $ kind_arg $ n_arg $ print_arg $ check_arg
      $ from_file_arg)

(* --- count --------------------------------------------------------------- *)

let count_cmd =
  let run () n meth =
    match meth with
    | `Dp ->
      let g = Cnf.of_grammar (Constructions.example4 n) in
      Printf.printf "|L_%d| = %s (uCFG dynamic program)\n" n
        (Bignum.to_string (Count.words_unambiguous g (2 * n)))
    | `Enum ->
      let g = Constructions.log_cfg n in
      Printf.printf "|L_%d| = %s (enumeration of the ambiguous CFG)\n" n
        (Bignum.to_string (Count.words_by_enumeration g))
    | `Formula ->
      Printf.printf "|L_%d| = %s (4^n - 3^n)\n" n (Bignum.to_string (Ln.cardinal n))
  in
  let meth_arg =
    Arg.(
      value
      & opt (enum [ ("dp", `Dp); ("enum", `Enum); ("formula", `Formula) ]) `Formula
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"$(b,dp) (poly-time on the uCFG), $(b,enum) (brute force), \
                $(b,formula).")
  in
  Cmd.v (Cmd.info "count" ~doc:"Count the words of L_n.")
    Term.(const run $ common_term $ n_arg $ meth_arg)

(* --- rectangles ---------------------------------------------------------- *)

let rectangles_cmd =
  let run () kind n =
    let g = build_grammar kind n in
    let res = Ucfg_rect.Extract.run g in
    let v, shape_ok = Ucfg_rect.Extract.verify g res in
    Printf.printf
      "word length: %d\nCNF size: %d\nannotated size (Lemma 10): %d\n\
       rectangles: %d (bound N·|G| = %d)\ncover verified: %b\ndisjoint: %b\n\
       balanced and within bound: %b\n"
      res.Ucfg_rect.Extract.word_length res.Ucfg_rect.Extract.cnf_size
      res.Ucfg_rect.Extract.annotated_size
      (List.length res.Ucfg_rect.Extract.rectangles)
      res.Ucfg_rect.Extract.bound v.Ucfg_rect.Cover.is_cover
      v.Ucfg_rect.Cover.is_disjoint shape_ok
  in
  Cmd.v
    (Cmd.info "rectangles"
       ~doc:"Run the Proposition 7 extraction on one of the grammars.")
    Term.(const run $ common_term $ kind_arg $ n_arg)

(* --- bound --------------------------------------------------------------- *)

let bound_cmd =
  let run () ns =
    Report.print_table ~title:"Theorem 12 certified bounds"
      ~headers:[ "n"; "cover lower bound"; "uCFG size lower bound"; "log2" ]
      (Ucfg_exec.Exec.parallel_map
         (fun n ->
            [
              string_of_int n;
              Bignum.to_string (Ucfg_disc.Bound.cover_lower_bound n);
              Bignum.to_string (Ucfg_disc.Bound.ucfg_size_lower_bound n);
              Printf.sprintf "%.1f" (Ucfg_disc.Bound.log2_ucfg_bound n);
            ])
         ns)
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 50; 100; 200; 400; 800 ]
      & info [ "ns" ] ~docv:"N,N,..." ~doc:"Values of n.")
  in
  Cmd.v (Cmd.info "bound" ~doc:"Print the certified uCFG lower bounds.")
    Term.(const run $ common_term $ ns_arg)

(* --- csv ----------------------------------------------------------------- *)

let csv_cmd =
  let run () columns width =
    let s = { Csv.columns; width } in
    let g = Csv.grammar s in
    Printf.printf "columns: %d, width: %d, word length: %d\n" columns width
      (Csv.word_length s);
    Printf.printf "ambiguous CFG size: %d\n" (Grammar.size g);
    Printf.printf "uCFG lower bound (via the L_n reduction): %s\n"
      (Bignum.to_string (Csv.ucfg_size_lower_bound s))
  in
  let columns_arg =
    Arg.(value & opt int 4 & info [ "columns" ] ~docv:"K" ~doc:"Column count.")
  in
  let width_arg =
    Arg.(value & opt int 2 & info [ "width" ] ~docv:"W" ~doc:"Column width.")
  in
  Cmd.v
    (Cmd.info "csv" ~doc:"The CSV information-extraction application.")
    Term.(const run $ common_term $ columns_arg $ width_arg)

(* --- access -------------------------------------------------------------- *)

let access_cmd =
  let run () n index sample seed =
    let da =
      Direct_access.create (Cnf.of_grammar (Constructions.example4 n))
        ~max_len:(2 * n)
    in
    Printf.printf "|L_%d| = %s\n" n (Bignum.to_string (Direct_access.total da));
    (match index with
     | Some i -> begin
         match Direct_access.nth da (Bignum.of_int i) with
         | Some w ->
           Printf.printf "word #%d = %s" i w;
           (match Direct_access.rank da w with
            | Some r -> Printf.printf " (rank checks: %s)\n" (Bignum.to_string r)
            | None -> print_newline ())
         | None -> Printf.printf "index %d out of range\n" i
       end
     | None -> ());
    if sample then begin
      let rng = Ucfg_util.Rng.create seed in
      match Direct_access.sample da rng with
      | Some w -> Printf.printf "uniform sample: %s\n" w
      | None -> Printf.printf "empty language\n"
    end
  in
  let index_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"I" ~doc:"Return the I-th word of L_n.")
  in
  let sample_arg =
    Arg.(value & flag & info [ "sample" ] ~doc:"Draw a uniform word.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Sampling seed.")
  in
  Cmd.v
    (Cmd.info "access"
       ~doc:"Direct access into L_n through the unambiguous grammar.")
    Term.(const run $ common_term $ n_arg $ index_arg $ sample_arg $ seed_arg)

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let run () kind n =
    let g = build_grammar kind n in
    let p = Ambiguity.profile g in
    Printf.printf "words: %d\nambiguous words: %d\nmax parse trees: %s\n"
      p.Ambiguity.word_total p.Ambiguity.ambiguous_words
      (Bignum.to_string p.Ambiguity.max_trees);
    List.iter
      (fun (k, v) -> Printf.printf "  %s trees: %d words\n" k v)
      p.Ambiguity.histogram
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Ambiguity-degree histogram of a grammar.")
    Term.(const run $ common_term $ kind_arg $ n_arg)

(* --- intersect ------------------------------------------------------------ *)

let intersect_cmd =
  let run () n check =
    let cube =
      Constructions.sigma_chain Ucfg_word.Alphabet.binary (2 * n)
    in
    let g =
      Ucfg_automata.Bar_hillel.intersect cube (Ucfg_automata.Ln_nfa.pattern n)
    in
    Printf.printf "Bar–Hillel product (Σ^%d ∩ pattern): size %d, %d rules\n"
      (2 * n) (Grammar.size g) (Grammar.rule_count g);
    if check then
      Printf.printf "equals L_%d: %b\n" n
        (Lang.equal (Ln.language n) (Analysis.language_exn g))
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Verify against brute force.")
  in
  Cmd.v
    (Cmd.info "intersect"
       ~doc:"Rebuild L_n by the Bar–Hillel product Σ^2n ∩ pattern.")
    Term.(const run $ common_term $ n_arg $ check_arg)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let run () kind n from_file json nfa list_checks semantic =
    if list_checks then begin
      let print_registry title checks =
        Printf.printf "%s\n" title;
        List.iter
          (fun (c : Diag.check) ->
             Printf.printf "  %s  %-11s %s\n" c.code
               (Diag.soundness_label c.soundness)
               c.title)
          checks
      in
      print_registry "Grammar checks:" Ucfg_lint.Grammar_lint.checks;
      print_registry "Semantic checks:" Ucfg_lint.Semantic_lint.checks;
      print_registry "NFA checks:" Ucfg_lint.Nfa_lint.checks;
      exit 0
    end;
    let diags =
      if nfa then Ucfg_lint.Nfa_lint.run (Ucfg_automata.Ln_nfa.build n)
      else begin
        let g =
          match from_file with
          | Some path -> load_grammar path
          | None -> build_grammar kind n
        in
        Verbs.lint_diags ~guard:(Ucfg_exec.Exec.current_guard ()) ~semantic g
      end
    in
    if json then print_endline (Diag.list_to_json diags)
    else Format.printf "%a@." Diag.pp_report diags;
    (* a semantic tier cut short by the guard reports a partial verdict,
       then exits 124 like the daemon's answer to the same request *)
    exit (Verbs.exit_code diags)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  let nfa_arg =
    Arg.(
      value & flag
      & info [ "nfa" ]
          ~doc:"Lint the Theorem 1(2) NFA for L_n instead of a grammar.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List every check code and its soundness status.")
  in
  let semantic_arg =
    Arg.(
      value & flag
      & info [ "semantic" ]
          ~doc:
            "Also run the deep semantic tier (universality with the \
             counting/packed backend cross-check, codes G016\xe2\x80\x93G020).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics for a grammar or NFA: dead symbols, cycles, CNF \
          readiness, and sound ambiguity pre-checks.  Exits 1 when an error \
          fires (definite ambiguity).")
    Term.(
      const run $ common_term $ kind_arg $ n_arg $ from_file_arg $ json_arg
      $ nfa_arg $ list_arg $ semantic_arg)

(* --- check ----------------------------------------------------------------- *)

module SL = Ucfg_lint.Semantic_lint

(* A comparison grammar: a Grammar_io file path, or [kind:N] naming one of
   the built-in constructions (e.g. [log:4], [trivial:4]). *)
let load_spec spec =
  let kind_n =
    match String.index_opt spec ':' with
    | None -> None
    | Some i ->
      let kind = String.sub spec 0 i in
      let n = String.sub spec (i + 1) (String.length spec - i - 1) in
      if List.mem kind kind_names then
        Option.map (fun n -> (kind, n)) (int_of_string_opt n)
      else None
  in
  match kind_n with
  | Some (kind, n) -> build_grammar kind n
  | None ->
    if Sys.file_exists spec then load_grammar spec
    else
      failwith
        (Printf.sprintf
           "grammar spec %S is neither a readable file nor KIND:N (KIND one \
            of %s)" spec (String.concat ", " kind_names))

let check_cmd =
  let run () kind n from_file universal includes equiv disjoint cross_check
      json =
    let g1 =
      match from_file with
      | Some path -> load_grammar path
      | None -> build_grammar kind n
    in
    let props =
      (if universal then [ ("universal", None) ] else [])
      @ List.filter_map
          (fun (name, spec) -> Option.map (fun s -> (name, Some s)) spec)
          [ ("includes", includes); ("equiv", equiv); ("disjoint", disjoint) ]
    in
    match props with
    | [ (property, spec) ] ->
      let report =
        Verbs.check_report ~cross_check ~property g1
          (Option.map load_spec spec)
      in
      let diags = SL.to_diags report in
      let big = function Some b -> Bignum.to_string b | None -> "?" in
      if json then
        (* the daemon's [check] result payload, byte for byte *)
        print_endline (Json.to_string (Verbs.check_result property report))
      else begin
        (match report.SL.status with
         | SL.Holds ->
           Printf.printf "check %s: HOLDS%s\n" property
             (if report.SL.vacuous then " (vacuously)" else "")
         | SL.Fails cex ->
           Printf.printf "check %s: FAILS\n" property;
           if not (report.SL.vacuous && property = "universal") then
             Printf.printf
               "witness: %S (in L(G1): %b, in comparison language: %b)\n"
               cex.SL.word cex.SL.in_first cex.SL.in_second
         | SL.Interrupted r ->
           Printf.printf "check %s: INTERRUPTED (%s)\n" property
             (Ucfg_exec.Guard.reason_code r));
        Printf.printf "backend: %s\n|L(G1)| = %s\n|comparison| = %s\n"
          (Verbs.backend_name report) (big report.SL.cardinal)
          (big report.SL.cardinal2);
        if diags <> [] then Format.printf "%a@." Diag.pp_report diags
      end;
      exit (Verbs.exit_code diags)
    | _ ->
      let d =
        Diag.invalid_input
          "pass exactly one of --universal, --includes, --equiv, --disjoint"
      in
      if json then print_endline (Diag.list_to_json [ d ])
      else Format.printf "%a@." Diag.pp_report [ d ];
      exit 2
  in
  let universal_arg =
    Arg.(
      value & flag
      & info [ "universal" ]
          ~doc:
            "Decide L(G) = \xce\xa3^\xe2\x84\x93 (the grammar's alphabet, \
             uniform length).")
  in
  let spec_doc verb =
    Printf.sprintf
      "Decide %s, where $(docv) is a grammar file or KIND:N (KIND one of \
       log, example3, example4, trivial)."
      verb
  in
  let includes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "includes" ] ~docv:"SPEC"
          ~doc:(spec_doc "L(G) \xe2\x8a\x86 L(G2)"))
  in
  let equiv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "equiv" ] ~docv:"SPEC" ~doc:(spec_doc "L(G) = L(G2)"))
  in
  let disjoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "disjoint" ] ~docv:"SPEC"
          ~doc:(spec_doc "L(G) \xe2\x88\xa9 L(G2) = \xe2\x88\x85"))
  in
  let cross_check_arg =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "Run both decision backends (certificate-gated counting and \
             packed algebra) and fail with G020 if they disagree.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Decide universality, inclusion, equivalence or disjointness of \
          bounded-length grammars, with a shortest counterexample witness \
          on failure.  Uses exact tree counting when the unambiguity \
          certificate holds (the comparison language is never enumerated), \
          packed language algebra otherwise.  Exit codes: 0 the property \
          holds, 1 it fails (or an internal cross-check error), 2 invalid \
          input, 124 guard trip ($(b,--timeout)/$(b,--budget)).")
    Term.(
      const run $ common_term $ kind_arg $ n_arg $ from_file_arg
      $ universal_arg $ includes_arg $ equiv_arg $ disjoint_arg
      $ cross_check_arg $ json_arg)

(* --- search ---------------------------------------------------------------- *)

let search_cmd =
  let run () n unambiguous max_nonterminals max_size nodes json checkpoint_root
      no_checkpoint no_memo resume =
    let lang = Ln.language n in
    let budget = nodes in
    (* one checkpoint directory per search identity: a resume can only
       ever see a checkpoint written by the same search *)
    let checkpoint =
      if no_checkpoint then None
      else
        Some
          (Filename.concat checkpoint_root
             (Search.checkpoint_key ~unambiguous ~max_nonterminals ~max_size
                ?budget Ucfg_word.Alphabet.binary lang))
    in
    let r =
      Search.minimal_cnf_size ~unambiguous ~max_nonterminals ~max_size
        ?budget ~memo:(not no_memo) ?checkpoint ~resume
        Ucfg_word.Alphabet.binary lang
    in
    let warn_diags =
      match r.Search.checkpoint_warning with
      | Some reason -> [ Diag.checkpoint_corrupt reason ]
      | None -> []
    in
    match r.Search.interrupted with
    | Some reason ->
      (* the guard tripped mid-search: report the partial progress the
         same way in text and JSON, then exit 124 like a trip anywhere
         else in the pipeline would *)
      let diags = Diag.interrupted reason :: warn_diags in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("interrupted", Json.Str (Ucfg_exec.Guard.reason_code reason));
                  ("nodes_explored", Json.Int r.Search.nodes_explored);
                  ("nodes_exact", Json.Bool false);
                  ("checkpoint",
                   match r.Search.checkpoint_written with
                   | Some path -> Json.Str path
                   | None -> Json.Null);
                  ("resumed", Json.Bool r.Search.resumed);
                  ("diagnostics", Json.Raw (Diag.list_to_json diags)) ]))
      else begin
        Format.printf "%a@." Diag.pp_report diags;
        Printf.printf
          "partial nodes explored: %d (approximate: scheduling-dependent \
           under --jobs > 1)\n"
          r.Search.nodes_explored;
        (match r.Search.checkpoint_written with
         | Some path ->
           Printf.printf
             "checkpoint written: %s\nrerun with --resume to continue\n" path
         | None -> ())
      end;
      exit 124
    | None ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                ([ ("minimal_size",
                    match r.Search.minimal_size with
                    | Some s -> Json.Int s
                    | None -> Json.Null);
                   ("nodes_explored", Json.Int r.Search.nodes_explored);
                   ("budget_exhausted", Json.Bool r.Search.budget_exhausted);
                   ("memo_hits", Json.Int r.Search.memo_hits);
                   ("memo_misses", Json.Int r.Search.memo_misses);
                   ("resumed", Json.Bool r.Search.resumed) ]
                 @
                 if warn_diags = [] then []
                 else [ ("diagnostics", Json.Raw (Diag.list_to_json warn_diags)) ])))
      else begin
        if warn_diags <> [] then
          Format.printf "%a@." Diag.pp_report warn_diags;
        (match r.Search.minimal_size, r.Search.witness with
         | Some s, Some g ->
           Printf.printf "minimal CNF size for L_%d: %d\n" n s;
           print_endline (Grammar.to_string g)
         | _ ->
           Printf.printf "no grammar within caps%s\n"
             (if r.Search.budget_exhausted then " (node budget exhausted)"
              else ""));
        Printf.printf "nodes explored: %d\n" r.Search.nodes_explored;
        if r.Search.resumed then
          Printf.printf "resumed from checkpoint (memo: %d hits, %d misses)\n"
            r.Search.memo_hits r.Search.memo_misses
      end
  in
  let unambiguous_arg =
    Arg.(
      value & flag
      & info [ "unambiguous" ] ~doc:"Restrict the search to uCFGs.")
  in
  let max_nonterminals_arg =
    Arg.(
      value & opt int 3
      & info [ "max-nonterminals" ] ~docv:"K" ~doc:"Nonterminal cap.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 12
      & info [ "max-size" ] ~docv:"S" ~doc:"Grammar size cap.")
  in
  let nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"B"
          ~doc:
            "Deterministic search-node budget (default 3000000); distinct \
             from the wall-clock/tick guard of $(b,--timeout)/$(b,--budget).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt string (Filename.concat "_repro" "search")
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Root directory for search checkpoints; each search uses the \
             subdirectory named by its parameter digest.")
  in
  let no_checkpoint_arg =
    Arg.(
      value & flag
      & info [ "no-checkpoint" ]
          ~doc:"Do not write a checkpoint when the guard interrupts the run.")
  in
  let no_memo_arg =
    Arg.(
      value & flag
      & info [ "no-memo" ]
          ~doc:
            "Disable the cross-domain verdict memo (identical result, \
             slower on symmetric instances).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the checkpoint of an earlier interrupted run \
             with the same parameters, if one exists; a damaged or \
             mismatched checkpoint degrades to a fresh run with an R021 \
             warning.")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Exhaustively search the smallest CNF grammar accepting exactly \
          L_n.  Exponential: combine with --timeout/--budget for large n; \
          an interrupted run writes a checkpoint, reports its partial node \
          count and exits 124; $(b,--resume) picks it up.")
    Term.(
      const run $ common_term $ n_arg $ unambiguous_arg $ max_nonterminals_arg
      $ max_size_arg $ nodes_arg $ json_arg $ checkpoint_dir_arg
      $ no_checkpoint_arg $ no_memo_arg $ resume_arg)

(* --- circuit ---------------------------------------------------------------- *)

let circuit_cmd =
  let run () n =
    let naive = Ucfg_kc.Ln_circuit.naive n in
    let det = Ucfg_kc.Ln_circuit.deterministic n in
    Printf.printf "DNNF size: %d\nd-DNNF size: %d\nmodel count: %s (4^n - 3^n = %s)\n"
      (Ucfg_kc.Circuit.size naive) (Ucfg_kc.Circuit.size det)
      (Bignum.to_string (Ucfg_kc.Circuit.model_count det))
      (Bignum.to_string (Ln.cardinal n))
  in
  Cmd.v
    (Cmd.info "circuit"
       ~doc:"Boolean DNNF / d-DNNF circuits for the L_n predicate.")
    Term.(const run $ common_term $ n_arg)

(* --- serve ----------------------------------------------------------------- *)

module Server = Ucfg_serve.Server
module Bombard = Ucfg_serve.Bombard

let cache_dir_arg =
  Arg.(
    value
    & opt string "_repro/cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Root of the on-disk artifact cache (created on demand).")

let no_disk_arg =
  Arg.(
    value & flag
    & info [ "no-disk-cache" ]
        ~doc:"Keep the cache in memory only (no on-disk tier).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Loopback TCP port.")

let serve_cmd =
  (* the daemon must not inherit a process-wide --timeout guard (it would
     trip once and poison every later request), so it takes per-request
     defaults instead of [guard_term] and only uses [jobs_term] *)
  let run () socket tcp stdin_mode cache_dir no_disk mem_capacity
      cache_max_bytes default_timeout default_budget max_connections
      queue_capacity idle_timeout_ms max_request_bytes drain_timeout_ms
      backlog =
    let cache_dir = if no_disk then None else Some cache_dir in
    let srv =
      Server.create ~cache_dir ?mem_capacity ?cache_max_bytes
        ?default_timeout_ms:(Option.map (fun s -> s *. 1000.) default_timeout)
        ?default_budget ?max_connections ?queue_capacity ?idle_timeout_ms
        ?max_request_bytes ?drain_timeout_ms ~version ()
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let finish = function
      | Server.Drained -> ()
      | Server.Forced n ->
        Printf.eprintf
          "ucfg serve: forced exit: %d request(s) ignored cancellation\n%!" n;
        (* skip at_exit: it joins the domain pool, which a wedged request
           may hold forever *)
        Unix._exit 1
    in
    let install_drain_signals () =
      (* first signal: graceful drain (finish in-flight, flush the cache,
         exit 0); second: give up immediately *)
      let hits = Atomic.make 0 in
      let on_signal _ =
        if Atomic.fetch_and_add hits 1 = 0 then Server.request_drain srv
        else Unix._exit 1
      in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
    in
    match socket, tcp, stdin_mode with
    | Some path, None, false ->
      install_drain_signals ();
      Printf.eprintf "ucfg serve: listening on %s\n%!" path;
      finish (Server.run_unix ?backlog srv ~path)
    | None, Some port, false ->
      install_drain_signals ();
      Printf.eprintf "ucfg serve: listening on 127.0.0.1:%d\n%!" port;
      finish (Server.run_tcp ?backlog srv ~port)
    | None, None, true -> Server.run_stdin srv stdin stdout
    | None, None, false ->
      failwith "pass one of --socket PATH, --tcp PORT, --stdin"
    | _ -> failwith "pass exactly one of --socket, --tcp, --stdin"
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Batch mode: read all request lines from stdin, fan them over \
             the pool, and write response lines in request order (tests, \
             CI).")
  in
  let mem_capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-capacity" ] ~docv:"N"
          ~doc:"In-memory LRU entry cap (default 512).")
  in
  let cache_max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte cap on the on-disk cache tier; after each store, \
             oldest-stamp entries are evicted until the store fits \
             (default: unbounded).")
  in
  let default_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request wall-clock deadline applied when a request \
             carries none; a trip degrades that request to an R001 error \
             response, not process death.")
  in
  let default_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-budget" ] ~docv:"N"
          ~doc:"Per-request tick budget applied when a request carries none.")
  in
  let max_connections_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Serve up to $(docv) connections concurrently, each on its own \
             worker (default: the --jobs count).")
  in
  let queue_capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Accepted connections waiting for a worker beyond \
             --max-connections (default: --max-connections); past that the \
             daemon sheds with a retriable R013 response.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Absolute deadline for one complete request line (default \
             30000; <= 0 disables).  A stalled mid-request connection gets \
             a retriable R014 error and is closed; an idle one is closed \
             quietly.")
  in
  let max_request_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Cap on one request line (default 1048576); an oversized \
             request gets R015 and the connection is closed.")
  in
  let drain_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT or a shutdown request, wait up to $(docv) \
             (default 5000) for in-flight requests before cancelling their \
             guards (they answer R003).")
  in
  let backlog_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Kernel accept backlog for the listener (default 64).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived grammar-analysis daemon: line-delimited JSON requests \
          (lint / check / ambiguity / rectangles / rank) answered through a \
          content-addressed artifact cache (in-memory LRU over a verified \
          on-disk store).  Guard trips and bad inputs become structured \
          error responses carrying the documented exit-code taxonomy \
          (R001\xe2\x80\x93R003 \xe2\x86\x92 124, R010/R011 \xe2\x86\x92 2) \
          instead of killing the process.")
    Term.(
      const run $ jobs_term $ socket_arg $ tcp_arg $ stdin_arg $ cache_dir_arg
      $ no_disk_arg $ mem_capacity_arg $ cache_max_bytes_arg
      $ default_timeout_arg
      $ default_budget_arg $ max_connections_arg $ queue_capacity_arg
      $ idle_timeout_arg $ max_request_bytes_arg $ drain_timeout_arg
      $ backlog_arg)

(* --- bombard --------------------------------------------------------------- *)

let bombard_cmd =
  let run () socket tcp in_process cache_dir no_disk smoke profile seed
      requests dump json_out json assert_warm_hits shutdown chaos_mode
      request_line rounds burst stall_ms oversize_bytes =
    let profile = if smoke then "smoke" else profile in
    let requests =
      match requests with
      | Some r -> r
      | None -> if profile = "smoke" then 40 else 200
    in
    let target =
      match socket, tcp with
      | Some path, None -> Some (Bombard.Unix_path path)
      | None, Some port -> Some (Bombard.Tcp_port port)
      | None, None -> None
      | Some _, Some _ -> failwith "pass one of --socket PATH or --tcp PORT"
    in
    let need_target what =
      match target with
      | Some t -> t
      | None -> failwith (what ^ " needs --socket PATH or --tcp PORT")
    in
    let with_dump f =
      let dump_oc = Option.map open_out dump in
      Fun.protect
        ~finally:(fun () -> Option.iter close_out dump_oc)
        (fun () -> f dump_oc)
    in
    (* the report on stdout, and as JSON in the --json-out file *)
    let emit to_json to_text report =
      Option.iter
        (fun path ->
           Out_channel.with_open_text path (fun oc ->
               output_string oc (to_json report ^ "\n")))
        json_out;
      print_endline (if json then to_json report else to_text report)
    in
    let shutdown_line = {|{"op": "shutdown"}|} in
    match request_line, chaos_mode with
    | Some _, true -> failwith "--request and --chaos are mutually exclusive"
    | Some line, false -> (
        (* one request, one response line on stdout: the drain-smoke
           client, and a handy manual probe *)
        let tgt = need_target "--request" in
        match Bombard.one_shot tgt line with
        | Some resp ->
          print_endline resp;
          if shutdown then ignore (Bombard.one_shot tgt shutdown_line)
        | None ->
          prerr_endline
            "bombard: no response (connection closed or timed out)";
          exit 1)
    | None, true ->
      let tgt = need_target "--chaos" in
      let params =
        { Bombard.rounds; burst; stall_ms; oversize_bytes }
      in
      let report =
        with_dump (fun dump_oc ->
            Bombard.chaos ?dump:dump_oc ~params ~target:tgt ~seed ())
      in
      if shutdown then ignore (Bombard.one_shot tgt shutdown_line);
      emit Bombard.chaos_to_json Bombard.chaos_to_text report;
      if not (Bombard.chaos_ok report) then exit 1
    | None, false ->
    let send, cleanup =
      match target, in_process with
      | Some tgt, false -> Bombard.connection tgt
      | None, true ->
        let cache_dir = if no_disk then None else Some cache_dir in
        let srv = Server.create ~cache_dir ~version () in
        ((fun line -> Some (Server.handle_line srv line)), fun () -> ())
      | _ ->
        failwith "pass exactly one of --socket PATH, --tcp PORT, --in-process"
    in
    let report =
      Fun.protect
        ~finally:(fun () ->
          if shutdown then ignore (send shutdown_line);
          cleanup ())
        (fun () ->
           with_dump (fun dump_oc ->
               Bombard.run ?dump:dump_oc ~profile ~seed ~requests send))
    in
    emit Bombard.to_json Bombard.to_text report;
    if not (Bombard.ok report) then exit 1;
    if assert_warm_hits && report.Bombard.warm_hit_ratio <= 0. then begin
      prerr_endline "bombard: --assert-warm-hits failed (warm hit ratio is 0)";
      exit 3
    end
  in
  let in_process_arg =
    Arg.(
      value & flag
      & info [ "in-process" ]
          ~doc:
            "Drive an in-process server instead of a socket (no daemon \
             needed; uses --cache-dir/--no-disk-cache).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shorthand for --profile smoke with a CI-sized request count.")
  in
  let profile_arg =
    Arg.(
      value
      & opt (enum [ ("smoke", "smoke"); ("mixed", "mixed") ]) "mixed"
      & info [ "profile" ] ~docv:"NAME" ~doc:"Traffic profile: smoke or mixed.")
  in
  let seed_arg =
    Arg.(value & opt int 1066 & info [ "seed" ] ~docv:"S" ~doc:"Traffic seed.")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Warm-phase request count (default 40 smoke / 200 mixed).")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"PATH"
          ~doc:
            "Write one '<key> <result>' line per distinct request — a \
             stable transcript for cold/warm and jobs 1-vs-4 diffs.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:"Also write the JSON report to $(docv) (CI artifact).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.")
  in
  let assert_arg =
    Arg.(
      value & flag
      & info [ "assert-warm-hits" ]
          ~doc:"Exit 3 unless the warm-phase cache hit ratio is nonzero.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Send a shutdown request when done (stops the daemon).")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Seeded adversarial mode against a live daemon: partial \
             writes, mid-request disconnects, malformed and oversized \
             frames, slow and stalled clients, concurrent bursts — the \
             daemon must survive them all and keep answering \
             byte-identically (needs --socket/--tcp).")
  in
  let request_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "request" ] ~docv:"LINE"
          ~doc:
            "Send one request line, print the one response line, exit \
             (exit 1 if the connection closes unanswered; needs \
             --socket/--tcp).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 40
      & info [ "rounds" ] ~docv:"N" ~doc:"Chaos scenario rounds.")
  in
  let burst_arg =
    Arg.(
      value & opt int 6
      & info [ "burst" ] ~docv:"N"
          ~doc:"Concurrent clients per chaos burst round.")
  in
  let stall_ms_arg =
    Arg.(
      value & opt float 800.
      & info [ "stall-ms" ] ~docv:"MS"
          ~doc:
            "Chaos slow-loris silence; set above the daemon's \
             --idle-timeout-ms to exercise R014.")
  in
  let oversize_bytes_arg =
    Arg.(
      value & opt int 8192
      & info [ "oversize-bytes" ] ~docv:"BYTES"
          ~doc:
            "Chaos newline-free flood size; set above the daemon's \
             --max-request-bytes to exercise R015.")
  in
  Cmd.v
    (Cmd.info "bombard"
       ~doc:
         "Seeded load generator for the serve daemon: replays a mixed \
          lint/check/ambiguity/rectangles/rank traffic profile and reports \
          p50/p99 latency, throughput and the cache hit ratio; fails (exit \
          1) if any response errors or two responses to the same request \
          differ byte-wise, and under $(b,--assert-warm-hits) (exit 3) if \
          the warm phase never hits the cache.")
    Term.(
      const run $ jobs_term $ socket_arg $ tcp_arg $ in_process_arg
      $ cache_dir_arg $ no_disk_arg $ smoke_arg $ profile_arg $ seed_arg
      $ requests_arg $ dump_arg $ json_out_arg $ json_arg $ assert_arg
      $ shutdown_arg $ chaos_arg $ request_arg $ rounds_arg $ burst_arg
      $ stall_ms_arg $ oversize_bytes_arg)

let main_cmd =
  let doc =
    "reproduction of 'A Lower Bound on Unambiguous Context Free Grammars via \
     Communication Complexity' (PODS 2025)"
  in
  Cmd.group (Cmd.info "ucfg" ~version ~doc)
    [ separation_cmd; grammar_cmd; count_cmd; rectangles_cmd; bound_cmd;
      csv_cmd; access_cmd; profile_cmd; intersect_cmd; lint_cmd; check_cmd;
      circuit_cmd; search_cmd; serve_cmd; bombard_cmd ]

(* Exit codes: 0 success, 1 lint errors, 2 invalid input or usage,
   70 internal error, 124 resource-guard trip (GNU timeout convention) —
   the daemon's per-request table ([Verbs.diagnose]), plus [Sys_error] from
   a file argument as invalid input.  [~catch:false] lets library
   exceptions reach this handler so every failure mode renders as a
   diagnostic instead of a backtrace; cmdliner's own cli_error (124) would
   collide with the guard code, so usage errors are remapped to 2. *)
let () =
  let code =
    try
      let c = Cmd.eval ~catch:false main_cmd in
      if c = Cmd.Exit.cli_error then 2 else c
    with exn ->
      let diag, code =
        match exn with
        | Sys_error msg -> (Diag.invalid_input msg, 2)
        | exn -> Verbs.diagnose exn
      in
      Format.eprintf "%a@." Diag.pp_report [ diag ];
      code
  in
  exit code
