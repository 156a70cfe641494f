(* Checkpointable sharded search: resuming an interrupted search — in any
   number of slices, at any job count — lands on exactly the record a
   single uninterrupted run produces; the verdict memo moves wall-clock
   only; damaged checkpoints degrade to a fresh run with a warning, never
   to a wrong answer. *)

open Ucfg_word
open Ucfg_lang
open Ucfg_cfg
open Ucfg_core
open Ucfg_exec
module Cover_search = Ucfg_comm.Cover_search

(* flip the process-wide pool, restoring the previous size afterwards *)
let with_global_jobs jobs f =
  let saved = Exec.jobs () in
  Exec.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ucfg_resume_%d_%d" (Unix.getpid ()) !dir_counter)

let search_fields r =
  ( (r.Search.minimal_size, Option.map Grammar.to_string r.Search.witness),
    (r.Search.nodes_explored, r.Search.budget_exhausted) )

let fields_testable =
  Alcotest.(pair (pair (option int) (option string)) (pair int bool))

(* run under a per-slice tick guard, resuming until the search completes;
   returns the final record and the number of resumed slices *)
let search_in_slices ~dir ~guard_budget ?unambiguous ?max_nonterminals
    ?max_size ?budget l =
  let rec go resumes resume =
    let guard = Guard.create ~budget:guard_budget () in
    let r =
      Search.minimal_cnf_size ~guard ?unambiguous ?max_nonterminals ?max_size
        ?budget ~checkpoint:dir ~resume Alphabet.binary l
    in
    match r.Search.interrupted with
    | None -> (r, resumes)
    | Some _ ->
      Alcotest.(check bool)
        "interrupted slice writes a checkpoint" true
        (r.Search.checkpoint_written <> None);
      if resumes > 60 then
        Alcotest.fail "resume loop did not converge in 60 slices";
      go (resumes + 1) true
  in
  go 0 false

(* --- resume equivalence ------------------------------------------------ *)

(* found-witness instance: L_1 has a size-3 CNF grammar *)
let test_resume_equivalence_found () =
  List.iter
    (fun jobs ->
       with_global_jobs jobs (fun () ->
           let l = Ln.language 1 in
           let whole = Search.minimal_cnf_size Alphabet.binary l in
           let dir = fresh_dir () in
           let sliced, resumes =
             search_in_slices ~dir ~guard_budget:250 l
           in
           Alcotest.(check bool)
             (Printf.sprintf "jobs %d: took >= 2 resumed slices" jobs)
             true (resumes >= 2);
           Alcotest.(check bool)
             (Printf.sprintf "jobs %d: final slice resumed" jobs)
             true sliced.Search.resumed;
           Alcotest.check fields_testable
             (Printf.sprintf "jobs %d: sliced = whole" jobs)
             (search_fields whole) (search_fields sliced);
           Alcotest.(check bool) "checkpoint cleared on completion" false
             (Sys.file_exists (Ucfg_exec.Checkpoint.file ~dir))))
    [ 1; 4 ]

(* exhaustive-refutation instance: L_2 has no CNF grammar with 2
   nonterminals within size 8, so every level is fully explored *)
let test_resume_equivalence_refuted () =
  List.iter
    (fun jobs ->
       with_global_jobs jobs (fun () ->
           let l = Ln.language 2 in
           let whole =
             Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:8
               Alphabet.binary l
           in
           Alcotest.(check (option int)) "instance refutes" None
             whole.Search.minimal_size;
           let dir = fresh_dir () in
           let sliced, resumes =
             search_in_slices ~dir ~guard_budget:4_000 ~max_nonterminals:2
               ~max_size:8 l
           in
           Alcotest.(check bool)
             (Printf.sprintf "jobs %d: took >= 2 resumed slices" jobs)
             true (resumes >= 2);
           Alcotest.check fields_testable
             (Printf.sprintf "jobs %d: sliced = whole" jobs)
             (search_fields whole) (search_fields sliced)))
    [ 1; 4 ]

(* --- memo on/off agreement --------------------------------------------- *)

let word_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    map
      (fun bits ->
         String.init n (fun i -> if List.nth bits i then 'a' else 'b'))
      (list_repeat n bool))

let lang_arbitrary =
  QCheck.make
    ~print:(fun l -> String.concat "," (Lang.elements l))
    QCheck.Gen.(map Lang.of_list (list_size (int_range 1 4) word_gen))

let prop_memo_invisible =
  QCheck.Test.make
    ~name:"memo on/off: identical verdict, witness, nodes, budget" ~count:25
    lang_arbitrary
    (fun l ->
       let run memo =
         Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:6
           ~budget:20_000 ~memo Alphabet.binary l
       in
       search_fields (run true) = search_fields (run false))

(* --- sharded memo under concurrent insertion --------------------------- *)

let test_memo_concurrent () =
  with_global_jobs 4 (fun () ->
      let m = Memo.create ~shards:4 () in
      let value k = "v:" ^ k in
      (* 40 concurrent writers over 10 distinct keys, all agreeing on the
         deterministic value — the memoisation contract.  The thunks only
         return what they read: Alcotest's reporting is not domain-safe,
         so every assertion runs here in the calling domain. *)
      let keys = List.init 40 (fun i -> Printf.sprintf "key%d" (i mod 10)) in
      let results =
        Exec.run_list
          (List.map
             (fun k () ->
                let before = Memo.find m k in
                Memo.set m k (value k);
                (k, before, Memo.find m k))
             keys)
      in
      List.iter
        (fun (k, before, after) ->
           Option.iter
             (Alcotest.(check string) "read own kind of value" (value k))
             before;
           Alcotest.(check (option string)) "visible after set" (Some (value k))
             after)
        results;
      Alcotest.(check int) "distinct keys" 10 (Memo.length m);
      let s = Memo.stats m in
      Alcotest.(check int) "one insert per distinct key" 10 s.Memo.inserts;
      Alcotest.(check int) "every lookup accounted" 80 (s.Memo.hits + s.Memo.misses);
      (* bulk-loading checkpointed entries touches no counters *)
      Memo.add_entries m [ ("key0", "stale"); ("extra", "x") ];
      Alcotest.(check (option string)) "first writer wins on reload"
        (Some (value "key0")) (Memo.find m "key0");
      Alcotest.(check int) "reloaded binding present" 11 (Memo.length m);
      let s' = Memo.stats m in
      Alcotest.(check int) "reload leaves inserts untouched" 10 s'.Memo.inserts)

(* --- damaged checkpoints degrade, never mislead ------------------------ *)

let trip_and_checkpoint dir =
  let guard = Guard.create ~budget:4_000 () in
  let r =
    Search.minimal_cnf_size ~guard ~max_nonterminals:2 ~max_size:8
      ~checkpoint:dir Alphabet.binary (Ln.language 2)
  in
  match r.Search.checkpoint_written with
  | Some path -> path
  | None -> Alcotest.fail "setup: expected a guard trip with a checkpoint"

let rewrite path f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f bytes);
  close_out oc

let degraded_runs_fresh ~expect_warning dir =
  let r =
    Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:8 ~checkpoint:dir
      ~resume:true Alphabet.binary (Ln.language 2)
  in
  Alcotest.(check bool) "did not resume" false r.Search.resumed;
  Alcotest.(check bool) "warning surfaced" expect_warning
    (r.Search.checkpoint_warning <> None);
  let whole =
    Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:8 Alphabet.binary
      (Ln.language 2)
  in
  Alcotest.check fields_testable "fresh run, full answer"
    (search_fields whole) (search_fields r)

let test_corrupt_payload () =
  let dir = fresh_dir () in
  let path = trip_and_checkpoint dir in
  rewrite path (fun s ->
      (* flip one payload byte: the digest check must catch it *)
      let b = Bytes.of_string s in
      let i = String.length s - 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Bytes.to_string b);
  degraded_runs_fresh ~expect_warning:true dir

let test_truncated_payload () =
  let dir = fresh_dir () in
  let path = trip_and_checkpoint dir in
  rewrite path (fun s -> String.sub s 0 (String.length s / 2));
  degraded_runs_fresh ~expect_warning:true dir

let test_version_bump () =
  let dir = fresh_dir () in
  let path = trip_and_checkpoint dir in
  rewrite path (fun s ->
      let i = 1 + String.index s 'v' in
      let b = Bytes.of_string s in
      Bytes.set b i '9';
      Bytes.to_string b);
  degraded_runs_fresh ~expect_warning:true dir

let test_params_mismatch () =
  let dir = fresh_dir () in
  let _path = trip_and_checkpoint dir in
  (* same directory, different size cap: the checkpoint is for another
     search and must not be resumed *)
  let r =
    Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:7 ~checkpoint:dir
      ~resume:true Alphabet.binary (Ln.language 2)
  in
  Alcotest.(check bool) "did not resume" false r.Search.resumed;
  Alcotest.(check bool) "warning surfaced" true
    (r.Search.checkpoint_warning <> None)

let test_absent_checkpoint () =
  let dir = fresh_dir () in
  let r =
    Search.minimal_cnf_size ~max_nonterminals:2 ~max_size:8 ~checkpoint:dir
      ~resume:true Alphabet.binary (Ln.language 2)
  in
  (* nothing to resume is not a fault: fresh run, no warning *)
  Alcotest.(check bool) "did not resume" false r.Search.resumed;
  Alcotest.(check (option string)) "no warning" None r.Search.checkpoint_warning

(* --- cover search ------------------------------------------------------ *)

let test_cover_resume () =
  let target = List.of_seq (Ln.codes 2) in
  let direct = Cover_search.minimum ~n:2 target in
  let expected =
    match direct with
    | Cover_search.Exact k -> k
    | _ -> Alcotest.fail "setup: n=2 cover should be exact"
  in
  let dir = fresh_dir () in
  let rec go slices resume =
    let r =
      Cover_search.minimum_run ~budget:400 ~checkpoint:dir ~resume ~n:2 target
    in
    match r.Cover_search.outcome with
    | Cover_search.Exact k -> (k, slices, r)
    | Cover_search.Budget_exhausted _ ->
      Alcotest.(check bool) "exhausted slice writes a checkpoint" true
        (r.Cover_search.checkpoint_written <> None);
      if slices > 60 then
        Alcotest.fail "cover resume did not converge in 60 slices";
      go (slices + 1) true
    | Cover_search.Interrupted _ -> Alcotest.fail "no guard installed"
  in
  let k, slices, last = go 0 false in
  Alcotest.(check int) "sliced minimum = direct minimum" expected k;
  Alcotest.(check bool) "took >= 1 resumed slice" true (slices >= 1);
  Alcotest.(check bool) "final slice resumed" true last.Cover_search.resumed;
  Alcotest.(check bool) "checkpoint cleared on completion" false
    (Sys.file_exists (Ucfg_exec.Checkpoint.file ~dir))

let test_cover_memo_agreement () =
  let target = List.of_seq (Ln.codes 2) in
  let on = Cover_search.minimum ~memo:true ~n:2 target in
  let off = Cover_search.minimum ~memo:false ~n:2 target in
  match (on, off) with
  | Cover_search.Exact a, Cover_search.Exact b ->
    Alcotest.(check int) "memo on/off agree" b a
  | _ -> Alcotest.fail "both should be exact"

let () =
  Alcotest.run "ucfg_search_resume"
    [
      ( "resume",
        [
          Alcotest.test_case "sliced = whole (witness found)" `Quick
            test_resume_equivalence_found;
          Alcotest.test_case "sliced = whole (refutation)" `Quick
            test_resume_equivalence_refuted;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_invisible;
          Alcotest.test_case "sharded concurrent inserts" `Quick
            test_memo_concurrent;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "corrupt payload" `Quick test_corrupt_payload;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "version bump" `Quick test_version_bump;
          Alcotest.test_case "parameter mismatch" `Quick test_params_mismatch;
          Alcotest.test_case "absent checkpoint" `Quick test_absent_checkpoint;
        ] );
      ( "cover",
        [
          Alcotest.test_case "sliced = direct" `Quick test_cover_resume;
          Alcotest.test_case "memo on/off agree" `Quick
            test_cover_memo_agreement;
        ] );
    ]
