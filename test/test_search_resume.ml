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

let made_dirs = ref []

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucfg_resume_%d_%d" (Unix.getpid ())
         (List.length !made_dirs))
  in
  made_dirs := dir :: !made_dirs;
  dir

(* checkpoint directories hold only flat files: remove them all on exit *)
let () =
  at_exit (fun () ->
      List.iter
        (fun dir ->
           try
             Array.iter
               (fun f -> Sys.remove (Filename.concat dir f))
               (Sys.readdir dir);
             Sys.rmdir dir
           with Sys_error _ -> ())
        !made_dirs)

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

(* Both searches resume through one checkpoint session, so every damage
   case runs against each of them.  A subject trips a real run into a
   directory; [run ~other dir] resumes from [dir] ([None]: no checkpoint)
   with the subject's parameters, or with different ones when [other], and
   reports (resumed, warning, answer), where [answer] prints every field a
   fresh run must reproduce. *)
type subject = {
  label : string;
  trip : string -> string;  (* the checkpoint path written into the dir *)
  run :
    guard:Guard.t -> other:bool -> string option -> bool * string option * string;
}

let written what = function
  | Some path -> path
  | None -> Alcotest.failf "setup: expected a %s with a checkpoint" what

let cnf =
  let run ~guard ~max_size checkpoint =
    Search.minimal_cnf_size ~guard ~max_nonterminals:2 ~max_size ?checkpoint
      ~resume:true Alphabet.binary (Ln.language 2)
  in
  {
    label = "cnf";
    trip =
      (fun dir ->
         written "guard trip"
           (run ~guard:(Guard.create ~budget:4_000 ()) ~max_size:8 (Some dir))
             .Search.checkpoint_written);
    run =
      (fun ~guard ~other checkpoint ->
         let r = run ~guard ~max_size:(if other then 7 else 8) checkpoint in
         let (size, witness), (nodes, exhausted) = search_fields r in
         ( r.Search.resumed,
           r.Search.checkpoint_warning,
           Printf.sprintf "%s %s %d %b"
             (Option.fold ~none:"-" ~some:string_of_int size)
             (Option.value witness ~default:"-")
             nodes exhausted ));
  }

let cover =
  let run ~guard ~budget checkpoint =
    Cover_search.minimum_run ~guard ~budget ?checkpoint ~resume:true ~n:2
      (List.of_seq (Ln.codes 2))
  in
  {
    label = "cover";
    trip =
      (fun dir ->
         written "budget exhaustion"
           (run ~guard:Guard.unlimited ~budget:400 (Some dir))
             .Cover_search.checkpoint_written);
    run =
      (fun ~guard ~other checkpoint ->
         let r = run ~guard ~budget:(if other then 500 else 400) checkpoint in
         let answer =
           match r.Cover_search.outcome with
           | Cover_search.Exact k -> Printf.sprintf "exact %d" k
           | Cover_search.Budget_exhausted k -> Printf.sprintf "budget %d" k
           | Cover_search.Interrupted (k, _) -> Printf.sprintf "interrupted %d" k
         in
         ( r.Cover_search.resumed,
           r.Cover_search.checkpoint_warning,
           Printf.sprintf "%s %d" answer r.Cover_search.nodes ));
  }

let subjects = [ cnf; cover ]

let rewrite path f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f bytes);
  close_out oc

let degraded_runs_fresh ~expect_warning s dir =
  let resumed, warning, answer =
    s.run ~guard:Guard.unlimited ~other:false (Some dir)
  in
  let label what = s.label ^ ": " ^ what in
  Alcotest.(check bool) (label "did not resume") false resumed;
  Alcotest.(check bool) (label "warning surfaced") expect_warning
    (warning <> None);
  let _, _, whole = s.run ~guard:Guard.unlimited ~other:false None in
  Alcotest.(check string) (label "fresh run, full answer") whole answer

let damaged damage () =
  List.iter
    (fun s ->
       let dir = fresh_dir () in
       rewrite (s.trip dir) damage;
       degraded_runs_fresh ~expect_warning:true s dir)
    subjects

(* flip one payload byte: the digest check must catch it *)
let test_corrupt_payload =
  damaged (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s - 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Bytes.to_string b)

let test_truncated_payload =
  damaged (fun s -> String.sub s 0 (String.length s / 2))

let test_version_bump =
  damaged (fun s ->
      let i = 1 + String.index s 'v' in
      let b = Bytes.of_string s in
      Bytes.set b i '9';
      Bytes.to_string b)

let test_params_mismatch () =
  List.iter
    (fun s ->
       let dir = fresh_dir () in
       ignore (s.trip dir);
       (* same directory, different size cap or budget: the checkpoint is
          for another search and must not be resumed *)
       let resumed, warning, _ =
         s.run ~guard:Guard.unlimited ~other:true (Some dir)
       in
       Alcotest.(check bool) (s.label ^ ": did not resume") false resumed;
       Alcotest.(check bool) (s.label ^ ": warning surfaced") true
         (warning <> None))
    subjects

let test_absent_checkpoint () =
  List.iter
    (fun s ->
       let resumed, warning, _ =
         s.run ~guard:Guard.unlimited ~other:false (Some (fresh_dir ()))
       in
       (* nothing to resume is not a fault: fresh run, no warning *)
       Alcotest.(check bool) (s.label ^ ": did not resume") false resumed;
       Alcotest.(check (option string)) (s.label ^ ": no warning") None warning)
    subjects

(* --- payload fuzzing ------------------------------------------------------ *)

(* The header digest stops every byte-level corruption above before the
   payload parser sees it.  Here each mutation is re-wrapped with a valid
   header, so the parser is the only line of defence: every resume must
   come back as a record, resumed or fresh with a warning, never raise. *)

let magic = "ucfg-search v1"

let payload_lines path =
  match Checkpoint.read ~magic path with
  | Checkpoint.Loaded payload -> String.split_on_char '\n' payload
  | _ -> Alcotest.fail "setup: unreadable checkpoint"

let rewrap path lines = Checkpoint.write ~magic path (String.concat "\n" lines)

let is_digit c = c >= '0' && c <= '9'

(* (start, length) of every maximal digit run of [line] *)
let digit_runs line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_digit line.[i] then begin
      let j = ref i in
      while !j < n && is_digit line.[!j] do incr j done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let mutate st ~other_params lines =
  let a = Array.of_list lines in
  let pick () = Random.State.int st (Array.length a) in
  let nth_random l = List.nth l (Random.State.int st (List.length l)) in
  match Random.State.int st 7 with
  | 0 -> (* drop a line *)
    let i = pick () in
    List.filteri (fun j _ -> j <> i) lines
  | 1 -> (* duplicate a line *)
    let i = pick () in
    List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines)
  | 2 -> (* swap two lines *)
    let i = pick () and j = pick () in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    Array.to_list a
  | 3 ->
    (* perturb one integer outside the memo lines (ranks, ticks, levels,
       rule codes, parameters), towards negative or huge values *)
    let candidates =
      List.concat
        (List.mapi
           (fun i l ->
              if String.starts_with ~prefix:"memo " l then []
              else List.map (fun run -> (i, run)) (digit_runs l))
           lines)
    in
    let i, (start, len) = nth_random candidates in
    let n = Option.value ~default:0 (int_of_string_opt (String.sub a.(i) start len)) in
    let n' = nth_random [ -1; -n - 1; n + 1; n * 1000 + 7; max_int; min_int; 0 ] in
    a.(i) <-
      String.sub a.(i) 0 start ^ string_of_int n'
      ^ String.sub a.(i) (start + len) (String.length a.(i) - start - len);
    Array.to_list a
  | 4 -> (* truncate one token *)
    let i = pick () in
    let tokens = String.split_on_char ' ' a.(i) in
    let k = Random.State.int st (List.length tokens) in
    a.(i) <-
      String.concat " "
        (List.mapi
           (fun j t ->
              if j = k then String.sub t 0 (Random.State.int st (String.length t + 1))
              else t)
           tokens);
    Array.to_list a
  | 5 -> (* inject a bogus memo line *)
    let bogus =
      nth_random
        [ "memo " ^ Digest.to_hex (Digest.string (string_of_int (pick ()))) ^ " 1";
          "memo 0123 2"; "memo onlykey"; "memo a b c"; "memo  1" ]
    in
    let i = pick () in
    List.concat (List.mapi (fun j l -> if j = i then [ bogus; l ] else [ l ]) lines)
  | _ -> (* another search's params line *)
    a.(0) <- other_params;
    Array.to_list a

let test_fuzz_payload () =
  (* a jobs-1 trip never persists a Found outcome, so the CNF seed gets one
     at a rank past every branch: inert until a mutation reaches it *)
  let extra s =
    if s == cnf then [ "outcome 99999 F 3 2 T0.97;B0.1.1;T1.98" ] else []
  in
  let tripped =
    List.map
      (fun s -> (s, payload_lines (s.trip (fresh_dir ())) @ extra s))
      subjects
  in
  List.iter
    (fun seed ->
       let st = Random.State.make [| seed |] in
       List.iter
         (fun (s, lines) ->
            let other_params =
              List.hd (List.assq (List.find (fun o -> o != s) subjects) tripped)
            in
            let dir = fresh_dir () in
            for trial = 1 to 20 do
              let mutated = mutate st ~other_params lines in
              rewrap (Checkpoint.file ~dir) mutated;
              match
                s.run ~guard:(Guard.create ~budget:2_000_000 ()) ~other:false
                  (Some dir)
              with
              | resumed, warning, _ ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s seed %d trial %d: resumed xor warned"
                     s.label seed trial)
                  true
                  (resumed <> (warning <> None))
              | exception e ->
                Alcotest.failf "%s seed %d trial %d raised %s on:\n%s" s.label
                  seed trial (Printexc.to_string e) (String.concat "\n" mutated)
            done)
         tripped)
    [ 7; 23; 1009 ]

(* header-valid bodies no run can write: [outcome -1 C] made a resumed
   search trip an assertion in the level replay, a tick count near
   max_int overflowed the replay into a negative node count, and a cover
   cursor past the target's size reported a cover larger than the target *)
let test_impossible_payloads () =
  List.iter
    (fun (s, body) ->
       let dir = fresh_dir () in
       let path = s.trip dir in
       rewrap path (List.hd (payload_lines path) :: body @ [ "" ]);
       degraded_runs_fresh ~expect_warning:true s dir)
    [ (cnf, [ "consumed 0"; "level 1"; "outcome -1 C" ]);
      (cnf, [ "consumed 0"; "level 8"; "outcome 0 E 1";
              Printf.sprintf "outcome 1 E %d" max_int ]);
      (cover, [ "refuted 10" ]) ]

(* --- golden checkpoint bytes ---------------------------------------------- *)

(* the on-disk checkpoint format is a compatibility surface: files already
   written stay resumable only while a tripped search at jobs 1 writes
   exactly these bytes (at higher job counts the set of completed branches
   and memo entries depends on scheduling) *)
let test_golden_bytes () =
  with_global_jobs 1 (fun () ->
      let md5_size path =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        close_in ic;
        (Digest.to_hex (Digest.file path), len)
      in
      let cnf =
        Search.minimal_cnf_size
          ~guard:(Guard.create ~budget:8_000 ())
          ~max_nonterminals:2 ~max_size:8 ~checkpoint:(fresh_dir ())
          Alphabet.binary (Ln.language 2)
      in
      (match cnf.Search.checkpoint_written with
       | Some path ->
         Alcotest.(check (pair string int)) "CNF search checkpoint bytes"
           ("457f9a27608cde7d89eec35b6390ba37", 13_986) (md5_size path)
       | None -> Alcotest.fail "setup: expected a guard trip with a checkpoint");
      let cover =
        Cover_search.minimum_run ~budget:400 ~checkpoint:(fresh_dir ()) ~n:2
          (List.of_seq (Ln.codes 2))
      in
      match cover.Cover_search.checkpoint_written with
      | Some path ->
        Alcotest.(check (pair string int)) "cover search checkpoint bytes"
          ("facbf3c1ba001f97582315bff6f86257", 594) (md5_size path)
      | None -> Alcotest.fail "setup: expected an exhausted budget with a checkpoint")

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
          Alcotest.test_case "golden checkpoint bytes" `Quick test_golden_bytes;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "mutated payloads resume or warn" `Quick
            test_fuzz_payload;
          Alcotest.test_case "impossible payloads degrade" `Quick
            test_impossible_payloads;
        ] );
      ( "cover",
        [
          Alcotest.test_case "sliced = direct" `Quick test_cover_resume;
          Alcotest.test_case "memo on/off agree" `Quick
            test_cover_memo_agreement;
        ] );
    ]
