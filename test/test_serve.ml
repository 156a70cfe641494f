(* Tests for the serving subsystem: the JSON codec's canonical printer,
   canonicalisation-based cache keys, the self-verifying disk cache
   (including deliberate corruption and concurrent writers), the daemon's
   request handling (cold/warm byte-identity, per-request guard trips as
   structured errors, the R010/R011 input taxonomy), stdin batch ordering
   under jobs 1 and 4, and an in-process bombard smoke run. *)

open Ucfg_word
open Ucfg_cfg
open Ucfg_serve
module G = Grammar
module Exec = Ucfg_exec.Exec

(* flip the process-wide pool, restoring the previous size afterwards *)
let with_global_jobs jobs f =
  let saved = Exec.jobs () in
  Exec.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

let temp_counter = ref 0

(* a fresh directory per test so cache state never leaks between cases *)
let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucfg-serve-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let json_of s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "JSON parse failed on %S: %s" s msg

let member_exn name v =
  match Json.member name v with
  | Some f -> f
  | None -> Alcotest.failf "missing field %S in %s" name (Json.to_string v)

let get_str name v = Option.get (Json.get_string (member_exn name v))
let get_bool name v = Option.get (Json.get_bool (member_exn name v))
let get_int name v = Option.get (Json.get_int (member_exn name v))

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  (* the printer is canonical: parse ∘ print is the identity on printed
     values, which is what the byte-identity contract rests on *)
  let cases =
    [
      {|{"a": 1, "b": [true, false, null], "c": {"d": "x"}}|};
      {|[1, -2, 3.5, "s"]|};
      {|"plain"|};
      {|{"nested": {"deep": [{"k": "v"}]}}|};
    ]
  in
  List.iter
    (fun s ->
       let printed = Json.to_string (json_of s) in
       Alcotest.(check string) s printed (Json.to_string (json_of printed)))
    cases

let test_json_escapes () =
  let v = json_of {|"line\nbreak A é 😀 \" \\ tab\t"|} in
  (match Json.get_string v with
   | Some s ->
     Alcotest.(check string) "escapes decoded"
       "line\nbreak A \xc3\xa9 \xf0\x9f\x98\x80 \" \\ tab\t" s
   | None -> Alcotest.fail "expected a string");
  (* control characters re-escape on output *)
  Alcotest.(check string) "escaped output" {|"a\nb"|}
    (Json.to_string (Json.Str "a\nb"))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "{} extra"; "" ] in
  List.iter
    (fun s ->
       match Json.parse s with
       | Ok _ -> Alcotest.failf "expected a parse error on %S" s
       | Error _ -> ())
    bad

let test_json_accessors () =
  let v = json_of {|{"i": 7, "f": 1.5, "s": "x", "b": true, "n": null}|} in
  Alcotest.(check int) "int" 7 (get_int "i" v);
  Alcotest.(check bool) "bool" true (get_bool "b" v);
  Alcotest.(check string) "str" "x" (get_str "s" v);
  Alcotest.(check (option (float 1e-9))) "float via int"
    (Some 7.) (Json.get_float (member_exn "i" v));
  Alcotest.(check bool) "missing member" true
    (Json.member "zz" v = None);
  Alcotest.(check bool) "wrong constructor" true
    (Json.get_string (member_exn "i" v) = None)

(* --- Canon --------------------------------------------------------------- *)

let mk ~names ~start rules =
  G.make ~alphabet:Alphabet.binary ~names ~rules ~start

(* S -> AB | BA; A -> a; B -> b, in several presentations *)
let presentation_a () =
  mk ~names:[| "S"; "A"; "B" |] ~start:0
    [
      { G.lhs = 0; rhs = [ G.N 1; G.N 2 ] };
      { G.lhs = 0; rhs = [ G.N 2; G.N 1 ] };
      { G.lhs = 1; rhs = [ G.T 'a' ] };
      { G.lhs = 2; rhs = [ G.T 'b' ] };
    ]

(* same grammar: nonterminals renumbered (S=2, A=0, B=1), rules of distinct
   nonterminals interleaved differently, different names.  (Alternative
   order within a nonterminal is part of the BFS first-occurrence order, so
   it is kept — Canon documents that it is not a graph-canonical form.) *)
let presentation_b () =
  mk ~names:[| "Left"; "Right"; "Top" |] ~start:2
    [
      { G.lhs = 0; rhs = [ G.T 'a' ] };
      { G.lhs = 2; rhs = [ G.N 0; G.N 1 ] };
      { G.lhs = 1; rhs = [ G.T 'b' ] };
      { G.lhs = 2; rhs = [ G.N 1; G.N 0 ] };
    ]

let test_canon_invariance () =
  Alcotest.(check string) "canonical text agrees"
    (Canon.canonical (presentation_a ()))
    (Canon.canonical (presentation_b ()));
  Alcotest.(check string) "digest agrees"
    (Canon.digest (presentation_a ()))
    (Canon.digest (presentation_b ()))

let test_canon_distinguishes () =
  (* a genuinely different grammar (S -> AB only) must not collide *)
  let smaller =
    mk ~names:[| "S"; "A"; "B" |] ~start:0
      [
        { G.lhs = 0; rhs = [ G.N 1; G.N 2 ] };
        { G.lhs = 1; rhs = [ G.T 'a' ] };
        { G.lhs = 2; rhs = [ G.T 'b' ] };
      ]
  in
  Alcotest.(check bool) "different rule sets differ" false
    (String.equal (Canon.digest (presentation_a ())) (Canon.digest smaller))

let test_canon_keep_names () =
  (* name-sensitive artifacts (lint) must key on names too *)
  Alcotest.(check bool) "keep_names separates presentations" false
    (String.equal
       (Canon.canonical ~keep_names:true (presentation_a ()))
       (Canon.canonical ~keep_names:true (presentation_b ())));
  let hex = Canon.digest (presentation_a ()) in
  Alcotest.(check int) "digest is 32 hex chars" 32 (String.length hex);
  String.iter
    (fun c ->
       if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
         Alcotest.failf "non-hex digest char %C" c)
    hex

(* --- Cache --------------------------------------------------------------- *)

let key_a = String.make 32 'a'
let key_b = String.make 32 'b'

let test_cache_memory () =
  let c = Cache.create ~mem_capacity:2 () in
  Alcotest.(check bool) "miss first" true (Cache.lookup c key_a = Cache.Miss);
  Cache.store c key_a "payload-a";
  (match Cache.lookup c key_a with
   | Cache.Memory v -> Alcotest.(check string) "mem value" "payload-a" v
   | _ -> Alcotest.fail "expected a memory hit");
  (* capacity 2: touching a, then adding b and c, must evict b (oldest) *)
  Cache.store c key_b "payload-b";
  ignore (Cache.lookup c key_a);
  Cache.store c (String.make 32 'c') "payload-c";
  Alcotest.(check bool) "lru evicted the stale key" true
    (Cache.lookup c key_b = Cache.Miss);
  Alcotest.(check bool) "recently used key survives" true
    (match Cache.lookup c key_a with Cache.Memory _ -> true | _ -> false);
  let s = Cache.stats c in
  Alcotest.(check int) "evictions counted" 1 s.Cache.evictions

let test_cache_disk_tier () =
  with_temp_dir (fun dir ->
    let c1 = Cache.create ~dir () in
    Cache.store c1 key_a "persistent-payload";
    (* a fresh instance over the same directory has a cold LRU: the hit
       must come from disk, verified, and then be promoted *)
    let c2 = Cache.create ~dir () in
    (match Cache.lookup c2 key_a with
     | Cache.Disk v -> Alcotest.(check string) "disk value" "persistent-payload" v
     | _ -> Alcotest.fail "expected a disk hit");
    (match Cache.lookup c2 key_a with
     | Cache.Memory _ -> ()
     | _ -> Alcotest.fail "expected promotion into the LRU");
    let s = Cache.stats c2 in
    Alcotest.(check int) "one disk hit" 1 s.Cache.disk_hits;
    Alcotest.(check int) "one mem hit" 1 s.Cache.mem_hits)

let corrupt_entry path mutate =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (mutate bytes);
  close_out oc

let test_cache_corruption () =
  with_temp_dir (fun dir ->
    let payload = "the one true payload" in
    let check_detects label mutate =
      let c = Cache.create ~dir () in
      Cache.store c key_a payload;
      let path = Option.get (Cache.entry_path c key_a) in
      corrupt_entry path mutate;
      (* fresh instance: the LRU copy is gone, the damaged entry is all
         there is — it must be detected, never returned *)
      let c' = Cache.create ~dir () in
      (match Cache.lookup c' key_a with
       | Cache.Corrupt -> ()
       | Cache.Disk v ->
         Alcotest.failf "%s: corrupt entry served verbatim (%S)" label v
       | Cache.Memory _ -> Alcotest.failf "%s: impossible memory hit" label
       | Cache.Miss -> Alcotest.failf "%s: expected Corrupt, got Miss" label);
      Alcotest.(check int) (label ^ ": corruption counted") 1
        (Cache.stats c').Cache.corrupt;
      (* recompute-and-store must repair the entry in place *)
      Cache.store c' key_a payload;
      let c'' = Cache.create ~dir () in
      match Cache.lookup c'' key_a with
      | Cache.Disk v -> Alcotest.(check string) (label ^ ": repaired") payload v
      | _ -> Alcotest.failf "%s: entry not repaired" label
    in
    check_detects "truncated" (fun s -> String.sub s 0 (String.length s - 4));
    check_detects "bit-flipped payload" (fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
    check_detects "mangled header" (fun s -> "xxxx" ^ s);
    check_detects "appended garbage" (fun s -> s ^ "trailing"))

let test_cache_concurrent_writers () =
  with_temp_dir (fun dir ->
    let c = Cache.create ~dir () in
    let values = Array.init 16 (Printf.sprintf "writer-%d-payload") in
    with_global_jobs 4 (fun () ->
      ignore
        (Exec.parallel_map
           (fun v ->
              Cache.store c key_a v;
              ignore (Cache.lookup c key_a))
           (Array.to_list values)));
    (* whatever the interleaving, a fresh read must verify and must be one
       of the written values — a complete entry, never a splice *)
    let c' = Cache.create ~dir () in
    match Cache.lookup c' key_a with
    | Cache.Disk v ->
      Alcotest.(check bool) "surviving entry is one written value" true
        (Array.exists (String.equal v) values)
    | Cache.Corrupt -> Alcotest.fail "concurrent writers corrupted the entry"
    | _ -> Alcotest.fail "expected a disk entry")

let test_cache_disk_eviction () =
  with_temp_dir (fun dir ->
    let payload = String.make 100 'x' in
    (* two entries (~150 bytes each with header) overflow a 200-byte cap *)
    let c = Cache.create ~disk_max_bytes:200 ~dir () in
    Cache.store c key_a payload;
    (* age the first entry so the eviction order is unambiguous even on
       filesystems with coarse mtime resolution *)
    let path_a = Option.get (Cache.entry_path c key_a) in
    Unix.utimes path_a 1000.0 1000.0;
    Cache.store c key_b payload;
    Alcotest.(check bool) "oldest-stamp entry evicted from disk" false
      (Sys.file_exists path_a);
    Alcotest.(check bool) "newest entry survives" true
      (Sys.file_exists (Option.get (Cache.entry_path c key_b)));
    Alcotest.(check bool) "disk evictions counted" true
      ((Cache.stats c).Cache.disk_evictions >= 1);
    (* the LRU copy is untouched; only a cold instance sees the miss *)
    let c' = Cache.create ~dir () in
    Alcotest.(check bool) "cold lookup of the victim is a miss" true
      (Cache.lookup c' key_a = Cache.Miss);
    match Cache.lookup c' key_b with
    | Cache.Disk v -> Alcotest.(check string) "survivor intact" payload v
    | _ -> Alcotest.fail "expected a disk hit on the survivor")

(* --- Server -------------------------------------------------------------- *)

let result_bytes line =
  Json.to_string (member_exn "result" (json_of line))

let test_server_cold_warm_identity () =
  with_temp_dir (fun dir ->
    let srv = Server.create ~cache_dir:(Some dir) () in
    let req = {|{"op": "ambiguity", "kind": "log", "n": 3}|} in
    let cold = Server.handle_line srv req in
    let warm = Server.handle_line srv req in
    let cv = json_of cold and wv = json_of warm in
    Alcotest.(check bool) "cold ok" true (get_bool "ok" cv);
    Alcotest.(check string) "cold computed" "computed" (get_str "source" cv);
    Alcotest.(check string) "warm from memory" "mem" (get_str "source" wv);
    Alcotest.(check bool) "warm flagged cached" true (get_bool "cached" wv);
    Alcotest.(check string) "result bytes identical" (result_bytes cold)
      (result_bytes warm);
    (* a fresh server over the same directory: the disk tier answers, and
       the payload bytes still agree *)
    let srv' = Server.create ~cache_dir:(Some dir) () in
    let disk = Server.handle_line srv' req in
    Alcotest.(check string) "disk source" "disk" (get_str "source" (json_of disk));
    Alcotest.(check string) "disk bytes identical" (result_bytes cold)
      (result_bytes disk))

let test_server_canon_shares_cache () =
  (* two presentations of one grammar share a semantic cache entry *)
  let srv = Server.create ~cache_dir:None () in
  let r1 =
    Server.handle_line srv
      {|{"op": "ambiguity", "grammar": "start: <S>\n<S> -> <A> <B> | <B> <A>\n<A> -> a\n<B> -> b"}|}
  in
  let r2 =
    Server.handle_line srv
      {|{"op": "ambiguity", "grammar": "start: <Top>\n<Right> -> b\n<Top> -> <Left> <Right> | <Right> <Left>\n<Left> -> a"}|}
  in
  let v1 = json_of r1 and v2 = json_of r2 in
  Alcotest.(check string) "same cache key" (get_str "key" v1) (get_str "key" v2);
  Alcotest.(check string) "second presentation hits" "mem" (get_str "source" v2);
  Alcotest.(check string) "same result" (result_bytes r1) (result_bytes r2)

let test_server_guard_trip_not_cached () =
  let srv = Server.create ~cache_dir:None () in
  let tripped =
    Server.handle_line srv
      {|{"op": "check", "property": "universal", "kind": "log", "n": 4, "budget": 1}|}
  in
  let tv = json_of tripped in
  Alcotest.(check bool) "trip is an error response" false (get_bool "ok" tv);
  let err = member_exn "error" tv in
  Alcotest.(check string) "budget trip code" "R002" (get_str "code" err);
  Alcotest.(check int) "guard exit code" 124 (get_int "exit_code" err);
  (* the same request without the budget must compute — the trip was not
     stored under the (resource-independent) cache key *)
  let retry =
    Server.handle_line srv
      {|{"op": "check", "property": "universal", "kind": "log", "n": 4}|}
  in
  let rv = json_of retry in
  Alcotest.(check bool) "retry succeeds" true (get_bool "ok" rv);
  Alcotest.(check string) "retry is computed, not a poisoned hit" "computed"
    (get_str "source" rv)

let test_server_huge_construction_trips () =
  (* a named construction is built under the request guard: trivial at
     n = 31 (4^31 words) and example4 at n = 33 (3^32 rules) trip the
     budget instead of pinning the worker *)
  let srv = Server.create ~cache_dir:None () in
  List.iter
    (fun line ->
       let err = member_exn "error" (json_of (Server.handle_line srv line)) in
       Alcotest.(check (pair string int)) line ("R002", 124)
         (get_str "code" err, get_int "exit_code" err))
    [ {|{"op": "lint", "kind": "trivial", "n": 31, "budget": 1000}|};
      {|{"op": "check", "property": "equiv", "kind": "log", "n": 4, "kind2": "trivial", "n2": 12, "budget": 1000}|};
      {|{"op": "ambiguity", "kind": "example4", "n": 33, "budget": 1000}|} ]

let test_server_lint_trip_not_cached () =
  (* unlike [check], [SL.lint] swallows the guard exception and renders
     the trip as an R001–R003 warning diagnostic (a partial verdict); the
     server must resurface it as an uncached error, or the partial verdict
     would poison the resource-independent cache key *)
  let srv = Server.create ~cache_dir:None () in
  let tripped =
    Server.handle_line srv
      {|{"op": "lint", "semantic": true, "kind": "log", "n": 4, "budget": 1}|}
  in
  let tv = json_of tripped in
  Alcotest.(check bool) "trip is an error response" false (get_bool "ok" tv);
  let err = member_exn "error" tv in
  Alcotest.(check string) "budget trip code" "R002" (get_str "code" err);
  Alcotest.(check int) "guard exit code" 124 (get_int "exit_code" err);
  (* the same lint with no budget must compute a full verdict — nothing
     partial was stored under the shared key *)
  let retry =
    Server.handle_line srv
      {|{"op": "lint", "semantic": true, "kind": "log", "n": 4}|}
  in
  let rv = json_of retry in
  Alcotest.(check bool) "retry succeeds" true (get_bool "ok" rv);
  Alcotest.(check string) "retry is computed, not a poisoned hit" "computed"
    (get_str "source" rv);
  (* and the full verdict carries no interrupt diagnostic *)
  let diags = Json.to_string (member_exn "diagnostics" (member_exn "result" rv)) in
  List.iter
    (fun code ->
       Alcotest.(check bool)
         (Printf.sprintf "no %s in the full verdict" code)
         false
         (let re = Printf.sprintf {|"%s"|} code in
          let len = String.length diags and n = String.length re in
          let rec scan i =
            i + n <= len && (String.sub diags i n = re || scan (i + 1))
          in
          scan 0))
    [ "R001"; "R002"; "R003" ]

let test_server_unix_socket_safety () =
  with_temp_dir (fun dir ->
    Unix.mkdir dir 0o700;
    let srv = Server.create ~cache_dir:None () in
    (* a regular file at the socket path is someone else's data: refuse
       and leave it untouched *)
    let file_path = Filename.concat dir "not-a-socket" in
    let oc = open_out file_path in
    output_string oc "precious bytes";
    close_out oc;
    (match Server.run_unix srv ~path:file_path with
     | Server.Drained | Server.Forced _ ->
       Alcotest.fail "expected a refusal on a regular file"
     | exception Failure _ -> ());
    let ic = open_in file_path in
    let survived = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check string) "regular file untouched" "precious bytes" survived;
    (* a socket with a live listener is a running daemon: refuse and keep
       the socket bound *)
    let sock_path = Filename.concat dir "live.sock" in
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listener (Unix.ADDR_UNIX sock_path);
    Unix.listen listener 1;
    Fun.protect
      ~finally:(fun () -> try Unix.close listener with Unix.Unix_error _ -> ())
      (fun () ->
         (match Server.run_unix srv ~path:sock_path with
          | Server.Drained | Server.Forced _ ->
            Alcotest.fail "expected a refusal on a live socket"
          | exception Failure _ -> ());
         Alcotest.(check bool) "live socket not unlinked" true
           (Sys.file_exists sock_path)))

let test_server_input_taxonomy () =
  let srv = Server.create ~cache_dir:None () in
  let check_error line code exit_code =
    let v = json_of (Server.handle_line srv line) in
    Alcotest.(check bool) (code ^ " not ok") false (get_bool "ok" v);
    let err = member_exn "error" v in
    Alcotest.(check string) (code ^ " code") code (get_str "code" err);
    Alcotest.(check int) (code ^ " exit") exit_code (get_int "exit_code" err)
  in
  check_error "this is not json" "R010" 2;
  check_error {|{"op": "lint", "grammar": "start: <S"}|} "R010" 2;
  check_error {|{"op": "frobnicate"}|} "R011" 2;
  check_error {|{"op": "check", "property": "weird", "kind": "log", "n": 3}|}
    "R010" 2;
  (* id of any JSON shape is echoed on errors too *)
  let v = json_of (Server.handle_line srv {|{"op": "frobnicate", "id": [1, "x"]}|}) in
  Alcotest.(check string) "id echoed" {|[1, "x"]|}
    (Json.to_string (member_exn "id" v))

let batch_lines =
  [
    {|{"op": "ping", "id": 1}|};
    {|{"op": "lint", "kind": "log", "n": 3, "id": 2}|};
    {|{"op": "rank", "kind": "log", "n": 3, "id": 3}|};
    {|{"op": "rectangles", "kind": "example4", "n": 3, "id": 4}|};
    {|{"op": "lint", "kind": "log", "n": 3, "id": 5}|};
    {|{"op": "ambiguity", "kind": "example4", "n": 3, "id": 6}|};
  ]

let run_batch srv lines =
  let input = String.concat "\n" lines ^ "\n" in
  let tmp_in = Filename.temp_file "ucfg-serve-in" ".jsonl" in
  let tmp_out = Filename.temp_file "ucfg-serve-out" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp_in; Sys.remove tmp_out)
    (fun () ->
       let oc = open_out tmp_in in
       output_string oc input;
       close_out oc;
       let ic = open_in tmp_in and oc = open_out tmp_out in
       Server.run_stdin srv ic oc;
       close_in ic;
       close_out oc;
       let ic = open_in tmp_out in
       let rec go acc =
         match input_line ic with
         | line -> go (line :: acc)
         | exception End_of_file -> close_in ic; List.rev acc
       in
       let lines = go [] in
       close_in_noerr ic;
       lines)

let test_server_stdin_batch_jobs_invariant () =
  let results jobs =
    with_global_jobs jobs (fun () ->
      let srv = Server.create ~cache_dir:None () in
      run_batch srv batch_lines)
  in
  let r1 = results 1 and r4 = results 4 in
  Alcotest.(check int) "one response per request" (List.length batch_lines)
    (List.length r1);
  (* responses come back in request order: the echoed ids are 1..6 *)
  List.iteri
    (fun i line ->
       Alcotest.(check int)
         (Printf.sprintf "response %d in order" i)
         (i + 1)
         (get_int "id" (json_of line)))
    r1;
  (* the result payloads are jobs-invariant even though the envelope's
     cached flag may differ when equal requests race *)
  List.iter2
    (fun a b ->
       Alcotest.(check string) "jobs 1 vs 4 result bytes" (result_bytes a)
         (result_bytes b))
    r1 r4

let test_server_no_cache_flag () =
  let srv = Server.create ~cache_dir:None () in
  let req = {|{"op": "rank", "kind": "log", "n": 3, "no_cache": true}|} in
  let a = Server.handle_line srv req in
  let b = Server.handle_line srv req in
  Alcotest.(check string) "second run recomputes" "computed"
    (get_str "source" (json_of b));
  Alcotest.(check string) "recomputation is deterministic" (result_bytes a)
    (result_bytes b)

(* --- concurrent daemon ---------------------------------------------------- *)

(* Boot a real daemon on a unix socket in a background thread, run [f]
   against it, then drain and join.  [f] receives the server (for stats
   or targeted drains) and the socket path.  Returns the drain outcome. *)
let with_daemon ?max_connections ?queue_capacity ?idle_timeout_ms
    ?max_request_bytes ?drain_timeout_ms f =
  with_temp_dir (fun dir ->
    Unix.mkdir dir 0o700;
    let path = Filename.concat dir "daemon.sock" in
    let srv =
      Server.create ~cache_dir:None ?max_connections ?queue_capacity
        ?idle_timeout_ms ?max_request_bytes ?drain_timeout_ms ()
    in
    let outcome = ref None in
    let th =
      Thread.create (fun () -> outcome := Some (Server.run_unix srv ~path)) ()
    in
    let rec await_up n =
      if n > 1000 then Alcotest.fail "daemon did not come up"
      else if not (Sys.file_exists path) then begin
        Thread.delay 0.005;
        await_up (n + 1)
      end
    in
    await_up 0;
    Fun.protect
      ~finally:(fun () ->
          Server.request_drain srv;
          Thread.join th)
      (fun () -> f srv path);
    match !outcome with
    | Some o -> o
    | None -> Alcotest.fail "daemon thread died without an outcome")

(* a client connection with a persistent read buffer: responses to
   pipelined requests can arrive many-per-read, so leftover bytes must
   survive between [recv_resp] calls *)
type conn = { fd : Unix.file_descr; mutable left : string }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; left = "" }

let send_raw c s = ignore (Unix.write_substring c.fd s 0 (String.length s))

(* read one response line off [c], waiting up to [timeout]; None on EOF *)
let recv_resp ?(timeout = 30.) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Bytes.create 4096 in
  let take () =
    match String.index_opt c.left '\n' with
    | None -> None
    | Some i ->
      let line = String.sub c.left 0 i in
      c.left <- String.sub c.left (i + 1) (String.length c.left - i - 1);
      Some line
  in
  let rec go () =
    match take () with
    | Some line -> Some line
    | None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then
          Alcotest.fail "timed out waiting for a response"
        else
          match Unix.select [ c.fd ] [] [] remaining with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read c.fd b 0 (Bytes.length b) with
              | 0 -> None
              | n ->
                c.left <- c.left ^ Bytes.sub_string b 0 n;
                go ()
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                None))
  in
  go ()

let close_quiet c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let error_code_of line =
  let v = json_of line in
  match Json.member "error" v with
  | None -> None
  | Some err -> Some (get_str "code" err)

let test_server_parallel_clients_byte_identical () =
  (* byte-identity gate: N concurrent clients hammering the same pool get
     exactly the bytes a serial in-process baseline computes *)
  let reqs =
    [|
      {|{"op": "ambiguity", "kind": "log", "n": 3}|};
      {|{"op": "rank", "kind": "log", "n": 3}|};
      {|{"op": "lint", "kind": "example4", "n": 3}|};
    |]
  in
  let baseline_srv = Server.create ~cache_dir:None () in
  let baseline =
    Array.map (fun r -> result_bytes (Server.handle_line baseline_srv r)) reqs
  in
  ignore
    (* queue headroom over the client count: admission is racy (workers
       may not have popped yet when the last client lands), and this
       test is about byte identity, not shedding *)
    (with_daemon ~max_connections:4 ~queue_capacity:8 (fun _srv path ->
         let errors = Atomic.make 0 and mismatches = Atomic.make 0 in
         let client () =
           let fd = connect_unix path in
           Fun.protect
             ~finally:(fun () -> close_quiet fd)
             (fun () ->
                Array.iteri
                  (fun i r ->
                     send_raw fd (r ^ "\n");
                     match recv_resp fd with
                     | None -> Atomic.incr errors
                     | Some resp ->
                       if not (get_bool "ok" (json_of resp)) then
                         Atomic.incr errors
                       else if
                         not (String.equal (result_bytes resp) baseline.(i))
                       then Atomic.incr mismatches)
                  reqs)
         in
         let threads = List.init 6 (fun _ -> Thread.create client ()) in
         List.iter Thread.join threads;
         Alcotest.(check int) "no client errors" 0 (Atomic.get errors);
         Alcotest.(check int) "no byte mismatches vs serial baseline" 0
           (Atomic.get mismatches)))

let test_server_pipelined_in_order () =
  (* several requests written back-to-back on one connection come back in
     request order, one response per request *)
  ignore
    (with_daemon (fun _srv path ->
         let fd = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet fd)
           (fun () ->
              let lines =
                List.init 5 (fun i ->
                    Printf.sprintf {|{"op": "ping", "id": %d}|} i)
              in
              send_raw fd (String.concat "\n" lines ^ "\n");
              List.iteri
                (fun i _ ->
                   match recv_resp fd with
                   | None -> Alcotest.fail "connection closed mid-pipeline"
                   | Some resp ->
                     Alcotest.(check int)
                       (Printf.sprintf "response %d in order" i)
                       i
                       (get_int "id" (json_of resp)))
                lines)))

let test_server_slow_client_isolation () =
  (* a stalled client on one worker must not delay a fast client on
     another: the ping must answer while the stall is still pending *)
  ignore
    (with_daemon ~max_connections:2 ~idle_timeout_ms:10_000. (fun _srv path ->
         let slow = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet slow)
           (fun () ->
              send_raw slow {|{"op": "pi|};
              (* half a request: the worker is now blocked reading *)
              Thread.delay 0.05;
              let fd = connect_unix path in
              Fun.protect
                ~finally:(fun () -> close_quiet fd)
                (fun () ->
                   let t0 = Unix.gettimeofday () in
                   send_raw fd "{\"op\": \"ping\"}\n";
                   match recv_resp fd with
                   | None -> Alcotest.fail "fast client got no response"
                   | Some resp ->
                     let elapsed = Unix.gettimeofday () -. t0 in
                     Alcotest.(check bool) "ping ok" true
                       (get_bool "ok" (json_of resp));
                     Alcotest.(check bool)
                       "fast client not delayed by the stalled one" true
                       (elapsed < 5.)))))

let test_server_shed_r013 () =
  (* one worker, one queue slot: the third concurrent connection must be
     shed immediately with the retriable R013 *)
  ignore
    (with_daemon ~max_connections:1 ~queue_capacity:1
       ~idle_timeout_ms:10_000. (fun srv path ->
         let a = connect_unix path in
         Thread.delay 0.1;
         (* a occupies the worker; b fills the queue slot *)
         let b = connect_unix path in
         Thread.delay 0.1;
         let c = connect_unix path in
         Fun.protect
           ~finally:(fun () ->
               close_quiet a;
               close_quiet b;
               close_quiet c)
           (fun () ->
              (match recv_resp c with
               | None -> Alcotest.fail "shed connection got no R013 response"
               | Some resp ->
                 Alcotest.(check (option string)) "R013 on shed"
                   (Some "R013") (error_code_of resp);
                 let err = member_exn "error" (json_of resp) in
                 Alcotest.(check int) "retriable exit code" 75
                   (get_int "exit_code" err);
                 (* after the refusal the daemon closes the connection *)
                 Alcotest.(check bool) "shed connection closed" true
                   (recv_resp c = None));
              (* freeing the worker lets the queued connection be served *)
              close_quiet a;
              send_raw b "{\"op\": \"ping\"}\n";
              (match recv_resp b with
               | None -> Alcotest.fail "queued connection never served"
               | Some resp ->
                 Alcotest.(check bool) "queued connection served" true
                   (get_bool "ok" (json_of resp)));
              (* the daemon's own books agree *)
              let stats = json_of (Server.handle_line srv {|{"op":"stats"}|}) in
              let result = member_exn "result" stats in
              Alcotest.(check bool) "shed counted" true
                (get_int "shed" result >= 1))))

let test_server_read_deadline_r014 () =
  (* slow-loris: half a request then silence must get R014 within the
     deadline (not hang a worker forever), then a close *)
  ignore
    (with_daemon ~idle_timeout_ms:200. (fun srv path ->
         let fd = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet fd)
           (fun () ->
              send_raw fd {|{"op": "lint", "kind|};
              (match recv_resp fd with
               | None -> Alcotest.fail "expected an R014 response"
               | Some resp ->
                 Alcotest.(check (option string)) "R014 on stalled request"
                   (Some "R014") (error_code_of resp);
                 let err = member_exn "error" (json_of resp) in
                 Alcotest.(check int) "retriable exit code" 75
                   (get_int "exit_code" err);
                 Alcotest.(check bool) "connection closed after R014" true
                   (recv_resp fd = None));
              let stats = json_of (Server.handle_line srv {|{"op":"stats"}|}) in
              Alcotest.(check bool) "read timeout counted" true
                (get_int "read_timeouts" (member_exn "result" stats) >= 1))))

let test_server_oversized_r015 () =
  ignore
    (with_daemon ~max_request_bytes:100 (fun _srv path ->
         let fd = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet fd)
           (fun () ->
              send_raw fd (String.make 300 'a');
              match recv_resp fd with
              | None -> Alcotest.fail "expected an R015 response"
              | Some resp ->
                Alcotest.(check (option string)) "R015 on oversized frame"
                  (Some "R015") (error_code_of resp);
                Alcotest.(check bool) "connection closed after R015" true
                  (recv_resp fd = None))));
  (* a COMPLETE oversized line delivered in one write must be capped
     too — the newline must not let the frame outrun the size check *)
  ignore
    (with_daemon ~max_request_bytes:100 (fun _srv path ->
         let fd = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet fd)
           (fun () ->
              send_raw fd
                ("{\"op\": \"ping\", \"pad\": \"" ^ String.make 300 'x'
               ^ "\"}\n");
              match recv_resp fd with
              | None -> Alcotest.fail "expected an R015 response"
              | Some resp ->
                Alcotest.(check (option string))
                  "R015 on complete oversized line" (Some "R015")
                  (error_code_of resp))));
  (* a request within the cap on the same daemon settings still serves *)
  ignore
    (with_daemon ~max_request_bytes:100 (fun _srv path ->
         let fd = connect_unix path in
         Fun.protect
           ~finally:(fun () -> close_quiet fd)
           (fun () ->
              send_raw fd "{\"op\": \"ping\"}\n";
              match recv_resp fd with
              | None -> Alcotest.fail "small request unserved"
              | Some resp ->
                Alcotest.(check bool) "within-cap request ok" true
                  (get_bool "ok" (json_of resp)))))

let test_server_client_abort_contained () =
  (* a client that sends a request and hangs up before reading must cost
     only its own connection — the daemon keeps serving *)
  ignore
    (with_daemon (fun _srv path ->
         for _ = 1 to 5 do
           let fd = connect_unix path in
           (* a connection the daemon already shed (R013) and closed
              refuses the write: that client has hung up all the same *)
           (try
              send_raw fd
                "{\"op\": \"ambiguity\", \"kind\": \"log\", \"n\": 4}\n"
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
           close_quiet fd
         done;
         (* the daemon must still answer — R013 while it digests the
            aborted requests is fine (retriable by contract), anything
            else is not.  A shed connection may be closed before the
            ping is written: the write then fails with EPIPE/ECONNRESET,
            the R013 line is read if it is still pending, and a refused
            write with no line counts as a shed too *)
         let deadline = Unix.gettimeofday () +. 30. in
         let rec ping () =
           let fd = connect_unix path in
           let answer =
             Fun.protect
               ~finally:(fun () -> close_quiet fd)
               (fun () ->
                  match send_raw fd "{\"op\": \"ping\"}\n" with
                  | () -> `Answer (recv_resp fd)
                  | exception
                      Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                    -> (
                      match recv_resp fd with
                      | Some resp -> `Answer (Some resp)
                      | None -> `Write_refused))
           in
           let retry () =
             Thread.delay 0.1;
             ping ()
           in
           match answer with
           | `Answer (Some resp) when get_bool "ok" (json_of resp) -> ()
           | `Answer (Some resp)
             when error_code_of resp = Some "R013"
                  && Unix.gettimeofday () < deadline ->
             retry ()
           | `Write_refused when Unix.gettimeofday () < deadline -> retry ()
           | `Answer (Some resp) ->
             Alcotest.failf "daemon unhealthy after client aborts: %s" resp
           | `Write_refused ->
             Alcotest.fail "daemon refused every ping until the deadline"
           | `Answer None -> Alcotest.fail "daemon died after client aborts"
         in
         ping ()))

let test_server_drain_completes_inflight () =
  (* a drain that arrives while a request is in flight: the request is
     answered (ok, or R003 if the drain had to cancel it), the daemon
     never wedges, and the loop returns Drained *)
  let got = ref None in
  let outcome =
    with_daemon ~drain_timeout_ms:10_000. (fun srv path ->
        let client =
          Thread.create
            (fun () ->
               let fd = connect_unix path in
               Fun.protect
                 ~finally:(fun () -> close_quiet fd)
                 (fun () ->
                    send_raw fd
                      "{\"op\": \"lint\", \"semantic\": true, \"kind\": \
                       \"log\", \"n\": 6}\n";
                    got := recv_resp fd))
            ()
        in
        Thread.delay 0.05;
        Server.request_drain srv;
        Thread.join client)
  in
  (match outcome with
   | Server.Drained -> ()
   | Server.Forced n -> Alcotest.failf "drain forced with %d stuck" n);
  match !got with
  | None -> Alcotest.fail "in-flight request lost by the drain"
  | Some resp ->
    let v = json_of resp in
    if get_bool "ok" v then ()
    else
      Alcotest.(check (option string)) "cancelled in-flight answers R003"
        (Some "R003") (error_code_of resp)

let test_server_drain_cancels_stragglers () =
  (* a request far longer than the drain deadline must be cancelled and
     answered R003 — drain completes without waiting it out *)
  let got = ref None in
  let t0 = Unix.gettimeofday () in
  let outcome =
    with_daemon ~drain_timeout_ms:50. (fun srv path ->
        let client =
          Thread.create
            (fun () ->
               let fd = connect_unix path in
               Fun.protect
                 ~finally:(fun () -> close_quiet fd)
                 (fun () ->
                    (* no timeout_ms: only cancellation can stop this one;
                       rectangles at this size outlives the 50 ms drain
                       deadline and polls its guard as it enumerates *)
                    send_raw fd
                      "{\"op\": \"rectangles\", \"kind\": \"log\", \"n\": \
                       10}\n";
                    got := recv_resp fd))
            ()
        in
        Thread.delay 0.05;
        Server.request_drain srv;
        Thread.join client)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
   | Server.Drained -> ()
   | Server.Forced n -> Alcotest.failf "drain forced with %d stuck" n);
  Alcotest.(check bool) "drain did not wait out the computation" true
    (elapsed < 20.);
  match !got with
  | None -> Alcotest.fail "cancelled request got no response"
  | Some resp ->
    let v = json_of resp in
    if get_bool "ok" v then ()  (* finished under the wire: acceptable *)
    else begin
      Alcotest.(check (option string)) "straggler answers R003" (Some "R003")
        (error_code_of resp);
      Alcotest.(check int) "guard-trip exit code" 124
        (get_int "exit_code" (member_exn "error" (json_of resp)))
    end

let test_server_stats_concurrency_fields () =
  let srv = Server.create ~cache_dir:None () in
  let v = json_of (Server.handle_line srv {|{"op": "stats"}|}) in
  let result = member_exn "result" v in
  Alcotest.(check bool) "in_flight counts this request" true
    (get_int "in_flight" result >= 1);
  Alcotest.(check bool) "peak tracked" true
    (get_int "peak_concurrency" result >= 1);
  Alcotest.(check int) "no sheds yet" 0 (get_int "shed" result);
  Alcotest.(check int) "no read timeouts yet" 0
    (get_int "read_timeouts" result);
  Alcotest.(check int) "no client aborts yet" 0
    (get_int "client_aborts" result)

(* --- Workq ---------------------------------------------------------------- *)

let test_workq_bounded_and_sheds () =
  let gate = Mutex.create () in
  Mutex.lock gate;
  let done_count = Atomic.make 0 in
  let wq =
    Ucfg_exec.Workq.create ~workers:1 ~capacity:1 (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.incr done_count)
  in
  let rec wait_busy n =
    if n > 1000 then Alcotest.fail "worker never picked up the item"
    else if Ucfg_exec.Workq.busy wq = 0 then begin
      Thread.delay 0.005;
      wait_busy (n + 1)
    end
  in
  Alcotest.(check bool) "first accepted" true (Ucfg_exec.Workq.push wq ());
  wait_busy 0;
  Alcotest.(check bool) "second queued" true (Ucfg_exec.Workq.push wq ());
  Alcotest.(check bool) "third refused (queue full)" false
    (Ucfg_exec.Workq.push wq ());
  Mutex.unlock gate;
  let deadline = Unix.gettimeofday () +. 5. in
  Alcotest.(check bool) "drains to idle" true
    (Ucfg_exec.Workq.await_idle wq ~deadline);
  Alcotest.(check int) "both accepted items ran" 2 (Atomic.get done_count);
  Alcotest.(check bool) "push after stop refused" false
    (let _ = Ucfg_exec.Workq.stop wq in
     Ucfg_exec.Workq.push wq ());
  Ucfg_exec.Workq.join wq

let test_workq_stop_returns_queued () =
  let gate = Mutex.create () in
  Mutex.lock gate;
  let wq =
    Ucfg_exec.Workq.create ~workers:1 ~capacity:4 (fun _ ->
        Mutex.lock gate;
        Mutex.unlock gate)
  in
  Alcotest.(check bool) "a" true (Ucfg_exec.Workq.push wq 1);
  let rec wait_busy n =
    if n > 1000 then Alcotest.fail "worker never started"
    else if Ucfg_exec.Workq.busy wq = 0 then begin
      Thread.delay 0.005;
      wait_busy (n + 1)
    end
  in
  wait_busy 0;
  Alcotest.(check bool) "b" true (Ucfg_exec.Workq.push wq 2);
  Alcotest.(check bool) "c" true (Ucfg_exec.Workq.push wq 3);
  let leftover = Ucfg_exec.Workq.stop wq in
  Alcotest.(check (list int)) "unstarted items back in order" [ 2; 3 ]
    leftover;
  Mutex.unlock gate;
  Ucfg_exec.Workq.join wq;
  Alcotest.(check (list int)) "stop idempotent" []
    (Ucfg_exec.Workq.stop wq)

(* --- Bombard ------------------------------------------------------------- *)

let test_bombard_smoke () =
  with_temp_dir (fun dir ->
    let srv = Server.create ~cache_dir:(Some dir) () in
    let report =
      Bombard.run ~profile:"smoke" ~seed:7 ~requests:25
        (fun line -> Some (Server.handle_line srv line))
    in
    Alcotest.(check bool) "no errors, no mismatches" true (Bombard.ok report);
    Alcotest.(check int) "cold phase covers the pool" report.Bombard.distinct
      report.Bombard.cold.Bombard.count;
    (* after the cold phase every warm draw is a repeat: all must hit *)
    Alcotest.(check (float 1e-9)) "warm phase fully cached" 1.0
      report.Bombard.warm_hit_ratio;
    (* the JSON report parses and carries the gate fields *)
    let v = json_of (Bombard.to_json report) in
    Alcotest.(check string) "consistency ok" "ok" (get_str "consistency" v);
    Alcotest.(check int) "errors serialised" 0 (get_int "errors" v))

(* --- the shared exit-code table and request fuzzing ------------------------ *)

module Guard = Ucfg_exec.Guard

let test_exit_code_table () =
  (* every exception class the CLI's handler and [Server.handle_line] map,
     against its documented (code, exit) pair *)
  List.iter
    (fun (name, exn, want) ->
       let d, exit_code = Verbs.diagnose exn in
       Alcotest.(check (pair string int)) name want
         (d.Ucfg_lint.Diag.code, exit_code))
    [ ("timeout", Guard.Interrupt Guard.Timeout, ("R001", 124));
      ("budget", Guard.Interrupt Guard.Budget, ("R002", 124));
      ("cancel", Guard.Interrupt Guard.Cancel, ("R003", 124));
      ("Invalid_argument", Invalid_argument "cyclic grammar", ("R010", 2));
      ("Failure", Failure "grammar not in CNF", ("R010", 2));
      ("Not_found", Not_found, ("R012", 70)) ];
  (* a trip reported as a diagnostic wins over an error *)
  let error =
    Ucfg_lint.Diag.make ~code:"G001" ~severity:Ucfg_lint.Diag.Error
      ~loc:Ucfg_lint.Diag.Whole "an error"
  in
  let trip = Ucfg_lint.Diag.interrupted Guard.Budget in
  Alcotest.(check (list int)) "exit_code: trip, error, clean" [ 124; 1; 0 ]
    (List.map Verbs.exit_code [ [ error; trip ]; [ error ]; [] ])

(* a small default budget: a mutated [n] naming a huge construction trips
   the request guard instead of running long *)
let fuzz_server = lazy (Server.create ~cache_dir:None ~default_budget:20_000 ())

(* one response line that parses, carries a boolean [ok], and is never
   the R012/exit 70 internal-error answer *)
let well_formed_response line =
  let resp = Server.handle_line (Lazy.force fuzz_server) line in
  (not (String.contains resp '\n'))
  &&
  match Json.parse resp with
  | Error _ -> false
  | Ok v -> (
      (match Json.member "ok" v with Some (Json.Bool _) -> true | _ -> false)
      &&
      match Json.member "error" v with
      | None -> true
      | Some err ->
        Json.member "code" err <> Some (Json.Str "R012")
        && Json.member "exit_code" err <> Some (Json.Int 70))

(* 1–3 byte edits: substitute, insert or delete a random byte *)
let gen_mutation base =
  let open QCheck.Gen in
  let edit s =
    let len = String.length s in
    int_range 0 2 >>= fun kind ->
    int_range 0 (max 0 (len - 1)) >>= fun pos ->
    char >>= fun c ->
    return
      (match kind with
       | 0 when len > 0 -> String.mapi (fun i x -> if i = pos then c else x) s
       | 1 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (len - pos)
       | _ when len > 0 -> String.sub s 0 pos ^ String.sub s (pos + 1) (len - pos - 1)
       | _ -> s)
  in
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  int_range 1 3 >>= fun k -> go k base

let smoke_pool = Bombard.pool "smoke"

(* the pool's inline Grammar_io text, decoded, so its mutations reach the
   grammar parser rather than stopping at the JSON one *)
let inline_grammar =
  List.find_map
    (fun line -> Option.bind (Json.member "grammar" (json_of line)) Json.get_string)
    smoke_pool
  |> Option.get

let prop_random_lines =
  QCheck.Test.make ~name:"random byte lines answer well-formed" ~count:300
    QCheck.(make ~print:String.escaped Gen.(string_size (int_range 0 64)))
    well_formed_response

let prop_mutated_pool =
  QCheck.Test.make ~name:"mutated pool requests answer well-formed" ~count:400
    QCheck.(
      make ~print:String.escaped Gen.(oneofl smoke_pool >>= gen_mutation))
    well_formed_response

let prop_mutated_grammar =
  QCheck.Test.make ~name:"mutated inline grammars answer well-formed" ~count:200
    QCheck.(
      make ~print:String.escaped
        Gen.(
          gen_mutation inline_grammar >>= fun text ->
          return
            (Json.to_string
               (Json.Obj [ ("op", Json.Str "lint"); ("grammar", Json.Str text) ]))))
    well_formed_response

(* JSON values the parser can produce, minus [Float] (printed through
   %.12g, so not bit-exact); [Raw] is output-only *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size (int_range 0 8) in
  sized
  @@ fix (fun self n ->
      let leaf =
        oneof
          [ return Json.Null; map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int; map (fun s -> Json.Str s) str ]
      in
      if n <= 0 then leaf
      else
        frequency
          [ (2, leaf);
            (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 4))));
            (1,
             map (fun l -> Json.Obj l)
               (list_size (int_range 0 4) (pair str (self (n / 4))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "canonical roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "canon",
        [
          Alcotest.test_case "presentation invariance" `Quick
            test_canon_invariance;
          Alcotest.test_case "distinguishes languages" `Quick
            test_canon_distinguishes;
          Alcotest.test_case "keep_names and digest shape" `Quick
            test_canon_keep_names;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memory LRU" `Quick test_cache_memory;
          Alcotest.test_case "disk tier" `Quick test_cache_disk_tier;
          Alcotest.test_case "corruption detected and repaired" `Quick
            test_cache_corruption;
          Alcotest.test_case "concurrent writers" `Quick
            test_cache_concurrent_writers;
          Alcotest.test_case "disk-tier byte cap eviction" `Quick
            test_cache_disk_eviction;
        ] );
      ( "server",
        [
          Alcotest.test_case "cold/warm/disk byte identity" `Quick
            test_server_cold_warm_identity;
          Alcotest.test_case "canonicalisation shares entries" `Quick
            test_server_canon_shares_cache;
          Alcotest.test_case "guard trip is an uncached error" `Quick
            test_server_guard_trip_not_cached;
          Alcotest.test_case "semantic lint trip is an uncached error" `Quick
            test_server_lint_trip_not_cached;
          Alcotest.test_case "huge construction trips the guard" `Quick
            test_server_huge_construction_trips;
          Alcotest.test_case "unix socket path safety" `Quick
            test_server_unix_socket_safety;
          Alcotest.test_case "R010/R011 taxonomy" `Quick
            test_server_input_taxonomy;
          Alcotest.test_case "stdin batch order and jobs invariance" `Quick
            test_server_stdin_batch_jobs_invariant;
          Alcotest.test_case "no_cache recomputes deterministically" `Quick
            test_server_no_cache_flag;
          Alcotest.test_case "stats concurrency fields" `Quick
            test_server_stats_concurrency_fields;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "parallel clients byte-identical" `Quick
            test_server_parallel_clients_byte_identical;
          Alcotest.test_case "pipelined responses in request order" `Quick
            test_server_pipelined_in_order;
          Alcotest.test_case "slow client does not delay fast client" `Quick
            test_server_slow_client_isolation;
          Alcotest.test_case "overload sheds with R013" `Quick
            test_server_shed_r013;
          Alcotest.test_case "read deadline trips R014" `Quick
            test_server_read_deadline_r014;
          Alcotest.test_case "oversized request trips R015" `Quick
            test_server_oversized_r015;
          Alcotest.test_case "aborting client contained" `Quick
            test_server_client_abort_contained;
          Alcotest.test_case "drain completes in-flight" `Quick
            test_server_drain_completes_inflight;
          Alcotest.test_case "drain cancels stragglers" `Quick
            test_server_drain_cancels_stragglers;
        ] );
      ( "workq",
        [
          Alcotest.test_case "bounded queue sheds" `Quick
            test_workq_bounded_and_sheds;
          Alcotest.test_case "stop returns queued items" `Quick
            test_workq_stop_returns_queued;
        ] );
      ( "bombard",
        [ Alcotest.test_case "in-process smoke" `Quick test_bombard_smoke ] );
      ( "verbs",
        [ Alcotest.test_case "exit-code table" `Quick test_exit_code_table ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_lines; prop_mutated_pool; prop_mutated_grammar;
            prop_json_roundtrip ] );
    ]
