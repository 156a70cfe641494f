(* The per-layer half of a traced run.  Each layer is timed from outside,
   around calls into its public functions, on the inputs of the workload
   being traced.  A layer the workload never reaches is timed on the
   inputs of the workload that does, generated from the same seed: the
   research layers (discrepancy, search, memo) on the research batch, the
   serving layers on a shortened serve-warm run. *)

open Ucfg_cfg
module G = Serve_gen
module S = Ucfg_serve.Server
module Cache = Ucfg_serve.Cache
module Json = Ucfg_serve.Json
module SL = Ucfg_lint.Semantic_lint

let binary = Ucfg_word.Alphabet.binary
let with_jobs j f =
  Ucfg_exec.Exec.set_jobs j;
  f ()

(* at most this many timed-phase lines feed the per-call layer timings *)
let sample_cap = 3000

let sample (a : 'a array) = Array.sub a 0 (min sample_cap (Array.length a))

(* --- compute kernels on one request, at one job -------------------------- *)

(* languages of the distinct grammars, computed once per sweep; the T2
   fixpoint of each grammar is timed beside the T0/T1 one *)
let languages : (int, Ucfg_lang.Lang.t) Hashtbl.t = Hashtbl.create 64

let language g =
  match Hashtbl.find_opt languages (Grammar.id g) with
  | Some l -> l
  | None ->
    let l = Spans.time "analysis.fixpoint" (fun () -> Analysis.language_exn g) in
    Research.note_tier l;
    let f =
      Spans.time "analysis.fixpoint_factored" (fun () ->
          Analysis.language_exn ~factored:true g)
    in
    Research.note_tier f;
    Option.iter
      (fun t -> Spans.count "factored.nodes" (float_of_int (Ucfg_lang.Factored.node_count t)))
      (Ucfg_lang.Lang.to_factored f);
    Hashtbl.add languages (Grammar.id g) l;
    l

let kernel ~lint_only (r : G.req) =
  let gs = List.map G.grammar_of r.G.operands in
  match r.G.op, gs, r.G.property with
  | "lint", [ g ], _ ->
    ignore (Spans.time "grammar_lint.run" (fun () -> Ucfg_lint.Grammar_lint.run g));
    if r.G.semantic then
      ignore (Spans.time "semantic_lint.check" (fun () -> SL.lint g))
  | "check", [ g ], Some "universal" ->
    ignore (Spans.time "semantic_lint.check" (fun () -> SL.universal g))
  | "check", [ g; g2 ], Some "equiv" ->
    ignore (Spans.time "semantic_lint.check" (fun () -> SL.equiv g g2))
  | "check", [ g; g2 ], Some "includes" ->
    ignore (Spans.time "semantic_lint.check" (fun () -> SL.includes g g2))
  | _ when lint_only -> ()
  | "ambiguity", [ g ], _ ->
    ignore (Spans.time "ambiguity.check" (fun () -> Ambiguity.check g))
  | "rectangles", [ g ], _ ->
    let res = Spans.time "extract.run" (fun () -> Ucfg_rect.Extract.run g) in
    let l = language g in
    ignore
      (Spans.time "cover.verify" (fun () ->
           Ucfg_rect.Cover.verify res.Ucfg_rect.Extract.rectangles l))
  | "rank", [ g ], _ ->
    let l = language g in
    let len = Option.get (Ucfg_lang.Lang.uniform_length l) in
    let m =
      Spans.time "matrix.build" (fun () ->
          Ucfg_comm.Matrix.of_language binary l ~split:((len + 1) / 2))
    in
    ignore (Spans.time "rank.gf2" (fun () -> Ucfg_comm.Rank.gf2 m));
    ignore (Spans.time "rank.mod_p" (fun () -> Ucfg_comm.Rank.mod_p m))
  | op, _, _ -> Util.fail "kernel sweep: unexpected request %s" op

(* --- the serving layers -------------------------------------------------- *)

type serve_input = {
  cache_dir : string option;  (** the daemon's disk tier, if any *)
  mem_capacity : int option;
  prefix : G.req array;  (** lines the daemon saw before the timed phase *)
  timed : G.req array;
  pool : G.req array;  (** distinct requests *)
  results : (string, string) Hashtbl.t;  (** line -> result bytes *)
  client_latencies_ms : float list;
  daemon_counts : (string * int) list;
}

let stats_list (s : Cache.stats) =
  [ ("mem_hits", s.Cache.mem_hits); ("disk_hits", s.Cache.disk_hits);
    ("misses", s.Cache.misses); ("stores", s.Cache.stores);
    ("evictions", s.Cache.evictions) ]

let response_key resp =
  match Json.parse resp with
  | Ok obj -> Option.bind (Json.member "key" obj) Json.get_string
  | Error _ -> None

(* The timed phase replayed through [Server.handle_line] in this process,
   with the daemon's cache configuration and job count: the per-request
   server time, and a cross-check that the replay produces the daemon's
   result bytes and cache counters exactly.  Returns the cache key the
   server gave each request line. *)
let replay (i : serve_input) =
  let srv =
    S.create ~cache_dir:i.cache_dir ?mem_capacity:i.mem_capacity ()
  in
  let keys = Hashtbl.create 256 in
  let note (r : G.req) resp =
    match response_key resp with
    | Some k -> Hashtbl.replace keys r.G.line k
    | None -> Util.fail "replay of %s: no cache key" r.G.op
  in
  Array.iter (fun (r : G.req) -> note r (S.handle_line srv r.G.line)) i.prefix;
  let before = stats_list (Cache.stats (S.cache srv)) in
  Array.iter
    (fun (r : G.req) ->
       let resp, s = Util.timed (fun () -> S.handle_line srv r.G.line) in
       Spans.add "server.handle" s;
       note r resp;
       match Serve_wl.parse_ok resp with
       | Some (_, bytes) ->
         Util.check (Hashtbl.find_opt i.results r.G.line = Some bytes)
           "replay of %s: result bytes differ from the daemon's" r.G.op
       | None -> Util.fail "replay of %s: not ok" r.G.op)
    i.timed;
  let counts = Serve_wl.delta (stats_list (Cache.stats (S.cache srv))) before in
  Util.check (counts = i.daemon_counts)
    "replay cache counters differ from the daemon's";
  List.iter (fun (k, v) -> Spans.count ("cache." ^ k) (float_of_int v)) i.daemon_counts;
  keys

(* operand construction ([kind]+[n] operands are built; inline ones were
   parsed above) and each operand's canonical digest *)
let canon_key (r : G.req) =
  List.iter (fun o -> ignore (Canon.digest (G.grammar_of o))) r.G.operands

let serving ~dir (i : serve_input) keys =
  let timed = sample i.timed in
  let payload r = Hashtbl.find i.results r.G.line in
  let key (r : G.req) = Hashtbl.find keys r.G.line in
  (* codec, operand parsing and key derivation, per timed request *)
  Array.iter
    (fun (r : G.req) ->
       ignore (Spans.time "json.parse" (fun () -> Json.parse r.G.line));
       List.iter
         (function
           | G.Inline (text, _) ->
             ignore
               (Spans.time "grammar_io.parse" (fun () -> Grammar_io.parse binary text))
           | G.Kind _ -> ())
         r.G.operands;
       Spans.time "canon.key" (fun () -> canon_key r);
       ignore
         (Spans.time "json.encode" (fun () ->
              Json.to_string
                (Json.Obj
                   [ ("id", Json.Null); ("ok", Json.Bool true);
                     ("op", Json.Str r.G.op); ("cached", Json.Bool true);
                     ("source", Json.Str "mem"); ("key", Json.Str (key r));
                     ("result", Json.Raw (payload r)) ]))))
    timed;
  (* the cache tiers on the server's keys and payloads *)
  let mem = Cache.create ~mem_capacity:(Array.length i.pool + 1) () in
  Array.iter (fun r -> Cache.store mem (key r) (payload r)) i.pool;
  Array.iter
    (fun r -> ignore (Spans.time "cache.lookup" (fun () -> Cache.lookup mem (key r))))
    timed;
  let disk_dir = Filename.concat dir "layer-cache" in
  let disk = Cache.create ~mem_capacity:1 ~dir:disk_dir () in
  Array.iter
    (fun r -> Spans.time "cache.store" (fun () -> Cache.store disk (key r) (payload r)))
    i.pool;
  Array.iter
    (fun (r : G.req) ->
       match Util.timed (fun () -> Cache.lookup disk (key r)) with
       | Cache.Disk _, s -> Spans.add "cache.disk_lookup" s
       | Cache.Memory _, _ -> ()
       | (Cache.Miss | Cache.Corrupt), _ ->
         Util.fail "disk tier lost the entry of %s" r.G.op)
    timed;
  (* the socket: what the client waited beyond the server's own time *)
  let handle_us = Util.median (Spans.get "server.handle") *. 1e6 in
  Spans.add "socket.overhead"
    ((Util.median i.client_latencies_ms *. 1e3 -. handle_us) *. 1e-6)

(* a request of the pool's heaviest class, computed cold at 1 and 2 jobs *)
let serve_speedup (pool : G.req array) =
  let heaviest =
    Array.fold_left
      (fun best (r : G.req) ->
         let size =
           List.fold_left (fun a o -> a + Grammar.size (G.grammar_of o)) 0 r.G.operands
         in
         match best with
         | Some (_, s) when s >= size -> best
         | _ -> Some (r, size))
      None pool
  in
  let r = fst (Option.get heaviest) in
  fun jobs ->
    with_jobs jobs (fun () ->
        ignore (S.handle_line (S.create ~cache_dir:None ()) r.G.line))

let speedup run =
  let t j = snd (Util.timed (fun () -> run j)) in
  let ones = ref [] and twos = ref [] in
  for _ = 1 to 3 do
    ones := t 1 :: !ones;
    twos := t 2 :: !twos
  done;
  Spans.add "pool.speedup" (Util.median !ones /. Util.median !twos)

(* [serve ~dir ~lint_only input] — the replay, the serving layers, and the
   kernels of every distinct request at one job ([lint_only]: the Lint
   layer only, when the traced workload computes its own kernels) *)
let serve ~dir ~lint_only (i : serve_input) =
  let keys =
    Spans.with_modes ~timing:true ~alloc:false (fun () ->
        with_jobs 1 (fun () -> replay i))
  in
  Spans.with_modes ~timing:true ~alloc:false (fun () -> serving ~dir i keys);
  Spans.with_modes ~timing:true ~alloc:true (fun () ->
      with_jobs 1 (fun () -> Array.iter (kernel ~lint_only) i.pool))

(* --- the research layers -------------------------------------------------- *)

(* for the serving workloads: the research batch's searches and
   discrepancy tasks at one job *)
let research_home ~seed =
  let rng = Ucfg_util.Rng.create (seed * 7919 + 3) in
  let tasks =
    List.map Research.search Research.searches
    @ List.map (Research.discrepancy ~rng) [ 4; 5 ]
  in
  Spans.with_modes ~timing:true ~alloc:true (fun () ->
      with_jobs 1 (fun () ->
          List.iter (fun (t : Research.task) -> Util.attempt (); t.run ()) tasks))

(* for research itself: allocation of one round at one job *)
let research_alloc ~seed =
  let rng = Ucfg_util.Rng.create (seed * 7919 + 4) in
  let tasks = Research.round (Research.shared ()) rng in
  Spans.with_modes ~timing:false ~alloc:true (fun () ->
      with_jobs 1 (fun () ->
          List.iter (fun (t : Research.task) -> Util.attempt (); t.run ()) tasks))

let research_speedup () =
  let l3 = List.nth Research.searches 1 in
  let t = Research.search l3 in
  fun jobs -> with_jobs jobs (fun () -> Util.attempt (); t.run ())

(* --- the report ----------------------------------------------------------- *)

(* per-call layers of the request path report the median call; compute
   layers report busy time, summed over the traced run's calls *)
let time_metric ?(busy = false) name unit_ scale key =
  match Spans.get key with
  | [] ->
    Util.fail "layer %s was not measured" name;
    Util.metric name unit_ 0.
  | xs ->
    Util.metric name unit_
      ((if busy then List.fold_left ( +. ) 0. xs else Util.median xs) *. scale)

let count_metric name key = Util.metric name "count" (Spans.counter key)

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* allocation is reported per layer, the layer named by its span prefix *)
let gc_layers =
  [ "grammar_lint"; "semantic_lint"; "analysis"; "ambiguity"; "extract";
    "cover"; "matrix"; "rank"; "discrepancy"; "search" ]

(* every per-layer metric, in BENCHMARK.json order *)
let report ~trace_ops_per_s ~trace_p50_ms ~major_collections =
  let us n k = time_metric n "us" 1e6 k
  and ms n k = time_metric ~busy:true n "ms" 1e3 k in
  let c = Spans.counter in
  [ us "json.parse_us" "json.parse";
    us "json.encode_us" "json.encode";
    us "grammar_io.parse_us" "grammar_io.parse";
    us "canon.key_us" "canon.key";
    us "cache.lookup_us" "cache.lookup";
    us "cache.disk_lookup_us" "cache.disk_lookup";
    time_metric "cache.store_ms" "ms" 1e3 "cache.store";
    count_metric "cache.mem_hits" "cache.mem_hits";
    count_metric "cache.disk_hits" "cache.disk_hits";
    count_metric "cache.misses" "cache.misses";
    count_metric "cache.stores" "cache.stores";
    count_metric "cache.evictions" "cache.evictions";
    Util.metric "cache.hit_ratio" "ratio"
      (ratio (c "cache.mem_hits" +. c "cache.disk_hits") (c "cache.misses"));
    us "server.handle_us" "server.handle";
    us "socket.overhead_us" "socket.overhead";
    ms "grammar_lint.run_ms" "grammar_lint.run";
    ms "semantic_lint.check_ms" "semantic_lint.check";
    ms "analysis.fixpoint_ms" "analysis.fixpoint";
    ms "analysis.fixpoint_factored_ms" "analysis.fixpoint_factored";
    ms "ambiguity.check_ms" "ambiguity.check";
    count_metric "factored.nodes" "factored.nodes";
    count_metric "lang.tier_hits.T0" "lang.tier_hits.T0";
    count_metric "lang.tier_hits.T1" "lang.tier_hits.T1";
    count_metric "lang.tier_hits.T2" "lang.tier_hits.T2";
    ms "extract.run_ms" "extract.run";
    ms "cover.verify_ms" "cover.verify";
    ms "matrix.build_ms" "matrix.build";
    ms "rank.gf2_ms" "rank.gf2";
    ms "rank.mod_p_ms" "rank.mod_p";
    ms "discrepancy.of_rectangle_ms" "discrepancy.of_rectangle";
    ms "search.minimal_cnf_ms" "search.minimal_cnf";
    count_metric "search.nodes" "search.nodes";
    Util.metric "memo.hit_ratio" "ratio" (ratio (c "memo.hits") (c "memo.misses"));
    time_metric "pool.speedup_x" "x" 1. "pool.speedup" ]
  @ List.map
      (fun l -> Util.metric ("gc.minor_mw." ^ l) "Mw" (c ("gc.minor_mw." ^ l)))
      gc_layers
  @ [ Util.metric "gc.major_collections" "count" major_collections;
      Util.metric "trace.ops_per_s" "1/s" trace_ops_per_s;
      Util.metric "trace.latency_p50_ms" "ms" trace_p50_ms ]
