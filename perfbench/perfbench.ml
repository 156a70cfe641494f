(* The repository benchmark.

   perfbench --workload serve-warm|serve-mixed|research --seed N
             --seconds S --trace 0|1 --cli PATH --workdir DIR

   Runs one workload for a fixed amount of work sized to take about S
   seconds, checks every output, prints a human-readable report and, as
   the last line, one JSON object: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  perfbench/run.py builds the
   program and calls this with --cli and --workdir set. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let cli = ref ""
let workdir = ref ""

let specs =
  [ ("--workload", Arg.Set_string workload, "serve-warm | serve-mixed | research");
    ("--seed", Arg.Set_int seed, "N  input seed");
    ("--seconds", Arg.Set_int seconds, "S  run length the work is sized for");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ("--cli", Arg.Set_string cli, "PATH  the ucfg CLI (daemon)");
    ("--workdir", Arg.Set_string workdir, "DIR  scratch directory of this run") ]

(* set-up is repeated this many times over the run and reported as the
   median *)
let setup_reps = 7

let e2e ~setup_s ~ops_per_s ~p50 ~tail ~tail_name ~rss_mb =
  Printf.printf "  %-16s %12.4f s\n  %-16s %12.2f 1/s\n  %-16s %12.4f ms\n\
                \  %-16s %12.4f ms  (%s)\n  %-16s %12.1f MB\n%!"
    "setup_s" setup_s "ops_per_s" ops_per_s "latency_p50_ms" p50
    "latency_tail_ms" tail tail_name "rss_mb" rss_mb;
  Util.
    [ metric "setup_s" "s" setup_s; metric "ops_per_s" "1/s" ops_per_s;
      metric "latency_p50_ms" "ms" p50; metric "latency_tail_ms" "ms" tail;
      metric "rss_mb" "MB" rss_mb ]

let serve_e2e (r : Serve_wl.run) =
  Printf.printf "  requests %d, timed %.3f s\n" (List.length r.latencies_ms)
    r.wall_s;
  List.iter (fun (k, v) -> Printf.printf "  cache.%s %d\n" k v) r.counts;
  e2e ~setup_s:r.setup_s ~ops_per_s:(Serve_wl.ops_per_s r)
    ~p50:(Util.median r.latencies_ms)
    ~tail:(Util.percentile 99. r.latencies_ms) ~tail_name:"p99"
    ~rss_mb:r.rss_mb

let serve_input ?cache_dir ?mem_capacity ~prefix ~timed ~pool
    (r : Serve_wl.run) results =
  Layers.
    { cache_dir; mem_capacity; prefix; timed; pool; results;
      client_latencies_ms = r.latencies_ms; daemon_counts = r.counts }

let warm_input (w : Serve_gen.warm) r results =
  serve_input ~prefix:(Array.append w.pool w.pool) ~timed:w.stream
    ~pool:w.pool r results

(* the per-layer report of a traced run; [ops_per_s] and [p50] are the
   traced run's own pass of the workload: minus the untraced run's figures
   they give the tracing overhead *)
let layer_report ~ops_per_s ~p50 =
  let major = float_of_int (Gc.quick_stat ()).Gc.major_collections in
  Printf.printf "  traced pass: ops_per_s %.2f 1/s, latency_p50_ms %.4f ms\n"
    ops_per_s p50;
  let metrics =
    Layers.report ~trace_ops_per_s:ops_per_s ~trace_p50_ms:p50
      ~major_collections:major
  in
  List.iter
    (fun (m : Util.metric) ->
       Printf.printf "  %-30s %14.4f %s\n" m.name m.value m.unit_)
    metrics;
  metrics

let serve_traced ~dir (r : Serve_wl.run) input =
  Layers.serve ~dir ~lint_only:false input;
  Layers.research_home ~seed:!seed;
  Layers.speedup (Layers.serve_speedup input.Layers.pool);
  layer_report ~ops_per_s:(Serve_wl.ops_per_s r)
    ~p50:(Util.median r.latencies_ms)

let run () =
  let dir = !workdir in
  let traced = !trace = 1 in
  match !workload with
  | "serve-warm" ->
    let w = Serve_gen.warm ~seed:!seed ~requests:(!seconds * 1200) in
    Printf.printf "  distinct %d, stream %d, mem-capacity 512 (default)\n"
      (Array.length w.pool) (Array.length w.stream);
    let r, results = Serve_wl.warm ~cli:!cli ~dir ~reps:setup_reps w in
    let e2e = serve_e2e r in
    if traced then serve_traced ~dir r (warm_input w r results) else e2e
  | "serve-mixed" ->
    let m = Serve_gen.mixed ~seed:!seed ~seconds:!seconds in
    let cap = Serve_gen.mixed_mem_capacity m in
    Printf.printf "  distinct %d, stream %d, mem-capacity %d\n"
      (Array.length m.pool) (Array.length m.sequence) cap;
    let r, results = Serve_wl.mixed ~cli:!cli ~dir ~reps:setup_reps m in
    let e2e = serve_e2e r in
    if traced then
      serve_traced ~dir r
        (serve_input ~cache_dir:(Filename.concat dir "replay-cache")
           ~mem_capacity:cap ~prefix:m.warmup ~timed:m.sequence ~pool:m.pool r
           results)
    else e2e
  | "research" ->
    let r =
      Research.run ~traced ~seed:!seed ~seconds:!seconds ~reps:setup_reps
        ~jobs:2
    in
    Printf.printf "  tasks %d, timed %.3f s\n" (List.length r.latencies_ms)
      r.wall_s;
    List.iter
      (fun (name, n, ms) -> Printf.printf "    %-34s x%-3d %10.2f ms\n" name n ms)
      (Research.summary r);
    let ops_per_s = float_of_int (List.length r.latencies_ms) /. r.wall_s in
    let p50 = Util.median r.latencies_ms in
    let e2e =
      e2e ~setup_s:r.setup_s ~ops_per_s ~p50
        ~tail:(Util.percentile 90. r.latencies_ms) ~tail_name:"p90"
        ~rss_mb:r.rss_mb
    in
    if traced then begin
      Layers.research_alloc ~seed:!seed;
      Layers.speedup (Layers.research_speedup ());
      (* the serving layers, which research never reaches, on a
         shortened serve-warm run of the same seed *)
      let w = Serve_gen.warm ~seed:!seed ~requests:2000 in
      let wr, results = Serve_wl.warm ~cli:!cli ~dir ~reps:1 w in
      Layers.serve ~dir ~lint_only:true (warm_input w wr results);
      layer_report ~ops_per_s ~p50
    end
    else e2e
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench [options]";
  if !cli = "" || !workdir = "" then begin
    prerr_endline "perfbench: --cli and --workdir are required";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.stop_all;
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n%!" !workload !seed
    !seconds !trace;
  let metrics =
    try run () with
    | Arg.Bad msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
    | e ->
      Util.fail "exception: %s" (Printexc.to_string e);
      []
  in
  let g = Util.gate in
  Printf.printf "  error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int g.failed /. float_of_int (max 1 g.attempted))
    g.failed g.attempted;
  List.iter (fun m -> Printf.printf "  FAIL %s\n" m) (List.rev g.reasons);
  Util.print_result metrics;
  if g.failed > 0 || g.attempted = 0 then exit 1
