(* The load generator.  Requests are literal JSON lines (no ids) so that
   equal requests are equal strings — the consistency check keys on the
   line itself. *)

module Rng = Ucfg_util.Rng

type phase = {
  count : int;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  hits : int;
}

type report = {
  profile : string;
  seed : int;
  jobs : int;
  distinct : int;
  requests : int;
  cold : phase;
  warm : phase;
  warm_hit_ratio : float;
  elapsed_s : float;
  throughput_rps : float;
  errors : int;
  mismatches : int;
}

(* a small grammar shipped inline to exercise the Grammar_io parse path
   (the constructions only exercise kind:n resolution) *)
let inline_grammar =
  "start: <S>\\n<S> -> <A> <B> | <B> <A>\\n<A> -> a\\n<B> -> b"

let smoke_pool =
  [
    {|{"op": "lint", "kind": "log", "n": 4}|};
    {|{"op": "lint", "kind": "example4", "n": 3, "semantic": true}|};
    Printf.sprintf {|{"op": "lint", "grammar": "%s"}|} inline_grammar;
    {|{"op": "ambiguity", "kind": "log", "n": 4}|};
    {|{"op": "ambiguity", "kind": "example4", "n": 4}|};
    {|{"op": "check", "property": "universal", "kind": "trivial", "n": 3}|};
    {|{"op": "check", "property": "equiv", "kind": "log", "n": 4, "kind2": "trivial", "n2": 4}|};
    {|{"op": "rectangles", "kind": "example4", "n": 3}|};
    {|{"op": "rank", "kind": "log", "n": 4}|};
  ]

(* the heavier mix: same operations where the artifacts are expensive
   enough that cold admission control matters *)
let mixed_pool =
  smoke_pool
  @ [
      {|{"op": "lint", "kind": "log", "n": 6, "semantic": true}|};
      {|{"op": "ambiguity", "kind": "log", "n": 6}|};
      {|{"op": "check", "property": "equiv", "kind": "log", "n": 6, "kind2": "trivial", "n2": 6}|};
      {|{"op": "rectangles", "kind": "example4", "n": 4}|};
      {|{"op": "rank", "kind": "log", "n": 6}|};
    ]

let profiles = [ "smoke"; "mixed" ]

let pool = function
  | "smoke" -> smoke_pool
  | "mixed" -> mixed_pool
  | p -> invalid_arg (Printf.sprintf "Bombard: unknown profile %S" p)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (q * n / 100))

let phase_of latencies hits =
  let arr = Array.of_list (List.rev latencies) in
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  {
    count = Array.length arr;
    p50_ms = percentile sorted 50;
    p99_ms = percentile sorted 99;
    max_ms = (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1));
    hits;
  }

(* pull the fields the gate cares about out of a response line; the
   [result] payload is re-rendered through the canonical printer, which
   reproduces the daemon's bytes (same printer on both sides) *)
let parse_response line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok v ->
    let ok = Json.member "ok" v |> Option.map Json.get_bool |> Option.join in
    let cached =
      Json.member "cached" v |> Option.map Json.get_bool |> Option.join
    in
    let key =
      Json.member "key" v |> Option.map Json.get_string |> Option.join
    in
    let result = Json.member "result" v |> Option.map Json.to_string in
    Ok (Option.value ~default:false ok, Option.value ~default:false cached,
        key, result)

(* the per-request-line bookkeeping of both {!run} and {!chaos}: each
   line's cache key and first [result] (the dump), the answers that were
   missing, unparseable or not [ok], and the results that differ from
   their line's first one *)
type tally = {
  keys : (string, string) Hashtbl.t;
  seen : (string, string) Hashtbl.t;
  mutable failed : int;
  mutable differ : int;
}

let tally () =
  { keys = Hashtbl.create 32; seen = Hashtbl.create 32; failed = 0; differ = 0 }

(* [record tl line resp] files one answer ([None]: none came) and returns
   its [(ok, cached)] flags when it parses *)
let record tl line resp =
  match Option.map parse_response resp with
  | None | Some (Error _) ->
    tl.failed <- tl.failed + 1;
    None
  | Some (Ok (ok, cached, key, result)) ->
    if not ok then tl.failed <- tl.failed + 1;
    Option.iter (Hashtbl.replace tl.keys line) key;
    Option.iter
      (fun r ->
         match Hashtbl.find_opt tl.seen line with
         | None -> Hashtbl.add tl.seen line r
         | Some first -> if not (String.equal first r) then tl.differ <- tl.differ + 1)
      result;
    Some (ok, cached)

(* one "<key> <result>" line per pool request, "-" where none was seen *)
let write_dump oc pool tl =
  Array.iter
    (fun line ->
       let find tbl = Option.value ~default:"-" (Hashtbl.find_opt tbl line) in
       Printf.fprintf oc "%s %s\n" (find tl.keys) (find tl.seen))
    pool;
  flush oc

let run ?dump ~profile ~seed ~requests send =
  let pool = Array.of_list (pool profile) in
  let tl = tally () in
  let shoot line =
    let t0 = Unix.gettimeofday () in
    let resp = send line in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (ms, match record tl line resp with Some (_, cached) -> cached | None -> false)
  in
  let started = Unix.gettimeofday () in
  let cold_lat = ref [] and cold_hits = ref 0 in
  Array.iter
    (fun line ->
       let ms, cached = shoot line in
       cold_lat := ms :: !cold_lat;
       if cached then incr cold_hits)
    pool;
  let rng = Rng.create seed in
  let warm_lat = ref [] and warm_hits = ref 0 in
  for _ = 1 to requests do
    let line = Rng.pick rng pool in
    let ms, cached = shoot line in
    warm_lat := ms :: !warm_lat;
    if cached then incr warm_hits
  done;
  let elapsed_s = Unix.gettimeofday () -. started in
  Option.iter (fun oc -> write_dump oc pool tl) dump;
  let total = Array.length pool + requests in
  {
    profile;
    seed;
    jobs = Ucfg_exec.Exec.jobs ();
    distinct = Array.length pool;
    requests;
    cold = phase_of !cold_lat !cold_hits;
    warm = phase_of !warm_lat !warm_hits;
    warm_hit_ratio =
      (if requests = 0 then 0. else float_of_int !warm_hits /. float_of_int requests);
    elapsed_s;
    throughput_rps =
      (if elapsed_s > 0. then float_of_int total /. elapsed_s else 0.);
    errors = tl.failed;
    mismatches = tl.differ;
  }

let ok r = r.errors = 0 && r.mismatches = 0

(* --- socket-level clients -------------------------------------------------- *)

type target = Unix_path of string | Tcp_port of int

let connect target =
  let domain, addr =
    match target with
    | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp_port port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* a peer that vanished mid-conversation; every chaos scenario treats it
   as an outcome, not a failure *)
exception Peer_gone

let send_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | 0 -> raise Peer_gone
      | n -> go (off + n)
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Peer_gone
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* [None] on EOF, reset, or deadline — the caller knows whether a missing
   response is acceptable.  The timeout is generous: it exists to keep a
   wedged daemon from wedging CI, not to measure anything. *)
let recv_line ?(timeout = 60.) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now >= deadline then None
    else
      match Unix.select [ fd ] [] [] (Float.min 1.0 (deadline -. now)) with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 (Bytes.length b) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf b 0 n;
            let s = Buffer.contents buf in
            (match String.index_opt s '\n' with
             | Some i -> Some (String.sub s 0 i)
             | None -> go ())
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let ignore_sigpipe () =
  (* a daemon that died mid-conversation must fail the gate, not kill the
     client that was measuring it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let connection ?timeout target =
  ignore_sigpipe ();
  let fd = connect target in
  ( (fun line ->
       match send_all fd (line ^ "\n") with
       | () -> recv_line ?timeout fd
       | exception Peer_gone -> None),
    fun () -> try Unix.close fd with Unix.Unix_error _ -> () )

let one_shot ?timeout target line =
  let send, close = connection ?timeout target in
  Fun.protect ~finally:close (fun () -> send line)

let error_code resp =
  match Json.parse resp with
  | Error _ -> None
  | Ok v -> (
      match Json.member "error" v with
      | None -> None
      | Some err ->
        Json.member "code" err |> Option.map Json.get_string |> Option.join)

let is_busy resp = error_code resp = Some "R013"

(* the reference retry policy the R013 contract asks of clients: jittered
   exponential backoff, both the base delay and the jitter seeded *)
let with_retry ?(attempts = 8) rng shot =
  let retries = ref 0 and busy = ref 0 in
  let rec go k =
    let backoff () =
      if k + 1 >= attempts then None
      else begin
        incr retries;
        Thread.delay
          (Float.min 1.0 ((0.05 *. (2. ** float_of_int k)) +. (Rng.float rng *. 0.05)));
        go (k + 1)
      end
    in
    match shot () with
    | Some resp when is_busy resp ->
      incr busy;
      backoff ()
    | Some resp -> Some resp
    | None -> backoff ()
    | exception Unix.Unix_error _ -> backoff ()
  in
  let resp = go 0 in
  (resp, !retries, !busy)

(* --- chaos mode ------------------------------------------------------------ *)

type chaos_params = {
  rounds : int;
  burst : int;
  stall_ms : float;
  oversize_bytes : int;
}

let default_chaos =
  { rounds = 40; burst = 6; stall_ms = 800.; oversize_bytes = 8192 }

type chaos_report = {
  c_seed : int;
  c_jobs : int;
  c_rounds : int;
  ok_responses : int;
  busy_shed : int;
  c_retries : int;
  aborts_sent : int;
  partial_writes : int;
  malformed_sent : int;
  oversized_sent : int;
  slow_requests : int;
  stalls_sent : int;
  read_timeouts_seen : int;
  c_bursts : int;
  c_errors : int;
  c_mismatches : int;
  c_elapsed_s : float;
}

(* every adversarial client shape the daemon must survive *)
type scenario =
  | Normal
  | Partial_disconnect
  | Abort_before_read
  | Malformed
  | Oversized
  | Slow_ok
  | Stall
  | Burst

let all_scenarios =
  [| Normal; Partial_disconnect; Abort_before_read; Malformed; Oversized;
     Slow_ok; Stall; Burst |]

let chaos ?dump ?(params = default_chaos) ~target ~seed () =
  ignore_sigpipe ();
  let rng = Rng.create seed in
  let pool = Array.of_list smoke_pool in
  let started = Unix.gettimeofday () in
  (* shared across burst threads, hence the lock *)
  let lock = Mutex.create () in
  let ok_responses = ref 0 and busy_shed = ref 0 and retries = ref 0 in
  let aborts_sent = ref 0 and partial_writes = ref 0 in
  let malformed_sent = ref 0 and oversized_sent = ref 0 in
  let slow_requests = ref 0 and stalls_sent = ref 0 in
  let read_timeouts_seen = ref 0 and bursts = ref 0 in
  let errors = ref 0 and tl = tally () in
  let sync f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let record line resp =
    sync (fun () ->
        match record tl line (Some resp) with
        | Some (true, _) -> incr ok_responses
        | _ -> ())
  in
  (* one request on its own connection, retried through sheds *)
  let retried rng' line =
    let resp, r, b = with_retry rng' (fun () -> one_shot target line) in
    sync (fun () ->
        retries := !retries + r;
        busy_shed := !busy_shed + b);
    resp
  in
  let shoot_with_retry rng' line =
    match retried rng' line with
    | Some resp -> record line resp
    | None -> sync (fun () -> incr errors)
  in
  (* a raw connection for one scenario; a refused one is an error *)
  let with_conn f =
    match connect target with
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd)
    | exception Unix.Unix_error _ -> incr errors
  in
  let run_scenario = function
    | Normal -> shoot_with_retry rng (Rng.pick rng pool)
    | Partial_disconnect -> (
        (* half a request, then vanish: the daemon's read deadline (or our
           close) must reclaim the worker without collateral damage *)
        let line = Rng.pick rng pool in
        let half = String.sub line 0 (String.length line / 2) in
        incr partial_writes;
        with_conn (fun fd -> try send_all fd half with Peer_gone -> ()))
    | Abort_before_read -> (
        (* full request, but hang up before the response: exercises the
           daemon's EPIPE containment on the write side *)
        let line = Rng.pick rng pool in
        incr aborts_sent;
        with_conn (fun fd -> try send_all fd (line ^ "\n") with Peer_gone -> ()))
    | Malformed -> (
        (* a busy daemon may shed the connection before ever parsing the
           frame — R013 is retriable by contract, so retry through it and
           judge only the answer the frame itself earns *)
        incr malformed_sent;
        match retried rng {|{"op": |} with
        | Some resp -> if error_code resp <> Some "R010" then incr errors
        | None -> incr errors)
    | Oversized -> (
        (* a newline-free flood; SHUTDOWN_SEND afterwards so a daemon with
           a larger cap sees EOF instead of waiting out its deadline.
           Acceptable outcomes: R015, or a quiet close. *)
        incr oversized_sent;
        with_conn (fun fd ->
            (try
               send_all fd (String.make params.oversize_bytes 'a');
               Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Peer_gone | Unix.Unix_error _ -> ());
            match recv_line fd with
            | Some resp ->
              if is_busy resp then incr busy_shed
              else if error_code resp <> Some "R015" then incr errors
            | None -> ()))
    | Slow_ok -> (
        (* a legitimate but slow client: three chunks inside the deadline
           must still be served, and served correctly *)
        let line = Rng.pick rng pool ^ "\n" in
        incr slow_requests;
        with_conn (fun fd ->
            let len = String.length line in
            let third = max 1 (len / 3) in
            try
              send_all fd (String.sub line 0 third);
              Thread.delay 0.03;
              send_all fd (String.sub line third third);
              Thread.delay 0.03;
              send_all fd (String.sub line (2 * third) (len - (2 * third)));
              match recv_line fd with
              | Some resp ->
                if is_busy resp then incr busy_shed
                else record (String.sub line 0 (len - 1)) resp
              | None -> incr errors
            with Peer_gone -> incr errors))
    | Stall -> (
        (* a slow-loris: half a request, then silence past the daemon's
           read deadline.  Acceptable outcomes: R014, or a quiet close
           (a daemon with a longer deadline sees our EOF instead). *)
        let line = Rng.pick rng pool in
        let half = String.sub line 0 (String.length line / 2) in
        incr stalls_sent;
        with_conn (fun fd ->
            (try send_all fd half with Peer_gone -> ());
            Thread.delay (params.stall_ms /. 1000.);
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            match recv_line fd with
            | Some resp ->
              if error_code resp = Some "R014" then incr read_timeouts_seen
              else if not (is_busy resp) then incr errors
            | None -> ()))
    | Burst ->
      (* concurrent pressure: [burst] clients at once, each retrying
         through any shed.  Lines and per-thread rngs are drawn before
         spawning so the schedule stays seeded. *)
      incr bursts;
      let work =
        Array.init params.burst (fun _ -> (Rng.pick rng pool, Rng.split rng))
      in
      let threads =
        Array.map
          (fun (line, rng') ->
             Thread.create (fun () -> shoot_with_retry rng' line) ())
          work
      in
      Array.iter Thread.join threads
  in
  for round = 0 to params.rounds - 1 do
    (* one guaranteed visit of each scenario, then seeded draws *)
    let s =
      if round < Array.length all_scenarios then all_scenarios.(round)
      else Rng.pick rng all_scenarios
    in
    run_scenario s
  done;
  (* the daemon must still be fully alive: a served ping and stats are the
     liveness assertion the whole mode exists for (retrying through any
     leftover congestion from the last rounds) *)
  let live line =
    match retried rng line with
    | Some resp when error_code resp = None -> ()
    | _ -> incr errors
  in
  live {|{"op": "ping"}|};
  live {|{"op": "stats"}|};
  (* final sequential pool pass: the post-chaos cache must answer every
     pool request, byte-identical to what chaos rounds observed — and the
     dump makes it diffable against a chaos-free run *)
  Array.iter (fun line -> shoot_with_retry rng line) pool;
  Option.iter (fun oc -> write_dump oc pool tl) dump;
  {
    c_seed = seed;
    c_jobs = Ucfg_exec.Exec.jobs ();
    c_rounds = params.rounds;
    ok_responses = !ok_responses;
    busy_shed = !busy_shed;
    c_retries = !retries;
    aborts_sent = !aborts_sent;
    partial_writes = !partial_writes;
    malformed_sent = !malformed_sent;
    oversized_sent = !oversized_sent;
    slow_requests = !slow_requests;
    stalls_sent = !stalls_sent;
    read_timeouts_seen = !read_timeouts_seen;
    c_bursts = !bursts;
    c_errors = !errors + tl.failed;
    c_mismatches = tl.differ;
    c_elapsed_s = Unix.gettimeofday () -. started;
  }

let chaos_ok r = r.c_errors = 0 && r.c_mismatches = 0

let chaos_to_text r =
  String.concat "\n"
    [
      Printf.sprintf "bombard --chaos: seed=%d jobs=%d rounds=%d" r.c_seed
        r.c_jobs r.c_rounds;
      Printf.sprintf
        "  sent: %d partial, %d aborts, %d malformed, %d oversized, %d \
         slow, %d stalls, %d bursts"
        r.partial_writes r.aborts_sent r.malformed_sent r.oversized_sent
        r.slow_requests r.stalls_sent r.c_bursts;
      Printf.sprintf
        "  observed: %d ok, %d busy-shed (R013), %d read-timeouts (R014), \
         %d retries"
        r.ok_responses r.busy_shed r.read_timeouts_seen r.c_retries;
      Printf.sprintf "  elapsed: %.2f s" r.c_elapsed_s;
      Printf.sprintf "  errors: %d, result mismatches: %d (%s)" r.c_errors
        r.c_mismatches
        (if chaos_ok r then "survival: ok" else "SURVIVAL: FAILED");
    ]

let chaos_to_json r =
  Json.to_string
    (Json.Obj
       [ ("mode", Json.Str "chaos");
         ("seed", Json.Int r.c_seed);
         ("jobs", Json.Int r.c_jobs);
         ("rounds", Json.Int r.c_rounds);
         ("ok_responses", Json.Int r.ok_responses);
         ("busy_shed", Json.Int r.busy_shed);
         ("retries", Json.Int r.c_retries);
         ("aborts_sent", Json.Int r.aborts_sent);
         ("partial_writes", Json.Int r.partial_writes);
         ("malformed_sent", Json.Int r.malformed_sent);
         ("oversized_sent", Json.Int r.oversized_sent);
         ("slow_requests", Json.Int r.slow_requests);
         ("stalls_sent", Json.Int r.stalls_sent);
         ("read_timeouts_seen", Json.Int r.read_timeouts_seen);
         ("bursts", Json.Int r.c_bursts);
         ("errors", Json.Int r.c_errors);
         ("mismatches", Json.Int r.c_mismatches);
         ("elapsed_s", Json.Float r.c_elapsed_s);
         ("survival", Json.Str (if chaos_ok r then "ok" else "failed")) ])

let to_text r =
  String.concat "\n"
    [
      Printf.sprintf "bombard: profile=%s seed=%d jobs=%d" r.profile r.seed r.jobs;
      Printf.sprintf "  requests: %d cold (distinct) + %d warm" r.distinct r.requests;
      Printf.sprintf "  cold:  p50 %.2f ms, p99 %.2f ms, max %.2f ms" r.cold.p50_ms
        r.cold.p99_ms r.cold.max_ms;
      Printf.sprintf "  warm:  p50 %.2f ms, p99 %.2f ms, max %.2f ms" r.warm.p50_ms
        r.warm.p99_ms r.warm.max_ms;
      Printf.sprintf "  warm cache hit ratio: %.3f" r.warm_hit_ratio;
      Printf.sprintf "  throughput: %.1f req/s over %.2f s" r.throughput_rps
        r.elapsed_s;
      Printf.sprintf "  errors: %d, result mismatches: %d (%s)" r.errors
        r.mismatches
        (if ok r then "consistency: ok" else "CONSISTENCY: FAILED");
    ]

let phase_json p =
  Json.Obj
    [ ("count", Json.Int p.count);
      ("p50_ms", Json.Float p.p50_ms);
      ("p99_ms", Json.Float p.p99_ms);
      ("max_ms", Json.Float p.max_ms);
      ("hits", Json.Int p.hits) ]

let to_json r =
  Json.to_string
    (Json.Obj
       [ ("profile", Json.Str r.profile);
         ("seed", Json.Int r.seed);
         ("jobs", Json.Int r.jobs);
         ("distinct", Json.Int r.distinct);
         ("requests", Json.Int r.requests);
         ("cold", phase_json r.cold);
         ("warm", phase_json r.warm);
         ("warm_hit_ratio", Json.Float r.warm_hit_ratio);
         ("elapsed_s", Json.Float r.elapsed_s);
         ("throughput_rps", Json.Float r.throughput_rps);
         ("errors", Json.Int r.errors);
         ("mismatches", Json.Int r.mismatches);
         ("consistency", Json.Str (if ok r then "ok" else "failed")) ])
