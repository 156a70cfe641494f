(* The two serving workloads: one daemon, one client on one persistent
   unix-socket connection, closed loop (the next request is sent when the
   previous reply has arrived). *)

module G = Serve_gen
module Json = Ucfg_serve.Json

(* --- response checks ------------------------------------------------------ *)

let result_marker = "\"result\": "

(* The [result] bytes of an ok response, and its [source].  The daemon
   renders [result] last unless a [warning] follows, which only a corrupt
   disk entry produces — and nothing here corrupts one. *)
let parse_ok resp =
  match Json.parse resp with
  | Ok obj when Json.member "ok" obj = Some (Json.Bool true) ->
    let source =
      Option.value ~default:"?"
        (Option.bind (Json.member "source" obj) Json.get_string)
    in
    let rec find i =
      if i + String.length result_marker > String.length resp then None
      else if String.sub resp i (String.length result_marker) = result_marker
      then Some (i + String.length result_marker)
      else find (i + 1)
    in
    (match find 0, Json.member "warning" obj with
     | Some start, None ->
       Some (source, String.sub resp start (String.length resp - start - 1))
     | _ -> None)
  | _ -> None

(* Checks one response against the first result seen for the same request
   line: every response must be ok, carry the expected source, and carry
   byte-identical result bytes whether it was computed, a memory hit or a
   disk hit. *)
let gate_response ~results ~expect (r : G.req) resp =
  Util.attempt ();
  match parse_ok resp with
  | None ->
    Util.fail "%s: not ok: %s" r.G.op
      (String.sub resp 0 (min 300 (String.length resp)))
  | Some (source, bytes) ->
    if not (List.mem source expect) then
      Util.fail "%s: source %s, expected %s" r.G.op source
        (String.concat "|" expect);
    (match Hashtbl.find_opt results r.G.line with
     | None -> Hashtbl.add results r.G.line bytes
     | Some first ->
       if first <> bytes then
         Util.fail "%s: result bytes differ between responses" r.G.op)

let stats_counts d =
  match Json.parse (Daemon.request d {|{"op": "stats"}|}) with
  | Ok obj -> (
      match Option.bind (Json.member "result" obj) (Json.member "cache") with
      | Some c ->
        List.map
          (fun k ->
             (k, Option.value ~default:0 (Option.bind (Json.member k c) Json.get_int)))
          [ "mem_hits"; "disk_hits"; "misses"; "stores"; "evictions" ]
      | None -> [])
  | Error _ -> []

let delta after before =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

(* --- the run record ----------------------------------------------------- *)

type run = {
  setup_s : float;
  latencies_ms : float list;  (** timed phase, one per request, in order *)
  wall_s : float;  (** timed phase *)
  rss_mb : float;  (** daemon peak RSS *)
  counts : (string * int) list;  (** daemon cache counters, timed phase *)
}

let ops_per_s r = float_of_int (List.length r.latencies_ms) /. r.wall_s

(* The closed loop over [reqs] in [segments] consecutive parts, with
   [between ()] run off the clock before every part but the first;
   responses are checked after the clock stops. *)
let timed_loop ~segments ~between d (reqs : G.req array) =
  let n = Array.length reqs in
  let lat = Array.make n 0. and resp = Array.make n "" in
  let wall = ref 0. in
  for k = 0 to segments - 1 do
    if k > 0 then between ();
    let t0 = Util.now_s () in
    for i = k * n / segments to ((k + 1) * n / segments) - 1 do
      let s = Util.now_s () in
      resp.(i) <- Daemon.request d reqs.(i).G.line;
      lat.(i) <- (Util.now_s () -. s) *. 1e3
    done;
    wall := !wall +. (Util.now_s () -. t0)
  done;
  (Array.to_list lat, resp, !wall)

let gate_all ~results ~expect reqs resp =
  Array.iteri (fun i r -> gate_response ~results ~expect r resp.(i)) reqs

(* [reps] timed set-ups, each a fresh daemon ([start i] starts the i-th)
   answering the set-up [traffic]; every cold computation of a request
   must yield the same bytes on every daemon.  The first daemon serves
   the timed phase ([serve d ~loop], where [loop reqs] is its closed loop
   in [reps] parts); the others run between the parts and are stopped at
   once, so that the median set-up time samples the host over the whole
   run rather than over its first second. *)
let with_setups ~reps ~results ~start ~traffic serve =
  let setups = ref [] in
  let timed_setup i =
    let (d, resp), s =
      Util.timed (fun () ->
          let d = start i in
          (d, Array.map (fun (r : G.req) -> Daemon.request d r.G.line) traffic))
    in
    setups := s :: !setups;
    gate_all ~results ~expect:[ "computed" ] traffic resp;
    d
  in
  let next = ref 1 in
  let between () =
    incr next;
    Daemon.stop (timed_setup !next)
  in
  let d = timed_setup 1 in
  let r = serve d ~loop:(timed_loop ~segments:reps ~between d) in
  (Util.median !setups, r)

(* --- serve-warm ---------------------------------------------------------- *)

(* Set-up: a fresh memory-only daemon computes every distinct request. *)
let warm ~cli ~dir ~reps (w : G.warm) =
  let results = Hashtbl.create 256 in
  let start _ = Daemon.start ~cli ~dir [ "--no-disk-cache" ] in
  let serve d ~loop =
    (* warm-up: one untimed pass of hits over the pool *)
    Array.iter
      (fun (r : G.req) ->
         gate_response ~results ~expect:[ "mem" ] r (Daemon.request d r.G.line))
      w.G.pool;
    let before = stats_counts d in
    let lat, resp, wall = loop w.G.stream in
    let counts = delta (stats_counts d) before in
    let rss = Daemon.peak_rss_mb d in
    Daemon.stop d;
    gate_all ~results ~expect:[ "mem" ] w.G.stream resp;
    (lat, wall, rss, counts)
  in
  let setup_s, (lat, wall, rss, counts) =
    with_setups ~reps ~results ~start ~traffic:w.G.pool serve
  in
  ( { setup_s; latencies_ms = lat; wall_s = wall; rss_mb = rss; counts },
    results )

(* --- serve-mixed --------------------------------------------------------- *)

let fresh_dir base name =
  let d = Filename.concat base name in
  Unix.mkdir d 0o755;
  d

(* Set-up: a fresh daemon over a fresh disk tier, answering a warm-up
   traffic that shares no request with the timed stream. *)
let mixed ~cli ~dir ~reps (m : G.mixed) =
  let results = Hashtbl.create 512 in
  let cap = G.mixed_mem_capacity m in
  let start i =
    let cache = fresh_dir dir (Printf.sprintf "cache%d" i) in
    Daemon.start ~cli ~dir
      [ "--cache-dir"; cache; "--mem-capacity"; string_of_int cap ]
  in
  let serve d ~loop =
    let before = stats_counts d in
    let lat, resp, wall = loop m.G.sequence in
    let counts = delta (stats_counts d) before in
    let rss = Daemon.peak_rss_mb d in
    Daemon.stop d;
    (* the first sight of a request computes; any later one is a hit *)
    let seen = Hashtbl.create 512 in
    Array.iteri
      (fun i (r : G.req) ->
         let expect =
           if Hashtbl.mem seen r.G.line then [ "mem"; "disk" ] else [ "computed" ]
         in
         Hashtbl.replace seen r.G.line ();
         gate_response ~results ~expect r resp.(i))
      m.G.sequence;
    (lat, wall, rss, counts)
  in
  let setup_s, (lat, wall, rss, counts) =
    with_setups ~reps ~results ~start ~traffic:m.G.warmup serve
  in
  ( { setup_s; latencies_ms = lat; wall_s = wall; rss_mb = rss; counts },
    results )
