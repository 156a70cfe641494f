(* Request dispatch for the serving daemon.  See the mli for the protocol
   and the caching/guard contract. *)

open Ucfg_cfg
module Diag = Ucfg_lint.Diag
module Guard = Ucfg_exec.Guard

type drain_outcome = Drained | Forced of int

type t = {
  cache : Cache.t;
  version : string;
  default_timeout_ms : float option;
  default_budget : int option;
  max_connections : int;
  queue_capacity : int;
  idle_timeout_ms : float;
  max_request_bytes : int;
  drain_timeout_ms : float;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
  in_flight : int Atomic.t;
  peak_concurrency : int Atomic.t;
  shed : int Atomic.t;
  read_timeouts : int Atomic.t;
  client_aborts : int Atomic.t;
  (* guards of in-flight requests, so drain can cancel stragglers *)
  active : (int, Ucfg_exec.Guard.t) Hashtbl.t;
  active_mutex : Mutex.t;
  next_req : int Atomic.t;
  (* write end of the accept loop's self-pipe while it runs; written by
     [request_drain] (possibly from a signal handler) to wake the select *)
  wake : Unix.file_descr option Atomic.t;
}

let create ?(cache_dir = Some "_repro/cache") ?mem_capacity ?cache_max_bytes
    ?default_timeout_ms ?default_budget ?max_connections ?queue_capacity
    ?(idle_timeout_ms = 30_000.) ?(max_request_bytes = 1_048_576)
    ?(drain_timeout_ms = 5_000.) ?(version = "dev") () =
  let max_connections =
    max 1 (Option.value max_connections ~default:(Ucfg_exec.Exec.jobs ()))
  in
  {
    cache =
      Cache.create ?mem_capacity ?disk_max_bytes:cache_max_bytes
        ?dir:cache_dir ();
    version;
    default_timeout_ms;
    default_budget;
    max_connections;
    queue_capacity = max 1 (Option.value queue_capacity ~default:max_connections);
    idle_timeout_ms;
    max_request_bytes;
    drain_timeout_ms;
    stop = Atomic.make false;
    draining = Atomic.make false;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    in_flight = Atomic.make 0;
    peak_concurrency = Atomic.make 0;
    shed = Atomic.make 0;
    read_timeouts = Atomic.make 0;
    client_aborts = Atomic.make 0;
    active = Hashtbl.create 16;
    active_mutex = Mutex.create ();
    next_req = Atomic.make 0;
    wake = Atomic.make None;
  }

let cache t = t.cache
let stopping t = Atomic.get t.stop
let draining t = Atomic.get t.draining

(* wake the accept loop out of its select; the pipe may already be closed
   when the daemon is past drain, in which case there is nothing to wake *)
let request_drain t =
  Atomic.set t.draining true;
  match Atomic.get t.wake with
  | Some fd ->
    (try ignore (Unix.write_substring fd "x" 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

(* --- in-flight accounting ------------------------------------------------- *)

let enter_flight t =
  let now = Atomic.fetch_and_add t.in_flight 1 + 1 in
  let rec bump () =
    let peak = Atomic.get t.peak_concurrency in
    if now > peak && not (Atomic.compare_and_set t.peak_concurrency peak now)
    then bump ()
  in
  bump ()

let register_guard t guard =
  let id = Atomic.fetch_and_add t.next_req 1 in
  Mutex.lock t.active_mutex;
  Hashtbl.replace t.active id guard;
  Mutex.unlock t.active_mutex;
  id

let unregister_guard t id =
  Mutex.lock t.active_mutex;
  Hashtbl.remove t.active id;
  Mutex.unlock t.active_mutex

let cancel_active t =
  Mutex.lock t.active_mutex;
  let n = Hashtbl.length t.active in
  Hashtbl.iter (fun _ g -> Ucfg_exec.Guard.cancel g) t.active;
  Mutex.unlock t.active_mutex;
  n

(* --- request decoding ----------------------------------------------------- *)

let badf fmt = Printf.ksprintf invalid_arg fmt

let field obj name = Json.member name obj

(* an optional field of one JSON type; present with another is bad input *)
let typed_field get what obj name =
  match field obj name with
  | None -> None
  | Some v -> (
      match get v with
      | Some x -> Some x
      | None -> badf "field %S must be %s" name what)

let string_field = typed_field Json.get_string "a string"
let int_field = typed_field Json.get_int "an integer"
let bool_field = typed_field Json.get_bool "a boolean"
let float_field = typed_field Json.get_float "a number"

let alphabet_of obj suffix =
  match string_field obj ("alphabet" ^ suffix) with
  | None -> Ucfg_word.Alphabet.binary
  | Some chars ->
    if chars = "" then badf "field \"alphabet%s\" must be non-empty" suffix;
    Ucfg_word.Alphabet.make (List.init (String.length chars) (String.get chars))

(* a grammar operand: inline Grammar_io text or a named construction,
   built under the request's guard *)
let grammar_of ~guard obj suffix =
  match
    ( string_field obj ("grammar" ^ suffix),
      string_field obj ("kind" ^ suffix),
      int_field obj ("n" ^ suffix) )
  with
  | Some text, None, None -> Grammar_io.parse (alphabet_of obj suffix) text
  | None, Some kind, Some n -> (
      match List.assoc_opt kind Constructions.kinds with
      | Some build -> build ~guard n
      | None ->
        badf "unknown kind%s %S (expected %s)" suffix kind
          (String.concat ", " (List.map fst Constructions.kinds)))
  | None, Some _, None -> badf "field \"kind%s\" needs \"n%s\"" suffix suffix
  | None, None, Some _ -> badf "field \"n%s\" needs \"kind%s\"" suffix suffix
  | Some _, Some _, _ | Some _, _, Some _ ->
    badf "pass either \"grammar%s\" or \"kind%s\"+\"n%s\", not both" suffix
      suffix suffix
  | None, None, None ->
    badf "missing grammar operand: \"grammar%s\" or \"kind%s\"+\"n%s\"" suffix
      suffix suffix

(* the canonical cache key of a request: op, canonical parameter string,
   canonical operand grammars.  Names only matter where the rendered
   artifact mentions them (lint diagnostics). *)
let key_of ~op ~params ~keep_names grammars =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (op :: params :: List.map (Canon.canonical ~keep_names) grammars)))

(* --- the dispatcher ------------------------------------------------------- *)

let error_response ~id ?op (diag : Diag.t) exit_code =
  let fields =
    [ ("id", id); ("ok", Json.Bool false) ]
    @ (match op with Some o -> [ ("op", Json.Str o) ] | None -> [])
    @ [ ("error",
         Json.Obj
           ([ ("code", Json.Str diag.Diag.code);
              ("exit_code", Json.Int exit_code);
              ("message", Json.Str diag.Diag.message) ]
            @
            match diag.Diag.hint with
            | Some h -> [ ("hint", Json.Str h) ]
            | None -> []));
        ("diagnostics", Json.Raw (Diag.list_to_json [ diag ])) ]
  in
  Json.to_string (Json.Obj fields)

let ok_response ~id ~op ~source ~key ?warning payload =
  let cached = match source with "computed" | "recomputed" -> false | _ -> true in
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool true); ("op", Json.Str op);
          ("cached", Json.Bool cached); ("source", Json.Str source);
          ("key", match key with Some k -> Json.Str k | None -> Json.Null);
          ("result", Json.Raw payload) ]
        @
        match warning with
        | Some d -> [ ("warning", Json.Raw (Diag.to_json d)) ]
        | None -> []))

let handle_line t line =
  Atomic.incr t.requests;
  enter_flight t;
  Fun.protect ~finally:(fun () -> Atomic.decr t.in_flight) @@ fun () ->
  let id = ref Json.Null in
  let op_for_error = ref None in
  try
    let obj =
      match Json.parse line with
      | Ok v -> v
      | Error msg -> badf "%s" msg
    in
    (match obj with Json.Obj _ -> () | _ -> badf "request must be a JSON object");
    (match field obj "id" with Some v -> id := v | None -> ());
    let op =
      match string_field obj "op" with
      | Some op -> op
      | None -> badf "missing \"op\""
    in
    op_for_error := Some op;
    let timeout_ms =
      match float_field obj "timeout_ms" with
      | Some ms -> Some ms
      | None -> t.default_timeout_ms
    in
    let budget =
      match int_field obj "budget" with
      | Some b -> Some b
      | None -> t.default_budget
    in
    (* the request guard is passed explicitly to every library entry
       point, never installed as the process-wide ambient guard: requests
       racing across connections (or in a stdin batch) cannot trip each
       other.  Every request gets its own freshly *created* guard — even
       one with no timeout or budget, which can then trip only via
       [Guard.cancel]: graceful drain cancels the guards of in-flight
       requests, and the shared ambient [unlimited] guard is by design
       uncancellable *)
    let guard =
      Guard.create
        ?timeout:(Option.map (fun ms -> ms /. 1000.) timeout_ms)
        ?budget ()
    in
    let reqid = register_guard t guard in
    Fun.protect ~finally:(fun () -> unregister_guard t reqid) @@ fun () ->
    let no_cache = Option.value ~default:false (bool_field obj "no_cache") in
    let respond_computed ~op ~key compute =
      match key with
      | None ->
        let payload = Json.to_string (compute ()) in
        ok_response ~id:!id ~op ~source:"computed" ~key:None payload
      | Some key -> (
          let lookup = if no_cache then Cache.Miss else Cache.lookup t.cache key in
          match lookup with
          | Cache.Memory payload ->
            ok_response ~id:!id ~op ~source:"mem" ~key:(Some key) payload
          | Cache.Disk payload ->
            ok_response ~id:!id ~op ~source:"disk" ~key:(Some key) payload
          | Cache.Miss ->
            let payload = Json.to_string (compute ()) in
            Cache.store t.cache key payload;
            ok_response ~id:!id ~op ~source:"computed" ~key:(Some key) payload
          | Cache.Corrupt ->
            (* hash verification rejected the on-disk entry: recompute,
               overwrite atomically, and say so — a damaged cache can cost
               time, never correctness *)
            let payload = Json.to_string (compute ()) in
            Cache.store t.cache key payload;
            ok_response ~id:!id ~op ~source:"recomputed" ~key:(Some key)
              ~warning:(Diag.cache_corrupt key) payload)
    in
    match op with
    | "ping" ->
      ok_response ~id:!id ~op ~source:"computed" ~key:None
        (Json.to_string
           (Json.Obj
              [ ("pong", Json.Bool true); ("version", Json.Str t.version) ]))
    | "stats" ->
      let s = Cache.stats t.cache in
      ok_response ~id:!id ~op ~source:"computed" ~key:None
        (Json.to_string
           (Json.Obj
              [ ("requests", Json.Int (Atomic.get t.requests));
                ("errors", Json.Int (Atomic.get t.errors));
                (* the concurrency gauge: [in_flight] counts this very
                   request too, so it is always >= 1 here *)
                ("in_flight", Json.Int (Atomic.get t.in_flight));
                ("peak_concurrency", Json.Int (Atomic.get t.peak_concurrency));
                ("shed", Json.Int (Atomic.get t.shed));
                ("read_timeouts", Json.Int (Atomic.get t.read_timeouts));
                ("client_aborts", Json.Int (Atomic.get t.client_aborts));
                ("cache",
                 Json.Obj
                   [ ("lookups", Json.Int s.Cache.lookups);
                     ("mem_hits", Json.Int s.Cache.mem_hits);
                     ("disk_hits", Json.Int s.Cache.disk_hits);
                     ("misses", Json.Int s.Cache.misses);
                     ("corrupt", Json.Int s.Cache.corrupt);
                     ("stores", Json.Int s.Cache.stores);
                     ("evictions", Json.Int s.Cache.evictions);
                     ("disk_evictions", Json.Int s.Cache.disk_evictions) ]) ]))
    | "shutdown" ->
      Atomic.set t.stop true;
      (* same path as SIGTERM: wake the accept loop so it stops taking
         connections; this worker still writes the response below before
         its connection winds down *)
      request_drain t;
      ok_response ~id:!id ~op ~source:"computed" ~key:None
        (Json.to_string (Json.Obj [ ("stopping", Json.Bool true) ]))
    | "lint" ->
      let g = grammar_of ~guard obj "" in
      let semantic = Option.value ~default:false (bool_field obj "semantic") in
      let params = Printf.sprintf "semantic=%b" semantic in
      (* lint diagnostics mention nonterminal names, so names are part of
         this op's key (and only this op's) *)
      let key = key_of ~op ~params ~keep_names:true [ g ] in
      respond_computed ~op ~key:(Some key) (fun () -> Verbs.lint ~guard ~semantic g)
    | "ambiguity" ->
      let g = grammar_of ~guard obj "" in
      let key = key_of ~op ~params:"" ~keep_names:false [ g ] in
      respond_computed ~op ~key:(Some key) (fun () -> Verbs.ambiguity ~guard g)
    | "check" ->
      let g1 = grammar_of ~guard obj "" in
      let property =
        match string_field obj "property" with
        | Some p -> p
        | None -> badf "missing \"property\""
      in
      let g2 =
        if property = "universal" then None else Some (grammar_of ~guard obj "2")
      in
      let cross_check =
        Option.value ~default:false (bool_field obj "cross_check")
      in
      let params = Printf.sprintf "property=%s cross_check=%b" property cross_check in
      let grammars = g1 :: Option.to_list g2 in
      let key = key_of ~op ~params ~keep_names:false grammars in
      respond_computed ~op ~key:(Some key)
        (fun () -> Verbs.check ~guard ~cross_check ~property g1 g2)
    | "rectangles" ->
      let g = grammar_of ~guard obj "" in
      let key = key_of ~op ~params:"" ~keep_names:false [ g ] in
      respond_computed ~op ~key:(Some key) (fun () -> Verbs.rectangles ~guard g)
    | "rank" ->
      let g = grammar_of ~guard obj "" in
      let split = int_field obj "split" in
      let params =
        match split with
        | Some s -> Printf.sprintf "split=%d" s
        | None -> "split=half"
      in
      let key = key_of ~op ~params ~keep_names:false [ g ] in
      respond_computed ~op ~key:(Some key) (fun () ->
          Verbs.rank ~split g (Analysis.language_exn ~guard g))
    | op ->
      Atomic.incr t.errors;
      error_response ~id:!id ~op (Diag.unsupported (Printf.sprintf "op %S" op)) 2
  with exn ->
    Atomic.incr t.errors;
    let diag, exit_code = Verbs.diagnose exn in
    (* an internal error is the operator's to see, not only the client's *)
    if exit_code = 70 then
      Printf.eprintf "ucfg serve: internal error on request: %s\n%!"
        (Printexc.to_string exn);
    error_response ~id:!id ?op:!op_for_error diag exit_code

(* --- transports ----------------------------------------------------------- *)

let run_stdin t ic oc =
  let rec read acc =
    match input_line ic with
    | line -> read (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let responses = Ucfg_exec.Exec.parallel_map (handle_line t) lines in
  List.iter
    (fun r ->
       output_string oc r;
       output_char oc '\n')
    responses;
  flush oc

(* --- socket I/O ------------------------------------------------------------ *)

(* a write that cannot complete is a client problem, never a daemon one *)
exception Client_gone

let set_sndtimeo fd seconds =
  try Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* raw-fd writes (no out_channel: its buffer cannot express per-write
   containment).  SO_SNDTIMEO on the fd turns a stalled reader into
   EAGAIN here, so one wedged client cannot hold a worker forever. *)
let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | 0 -> raise Client_gone
      | n -> go (off + n)
      | exception
          Unix.Unix_error
            ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EAGAIN
              | Unix.EWOULDBLOCK | Unix.ETIMEDOUT ),
              _, _ ) ->
        raise Client_gone
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_line fd s =
  write_all fd s;
  write_all fd "\n"

(* Per-connection buffered reader.  The deadline for one request line is
   absolute ([idle_timeout_ms] from the moment we start waiting for it),
   enforced with [select] slices — SO_RCVTIMEO would restart on every
   byte, which is exactly the slow-loris drip it must defeat.  Short
   slices also let an idle keep-alive connection notice a drain quickly
   instead of holding the drain deadline hostage. *)
type conn_reader = {
  cfd : Unix.file_descr;
  cbuf : Bytes.t;
  mutable pending : string;
}

let take_line r =
  match String.index_opt r.pending '\n' with
  | None -> None
  | Some i ->
    let line = String.sub r.pending 0 i in
    r.pending <-
      String.sub r.pending (i + 1) (String.length r.pending - i - 1);
    let line =
      if line <> "" && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    Some line

let read_event t r =
  let deadline =
    if t.idle_timeout_ms > 0. then
      Some (Unix.gettimeofday () +. (t.idle_timeout_ms /. 1000.))
    else None
  in
  (* once a drain begins, a partially received request gets one more
     second to complete; an idle connection closes immediately *)
  let drain_cutoff = ref None in
  let rec go () =
    match take_line r with
    (* the cap applies to complete frames too: a whole oversized line
       arriving in one read must not outrun the pending-buffer check *)
    | Some line when String.length line > t.max_request_bytes -> `Too_big
    | Some line -> `Line line
    | None ->
      if String.length r.pending > t.max_request_bytes then `Too_big
      else begin
        let winding_down = Atomic.get t.draining || Atomic.get t.stop in
        if winding_down && r.pending = "" then `Drained
        else begin
          if winding_down && !drain_cutoff = None then
            drain_cutoff := Some (Unix.gettimeofday () +. 1.0);
          let now = Unix.gettimeofday () in
          let eff_deadline =
            match deadline, !drain_cutoff with
            | Some d, Some c -> Some (min d c)
            | Some d, None -> Some d
            | None, cutoff -> cutoff
          in
          match eff_deadline with
          | Some d when now >= d -> `Timeout (r.pending <> "")
          | _ -> (
              let wait =
                match eff_deadline with
                | None -> 0.1
                | Some d -> Float.min 0.1 (d -. now)
              in
              match Unix.select [ r.cfd ] [] [] wait with
              | [], _, _ -> go ()
              | _ -> (
                  match Unix.read r.cfd r.cbuf 0 (Bytes.length r.cbuf) with
                  | 0 -> `Eof
                  | n ->
                    r.pending <- r.pending ^ Bytes.sub_string r.cbuf 0 n;
                    go ()
                  | exception
                      Unix.Unix_error
                        ((Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT), _, _)
                    -> `Reset
                  | exception
                      Unix.Unix_error
                        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    -> go ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
        end
      end
  in
  go ()

(* One connection, inside one [Workq] worker thread.  Every exit path —
   clean EOF, deadline, oversize, reset, drain, even a bug escaping
   [handle_line] — closes the fd exactly once via the [Fun.protect]. *)
let serve_connection t fd =
  set_sndtimeo fd
    (if t.idle_timeout_ms > 0. then t.idle_timeout_ms /. 1000. else 30.);
  let r = { cfd = fd; cbuf = Bytes.create 65536; pending = "" } in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       let send resp =
         match send_line fd resp with
         | () -> true
         | exception Client_gone ->
           Atomic.incr t.client_aborts;
           false
       in
       let rec loop () =
         if not (Atomic.get t.stop) then
           match read_event t r with
           | `Line line ->
             if String.trim line = "" then loop ()
             else if send (handle_line t line) then loop ()
           | `Eof | `Drained -> ()
           | `Reset -> Atomic.incr t.client_aborts
           | `Too_big ->
             (* the frame boundary is lost: answer and close, never resync *)
             Atomic.incr t.errors;
             ignore
               (send
                  (error_response ~id:Json.Null
                     (Diag.oversized ~limit:t.max_request_bytes)
                     2))
           | `Timeout partial ->
             if partial then begin
               (* a stalled request counts; an idle keep-alive connection
                  aging out is hygiene, not an error *)
               Atomic.incr t.read_timeouts;
               Atomic.incr t.errors;
               ignore
                 (send
                    (error_response ~id:Json.Null
                       (Diag.read_timeout t.idle_timeout_ms)
                       75))
             end
       in
       loop ())

(* --- the accept loop and graceful drain ------------------------------------ *)

let serve_loop t sock =
  (* belt and braces: the CLI ignores SIGPIPE process-wide before exec,
     but library users (tests, benches) reach this loop directly and a
     dead client must never kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wake_rd, wake_wr = Unix.pipe () in
  Atomic.set t.wake (Some wake_wr);
  let wq =
    Ucfg_exec.Workq.create ~workers:t.max_connections
      ~capacity:t.queue_capacity
      (fun fd -> serve_connection t fd)
  in
  (* overload shedding: a structured, retriable refusal beats an unbounded
     queue.  Best-effort with a short send timeout — a shed client that
     also stalls just loses the courtesy note. *)
  let shed_fd ~during_drain fd =
    Atomic.incr t.shed;
    Atomic.incr t.errors;
    set_sndtimeo fd 1.0;
    (try
       send_line fd
         (error_response ~id:Json.Null (Diag.busy ~draining:during_drain ()) 75)
     with Client_gone -> Atomic.incr t.client_aborts);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let junk = Bytes.create 64 in
  let rec accept_loop () =
    if not (Atomic.get t.stop || Atomic.get t.draining) then begin
      (match Unix.select [ sock; wake_rd ] [] [] (-1.) with
       | rs, _, _ ->
         if List.mem wake_rd rs then
           (try ignore (Unix.read wake_rd junk 0 (Bytes.length junk))
            with Unix.Unix_error _ -> ());
         if List.mem sock rs then begin
           match Unix.accept sock with
           | fd, _ -> (
               (* nothing between accept and handoff may leak the fd *)
               match Ucfg_exec.Workq.push wq fd with
               | true -> ()
               | false -> shed_fd ~during_drain:false fd
               | exception e ->
                 (try Unix.close fd with Unix.Unix_error _ -> ());
                 raise e)
           | exception
               Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
         end
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
        (* no new work: listener down first, then the queue; connections
           already accepted but never started get the draining variant of
           the busy refusal *)
        Atomic.set t.draining true;
        Atomic.set t.wake None;
        (try Unix.close sock with Unix.Unix_error _ -> ()))
    (fun () -> accept_loop ());
  List.iter (shed_fd ~during_drain:true) (Ucfg_exec.Workq.stop wq);
  let deadline =
    Unix.gettimeofday () +. (Float.max 0. t.drain_timeout_ms /. 1000.)
  in
  let outcome =
    if Ucfg_exec.Workq.await_idle wq ~deadline then Drained
    else begin
      (* past the drain deadline: cancel every in-flight request's guard.
         Cooperative cancellation surfaces as an R003 error response on
         each connection, so clients see a structured refusal, not a cut
         wire; a short grace period lets those responses flush. *)
      let cancelled = cancel_active t in
      let grace = Unix.gettimeofday () +. 2.0 in
      if Ucfg_exec.Workq.await_idle wq ~deadline:grace then Drained
      else Forced (max cancelled (Ucfg_exec.Workq.busy wq))
    end
  in
  (match outcome with
   | Drained -> Ucfg_exec.Workq.join wq
   | Forced _ ->
     (* a worker is stuck past cancellation — joining would hang; the
        process is about to exit and [_exit] skips these threads *)
     ());
  Cache.close t.cache;
  (try Unix.close wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close wake_wr with Unix.Unix_error _ -> ());
  outcome

let run_unix ?(backlog = 64) t ~path =
  (* only ever displace a *stale* socket: a regular file is someone
     else's data, and a socket something still answers on is a live
     daemon — unlinking either would be silent sabotage *)
  (match Unix.lstat path with
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
   | { Unix.st_kind = Unix.S_SOCK; _ } ->
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () -> true
       | exception Unix.Unix_error _ -> false
     in
     (try Unix.close probe with Unix.Unix_error _ -> ());
     if live then
       failwith
         (Printf.sprintf
            "socket %s already has a live server; shut it down or pass a \
             different path" path);
     (try Sys.remove path with Sys_error _ -> ())
   | _ ->
     failwith
       (Printf.sprintf "%s exists and is not a socket; refusing to replace it"
          path));
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind sock (Unix.ADDR_UNIX path) with
   | () -> ()
   | exception e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock backlog;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> serve_loop t sock)

let run_tcp ?(backlog = 64) t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (match Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
   | () -> ()
   | exception e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock backlog;
  serve_loop t sock
