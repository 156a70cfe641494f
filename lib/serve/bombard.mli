(** Seeded load generator and serving gate for the daemon.

    Replays a mixed traffic profile — lint, check, ambiguity, rectangles
    and rank requests over the paper's constructions plus an inline
    grammar (exercising the parse path) — against a [send] function
    (a socket connection, or an in-process {!Server.handle_line}) and
    measures what the ROADMAP asks for: cold and warm latency quantiles,
    throughput, and the warm cache hit ratio.

    Two phases, both deterministic from [seed]:

    + {b cold}: every distinct request of the profile pool once, in a
      fixed order — these populate the cache;
    + {b warm}: [requests] draws from the pool by a seeded splitmix64
      stream — on a fresh cache every one of these should hit.

    The run doubles as the correctness gate behind the CI serving job:
    every response must be [ok], and all responses to the {e same request
    line} must carry byte-identical [result] payloads (cold vs warm, mem
    vs disk).  Violations are reported and fail the run. *)

type phase = {
  count : int;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  hits : int;  (** responses with ["cached": true] *)
}

type report = {
  profile : string;
  seed : int;
  jobs : int;
  distinct : int;  (** pool size (cold-phase request count) *)
  requests : int;  (** warm-phase request count *)
  cold : phase;
  warm : phase;
  warm_hit_ratio : float;
  elapsed_s : float;
  throughput_rps : float;
  errors : int;  (** non-[ok] responses *)
  mismatches : int;  (** identical requests with differing [result] bytes *)
}

(** The built-in pools.  [smoke] is sized for CI (small [n]); [mixed]
    adds heavier cold requests. *)
val profiles : string list

(** [pool profile] is the profile's distinct request lines, in the cold
    phase's order.  @raise Invalid_argument on an unknown profile name. *)
val pool : string -> string list

(** [run ~profile ~seed ~requests send] executes both phases through
    [send] (one request line in, one response line out; [None] — no
    answer — counts as an error).  [dump], when
    given, receives one ["<key> <result>"] line per distinct pool request
    in pool order — a stable transcript for cold/warm and jobs 1-vs-4
    diffs.  @raise Invalid_argument on an unknown profile name. *)
val run :
  ?dump:out_channel ->
  profile:string ->
  seed:int ->
  requests:int ->
  (string -> string option) ->
  report

(** [ok r] — no errors and no result mismatches. *)
val ok : report -> bool

(** Render the report as an aligned text block / a canonical JSON object
    (timings are measurements: the JSON is for artifacts, not diffs). *)
val to_text : report -> string

val to_json : report -> string

(** {2 Socket-level clients}

    The modes below talk to a {e real} daemon over a socket (SIGPIPE is
    ignored process-wide on entry: a dead daemon must fail the gate, not
    kill the client). *)

type target = Unix_path of string | Tcp_port of int

(** [connection target] opens one persistent connection: a [send] for
    {!run} (one request line out, one response line back; [None] on EOF,
    reset, or [timeout] — default 60 s, a backstop against a wedged
    daemon, not a measurement) and its [close].
    @raise Unix.Unix_error when the connection is refused. *)
val connection :
  ?timeout:float -> target -> (string -> string option) * (unit -> unit)

(** [one_shot target line] — a {!connection} for one request line. *)
val one_shot : ?timeout:float -> target -> string -> string option

(** {2 Chaos mode}

    Seeded socket-level adversity: every round plays one client shape —
    normal (with retry), partial-write-then-disconnect, full-request-
    then-abort-before-read, malformed frame, oversized newline-free
    frame, slow-but-legitimate chunked writer, slow-loris stall past the
    read deadline, and a [burst] of concurrent clients retrying through
    shed.  The first rounds visit each shape once; the rest are seeded
    draws.  After the rounds the daemon must still serve [ping] and
    [stats], and a final sequential pool pass must answer every request
    byte-identically to what the chaos rounds observed ([dump] writes
    the same ["<key> <result>"] transcript as {!run}, so it diffs
    against a chaos-free run).

    An error is a protocol violation: a missing or non-matching answer
    where one was required (R013 busy answers are retried, never errors;
    R014/R015 are the {e expected} answers to stalls and floods). *)

type chaos_params = {
  rounds : int;  (** total scenario rounds (default 40) *)
  burst : int;  (** concurrent clients per burst round (default 6) *)
  stall_ms : float;  (** slow-loris silence; set above the daemon's
                         [--idle-timeout-ms] to see R014 (default 800) *)
  oversize_bytes : int;  (** newline-free flood; set above the daemon's
                             [--max-request-bytes] to see R015 (default
                             8192) *)
}

val default_chaos : chaos_params

type chaos_report = {
  c_seed : int;
  c_jobs : int;
  c_rounds : int;
  ok_responses : int;
  busy_shed : int;  (** R013 responses observed (all retried) *)
  c_retries : int;
  aborts_sent : int;
  partial_writes : int;
  malformed_sent : int;
  oversized_sent : int;
  slow_requests : int;
  stalls_sent : int;
  read_timeouts_seen : int;  (** R014 responses observed *)
  c_bursts : int;
  c_errors : int;
  c_mismatches : int;
  c_elapsed_s : float;
}

val chaos :
  ?dump:out_channel ->
  ?params:chaos_params ->
  target:target ->
  seed:int ->
  unit ->
  chaos_report

(** [chaos_ok r] — the daemon survived: no protocol violations, no
    result mismatches. *)
val chaos_ok : chaos_report -> bool

val chaos_to_text : chaos_report -> string
val chaos_to_json : chaos_report -> string
