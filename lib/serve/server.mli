(** The grammar-analysis daemon: line-delimited JSON requests over a unix
    or TCP socket (or a stdin batch), answered through the
    content-addressed {!Cache}.

    {2 Protocol}

    One request per line, one response line per request, in order.  A
    request is a JSON object:

    {v
    { "op": "lint" | "check" | "ambiguity" | "rectangles" | "rank"
          | "ping" | "stats" | "shutdown",
      "id": <any JSON, echoed back>,                      (optional)
      "grammar": "<Grammar_io text>"                      (inline grammar)
        or "kind": "log"|"example3"|"example4"|"trivial", "n": <int>,
      "alphabet": "ab",                                   (optional)
      -- op-specific --
      "semantic": bool,                                   (lint)
      "property": "universal"|"includes"|"equiv"|"disjoint",  (check)
      "grammar2" / "kind2","n2",                          (check)
      "cross_check": bool,                                (check)
      "split": <int>,                                     (rank)
      -- per-request resource guard --
      "timeout_ms": <number>, "budget": <int>,
      "no_cache": bool }
    v}

    A successful response is
    [{"id":…, "ok":true, "op":…, "cached":bool, "source":"computed"|
    "mem"|"disk"|"recomputed", "key":"<hex>"|null, "result":{…},
    "warning":{…}?}] — [result] is the cached unit: its bytes are
    byte-identical between a cold computation and any later hit, at any
    job count and any connection count.  [source] and [cached] describe
    {e this} lookup ([cached] is timing-dependent when requests race;
    [result] is not).  ["recomputed"] flags a disk entry that failed hash
    verification and was transparently rebuilt ([warning] then carries
    the R020 diagnostic).

    A failed request is [{"id":…, "ok":false, "error":{"code":…,
    "exit_code":…, "message":…, "hint":…}, "diagnostics":[…]}] using the
    CLI's exit-code taxonomy per request instead of per process:

    - R001–R003 (guard trips) → [exit_code] 124.  The guard bounds the
      whole request, the building of a named [example4] or [trivial]
      operand included.  Never cached; a request that timed out under a
      small budget is recomputed when retried with a larger one.  R003 in particular is what an in-flight request
      reports when a graceful drain cancels it.
    - R010 (invalid input), R011 (unknown op), R015 (oversized request
      line, connection closed) → 2.  Not retriable as-is.
    - R012 (unexpected server-side exception, also logged to stderr) → 70
      ([EX_SOFTWARE]).
    The exception-to-code table is {!Verbs.diagnose}, shared with the CLI.
    - R013 (server busy / draining — the connection was shed, not served)
      and R014 (read deadline exceeded mid-request) → 75
      ([EX_TEMPFAIL]): {e transient} by contract.  Clients should retry
      with jittered exponential backoff ({!Bombard} implements the
      reference policy).

    {2 Concurrency and overload}

    The daemon serves up to [max_connections] connections concurrently,
    each on a dedicated worker thread ({!Ucfg_exec.Workq}); requests on
    one connection are answered strictly in order, and a slow request on
    one connection never delays another connection.  Parallelism inside a
    computation still fans over {!Ucfg_exec.Pool} with the request's
    guard passed explicitly — worker threads live in the main domain, so
    the domain pool is shared, and results stay byte-identical at any
    [--jobs]/[max_connections] combination.

    Admission control is a bounded queue of [queue_capacity] accepted-but-
    unstarted connections.  When it is full the daemon {e sheds}: the
    connection is answered immediately with one R013 response and closed.
    Two protections bound each connection: a request line must arrive
    completely within [idle_timeout_ms] (slow-loris protection; a stalled
    mid-request connection gets R014 and is closed, an idle one is closed
    quietly) and may not exceed [max_request_bytes] (R015, closed).  A
    client that disappears mid-response (EPIPE/ECONNRESET) costs its own
    connection, nothing else.

    {2 Graceful drain}

    {!request_drain} (async-signal-safe; the CLI calls it from its
    SIGTERM/SIGINT handler) or a [shutdown] request begins a drain: the
    listener stops accepting, queued-but-unstarted connections are shed
    with R013 ([draining] variant), idle keep-alive connections close,
    and in-flight requests run to completion.  Requests still running at
    [drain_timeout_ms] have their guards cancelled and surface as R003
    error responses.  {!run_unix}/{!run_tcp} then return {!Drained} — or
    {!Forced} if a worker ignored cancellation — after flushing and
    closing the cache ({!Cache.close}). *)

type t

(** How a serve loop ended: [Drained] is the clean path (every accepted
    request answered or cancelled-and-answered); [Forced n] means [n]
    workers were still wedged after cancellation and the grace period —
    the caller should exit nonzero without joining them. *)
type drain_outcome = Drained | Forced of int

(** [create ()] — [cache_dir] (default [Some "_repro/cache"], [None]
    disables the disk tier), [mem_capacity] and [cache_max_bytes] (a byte
    cap on the disk store, enforced by oldest-stamp eviction after each
    store) configure the {!Cache}; [default_timeout_ms]/[default_budget]
    bound requests that do not carry their own; [version] is echoed by
    [ping].

    Robustness knobs: [max_connections] (default {!Ucfg_exec.Exec.jobs})
    bounds concurrent connections; [queue_capacity] (default
    [max_connections]) bounds accepted-but-unstarted connections beyond
    that, after which the daemon sheds with R013; [idle_timeout_ms]
    (default 30000, [<= 0] disables) is the absolute deadline for one
    complete request line; [max_request_bytes] (default 1 MiB) caps a
    request line; [drain_timeout_ms] (default 5000) bounds how long a
    graceful drain waits before cancelling in-flight guards. *)
val create :
  ?cache_dir:string option ->
  ?mem_capacity:int ->
  ?cache_max_bytes:int ->
  ?default_timeout_ms:float ->
  ?default_budget:int ->
  ?max_connections:int ->
  ?queue_capacity:int ->
  ?idle_timeout_ms:float ->
  ?max_request_bytes:int ->
  ?drain_timeout_ms:float ->
  ?version:string ->
  unit ->
  t

val cache : t -> Cache.t

(** [handle_line t line] processes one request line into one response
    line (no trailing newline).  Never raises: every failure mode is an
    error response.  Safe to call from any thread; each call creates and
    registers its own guard, so a concurrent drain can cancel it. *)
val handle_line : t -> string -> string

(** [stopping t] — a [shutdown] request has been served. *)
val stopping : t -> bool

(** [draining t] — a drain (signal, [shutdown], or {!request_drain}) has
    begun; the listener no longer accepts connections. *)
val draining : t -> bool

(** [request_drain t] begins a graceful drain (idempotent, callable from
    a signal handler or any thread): wakes the accept loop, which then
    follows the drain sequence described above. *)
val request_drain : t -> unit

(** [run_stdin t ic oc] reads all request lines from [ic], processes them
    as one batch fanned over the pool, and writes the response lines to
    [oc] in request order. *)
val run_stdin : t -> in_channel -> out_channel -> unit

(** [run_unix t ~path] listens on a unix-domain socket ([backlog],
    default 64, is the kernel accept backlog) and serves concurrent
    connections until a [shutdown] request or {!request_drain}, then
    drains; the socket file is removed on exit.  A {e stale} socket left
    at [path] by a dead daemon is replaced; a socket a live server still
    answers on, or any non-socket file, is refused ([Failure] — exit 2 at
    the CLI). *)
val run_unix : ?backlog:int -> t -> path:string -> drain_outcome

(** [run_tcp t ~port] — same loop on loopback TCP. *)
val run_tcp : ?backlog:int -> t -> port:int -> drain_outcome
