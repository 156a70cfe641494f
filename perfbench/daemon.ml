(* One `ucfg serve` daemon on a unix socket and one persistent client
   connection to it.  Every daemon started here is registered so that
   [stop_all] (called on every exit path) kills and reaps it. *)

type t = { pid : int; ic : in_channel; oc : out_channel }

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid;
  live := List.filter (( <> ) pid) !live

let stop_all () = List.iter kill !live

let rec connect path deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Unix.gettimeofday () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.001;
    connect path deadline

let started = ref 0

(* [start ~cli ~dir args] runs [cli serve --socket dir/dN.sock args] with
   one worker and one connection slot, and connects to it.  N counts the
   daemons started, so a set-up daemon can run beside an idle one.  The
   socket path is relative to the working directory: unix socket paths
   are limited to 107 bytes and the checkout may live deep. *)
let start ~cli ~dir args =
  incr started;
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" !started) in
  let log = Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ([ cli; "serve"; "--socket"; socket; "--jobs"; "1";
         "--max-connections"; "1"; "--idle-timeout-ms"; "0" ]
       @ args)
  in
  let pid = Unix.create_process cli argv null log log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let fd = connect socket (Unix.gettimeofday () +. 30.) in
  { pid; ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd }

(* one closed-loop round trip *)
let request t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

let peak_rss_mb t = Util.peak_rss_mb (string_of_int t.pid)

(* graceful stop: SIGTERM drains and exits; SIGKILL if it lingers *)
let stop t =
  (try close_in t.ic with Sys_error _ -> ());
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> kill t.pid
    | _ -> live := List.filter (( <> ) t.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()
