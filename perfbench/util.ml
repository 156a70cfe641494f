(* Clocks, order statistics and the result record shared by the workloads. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed f] is [f ()] with its wall time in seconds *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* nearest-rank percentile of a non-empty sample, [p] in (0, 100] *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty sample";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* peak resident set of a process, from /proc *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- the correctness gate ------------------------------------------------ *)

(* Every operation is counted here; a failure keeps its reason so the run
   can print it.  The final JSON line reports [attempted] and [failed]. *)
type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let gate = { attempted = 0; failed = 0; reasons = [] }

let attempt () = gate.attempted <- gate.attempted + 1

let fail fmt =
  Printf.ksprintf
    (fun msg ->
       gate.failed <- gate.failed + 1;
       if List.length gate.reasons < 20 then gate.reasons <- msg :: gate.reasons)
    fmt

(* [check cond fmt] fails the gate with the message when [cond] is false *)
let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* --- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* full precision: the driver compares raw values across runs *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (gate.failed = 0) (max 1 gate.attempted) gate.failed body
