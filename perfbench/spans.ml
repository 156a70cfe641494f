(* Layer timing from outside the library: [time name f] records one call
   into a public function under a layer name, and [count name k] adds to a
   counter.  Both are off unless a traced run turns them on, so the
   untraced run pays two branches per call.

   [timing] records the call's wall time in seconds under [name].
   [alloc] records the minor words it allocated, in millions, under
   "gc.minor_mw.<layer>", the layer being the part of [name] before its
   first dot; allocation is exact only for calls made at one job. *)

let timing = ref false
let alloc = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

(* counters follow [timing] only, so a later allocation pass over the same
   calls does not count them twice *)
let count name k =
  if !timing then
    Hashtbl.replace counters name
      (k +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let time name f =
  if not (!timing || !alloc) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r, s = Util.timed f in
    if !timing then add name s;
    if !alloc then
      Hashtbl.replace counters
        ("gc.minor_mw." ^ layer name)
        (((Gc.minor_words () -. w0) /. 1e6)
         +. Option.value ~default:0.
              (Hashtbl.find_opt counters ("gc.minor_mw." ^ layer name)));
    r
  end

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* [with_modes ~timing ~alloc f] runs [f] with recording set as given *)
let with_modes ~timing:t ~alloc:a f =
  let t0 = !timing and a0 = !alloc in
  timing := t;
  alloc := a;
  Fun.protect ~finally:(fun () -> timing := t0; alloc := a0) f
