(* LRU over a self-verifying disk store; see the mli for the contract. *)

type entry = { value : string; mutable stamp : int }

type t = {
  dir : string option;
  capacity : int;
  disk_max_bytes : int option;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutex : Mutex.t;
  mutable lookups : int;
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable stores : int;
  mutable evictions : int;
  mutable disk_evictions : int;
  mutable closed : bool;
}

type lookup = Memory of string | Disk of string | Miss | Corrupt

type stats = {
  lookups : int;
  mem_hits : int;
  disk_hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  evictions : int;
  disk_evictions : int;
}

let create ?(mem_capacity = 512) ?disk_max_bytes ?dir () =
  (match disk_max_bytes with
   | Some b when b <= 0 ->
     invalid_arg "Cache.create: disk_max_bytes must be positive"
   | _ -> ());
  {
    dir;
    capacity = max 1 mem_capacity;
    disk_max_bytes;
    tbl = Hashtbl.create 64;
    clock = 0;
    mutex = Mutex.create ();
    lookups = 0;
    mem_hits = 0;
    disk_hits = 0;
    misses = 0;
    corrupt = 0;
    stores = 0;
    evictions = 0;
    disk_evictions = 0;
    closed = false;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- disk tier ------------------------------------------------------------ *)

let check_key key =
  if
    key = ""
    || not
         (String.for_all
            (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
            key)
  then invalid_arg (Printf.sprintf "Cache: key %S is not lowercase hex" key)

let entry_path t key =
  check_key key;
  Option.map
    (fun dir ->
       let prefix = String.sub (key ^ "00") 0 2 in
       Filename.concat (Filename.concat dir prefix) (key ^ ".entry"))
    t.dir

(* disk entries are self-verifying Checkpoint files under this magic *)
module Checkpoint = Ucfg_exec.Checkpoint

let magic = "ucfg-cache v1"

(* --- disk-tier eviction --------------------------------------------------- *)

(* Every [.entry] file under the two-level store, with its last-use stamp
   (the mtime — refreshed on disk hits, so eviction order is LRU) and
   size.  A full scan per enforcement is O(files); stores are rare
   relative to hits in a long-lived daemon, so as with the LRU below
   simplicity wins over an incremental index (which another process — the
   store is shared — could silently invalidate anyway). *)
let scan_entries dir =
  let out = ref [] in
  (match Sys.readdir dir with
   | exception Sys_error _ -> ()
   | subdirs ->
     Array.iter
       (fun sub ->
          let subpath = Filename.concat dir sub in
          match Sys.readdir subpath with
          | exception Sys_error _ -> ()
          | files ->
            Array.iter
              (fun f ->
                 if Filename.check_suffix f ".entry" then begin
                   let path = Filename.concat subpath f in
                   match Unix.stat path with
                   | exception Unix.Unix_error _ -> ()
                   | st ->
                     if st.Unix.st_kind = Unix.S_REG then
                       out := (path, st.Unix.st_mtime, st.Unix.st_size) :: !out
                 end)
              files)
       subdirs);
  !out

(* refresh the last-use stamp of a disk entry (best-effort: the entry may
   have been evicted by a concurrent writer between read and touch) *)
let touch path =
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

(* bring the disk tier back under [disk_max_bytes] by deleting
   oldest-stamp entries first.  Concurrent enforcers race only over
   unlinks of the same (already chosen) victims, which is benign. *)
let enforce_disk_cap t =
  match t.dir, t.disk_max_bytes with
  | Some dir, Some cap ->
    let entries = scan_entries dir in
    let total = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
    if total > cap then begin
      let by_age =
        List.sort (fun (_, m1, _) (_, m2, _) -> compare m1 m2) entries
      in
      let excess = ref (total - cap) in
      let evicted = ref 0 in
      List.iter
        (fun (path, _, sz) ->
           if !excess > 0 then begin
             (try Unix.unlink path with Unix.Unix_error _ -> ());
             excess := !excess - sz;
             incr evicted
           end)
        by_age;
      locked t (fun () -> t.disk_evictions <- t.disk_evictions + !evicted)
    end
  | _ -> ()

(* --- LRU ------------------------------------------------------------------ *)

(* O(capacity) scan on eviction: capacities are a few hundred and
   evictions are rare relative to hits, so simplicity wins over a
   doubly-linked list *)
let evict_oldest_locked t =
  let oldest = ref None in
  Hashtbl.iter
    (fun key e ->
       match !oldest with
       | Some (_, s) when s <= e.stamp -> ()
       | _ -> oldest := Some (key, e.stamp))
    t.tbl;
  match !oldest with
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.evictions <- t.evictions + 1
  | None -> ()

let insert_locked t key value =
  t.clock <- t.clock + 1;
  (match Hashtbl.find_opt t.tbl key with
   | Some _ -> Hashtbl.replace t.tbl key { value; stamp = t.clock }
   | None ->
     if Hashtbl.length t.tbl >= t.capacity then evict_oldest_locked t;
     Hashtbl.add t.tbl key { value; stamp = t.clock })

let lookup t key =
  let mem =
    locked t (fun () ->
        t.lookups <- t.lookups + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.clock <- t.clock + 1;
          e.stamp <- t.clock;
          t.mem_hits <- t.mem_hits + 1;
          Some e.value
        | None -> None)
  in
  match mem with
  | Some v -> Memory v
  | None -> (
      match (if t.closed then None else entry_path t key) with
      | None ->
        locked t (fun () -> t.misses <- t.misses + 1);
        Miss
      | Some path -> (
          match Checkpoint.read ~magic path with
          | Checkpoint.Loaded payload ->
            touch path;
            locked t (fun () ->
                t.disk_hits <- t.disk_hits + 1;
                insert_locked t key payload);
            Disk payload
          | Checkpoint.Absent ->
            locked t (fun () -> t.misses <- t.misses + 1);
            Miss
          | Checkpoint.Invalid _ ->
            locked t (fun () -> t.corrupt <- t.corrupt + 1);
            Corrupt))

let store t key payload =
  check_key key;
  let closed =
    locked t (fun () ->
        if not t.closed then begin
          t.stores <- t.stores + 1;
          insert_locked t key payload
        end;
        t.closed)
  in
  if not closed then
    match entry_path t key with
    | None -> ()
    | Some path ->
      Checkpoint.write ~magic path payload;
      enforce_disk_cap t

let close t = locked t (fun () -> t.closed <- true)

let stats t =
  locked t (fun () ->
      {
        lookups = t.lookups;
        mem_hits = t.mem_hits;
        disk_hits = t.disk_hits;
        misses = t.misses;
        corrupt = t.corrupt;
        stores = t.stores;
        evictions = t.evictions;
        disk_evictions = t.disk_evictions;
      })
