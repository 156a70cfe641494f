(* Sharded memo table; see the mli for the contract. *)

type shard = {
  mutex : Mutex.t;
  tbl : (string, string) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
}

type t = { shards : shard array; mask : int }

type stats = { hits : int; misses : int; inserts : int }

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let create ?(shards = 16) () =
  let n = pow2_at_least (max 1 shards) 1 in
  {
    shards =
      Array.init n (fun _ ->
          {
            mutex = Mutex.create ();
            tbl = Hashtbl.create 64;
            hits = 0;
            misses = 0;
            inserts = 0;
          });
    mask = n - 1;
  }

let shard t key = t.shards.(Hashtbl.hash key land t.mask)

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let find t key =
  let s = shard t key in
  locked s (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | Some _ as v ->
        s.hits <- s.hits + 1;
        v
      | None ->
        s.misses <- s.misses + 1;
        None)

let set t key value =
  let s = shard t key in
  locked s (fun () ->
      if not (Hashtbl.mem s.tbl key) then begin
        Hashtbl.add s.tbl key value;
        s.inserts <- s.inserts + 1
      end)

let length t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.tbl))
    0 t.shards

let stats t =
  Array.fold_left
    (fun acc s ->
       locked s (fun () ->
           {
             hits = acc.hits + s.hits;
             misses = acc.misses + s.misses;
             inserts = acc.inserts + s.inserts;
           }))
    { hits = 0; misses = 0; inserts = 0 }
    t.shards

let entries t =
  let all =
    Array.fold_left
      (fun acc s ->
         locked s (fun () -> Hashtbl.fold (fun k v l -> (k, v) :: l) s.tbl acc))
      [] t.shards
  in
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) all

let add_entries t kvs =
  List.iter
    (fun (key, value) ->
       let s = shard t key in
       locked s (fun () ->
           if not (Hashtbl.mem s.tbl key) then Hashtbl.add s.tbl key value))
    kvs

let verdict memo key decide =
  match memo with
  | None -> decide ()
  | Some t -> (
      let key = Lazy.force key in
      match find t key with
      | Some v -> v = "1"
      | None ->
        let v = decide () in
        set t key (if v then "1" else "0");
        v)
