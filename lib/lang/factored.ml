(* Tier T2: hash-consed level decision DAGs.

   A node at height [h] denotes a language of words of length [h] over
   {a, b}: [Branch { lo; hi }] reads one character ('a' goes to [lo], 'b'
   to [hi]), the sinks [Accept]/[Reject] denote {ε}/∅.  The diagram is
   quasi-reduced — every path from a root of height [h] has exactly [h]
   edges, no level skipping — so a node's height is determined by its
   children and the pair [(id lo, id hi)] identifies it completely.  One
   global mutex-guarded hash-cons table makes structurally equal nodes
   physically equal across the whole process: equality is id comparison,
   applies memoise on id pairs, and the empty/full language of each height
   is a unique node (the [nonempty]/[full] flags below are therefore exact,
   not heuristic).

   Table layout.  Every table of the tier is keyed by one immediate int:
   the unique table and the [apply] memos by a pair of ids packed as
   [id1 lsl 31 lor id2], the single-node memos ([complement], [concat],
   [cardinal]) and the visited sets of the walks by the id itself.  Ids
   come from one counter starting at 2 ([0]/[1] are the sinks) and must
   stay below 2^31, so a packed pair fits a 63-bit int without overlap;
   [mk] raises [Failure] rather than hand out an id outside that range, so
   two pairs can never collide.  The tables ([Itbl], [Iset]) are open
   addressing with linear probing over power-of-two arrays of int keys
   ([-1] marks a free slot), an integer-mixing hash, and doubling at half
   load: no probe allocates or hashes polymorphically, and a per-call
   table starts small and grows with the DAG it walks, never with the
   process-wide id counter (a daemon's counter only grows).

   Model counts.  A node of height [h < 62] has at most 2^h ≤ 2^61 words,
   which fits a native int; [cardinal] sums native ints below height 62
   and switches to [Bignum] only at the nodes of height ≥ 62, so it stays
   exact at every height and allocates nothing per node below the switch.

   Jobs-invariance: numeric ids depend on construction order, but two
   structurally equal languages always resolve to the same node whatever
   the interleaving (keys are built bottom-up from already-unified
   children), and no operation's *result* depends on id values — only memo
   layouts do. *)

module Bignum = Ucfg_util.Bignum
module Guard = Ucfg_exec.Guard

type node =
  | Accept
  | Reject
  | Branch of {
      id : int;
      height : int;
      nonempty : bool;
      full : bool;
      lo : node;  (* residual after 'a' *)
      hi : node;  (* residual after 'b' *)
    }

let node_id = function Accept -> 1 | Reject -> 0 | Branch b -> b.id

let height = function Accept | Reject -> 0 | Branch b -> b.height
let nonempty = function Accept -> true | Reject -> false | Branch b -> b.nonempty
let node_nonempty = nonempty
let node_full = function Accept -> true | Reject -> false | Branch b -> b.full

let view = function
  | Accept -> `Accept
  | Reject -> `Reject
  | Branch b -> `Branch (b.lo, b.hi)

(* --- int-keyed tables --------------------------------------------------- *)

(* ids are < 2^31, so [pack] is injective on them *)
let id_bits = 31
let max_id = (1 lsl id_bits) - 1
let[@inline] pack i j = (i lsl id_bits) lor j

(* fold the high half down, multiply by an odd constant, fold again *)
let[@inline] mix k =
  let h = (k lxor (k lsr 32)) * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

(* the slot holding [k], or the free slot where it belongs; the tables
   below keep at least half of their slots free, so this terminates *)
let rec probe keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' < 0 then i else probe keys mask k ((i + 1) land mask)

let[@inline] slot keys k =
  let mask = Array.length keys - 1 in
  probe keys mask k (mix k land mask)

let initial_slots = 64

(* a set of non-negative ints *)
module Iset = struct
  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = Array.make initial_slots (-1); size = 0 }

  let grow t =
    let keys = Array.make (2 * Array.length t.keys) (-1) in
    Array.iter (fun k -> if k >= 0 then keys.(slot keys k) <- k) t.keys;
    t.keys <- keys

  (* [add t k] inserts [k]; [false] when it was already present *)
  let add t k =
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let i = slot t.keys k in
    if Array.unsafe_get t.keys i = k then false
    else begin
      Array.unsafe_set t.keys i k;
      t.size <- t.size + 1;
      true
    end
end

(* a map from non-negative ints; [find] returns [absent] on a miss, which
   callers compare physically, so no lookup allocates an option *)
module Itbl = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable size : int;
    absent : 'a;
  }

  let create absent =
    { keys = Array.make initial_slots (-1);
      vals = Array.make initial_slots absent; size = 0; absent }

  let find t k =
    let i = slot t.keys k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else t.absent

  let grow t =
    let n = 2 * Array.length t.keys in
    let keys = Array.make n (-1) and vals = Array.make n t.absent in
    Array.iteri
      (fun i k ->
         if k >= 0 then begin
           let j = slot keys k in
           keys.(j) <- k;
           vals.(j) <- t.vals.(i)
         end)
      t.keys;
    t.keys <- keys;
    t.vals <- vals

  (* [add t k v] binds [k], which must be absent *)
  let add t k v =
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let i = slot t.keys k in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1
end

(* never stored in a diagram: the miss marker of the node tables *)
let absent =
  Branch
    { id = -1; height = -1; nonempty = false; full = false; lo = Reject;
      hi = Reject }

(* The global manager.  All table access happens under [lock]; [mk] never
   recurses while holding it. *)
let table : node Itbl.t = Itbl.create absent
let counter = ref 2
let lock = Mutex.create ()

let mk lo hi =
  let key = pack (node_id lo) (node_id hi) in
  Mutex.lock lock;
  let n = Itbl.find table key in
  if n != absent then begin
    Mutex.unlock lock;
    n
  end
  else begin
    let id = !counter in
    if id > max_id then begin
      Mutex.unlock lock;
      failwith "Factored: node id space exhausted (2^31 nodes)"
    end;
    counter := id + 1;
    let n =
      Branch
        {
          id;
          height = height lo + 1;
          nonempty = nonempty lo || nonempty hi;
          full = node_full lo && node_full hi;
          lo;
          hi;
        }
    in
    Itbl.add table key n;
    Mutex.unlock lock;
    n
  end

(* The empty and the full node of every height up to the longest asked
   for, as two arrays indexed by height.  [apply]'s shortcuts ask for them
   at every level, and rebuilding a chain costs [h] trips through [mk].
   Readers take the arrays without a lock; a writer extends a copy and
   publishes it by compare-and-set, and every copy holds the same
   hash-consed nodes, so a lost race only repeats work. *)
let chains = Atomic.make ([| Reject |], [| Accept |])

let rec chains_to h =
  let ((rs, acs) as c) = Atomic.get chains in
  let n = Array.length rs in
  if h < n then c
  else begin
    let rs' = Array.make (h + 1) Reject in
    let acs' = Array.make (h + 1) Accept in
    Array.blit rs 0 rs' 0 n;
    Array.blit acs 0 acs' 0 n;
    for i = n to h do
      rs'.(i) <- mk rs'.(i - 1) rs'.(i - 1);
      acs'.(i) <- mk acs'.(i - 1) acs'.(i - 1)
    done;
    ignore (Atomic.compare_and_set chains c (rs', acs'));
    chains_to h
  end

let rejects h = (fst (chains_to h)).(h)
let accepts h = (snd (chains_to h)).(h)

let accept = Accept
let reject = Reject
let reject_all = rejects

let branch lo hi =
  if height lo <> height hi then
    invalid_arg "Factored.branch: children of unequal heights";
  mk lo hi

type t = { len : int; root : node }

let of_root len root =
  if height root <> len then
    invalid_arg
      (Printf.sprintf "Factored.of_root: root height %d at length %d"
         (height root) len);
  { len; root }

let root t = t.root
let length t = t.len
let is_empty t = not (nonempty t.root)
let is_full t = node_full t.root

let check_len op len =
  if len < 0 then invalid_arg (Printf.sprintf "Factored.%s: negative length" op)

let empty len =
  check_len "empty" len;
  { len; root = rejects len }

let full len =
  check_len "full" len;
  { len; root = accepts len }

let check_same_len op t1 t2 =
  if t1.len <> t2.len then
    invalid_arg
      (Printf.sprintf "Factored.%s: length mismatch (%d vs %d)" op t1.len t2.len)

(* Generic sorted-range builder: [get w] gives word [w]'s character at a
   position; the words (by index in [0, n)) are sorted lexicographically,
   so at each height the range splits at a single binary-searched point.
   Hash-consing dedups shared suffix structure as the build proceeds. *)
let build_sorted ~n ~char_at ~len =
  let rec go h lo hi =
    if lo >= hi then rejects h
    else if h = 0 then Accept
    else begin
      let pos = len - h in
      (* first index in [lo, hi) whose character at [pos] is 'b' *)
      let a = ref lo and b = ref hi in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if char_at mid pos = 'b' then b := mid else a := mid + 1
      done;
      mk (go (h - 1) lo !a) (go (h - 1) !a hi)
    end
  in
  { len; root = go len 0 n }

let singleton_word w =
  let len = String.length w in
  String.iter
    (fun c ->
       if c <> 'a' && c <> 'b' then
         invalid_arg "Factored.singleton_word: non-binary character")
    w;
  build_sorted ~n:1 ~char_at:(fun _ pos -> w.[pos]) ~len

let of_word_list len ws =
  check_len "of_word_list" len;
  List.iter
    (fun w ->
       if String.length w <> len then
         invalid_arg "Factored.of_word_list: word of the wrong length";
       String.iter
         (fun c ->
            if c <> 'a' && c <> 'b' then
              invalid_arg "Factored.of_word_list: non-binary character")
         w)
    ws;
  let arr = Array.of_list (List.sort_uniq compare ws) in
  build_sorted ~n:(Array.length arr) ~char_at:(fun i pos -> arr.(i).[pos]) ~len

let of_packed p =
  let len = Packed.length p in
  let codes = Array.of_seq (Packed.codes p) in
  build_sorted ~n:(Array.length codes)
    ~char_at:(fun i pos ->
        if (codes.(i) lsr (len - 1 - pos)) land 1 = 1 then 'b' else 'a')
    ~len

let of_wide w =
  let len = Wide.length w in
  (* materialising the word list is fine: a Wide value is an explicit code
     array already, so this is a constant-factor copy *)
  of_word_list len (List.of_seq (Wide.words w))

let mem t w =
  String.length w = t.len
  && String.for_all (fun c -> c = 'a' || c = 'b') w
  &&
  let rec go n i =
    match n with
    | Accept -> true
    | Reject -> false
    | Branch b -> go (if w.[i] = 'a' then b.lo else b.hi) (i + 1)
  in
  go t.root 0

let ambient_guard = function
  | Some g -> g
  | None -> Ucfg_exec.Exec.current_guard ()

(* Memoised apply.  Shortcut rules use the exactness of [nonempty]/[full]:
   the empty and full nodes of each height are unique, so returning the
   other operand (or a sink chain) is returning *the* canonical result. *)
type op = Union | Inter | Diff

let apply ?guard op t1 t2 =
  check_same_len
    (match op with Union -> "union" | Inter -> "inter" | Diff -> "diff")
    t1 t2;
  let g = ambient_guard guard in
  let memo = Itbl.create absent in
  let rec go n1 n2 =
    let h = height n1 in
    match op with
    | Union when node_id n1 = node_id n2 -> n1
    | Union when not (nonempty n1) -> n2
    | Union when not (nonempty n2) -> n1
    | Union when node_full n1 || node_full n2 -> accepts h
    | Inter when node_id n1 = node_id n2 -> n1
    | Inter when (not (nonempty n1)) || not (nonempty n2) -> rejects h
    | Inter when node_full n1 -> n2
    | Inter when node_full n2 -> n1
    | Diff when (not (nonempty n1)) || node_id n1 = node_id n2 -> rejects h
    | Diff when not (nonempty n2) -> n1
    | _ ->
      let key = pack (node_id n1) (node_id n2) in
      let n = Itbl.find memo key in
      if n != absent then n
      else begin
        Guard.tick g;
        let n =
          match n1, n2 with
          | (Accept | Reject), (Accept | Reject) ->
            let x = nonempty n1 and y = nonempty n2 in
            let z =
              match op with
              | Union -> x || y
              | Inter -> x && y
              | Diff -> x && not y
            in
            if z then Accept else Reject
          | Branch b1, Branch b2 -> mk (go b1.lo b2.lo) (go b1.hi b2.hi)
          | _ -> assert false (* equal heights *)
        in
        Itbl.add memo key n;
        n
      end
  in
  { len = t1.len; root = go t1.root t2.root }

let union ?guard t1 t2 = apply ?guard Union t1 t2
let inter ?guard t1 t2 = apply ?guard Inter t1 t2
let diff ?guard t1 t2 = apply ?guard Diff t1 t2

(* the diagram [root] with its sinks replaced: [accept] for [Accept],
   [reject] for [Reject] (two nodes of one height), memoised per node *)
let substitute g ~accept ~reject root =
  let memo = Itbl.create absent in
  let rec go n =
    match n with
    | Accept -> accept
    | Reject -> reject
    | Branch b ->
      let m = Itbl.find memo b.id in
      if m != absent then m
      else begin
        Guard.tick g;
        let m = mk (go b.lo) (go b.hi) in
        Itbl.add memo b.id m;
        m
      end
  in
  go root

let complement ?guard t =
  let g = ambient_guard guard in
  { len = t.len; root = substitute g ~accept:Reject ~reject:Accept t.root }

let concat ?guard t1 t2 =
  let g = ambient_guard guard in
  let reject = rejects t2.len in
  { len = t1.len + t2.len;
    root = substitute g ~accept:t2.root ~reject t1.root }

let equal t1 t2 = t1.len = t2.len && node_id t1.root = node_id t2.root

let subset ?guard t1 t2 =
  check_same_len "subset" t1 t2;
  is_empty (diff ?guard t1 t2)

let disjoint ?guard t1 t2 =
  check_same_len "disjoint" t1 t2;
  is_empty (inter ?guard t1 t2)

(* below this height a count is at most 2^61 and fits a native int *)
let big_height = 62

(* the memoised native path sum, for nodes of height < [big_height] *)
let native_count g =
  let memo = Itbl.create (-1) in
  let rec go n =
    match n with
    | Accept -> 1
    | Reject -> 0
    | Branch b ->
      let c = Itbl.find memo b.id in
      if c >= 0 then c
      else begin
        Guard.tick g;
        let c =
          if b.full then 1 lsl b.height
          else if not b.nonempty then 0
          else go b.lo + go b.hi
        in
        Itbl.add memo b.id c;
        c
      end
  in
  go

let cardinal ?guard t =
  let g = ambient_guard guard in
  let native = native_count g in
  if t.len < big_height then Bignum.of_int (native t.root)
  else begin
    (* [Bignum.minus_one] is never a count: the physical miss marker *)
    let memo = Itbl.create Bignum.minus_one in
    let rec go n =
      match n with
      | Branch b when b.height >= big_height ->
        let c = Itbl.find memo b.id in
        if c != Bignum.minus_one then c
        else begin
          Guard.tick g;
          let c =
            if b.full then Bignum.two_pow b.height
            else if not b.nonempty then Bignum.zero
            else Bignum.add (go b.lo) (go b.hi)
          in
          Itbl.add memo b.id c;
          c
        end
      | n -> Bignum.of_int (native n)
    in
    go t.root
  end

let cardinal_int ?guard t =
  if t.len < big_height then
    Some (native_count (ambient_guard guard) t.root)
  else Bignum.to_int (cardinal ?guard t)

let node_count ?guard t =
  let g = ambient_guard guard in
  let seen = Iset.create () in
  let rec go n =
    match n with
    | Accept | Reject -> ()
    | Branch b ->
      if Iset.add seen b.id then begin
        Guard.tick g;
        go b.lo;
        go b.hi
      end
  in
  go t.root;
  seen.size

let min_word t =
  if is_empty t then None
  else begin
    let buf = Buffer.create t.len in
    let rec go n =
      match n with
      | Accept -> ()
      | Reject -> assert false
      | Branch b ->
        if nonempty b.lo then begin
          Buffer.add_char buf 'a';
          go b.lo
        end
        else begin
          Buffer.add_char buf 'b';
          go b.hi
        end
    in
    go t.root;
    Some (Buffer.contents buf)
  end

let min_absent_word t =
  if is_full t then None
  else begin
    let buf = Buffer.create t.len in
    let rec go n h =
      match n with
      | Reject -> for _ = 1 to h do Buffer.add_char buf 'a' done
      | Accept -> assert false
      | Branch b ->
        if not (node_full b.lo) then begin
          Buffer.add_char buf 'a';
          go b.lo (h - 1)
        end
        else begin
          Buffer.add_char buf 'b';
          go b.hi (h - 1)
        end
    in
    go t.root t.len;
    Some (Buffer.contents buf)
  end

let words t =
  (* lexicographic DFS: 'a' (lo) before 'b' (hi) *)
  let rec seq prefix n () =
    match n with
    | Reject -> Seq.Nil
    | Accept -> Seq.Cons (prefix, Seq.empty)
    | Branch b when not b.nonempty -> Seq.Nil (* prune dead subtrees *)
    | Branch b ->
      Seq.append (seq (prefix ^ "a") b.lo) (seq (prefix ^ "b") b.hi) ()
  in
  if is_empty t then Seq.empty else seq "" t.root

let iter_words f t = Seq.iter f (words t)

let filter p t =
  of_word_list t.len
    (Seq.fold_left (fun acc w -> if p w then w :: acc else acc) [] (words t))

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat ", " (List.of_seq (words t)))
