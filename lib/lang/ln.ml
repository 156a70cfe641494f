open Ucfg_word
module Bignum = Ucfg_util.Bignum

let mem n w =
  String.length w = 2 * n
  && String.for_all (fun c -> c = 'a' || c = 'b') w
  && begin
    let rec go k = k < n && ((w.[k] = 'a' && w.[k + n] = 'a') || go (k + 1)) in
    go 0
  end

let mem_code n code =
  let x = code land ((1 lsl n) - 1) in
  let y = (code lsr n) land ((1 lsl n) - 1) in
  x land y <> 0

let codes n =
  if 2 * n > 60 then invalid_arg "Ln.codes: n too large";
  let total = 1 lsl (2 * n) in
  Seq.filter (mem_code n) (Seq.init total Fun.id)

(* Symbolic chain for one slice [L_n^k] — positions [k] and [k + n] fixed
   to 'a', every other position free — built bottom-up with the raw
   factored-node constructors: ~4n hash-consed nodes, no enumeration. *)
let slice_factored n k =
  if k < 0 || k > n - 1 then invalid_arg "Ln.slice_factored: bad k";
  let len = 2 * n in
  let acc = ref Factored.accept in
  for pos = len - 1 downto 0 do
    let h = len - 1 - pos in
    (* !acc has height h *)
    if pos = k || pos = k + n then
      acc := Factored.branch !acc (Factored.reject_all h)
    else acc := Factored.branch !acc !acc
  done;
  Factored.of_root len !acc

(* [L_n = ∪_k L_n^k] on the factorised tier: n memoised unions over the
   ~4n-node slice chains.  The result is the canonical level decision DAG
   of [L_n] — Θ(2^n) nodes (the residual after the first half is the set
   of 'a'-positions read, and all 2^n of them are distinct), exponentially
   smaller than the 4^n − 3^n words it denotes, and cardinals stay exact
   Bignum model counts.  This is what carries the E-series to n >= 16. *)
let language_factored ?guard n =
  if n <= 0 then invalid_arg "Ln.language_factored: n must be positive";
  let rec go k acc =
    if k >= n then acc
    else go (k + 1) (Factored.union ?guard acc (slice_factored n k))
  in
  Lang.of_factored (go 1 (slice_factored n 0))

(* Direct enumeration into the packed backend — cheap up to n ~ 10. *)
let language_enumerated n =
  (* Straight into the packed backend: [codes] sets bit [i] for an 'a' at
     position [i], while the packed key sets bit [len - 1 - i] for a 'b'
     there, so the key is the bit-reversed complement of the code.  A
     direct scan of the code space (no intermediate [Seq]) keeps the
     construction cheap enough to rebuild per benchmark row. *)
  let len = 2 * n in
  let total = 1 lsl len in
  let key_of_code code =
    let key = ref 0 in
    for i = 0 to len - 1 do
      if (code lsr i) land 1 = 0 then key := !key lor (1 lsl (len - 1 - i))
    done;
    !key
  in
  let pow3 =
    let r = ref 1 in
    for _ = 1 to n do
      r := 3 * !r
    done;
    !r
  in
  let keys = Array.make (max (total - pow3) 1) 0 in
  let k = ref 0 in
  for code = 0 to total - 1 do
    if mem_code n code then begin
      keys.(!k) <- key_of_code code;
      incr k
    end
  done;
  Lang.of_packed (Packed.of_codes ~len (Array.sub keys 0 !k))

(* The enumeration scans all 4^n codes, so it stops paying around n ~ 10;
   beyond that the factorised construction takes over.  Both materialise
   the same language (QCheck-pinned on the overlap). *)
let enumeration_cap = 10

let language n =
  if n <= enumeration_cap && 2 * n <= 60 then language_enumerated n
  else language_factored n

let cardinal n =
  Bignum.sub (Bignum.pow (Bignum.of_int 4) n) (Bignum.pow (Bignum.of_int 3) n)

let slice_mem n k w =
  if k < 0 || k > n - 1 then invalid_arg "Ln.slice_mem: bad k";
  String.length w = 2 * n
  && String.for_all (fun c -> c = 'a' || c = 'b') w
  && w.[k] = 'a'
  && w.[k + n] = 'a'

let slice n k =
  if 2 * n <= Packed.max_length then
    Lang.filter (fun w -> slice_mem n k w) (Lang.full Alphabet.binary (2 * n))
  else Lang.of_factored (slice_factored n k)

let star_mem n w =
  if n mod 2 <> 0 then invalid_arg "Ln.star_mem: n must be even";
  let h = n / 2 in
  String.length w = 2 * n
  && String.for_all (fun c -> c = 'a' || c = 'b') w
  && begin
    let ok = ref true in
    for i = 0 to h - 1 do
      if w.[i] <> 'a' || w.[(2 * n) - 1 - i] <> 'a' then ok := false
    done;
    !ok
  end

let star n =
  if n mod 2 <> 0 then invalid_arg "Ln.star_mem: n must be even";
  if 2 * n <= Packed.max_length then
    Lang.filter (fun w -> star_mem n w) (Lang.full Alphabet.binary (2 * n))
  else begin
    (* symbolic chain: the first and last n/2 positions fixed to 'a' *)
    let len = 2 * n in
    let h2 = n / 2 in
    let acc = ref Factored.accept in
    for pos = len - 1 downto 0 do
      let h = len - 1 - pos in
      if pos < h2 || pos >= len - h2 then
        acc := Factored.branch !acc (Factored.reject_all h)
      else acc := Factored.branch !acc !acc
    done;
    Lang.of_factored (Factored.of_root len !acc)
  end
