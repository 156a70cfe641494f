module type S = sig
  type t

  val zero : t
  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val pp : Format.formatter -> t -> unit
end

module Boolean = struct
  type t = bool

  let zero = false
  let one = true
  let plus = ( || )
  let times = ( && )
  let equal = Bool.equal
  let is_zero b = not b
  let pp fmt b = Format.pp_print_bool fmt b
end

module Counting = struct
  module B = Ucfg_util.Bignum

  type t = B.t

  let zero = B.zero
  let one = B.one
  let plus = B.add
  let times = B.mul
  let equal = B.equal
  let is_zero = B.is_zero
  let pp = B.pp
end

module Checked_int = struct
  type t = int

  exception Overflow

  let zero = 0
  let one = 1

  (* operands are non-negative counts, so a negative sum is a wrap *)
  let plus a b =
    let s = a + b in
    if s < 0 then raise_notrace Overflow else s

  let times a b =
    if a = 0 || b = 0 then 0
    else if a > max_int / b then raise_notrace Overflow
    else a * b

  let equal = Int.equal
  let is_zero v = v = 0
  let pp = Format.pp_print_int
end

module Tropical = struct
  type t = int option

  let zero = None
  let one = Some 0

  let plus a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let times a b =
    match (a, b) with None, _ | _, None -> None | Some a, Some b -> Some (a + b)

  let equal = ( = )
  let is_zero = Option.is_none

  let pp fmt = function
    | None -> Format.pp_print_string fmt "∞"
    | Some v -> Format.pp_print_int fmt v
end

module Inside = struct
  type t = float

  let zero = 0.
  let one = 1.
  let plus = ( +. )
  let times = ( *. )
  let equal a b = Float.abs (a -. b) < 1e-12
  let is_zero v = v = 0.
  let pp fmt v = Format.fprintf fmt "%g" v
end

module Polynomial = struct
  module B = Ucfg_util.Bignum

  (* little-endian coefficient arrays without trailing-zero guarantees;
     equality normalises *)
  type t = B.t array

  let zero = [||]
  let one = [| B.one |]
  let x = [| B.zero; B.one |]

  let coeff p k = if k < 0 || k >= Array.length p then B.zero else p.(k)

  let plus a b =
    Array.init
      (max (Array.length a) (Array.length b))
      (fun k -> B.add (coeff a k) (coeff b k))

  let times a b =
    if Array.length a = 0 || Array.length b = 0 then [||]
    else
      Array.init
        (Array.length a + Array.length b - 1)
        (fun k ->
           let acc = ref B.zero in
           for i = 0 to k do
             acc := B.add !acc (B.mul (coeff a i) (coeff b (k - i)))
           done;
           !acc)

  let degree p =
    let rec go i = if i >= 0 && B.is_zero p.(i) then go (i - 1) else i in
    go (Array.length p - 1)

  let is_zero p = degree p < 0

  let equal a b =
    let da = degree a and db = degree b in
    da = db
    && List.for_all (fun k -> B.equal (coeff a k) (coeff b k))
         (Ucfg_util.Prelude.range_incl 0 (max da 0))

  let pp fmt p =
    let d = degree p in
    if d < 0 then Format.pp_print_string fmt "0"
    else
      Format.pp_print_string fmt
        (String.concat " + "
           (List.filter_map
              (fun k ->
                 if B.is_zero (coeff p k) then None
                 else Some (Printf.sprintf "%s·x^%d" (B.to_string (coeff p k)) k))
              (Ucfg_util.Prelude.range_incl 0 d)))
end

module Provenance = struct
  (* a value is a multiset of derivations; a derivation is a sorted
     multiset of rule tags *)
  type t = int list list

  let zero = []
  let one = [ [] ]

  let normalize d = List.sort compare d
  let plus a b = List.sort compare (a @ b)

  let times a b =
    List.concat_map
      (fun da -> List.map (fun db -> normalize (da @ db)) b)
      a
    |> List.sort compare

  let equal a b = List.sort compare a = List.sort compare b
  let is_zero = function [] -> true | _ :: _ -> false

  let pp fmt t =
    Format.fprintf fmt "{%s}"
      (String.concat "; "
         (List.map
            (fun d -> String.concat "," (List.map string_of_int d))
            t))

  let of_tag t = [ [ t ] ]
end
