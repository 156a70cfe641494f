open Ucfg_word

type sym = T of char | N of int

type rule = { lhs : int; rhs : sym list }

type t = {
  alphabet : Alphabet.t;
  names : string array;
  rules : rule list;
  by_lhs : sym list list array;
  start : int;
  id : int;  (* process-unique, for memoising derived structures *)
}

(* The duplicate-rule table hashes the whole rule: the polymorphic hash
   reads only a bounded prefix of the rhs list, so rules sharing a long
   prefix (one per word of a finite language) would share buckets. *)
module Rule_tbl = Hashtbl.Make (struct
    type t = rule

    let equal = ( = )

    let hash { lhs; rhs } =
      let code = function T c -> Char.code c | N i -> 256 + i in
      Hashtbl.hash (List.fold_left (fun h s -> (h * 65599) + code s) lhs rhs)
  end)

(* Grammars are built inside pool workers too (the minimal-grammar search),
   so the id source must be race-free. *)
let next_id = Atomic.make 0

let validate_sym alphabet nnames = function
  | T c ->
    if not (Alphabet.mem alphabet c) then
      invalid_arg (Printf.sprintf "Grammar.make: terminal %c not in alphabet" c)
  | N i ->
    if i < 0 || i >= nnames then
      invalid_arg (Printf.sprintf "Grammar.make: nonterminal %d out of range" i)

let make ~alphabet ~names ~rules ~start =
  let nnames = Array.length names in
  if start < 0 || start >= nnames then
    invalid_arg "Grammar.make: start symbol out of range";
  List.iter
    (fun { lhs; rhs } ->
       if lhs < 0 || lhs >= nnames then
         invalid_arg "Grammar.make: rule lhs out of range";
       List.iter (validate_sym alphabet nnames) rhs)
    rules;
  (* Collapse duplicate rules while preserving first-occurrence order: the
     rule *set* semantics of Definition 2. *)
  let seen = Rule_tbl.create 64 in
  let rules =
    List.filter
      (fun r ->
         if Rule_tbl.mem seen r then false
         else begin
           Rule_tbl.add seen r ();
           true
         end)
      rules
  in
  let by_lhs = Array.make nnames [] in
  List.iter (fun { lhs; rhs } -> by_lhs.(lhs) <- rhs :: by_lhs.(lhs)) rules;
  Array.iteri (fun i l -> by_lhs.(i) <- List.rev l) by_lhs;
  { alphabet; names; rules; by_lhs; start; id = Atomic.fetch_and_add next_id 1 }

let id g = g.id
let alphabet g = g.alphabet
let start g = g.start
let nonterminal_count g = Array.length g.names
let name g i = g.names.(i)
let names g = Array.copy g.names
let rules g = g.rules
let rule_count g = List.length g.rules
let rules_of g a = g.by_lhs.(a)

let size g =
  List.fold_left (fun acc { rhs; _ } -> acc + List.length rhs) 0 g.rules

let has_rule g a rhs = List.exists (fun r -> r = rhs) g.by_lhs.(a)

let is_cnf g =
  let start_on_rhs =
    List.exists
      (fun { rhs; _ } -> List.exists (function N i -> i = g.start | T _ -> false) rhs)
      g.rules
  in
  List.for_all
    (fun { lhs; rhs } ->
       match rhs with
       | [ T _ ] -> true
       | [ N _; N _ ] -> true
       | [] -> lhs = g.start && not start_on_rhs
       | _ -> false)
    g.rules

let map_nonterminals g f ~names ~start =
  let map_sym = function T c -> T c | N i -> N (f i) in
  let rules =
    List.map (fun { lhs; rhs } -> { lhs = f lhs; rhs = List.map map_sym rhs }) g.rules
  in
  make ~alphabet:g.alphabet ~names ~rules ~start

let dependency_edges g =
  (* deduplicated: repeated occurrences of B on right-hand sides of A
     contribute the edge (A, B) once, in first-occurrence order *)
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun { lhs; rhs } ->
       List.filter_map (function N i -> Some (lhs, i) | T _ -> None) rhs)
    g.rules
  |> List.filter (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.add seen e ();
        true
      end)

let pp_sym g fmt = function
  | T c -> Format.fprintf fmt "%c" c
  | N i -> Format.fprintf fmt "<%s>" g.names.(i)

let pp fmt g =
  Format.fprintf fmt "@[<v>start: <%s>@," g.names.(g.start);
  Array.iteri
    (fun a rhss ->
       List.iter
         (fun rhs ->
            Format.fprintf fmt "<%s> ->" g.names.(a);
            if rhs = [] then Format.fprintf fmt " ε"
            else List.iter (fun s -> Format.fprintf fmt " %a" (pp_sym g) s) rhs;
            Format.fprintf fmt "@,")
         rhss)
    g.by_lhs;
  Format.fprintf fmt "@]"

let to_string g = Format.asprintf "%a" pp g

module Builder = struct
  type b = {
    alphabet : Alphabet.t;
    mutable names_rev : string list;
    mutable count : int;
    by_name : (string, int) Hashtbl.t;
    mutable rules_rev : rule list;
    guard : Ucfg_exec.Guard.t;
  }

  let create ?(guard = Ucfg_exec.Guard.unlimited) alphabet =
    { alphabet; names_rev = []; count = 0; by_name = Hashtbl.create 64;
      rules_rev = []; guard }

  let fresh b name =
    let id = b.count in
    b.count <- id + 1;
    b.names_rev <- name :: b.names_rev;
    if not (Hashtbl.mem b.by_name name) then Hashtbl.add b.by_name name id;
    id

  let fresh_memo b name =
    match Hashtbl.find_opt b.by_name name with
    | Some id -> id
    | None -> fresh b name

  let add_rule b lhs rhs =
    Ucfg_exec.Guard.tick b.guard;
    b.rules_rev <- { lhs; rhs } :: b.rules_rev

  let finish b ~start =
    make ~alphabet:b.alphabet
      ~names:(Array.of_list (List.rev b.names_rev))
      ~rules:(List.rev b.rules_rev) ~start
end
