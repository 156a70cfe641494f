(* Seeded request pools and streams for the two serving workloads.

   Everything the daemon receives is a request line built here; the seed
   never leaves the benchmark.  Pools are stratified: the seed draws the
   grammars, but the number of requests per size class and per operation
   is fixed, so two seeds put the same kind of work on the daemon and the
   run-to-run spread stays small. *)

open Ucfg_cfg
module Json = Ucfg_serve.Json
module Rng = Ucfg_util.Rng

type operand = Inline of string * Grammar.t | Kind of string * int

type req = {
  op : string;
  line : string;  (** the exact bytes sent, without the newline *)
  operands : operand list;
  property : string option;  (** check only *)
  semantic : bool;  (** lint only *)
}

let build_kind kind n =
  match kind with
  | "log" -> Constructions.log_cfg n
  | "example3" -> Constructions.example3 n
  | "example4" -> Constructions.example4 n
  | "trivial" ->
    Constructions.of_language Ucfg_word.Alphabet.binary
      (Ucfg_lang.Ln.language n)
  | k -> invalid_arg ("unknown kind " ^ k)

let grammar_of = function Inline (_, g) -> g | Kind (k, n) -> build_kind k n

let operand_fields suffix = function
  | Inline (text, _) -> [ ("grammar" ^ suffix, Json.Str text) ]
  | Kind (k, n) -> [ ("kind" ^ suffix, Json.Str k); ("n" ^ suffix, Json.Int n) ]

let make ?property ?(semantic = false) op operands =
  let fields =
    [ ("op", Json.Str op) ]
    @ (match property with
        | Some p -> [ ("property", Json.Str p) ]
        | None -> [])
    @ (if semantic then [ ("semantic", Json.Bool true) ] else [])
    @ List.concat (List.mapi (fun i o ->
        operand_fields (if i = 0 then "" else "2") o) operands)
  in
  { op; line = Json.to_string (Json.Obj fields); operands; property; semantic }

(* A random fixed-length grammar costs anything from microseconds to
   seconds depending on how many words its nonterminals derive.  Draws are
   therefore kept within a band of rule counts (±12 % of [rules]) and of
   parse-tree counts (2^(trees-4) to 2^trees, a cheap upper bound on the
   language size), which makes the cost of each class nearly independent
   of the seed.  The bands are the medians of 300 draws of each class. *)
let rec banded rng ~word_len ~variants ~rules ~trees =
  let g = Random_grammar.fixed_length rng ~word_len ~variants in
  let r = Grammar.rule_count g in
  let t = Ucfg_util.Bignum.log2 (Analysis.count_trees_total g) in
  if abs (r - rules) * 100 > 12 * rules || t > trees || t < trees -. 4. then
    banded rng ~word_len ~variants ~rules ~trees
  else
    (* words longer than 20 letters can give a nonterminal more words than
       the fixpoint materialises (2^21 > its 2M cap); redraw those, so that
       no request of the pool fails on a valid seed *)
    match if word_len > 20 then Analysis.language g else Ok Ucfg_lang.Lang.empty with
    | Error _ -> banded rng ~word_len ~variants ~rules ~trees
    | Ok _ ->
      let text = Grammar_io.to_string g in
      (* keep the grammar the daemon parses out of the text, so in-process
         replays compute on exactly the same value *)
      Inline (text, Grammar_io.parse Ucfg_word.Alphabet.binary text)

let single_ops = [| "lint"; "ambiguity"; "rectangles"; "rank"; "universal" |]

let request_for op o =
  match op with
  | "universal" -> make ~property:"universal" "check" [ o ]
  | "semantic" -> make ~semantic:true "lint" [ o ]
  | op -> make op [ o ]

(* A size class of inline grammars: [count] grammars of [word_len]
   letters, each asked the [Fixed] list of single-grammar operations or
   [Rotate (k, ops)]: the next [k] operations of [ops] in turn, so that the
   class's mix of operations does not depend on the seed.  With [pairs],
   consecutive grammars of the class also get an equivalence or inclusion
   check, alternately. *)
type ops = Rotate of int * string array | Fixed of string list

type cls = {
  word_len : int;
  variants : int;
  rules : int;
  trees : float;
  count : int;
  ops : ops;
  pairs : bool;
}

(* [cls (word_len, variants, rules, trees) count ops] *)
let cls ?(pairs = true) (word_len, variants, rules, trees) count ops =
  { word_len; variants; rules; trees; count; ops; pairs }

let grammar_requests rng classes =
  List.concat_map
    (fun c ->
       let gs =
         List.init c.count (fun _ ->
             banded rng ~word_len:c.word_len ~variants:c.variants
               ~rules:c.rules ~trees:c.trees)
       in
       let singles =
         List.concat
           (List.mapi
              (fun i o ->
                 let ops =
                   match c.ops with
                   | Fixed ops -> ops
                   | Rotate (k, ops) ->
                     List.init k (fun j -> ops.(((k * i) + j) mod Array.length ops))
                 in
                 List.map (fun op -> request_for op o) ops)
              gs)
       in
       let rec pairs i = function
         | a :: (b :: _ as rest) ->
           make ~property:(if i mod 2 = 0 then "equiv" else "includes")
             "check" [ a; b ]
           :: pairs (i + 1) rest
         | _ -> []
       in
       singles @ if c.pairs then pairs 0 gs else [])
    classes

(* named constructions: cheap to compute, but a hit still rebuilds the
   operand to derive its key — trivial 6 has 3367 rules *)
let construction_requests =
  [ make "ambiguity" [ Kind ("log", 6) ];
    make "lint" [ Kind ("example3", 2) ];
    make "rectangles" [ Kind ("example4", 3) ];
    make "rank" [ Kind ("log", 5) ];
    make ~property:"universal" "check" [ Kind ("trivial", 4) ];
    make ~semantic:true "lint" [ Kind ("example4", 3) ] ]

let heavy_constructions =
  [ make ~property:"equiv" "check" [ Kind ("log", 6); Kind ("trivial", 6) ];
    make "ambiguity" [ Kind ("trivial", 6) ] ]

(* size classes: (word length, variants, median rules, median log2 parse
   trees) *)
let c8 = (8, 4, 27, 4.6)
let c10 = (10, 6, 48, 6.4)
let c12 = (12, 8, 72, 8.0)
let c12w = (12, 16, 141, 9.1)
let c12x = (12, 40, 330, 9.6)
let c14 = (14, 12, 128, 10.5)
let c14w = (14, 24, 238, 11.2)
let c14x = (14, 48, 477, 11.2)
let c16 = (16, 16, 188, 12.7)
let c16x = (16, 64, 718, 12.8)
let c20 = (20, 16, 242, 15.5)
let c24 = (24, 8, 154, 16.2)

(* --- serve-warm ------------------------------------------------------------ *)

(* Hits cost what parsing and canonicalising the operand costs, so the
   pool spans 27 to ~720 rules; words stay at most 16 letters long.  Cold
   computations on longer words (and universality checks, which
   materialise the complement of a language) can peak at tens of MB
   depending on the grammar drawn, and would make the daemon's peak RSS
   depend on the seed. *)
let warm_ops = [| "lint"; "ambiguity"; "rectangles"; "rank" |]

let warm_classes =
  List.map
    (fun c -> cls c 4 (Rotate (2, warm_ops)))
    [ c8; c10; c12; c12x; c14; c14x; c16; c16x ]

type warm = {
  pool : req array;  (** distinct requests, computed once in set-up *)
  stream : req array;  (** the timed phase, seeded draws from [pool] *)
}

let warm ~seed ~requests =
  let rng = Rng.create (seed * 7919 + 1) in
  let light = grammar_requests rng warm_classes @ construction_requests in
  let pool = Array.of_list (light @ heavy_constructions) in
  (* stratified draws: each light request 8 times per cycle, each heavy one
     once, so heavy hits stay a fixed 0.3 % of the stream, beyond its p99 *)
  let cycle =
    Array.of_list
      (List.concat_map (fun r -> List.init 8 (fun _ -> r)) light
       @ heavy_constructions)
  in
  let stream =
    Array.init requests (fun i ->
        if i mod Array.length cycle = 0 then Rng.shuffle rng cycle;
        cycle.(i mod Array.length cycle))
  in
  { pool; stream }

(* --- serve-mixed ----------------------------------------------------------- *)

(* Per 10 s of run.  The length-24 rank misses (a 4096 x 4096 matrix
   ranked over GF(2) and mod p, ~0.6 s each with little spread between
   grammars) are 1.4 % of the stream: more than 1 %, so p99 falls among
   them rather than on the edge between them and the next class. *)
let mixed_classes scale =
  let n k = max 1 (k * scale / 10) in
  [ cls c8 (n 10) (Fixed [ "lint"; "ambiguity"; "universal" ]);
    cls c12w (n 10) (Fixed [ "lint"; "rectangles"; "rank" ]);
    cls c14w (n 8) (Fixed [ "ambiguity"; "semantic"; "rank" ]);
    cls c16 (n 10) (Fixed [ "rectangles"; "rank"; "semantic" ]);
    cls c20 (n 10) (Fixed [ "rank"; "lint"; "ambiguity" ]);
    cls ~pairs:false c24 (n 12) (Fixed [ "rank"; "lint" ]) ]

let warmup_classes =
  List.map
    (fun (c, count) -> cls c count (Rotate (2, single_ops)))
    [ (c8, 16); (c12, 16); (c14, 12); (c14w, 12); (c16, 16) ]

type mixed = {
  warmup : req array;  (** set-up traffic, disjoint from the timed pool *)
  pool : req array;  (** distinct requests of the timed stream *)
  sequence : req array;  (** the timed phase: misses, then repeats *)
}

let mixed ~seed ~seconds =
  (* the set-up traffic is the same for every seed, so that set-up time
     moves with the program and the host only *)
  let warmup = Array.of_list (grammar_requests (Rng.create 0) warmup_classes) in
  let rng = Rng.create (seed * 7919 + 2) in
  let pool = Array.of_list (grammar_requests rng (mixed_classes seconds)) in
  (* each request is repeated 4 times; the first sight misses, later ones
     hit memory or, once the LRU has evicted the entry, disk *)
  let sequence = Array.concat (List.init 4 (fun _ -> Array.copy pool)) in
  Rng.shuffle rng sequence;
  { warmup; pool; sequence }

(* the LRU holds a quarter of the distinct pool *)
let mixed_mem_capacity m = max 4 (Array.length m.pool / 4)
