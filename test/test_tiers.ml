(* The tiered language kernel: T0 (Packed, machine-integer codes, len <= 62),
   T1 (Wide, multi-limb codes, len <= 128) and T2 (Factored, hash-consed
   decision-DAG circuits) must agree wherever their ranges overlap — same
   words, same cardinals, same algebra, same least-code witnesses — and the
   factored fixpoint must be invariant under the job count and
   interruptible by the ambient guard.  These pins are what lets Lang move a computation
   between tiers without changing any observable. *)

open Ucfg_lang
open Ucfg_cfg
open Ucfg_exec
module Bignum = Ucfg_util.Bignum

let with_global_jobs jobs f =
  let saved = Exec.jobs () in
  Exec.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

(* --- generators -------------------------------------------------------- *)

let gen_word len =
  QCheck.Gen.map
    (fun l ->
       String.init len (fun i -> if List.nth l i then 'b' else 'a'))
    QCheck.Gen.(list_repeat len bool)

(* a sorted-unique list of random binary words of one length in [lo..hi] *)
let gen_words lo hi =
  QCheck.Gen.(
    int_range lo hi >>= fun len ->
    list_size (int_bound 30) (gen_word len) >>= fun ws ->
    return (len, List.sort_uniq compare ws))

let print_words (len, ws) =
  Printf.sprintf "len=%d [%s]" len (String.concat "," ws)

let arb_overlap_t0_t1 = QCheck.make ~print:print_words (gen_words 56 62)
let arb_overlap_t1_t2 = QCheck.make ~print:print_words (gen_words 120 128)

let arb_pair lo hi =
  QCheck.make
    ~print:(fun (a, b) -> print_words a ^ " / " ^ print_words b)
    QCheck.Gen.(
      gen_words lo hi >>= fun (len, a) ->
      list_size (int_bound 30) (gen_word len) >>= fun b ->
      return ((len, a), (len, List.sort_uniq compare b)))

(* --- T0 vs T1 on the 56..62 overlap ------------------------------------ *)

let packed_of len ws =
  Packed.of_codes ~len (Array.of_list (List.map Packed.code_of_word ws))

let wide_of len ws = Wide.of_word_list len ws

let prop_t0_t1_construction =
  QCheck.Test.make ~name:"T0/T1: words, cardinal, mem, witnesses agree"
    ~count:200 arb_overlap_t0_t1 (fun (len, ws) ->
      let p = packed_of len ws and w = wide_of len ws in
      Packed.cardinal p = Wide.cardinal w
      && List.of_seq (Packed.words p) = List.of_seq (Wide.words w)
      && List.for_all (fun x -> Packed.mem p x && Wide.mem w x) ws
      && Option.map (Packed.word_of_code ~len) (Packed.first_code p)
         = Wide.min_word w
      && Option.map (Packed.word_of_code ~len) (Packed.first_absent_code p)
         = Wide.first_absent_word w)

let prop_t0_t1_algebra =
  QCheck.Test.make ~name:"T0/T1: boolean algebra and predicates agree"
    ~count:200 (arb_pair 56 62) (fun ((len, a), (_, b)) ->
      let pa = packed_of len a and pb = packed_of len b in
      let wa = wide_of len a and wb = wide_of len b in
      let same op_p op_w =
        List.of_seq (Packed.words (op_p pa pb))
        = List.of_seq (Wide.words (op_w wa wb))
      in
      same Packed.union Wide.union
      && same Packed.inter Wide.inter
      && same Packed.diff Wide.diff
      && Packed.equal pa pb = Wide.equal wa wb
      && Packed.subset pa pb = Wide.subset wa wb
      && Packed.disjoint pa pb = Wide.disjoint wa wb)

let prop_t0_t1_concat =
  QCheck.Test.make ~name:"T0/T1: concat agrees below the 62 wall" ~count:200
    (arb_pair 28 31) (fun ((len, a), (_, b)) ->
      let p = Packed.concat (packed_of len a) (packed_of len b) in
      let w = Wide.concat (wide_of len a) (wide_of len b) in
      List.of_seq (Packed.words p) = List.of_seq (Wide.words w))

(* --- T1 vs T2 on the 120..128 overlap ----------------------------------- *)

let factored_of len ws = Factored.of_word_list len ws

let prop_t1_t2_construction =
  QCheck.Test.make ~name:"T1/T2: words, cardinal, mem, witnesses agree"
    ~count:200 arb_overlap_t1_t2 (fun (len, ws) ->
      let w = wide_of len ws and f = factored_of len ws in
      Bignum.equal (Bignum.of_int (Wide.cardinal w)) (Factored.cardinal f)
      && List.of_seq (Wide.words w) = List.of_seq (Factored.words f)
      && List.for_all (fun x -> Wide.mem w x && Factored.mem f x) ws
      && Wide.min_word w = Factored.min_word f
      && Wide.first_absent_word w = Factored.min_absent_word f)

let prop_t1_t2_algebra =
  QCheck.Test.make ~name:"T1/T2: boolean algebra and predicates agree"
    ~count:200 (arb_pair 120 128) (fun ((len, a), (_, b)) ->
      let wa = wide_of len a and wb = wide_of len b in
      let fa = factored_of len a and fb = factored_of len b in
      let same op_w op_f =
        List.of_seq (Wide.words (op_w wa wb))
        = List.of_seq (Factored.words (op_f ?guard:None fa fb))
      in
      same Wide.union Factored.union
      && same Wide.inter Factored.inter
      && same Wide.diff Factored.diff
      && Wide.equal wa wb = Factored.equal fa fb
      && Wide.subset wa wb = Factored.subset fa fb
      && Wide.disjoint wa wb = Factored.disjoint fa fb)

let prop_t1_t2_concat =
  QCheck.Test.make ~name:"T1/T2: concat agrees up to the 128 wall" ~count:200
    (arb_pair 60 64) (fun ((len, a), (_, b)) ->
      let w = Wide.concat (wide_of len a) (wide_of len b) in
      let f = Factored.concat (factored_of len a) (factored_of len b) in
      List.of_seq (Wide.words w) = List.of_seq (Factored.words f))

(* complement within Σ^len is a T2-only operation above 62; its exact
   Bignum cardinal and its least-word witnesses must match what the T1 gap
   scan sees on the uncomplemented side *)
let prop_t1_t2_complement =
  QCheck.Test.make ~name:"T1/T2: complement cardinal and witnesses" ~count:100
    arb_overlap_t1_t2 (fun (len, ws) ->
      let w = wide_of len ws in
      let c = Factored.complement (Factored.of_wide w) in
      Bignum.equal (Factored.cardinal c)
        (Bignum.sub (Bignum.two_pow len)
           (Bignum.of_int (Wide.cardinal w)))
      && Factored.min_absent_word c = Wide.min_word w
      && Factored.min_word c = Wide.first_absent_word w
      && List.for_all (fun x -> not (Factored.mem c x)) ws)

(* Lang-level dispatch: the same word set packed through Lang lands on the
   tier its length demands, and cross-tier Lang.equal still answers *)
let prop_lang_dispatch =
  QCheck.Test.make ~name:"Lang: pack dispatches by length, equal crosses tiers"
    ~count:100 (QCheck.make ~print:print_words (gen_words 1 128))
    (fun (len, ws) ->
      let l = Lang.pack (Lang.of_list ws) in
      let expected_tier =
        if ws = [] then `Set
        else if len <= Packed.max_length then `T0
        else `T1
      in
      Lang.tier l = expected_tier
      && Lang.equal l (Lang.factor l)
      && Lang.elements l = ws)

(* --- dense T0 vs T2 ------------------------------------------------------ *)

(* The sparse properties above never stress sharing or table growth: here
   the operands are random subsets of Σ^len at density ½ (up to 2^15 words
   at len 16) or slices of L_n, and every T2 result is checked against
   the T0 one word for word, by its counts and witnesses, and by its node
   count against a residual count made without the DAG. *)

type operand = Dense of bool array | Slice of int | Full_ln

let packed_of_operand len = function
  | Dense bits ->
    Packed.of_codes ~len
      (Array.of_list
         (List.filter (fun c -> bits.(c)) (List.init (1 lsl len) Fun.id)))
  | Slice k -> Option.get (Lang.to_packed (Lang.pack (Ln.slice (len / 2) k)))
  | Full_ln -> Option.get (Lang.to_packed (Lang.pack (Ln.language (len / 2))))

let print_operand = function
  | Dense bits ->
    Printf.sprintf "dense(%d words)"
      (Array.fold_left (fun n b -> if b then n + 1 else n) 0 bits)
  | Slice k -> Printf.sprintf "slice %d" k
  | Full_ln -> "L_n"

let gen_operand len =
  QCheck.Gen.(
    let dense = map (fun bits -> Dense bits) (array_repeat (1 lsl len) bool) in
    if len mod 2 <> 0 || len < 6 then dense
    else
      frequency
        [ (3, dense); (1, map (fun k -> Slice k) (int_bound ((len / 2) - 1)));
          (1, return Full_ln) ])

(* two operands of lengths drawn from [lo_a, hi_a] and [lo_b, hi_b]; with
   [same] the second takes the first's length *)
let arb_dense ?(same = false) (lo_a, hi_a) (lo_b, hi_b) =
  QCheck.make
    ~print:(fun ((la, a), (lb, b)) ->
        Printf.sprintf "len %d %s / len %d %s" la (print_operand a) lb
          (print_operand b))
    QCheck.Gen.(
      int_range lo_a hi_a >>= fun la ->
      (if same then return la else int_range lo_b hi_b) >>= fun lb ->
      gen_operand la >>= fun a ->
      gen_operand lb >>= fun b -> return ((la, a), (lb, b)))

(* the nodes of a quasi-reduced diagram are its distinct residuals u⁻¹L,
   one set per prefix length 0..len-1; code order is word order, so the
   residual of prefix [u] at depth [d] is a contiguous run of the
   membership bits *)
let naive_node_count p =
  let len = Packed.length p in
  let bits = Bytes.make (1 lsl len) '0' in
  Packed.iter_codes (fun c -> Bytes.set bits c '1') p;
  let count = ref 0 in
  for d = 0 to len - 1 do
    let width = 1 lsl (len - d) in
    let seen = Hashtbl.create 64 in
    for u = 0 to (1 lsl d) - 1 do
      Hashtbl.replace seen (Bytes.sub_string bits (u * width) width) ()
    done;
    count := !count + Hashtbl.length seen
  done;
  !count

(* a T2 value against the T0 value it must denote *)
let agrees p f =
  let len = Packed.length p in
  Factored.length f = len
  && List.of_seq (Factored.words f) = List.of_seq (Packed.words p)
  && Bignum.equal (Factored.cardinal f) (Bignum.of_int (Packed.cardinal p))
  && Factored.cardinal_int f = Some (Packed.cardinal p)
  && Factored.min_word f = Packed.min_word p
  && Factored.min_absent_word f
     = Option.map (Packed.word_of_code ~len) (Packed.first_absent_code p)
  && Factored.node_count f = naive_node_count p

let prop_dense_algebra =
  QCheck.Test.make ~name:"T0/T2 dense: algebra, counts, witnesses, nodes"
    ~count:25 (arb_dense ~same:true (6, 16) (6, 16))
    (fun ((len, a), (_, b)) ->
       let pa = packed_of_operand len a and pb = packed_of_operand len b in
       let fa = Factored.of_packed pa and fb = Factored.of_packed pb in
       let pu = Packed.union pa pb and fu = Factored.union fa fb in
       let pd = Packed.diff pb pa and fd = Factored.diff fb fa in
       (* the predicates on [a, b] and on pairs where they hold *)
       let predicates (p1, f1) (p2, f2) =
         Packed.equal p1 p2 = Factored.equal f1 f2
         && Packed.subset p1 p2 = Factored.subset f1 f2
         && Packed.disjoint p1 p2 = Factored.disjoint f1 f2
       in
       agrees pa fa && agrees pb fb && agrees pu fu && agrees pd fd
       && agrees (Packed.inter pa pb) (Factored.inter fa fb)
       && agrees (Packed.diff pa pb) (Factored.diff fa fb)
       && agrees (Packed.complement_within pa) (Factored.complement fa)
       && predicates (pa, fa) (pb, fb)
       && predicates (pa, fa) (pu, fu)
       && predicates (pa, fa) (pd, fd)
       && predicates (pa, fa) (pa, Factored.of_packed pa))

(* products up to 2^16 words, from operands of lengths 6–10 and 1–6 *)
let prop_dense_concat =
  QCheck.Test.make ~name:"T0/T2 dense: concat" ~count:100
    (arb_dense (6, 10) (1, 6)) (fun ((la, a), (lb, b)) ->
      let pa = packed_of_operand la a and pb = packed_of_operand lb b in
      agrees (Packed.concat pa pb)
        (Factored.concat (Factored.of_packed pa) (Factored.of_packed pb)))

(* one language, three construction routes, one node *)
let prop_dense_canonical =
  QCheck.Test.make ~name:"T2 canonicity: of_packed = of_word_list = halves"
    ~count:25 (arb_dense ~same:true (6, 16) (6, 16)) (fun ((len, a), _) ->
      let p = packed_of_operand len a in
      let ws = List.of_seq (Packed.words p) in
      let half r = List.filteri (fun i _ -> i mod 2 = r) ws in
      let reference = Factored.of_packed p in
      List.for_all (Factored.equal reference)
        [ Factored.of_word_list len ws;
          Factored.union
            (Factored.of_word_list len (half 0))
            (Factored.of_word_list len (half 1)) ])

(* --- the int/Bignum switch of the model count -------------------------- *)

(* [cardinal] counts in native ints below height 62 and in Bignum above:
   full languages around the switch, and products of dense pieces whose
   inner nodes straddle it, each against 2^h or a product of independently
   computed counts *)
let test_cardinal_switch () =
  List.iter
    (fun h ->
       let f = Factored.full h in
       Alcotest.(check string)
         (Printf.sprintf "|Σ^%d|" h)
         (Bignum.to_string (Bignum.two_pow h))
         (Bignum.to_string (Factored.cardinal f));
       Alcotest.(check (option int))
         (Printf.sprintf "cardinal_int Σ^%d" h)
         (if h < 62 then Some (1 lsl h) else None)
         (Factored.cardinal_int f))
    [ 61; 62; 63; 64; 128 ];
  let rng = Ucfg_util.Rng.create 62 in
  let piece len =
    Packed.of_codes ~len
      (Array.of_list
         (List.filter
            (fun _ -> Ucfg_util.Rng.bool rng)
            (List.init (1 lsl len) Fun.id)))
  in
  List.iter
    (fun lens ->
       let h = List.fold_left ( + ) 0 lens in
       let pieces = List.map piece lens in
       let f =
         List.fold_left
           (fun acc p -> Factored.concat acc (Factored.of_packed p))
           (Factored.full 0) pieces
       in
       let expected =
         List.fold_left
           (fun acc p -> Bignum.mul acc (Bignum.of_int (Packed.cardinal p)))
           Bignum.one pieces
       in
       let c = Factored.complement f in
       let expected_c = Bignum.sub (Bignum.two_pow h) expected in
       Alcotest.(check string)
         (Printf.sprintf "product at height %d" h)
         (Bignum.to_string expected)
         (Bignum.to_string (Factored.cardinal f));
       Alcotest.(check (option int))
         (Printf.sprintf "cardinal_int of the product at height %d" h)
         (Bignum.to_int expected) (Factored.cardinal_int f);
       Alcotest.(check string)
         (Printf.sprintf "complement at height %d" h)
         (Bignum.to_string expected_c)
         (Bignum.to_string (Factored.cardinal c));
       Alcotest.(check (option int))
         (Printf.sprintf "cardinal_int of the complement at height %d" h)
         (Bignum.to_int expected_c) (Factored.cardinal_int c))
    [ [ 12; 12; 12; 12; 13 ]; [ 12; 12; 12; 13; 13 ]; [ 13; 13; 13; 12; 12 ];
      [ 16; 16; 16; 16 ]; [ 16; 16; 16; 16; 16; 16; 16; 16 ] ]

(* --- the manager under contention -------------------------------------- *)

(* Four pool domains build the same unions, complements and concats at
   once from the same word lists, so the first insertion of every node
   races in the unique table.  Hash-consing must still hand out one node
   per language: each domain's results are [equal] to a sequential
   rebuild.  The thunks only return values; all checks run here. *)
let test_manager_concurrent () =
  let rng = Ucfg_util.Rng.create 4242 in
  let len = 40 in
  let inputs =
    List.init 6 (fun _ ->
        List.init 300 (fun _ ->
            String.init len (fun _ ->
                if Ucfg_util.Rng.bool rng then 'b' else 'a')))
  in
  let build () =
    let fs = List.map (Factored.of_word_list len) inputs in
    let pairs = List.combine fs (List.tl fs @ [ List.hd fs ]) in
    List.map (fun (a, b) -> Factored.union a b) pairs
    @ List.map (fun (a, b) -> Factored.inter (Factored.complement a) b) pairs
    @ List.map (fun (a, b) -> Factored.concat a (Factored.complement b)) pairs
    @ [ List.fold_left Factored.union (Factored.empty len) fs ]
  in
  let per_domain =
    with_global_jobs 4 (fun () -> Exec.run_list (List.init 8 (fun _ -> build)))
  in
  let expected = build () in
  List.iteri
    (fun d results ->
       List.iteri
         (fun i (r, e) ->
            Alcotest.(check bool)
              (Printf.sprintf "thunk %d, result %d = sequential" d i)
              true (Factored.equal r e))
         (List.combine results expected))
    per_domain

(* --- the factored fixpoint ---------------------------------------------- *)

(* Ln.language is enumerated (T0) up to n = 10 and symbolic (T2) beyond;
   both constructions must denote the same language on the overlap *)
let test_ln_factored_agrees () =
  for n = 1 to 8 do
    let enum = Ln.language n in
    let fact = Ln.language_factored n in
    Alcotest.(check bool)
      (Printf.sprintf "L_%d enumerated = factored" n)
      true (Lang.equal enum fact);
    Alcotest.(check string)
      (Printf.sprintf "L_%d cardinal" n)
      (Bignum.to_string (Ln.cardinal n))
      (Bignum.to_string (Lang.cardinal_big fact))
  done

(* the whole point of the tier: the fixpoint over the Θ(log n) grammar at
   n = 16 — a language of 4^16 − 3^16 ≈ 4.25e9 words — terminates, exactly *)
let test_factored_fixpoint_n16 () =
  let g = Constructions.log_cfg 16 in
  let l = Analysis.language_exn ~factored:true g in
  Alcotest.(check bool) "tier is T2" true (Lang.tier l = `T2);
  Alcotest.(check bool) "equals the symbolic L_16" true
    (Lang.equal l (Ln.language_factored 16));
  Alcotest.(check string) "exact cardinal 4^16 - 3^16"
    (Bignum.to_string (Ln.cardinal 16))
    (Bignum.to_string (Lang.cardinal_big l))

let test_factored_fixpoint_jobs_invariant () =
  let run jobs =
    with_global_jobs jobs (fun () ->
        Analysis.language_exn ~factored:true (Constructions.log_cfg 12))
  in
  let l1 = run 1 and l4 = run 4 in
  Alcotest.(check bool) "jobs 1 = jobs 4 (hash-consed identity)" true
    (Lang.equal l1 l4);
  Alcotest.(check bool) "witnesses agree" true
    (Lang.min_word l1 = Lang.min_word l4
     && Lang.first_absent_word l1 = Lang.first_absent_word l4)

(* a small tick budget must interrupt the memoised model count mid-walk —
   every long T2 loop polls the guard *)
let test_guard_trips_in_cardinal () =
  let l = Ln.language_factored 14 in
  let f = Option.get (Lang.to_factored l) in
  match Factored.cardinal ~guard:(Guard.create ~budget:5 ()) f with
  | _ -> Alcotest.fail "expected the budget guard to interrupt the cardinal"
  | exception Guard.Interrupt Guard.Budget -> ()

(* --- the d-rep export ---------------------------------------------------- *)

let prop_drep_export =
  QCheck.Test.make ~name:"drep_of_factored: denotation, determinism, count"
    ~count:100 (QCheck.make ~print:print_words (gen_words 1 10))
    (fun (len, ws) ->
      let f = Factored.of_word_list len ws in
      let d = Ucfg_fr.Iso.drep_of_factored f in
      Lang.elements (Ucfg_fr.Drep.denotation d) = ws
      && Bignum.equal (Ucfg_fr.Drep.count_tuples d) (Factored.cardinal f)
      && Ucfg_fr.Drep.is_deterministic d)

(* --- registration -------------------------------------------------------- *)

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ucfg_tiers"
    [
      ( "t0-t1",
        qtests [ prop_t0_t1_construction; prop_t0_t1_algebra; prop_t0_t1_concat ]
      );
      ( "t1-t2",
        qtests
          [
            prop_t1_t2_construction; prop_t1_t2_algebra; prop_t1_t2_concat;
            prop_t1_t2_complement; prop_lang_dispatch;
          ] );
      ( "fixpoint",
        [
          Alcotest.test_case "Ln enumerated = factored" `Quick
            test_ln_factored_agrees;
          Alcotest.test_case "factored fixpoint reaches n=16" `Quick
            test_factored_fixpoint_n16;
          Alcotest.test_case "factored fixpoint invariant under jobs" `Quick
            test_factored_fixpoint_jobs_invariant;
          Alcotest.test_case "guard trips inside a T2 cardinal" `Quick
            test_guard_trips_in_cardinal;
        ] );
      ("drep", qtests [ prop_drep_export ]);
      ( "t0-t2",
        qtests [ prop_dense_algebra; prop_dense_concat; prop_dense_canonical ]
      );
      ( "manager",
        [
          Alcotest.test_case "cardinal across the int/Bignum switch" `Quick
            test_cardinal_switch;
          Alcotest.test_case "hash-consing under four domains" `Quick
            test_manager_concurrent;
        ] );
    ]
