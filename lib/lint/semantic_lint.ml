open Ucfg_cfg
module D = Diag
module Lang = Ucfg_lang.Lang
module Packed = Ucfg_lang.Packed
module Word = Ucfg_word.Word
module Alphabet = Ucfg_word.Alphabet
module Bignum = Ucfg_util.Bignum
module Guard = Ucfg_exec.Guard
module Exec = Ucfg_exec.Exec

type backend = Counting | Packed | Mixed
type counterexample = { word : string; in_first : bool; in_second : bool }

type status =
  | Holds
  | Fails of counterexample
  | Interrupted of Guard.reason

type property = Universal | Includes | Equiv | Disjoint

type report = {
  property : property;
  status : status;
  backend : backend;
  vacuous : bool;
  cardinal : Bignum.t option;
  cardinal2 : Bignum.t option;
  cross_check : D.t option;
}

let checks =
  [
    { D.code = "G016"; title = "not universal (shortest missing word)";
      soundness = D.Definite };
    { D.code = "G017";
      title = "inclusion / disjointness violation (shortest witness)";
      soundness = D.Definite };
    { D.code = "G018"; title = "equivalence mismatch (shortest witness)";
      soundness = D.Definite };
    { D.code = "G019"; title = "empty language — vacuous verdict";
      soundness = D.Structural };
    { D.code = "G020"; title = "counting/packed backend disagreement";
      soundness = D.Definite };
  ]

(* --- per-length slices ---------------------------------------------------- *)

(* A language cut at one length, with the packed backend exposed when the
   slice lives there (binary, <= Packed.max_length).  All witness searches
   walk slices in ascending length and words in lexicographic order, which
   is exactly what makes every extracted counterexample shortest-then-least. *)
type slice = { len : int; lang : Lang.t; packed : Packed.t option }

let slices lang =
  match Lang.uniform_length lang with
  | Some len when Lang.tier lang <> `Set ->
    (* a tiered value (T0/T1/T2) is uniform-length by construction — it is
       its own single slice, and [Lang.filter]'s word enumeration (fatal on
       a factorised language of billions of words) never runs *)
    [ { len; lang; packed = Lang.to_packed lang } ]
  | _ ->
    List.map
      (fun len ->
         let sl = Lang.filter (fun w -> String.length w = len) lang in
         { len; lang = sl; packed = Lang.to_packed (Lang.pack sl) })
      (Lang.lengths lang)

let seq_head s = match s () with Seq.Nil -> None | Seq.Cons (x, _) -> Some x
let min_of_lang l = seq_head (Lang.to_seq l)

(* least word of [s1 \ s2] ([s2] absent means nothing on the right at this
   length, so the least word of [s1] itself separates).  The non-packed
   fallback is still tier-aware: [Lang.diff] dispatches to the T1/T2
   algebra and [Lang.to_seq] is a lazy lexicographic descent, so the head
   costs O(len) even on a circuit. *)
let diff_min s1 s2o =
  match s2o with
  | None -> min_of_lang s1.lang
  | Some s2 ->
    (match s1.packed, s2.packed with
     | Some p1, Some p2 ->
       Option.map (Packed.word_of_code ~len:s1.len)
         (Packed.first_code (Packed.diff p1 p2))
     | _ -> min_of_lang (Lang.diff s1.lang s2.lang))

(* least word of [s1 ∩ s2] *)
let inter_min s1 s2 =
  match s1.packed, s2.packed with
  | Some p1, Some p2 ->
    Option.map (Packed.word_of_code ~len:s1.len)
      (Packed.first_code (Packed.inter p1 p2))
  | _ -> min_of_lang (Lang.inter s1.lang s2.lang)

(* least word of [Σ^len \ s] — the gap scan on the packed codes when the
   alphabet is the binary one, a lazy lexicographic enumeration otherwise.
   Either way the work is O(cardinal), never O(|Σ|^len): in lexicographic
   order the first absent word sits at an index bounded by the cardinal. *)
let missing_min ~guard alpha s =
  if Alphabet.equal alpha Alphabet.binary then
    match s.packed with
    | Some p ->
      Option.map (Packed.word_of_code ~len:s.len) (Packed.first_absent_code p)
    | None ->
      (match Lang.tier s.lang with
       | `T1 | `T2 ->
         (* the multi-limb gap scan / circuit descent — never a 2^len
            sweep, which [Word.enumerate] would be beyond length 62 *)
         Lang.first_absent_word s.lang
       | _ ->
         Seq.find
           (fun w -> Guard.tick guard; not (Lang.mem w s.lang))
           (Word.enumerate alpha s.len))
  else
    Seq.find
      (fun w -> Guard.tick guard; not (Lang.mem w s.lang))
      (Word.enumerate alpha s.len)

(* --- universality --------------------------------------------------------- *)

(* Counting route, sound only under the unambiguity certificate: for an
   unambiguous grammar the total parse-tree count *is* the cardinal, so
   L = Σ^ℓ iff the lengths are uniform and the count equals |Σ|^ℓ — no word
   is enumerated.  [None] when the route cannot decide (cyclic after
   trimming, which the certificate rules out anyway). *)
let counting_universal g =
  match Trim.acyclic_trim g with
  | None -> None
  | Some (gt, order) ->
    (match (Static.length_ranges gt order).(Grammar.start gt) with
     | None -> Some `Empty
     | Some (lo, hi) ->
       let count = Analysis.count_trees_total gt in
       if lo = hi && Bignum.equal count (Word.count (Grammar.alphabet g) lo)
       then Some (`Universal count)
       else Some (`Non_universal count))

(* Packed route: materialise the trimmed grammar — useless nonterminals
   never reach the language, so their word sets are not built — then decide
   at the least populated length: a missing word there refutes, and any
   second length refutes (no Σ^ℓ mixes lengths). *)
let packed_universal ~guard g =
  let alpha = Grammar.alphabet g in
  let lang = Analysis.language_exn ~guard (Trim.trim g) in
  if Lang.is_empty lang then `Empty
  else
    let card = Lang.cardinal_big lang in
    let sls = slices lang in
    let s0 = List.hd sls in
    match missing_min ~guard alpha s0 with
    | Some w -> `Fails ({ word = w; in_first = false; in_second = true }, card)
    | None ->
      (match sls with
       | [] | [ _ ] -> `Holds card
       | _ :: s1 :: _ ->
         let w = Option.get (min_of_lang s1.lang) in
         `Fails ({ word = w; in_first = true; in_second = false }, card))

let mismatch_diag fmt = Printf.ksprintf (fun msg ->
    D.make ~code:"G020" ~severity:D.Error ~loc:D.Whole
      ~hint:"one of the two backends has a soundness bug — please report"
      ("internal soundness error: " ^ msg))
    fmt

let big_opt = function None -> "?" | Some b -> Bignum.to_string b

(* G020: the two routes must agree on verdict and cardinal whenever both
   ran.  This is the end-to-end cross-check of the counting argument
   against the materialising algebra. *)
let cross_universal counting packed =
  match counting, packed with
  | None, _ | _, None -> None
  | Some c, Some p ->
    let c_verdict, c_card =
      match c with
      | `Empty -> `F, Some Bignum.zero
      | `Universal n -> `H, Some n
      | `Non_universal n -> `F, Some n
    in
    let p_verdict, p_card =
      match p with
      | `Empty -> `F, Some Bignum.zero
      | `Holds n -> `H, Some n
      | `Fails (_, n) -> `F, Some n
    in
    if c_verdict <> p_verdict then
      Some
        (mismatch_diag
           "universality: counting backend says %s, packed backend says %s"
           (if c_verdict = `H then "universal" else "not universal")
           (if p_verdict = `H then "universal" else "not universal"))
    else if not (Option.equal Bignum.equal c_card p_card) then
      Some
        (mismatch_diag
           "universality: counting backend finds |L| = %s, packed backend %s"
           (big_opt c_card) (big_opt p_card))
    else None

let universal ?guard ?(cross_check = false) g =
  let guard =
    match guard with Some g -> g | None -> Exec.current_guard ()
  in
  let report status backend ~vacuous ?cardinal ?cardinal2 ?cross () =
    { property = Universal; status; backend; vacuous; cardinal; cardinal2;
      cross_check = cross }
  in
  try
    let counting = if Static.certificate g then counting_universal g else None in
    match counting with
    | Some (`Universal count) when not cross_check ->
      (* decided purely by counting: |L| = total trees = |Σ|^ℓ *)
      report Holds Counting ~vacuous:false ~cardinal:count ~cardinal2:count ()
    | _ ->
      (* the packed route runs when there is no certificate, when a witness
         is needed, or when the caller asked for the cross-check *)
      let packed = packed_universal ~guard g in
      let cross = cross_universal counting (Some packed) in
      let backend = if counting = None then Packed else Counting in
      (match packed with
       | `Empty ->
         report
           (Fails { word = ""; in_first = false; in_second = true })
           backend ~vacuous:true ~cardinal:Bignum.zero ?cross ()
       | `Holds card ->
         report Holds backend ~vacuous:false ~cardinal:card ~cardinal2:card
           ?cross ()
       | `Fails (cex, card) ->
         report (Fails cex) backend ~vacuous:false ~cardinal:card ?cross ())
  with Guard.Interrupt r ->
    report (Interrupted r) Packed ~vacuous:false ()

(* --- inclusion / disjointness -------------------------------------------- *)

(* Counting route for the relational checks, sound under the certificate on
   [g2]: membership of each word of L1 in L2 is an exact tree count under a
   shared compiled plan — L2 is never materialised.  The per-length word
   sweeps fan over the pool; [Exec.parallel_find_map] returns the first
   match in list order, so the witness (and hence the whole verdict) is
   jobs-invariant. *)
let counting_scan ~guard ~want g2 lang1 =
  let plan2 = Count_word.plan g2 in
  let hit w =
    Guard.tick guard;
    let inside = Bignum.sign (Count_word.trees_with plan2 w) > 0 in
    if inside = want then Some w else None
  in
  List.find_map
    (fun s -> Exec.parallel_find_map hit (List.of_seq (Lang.to_seq s.lang)))
    (slices lang1)

let packed_scan ~guard ~diff lang1 lang2 =
  let sls2 = slices lang2 in
  let find2 len = List.find_opt (fun (s : slice) -> s.len = len) sls2 in
  Exec.parallel_map
    (fun s1 ->
       Guard.check guard;
       match find2 s1.len with
       | s2o when diff -> diff_min s1 s2o
       | None -> None
       | Some s2 -> inter_min s1 s2)
    (slices lang1)
  |> List.find_map Fun.id

let cross_relational name c_witness p_witness =
  match c_witness, p_witness with
  | None, _ | _, None -> None
  | Some cw, Some pw ->
    let show = function
      | None -> "holds"
      | Some w -> Printf.sprintf "fails on %S" w
    in
    if cw = pw then None
    else
      Some
        (mismatch_diag "%s: counting backend %s, packed backend %s" name
           (show cw) (show pw))

(* [relational ~prop g1 g2]: inclusion when [prop = Includes] (witness in
   L1 \ L2), disjointness when [prop = Disjoint] (witness in L1 ∩ L2). *)
let relational ~prop ?guard ?(cross_check = false) g1 g2 =
  let guard =
    match guard with Some g -> g | None -> Exec.current_guard ()
  in
  let report status backend ~vacuous ?cardinal ?cardinal2 ?cross () =
    { property = prop; status; backend; vacuous; cardinal; cardinal2;
      cross_check = cross }
  in
  let diff = prop = Includes in
  try
    let lang1 = Analysis.language_exn ~guard (Trim.trim g1) in
    let card1 = Lang.cardinal_big lang1 in
    if Lang.is_empty lang1 then
      (* ∅ ⊆ L2 and ∅ ∩ L2 = ∅, whatever L2 is *)
      report Holds Packed ~vacuous:true ~cardinal:Bignum.zero ()
    else begin
      let use_counting = Static.certificate g2 in
      let c_witness =
        if use_counting then
          Some (counting_scan ~guard ~want:(not diff) g2 lang1)
        else None
      in
      let p_result =
        if (not use_counting) || cross_check then begin
          let lang2 = Analysis.language_exn ~guard (Trim.trim g2) in
          Some (packed_scan ~guard ~diff lang1 lang2, lang2)
        end
        else None
      in
      let cross =
        cross_relational
          (if diff then "inclusion" else "disjointness")
          c_witness (Option.map fst p_result)
      in
      let witness =
        match c_witness with Some w -> w | None -> fst (Option.get p_result)
      in
      let backend = if use_counting then Counting else Packed in
      let vacuous =
        match p_result with Some (_, l2) -> Lang.is_empty l2 | None -> false
      in
      let cardinal2 =
        Option.map (fun (_, l2) -> Lang.cardinal_big l2) p_result
      in
      match witness with
      | None ->
        report Holds backend ~vacuous ~cardinal:card1 ?cardinal2 ?cross ()
      | Some w ->
        report
          (Fails { word = w; in_first = true; in_second = not diff })
          backend ~vacuous ~cardinal:card1 ?cardinal2 ?cross ()
    end
  with Guard.Interrupt r ->
    report (Interrupted r) Packed ~vacuous:false ()

let includes ?guard ?cross_check g1 g2 =
  relational ~prop:Includes ?guard ?cross_check g1 g2

let disjoint ?guard ?cross_check g1 g2 =
  relational ~prop:Disjoint ?guard ?cross_check g1 g2

(* --- equivalence ---------------------------------------------------------- *)

let equiv ?guard ?cross_check g1 g2 =
  let r1 = relational ~prop:Includes ?guard ?cross_check g1 g2 in
  match r1.status with
  | Fails _ | Interrupted _ -> { r1 with property = Equiv }
  | Holds ->
    let r2 = relational ~prop:Includes ?guard ?cross_check g2 g1 in
    let status =
      match r2.status with
      | Fails cex ->
        (* the swapped call's witness lives in L2 \ L1 *)
        Fails { cex with in_first = false; in_second = true }
      | s -> s
    in
    {
      property = Equiv;
      status;
      backend = (if r1.backend = r2.backend then r1.backend else Mixed);
      vacuous = r1.vacuous || r2.vacuous;
      cardinal = r1.cardinal;
      cardinal2 = r2.cardinal;
      cross_check =
        (match r1.cross_check with Some d -> Some d | None -> r2.cross_check);
    }

(* --- rendering ------------------------------------------------------------ *)

let property_name = function
  | Universal -> "universality"
  | Includes -> "inclusion"
  | Equiv -> "equivalence"
  | Disjoint -> "disjointness"

let interrupt_code = function
  | Guard.Timeout -> "R001"
  | Guard.Budget -> "R002"
  | Guard.Cancel -> "R003"

let fail_diag ~severity property (cex : counterexample) =
  let make = D.make ~severity ~loc:D.Whole in
  match property with
  | Universal ->
    if cex.in_first then
      make ~code:"G016"
        ~hint:"a universal language is uniform-length; every Σ^ℓ misses \
               words of the other lengths"
        (Printf.sprintf
           "not universal: the language mixes word lengths — %S lies \
            outside Σ^ℓ of the least length" cex.word)
    else
      make ~code:"G016"
        ~hint:"the witness is the lexicographically least missing word of \
               the shortest length"
        (Printf.sprintf "not universal: %S (length %d) is not derived"
           cex.word (String.length cex.word))
  | Includes ->
    make ~code:"G017"
      ~hint:"the witness is the shortest, lexicographically least word of \
             the difference"
      (Printf.sprintf "inclusion violated: %S ∈ L(G1) ∖ L(G2)" cex.word)
  | Disjoint ->
    make ~code:"G017"
      ~hint:"disjointness is inclusion in the complement; the witness is \
             the shortest word of the intersection"
      (Printf.sprintf "not disjoint: %S ∈ L(G1) ∩ L(G2)" cex.word)
  | Equiv ->
    let side = if cex.in_first then "L(G1) ∖ L(G2)" else "L(G2) ∖ L(G1)" in
    make ~code:"G018"
      ~hint:"the witness is the shortest, lexicographically least word of \
             the symmetric difference"
      (Printf.sprintf "not equivalent: %S ∈ %s" cex.word side)

let to_diags ?(fail_severity = D.Error) r =
  let ds = ref [] in
  (match r.status with
   | Holds -> ()
   | Fails _ when r.vacuous && r.property = Universal ->
     (* an empty language is trivially non-universal; the G019 below says
        it all, a synthetic witness would only mislead *)
     ds :=
       [ D.make ~code:"G016" ~severity:fail_severity ~loc:D.Whole
           "not universal: the language is empty" ]
   | Fails cex -> ds := [ fail_diag ~severity:fail_severity r.property cex ]
   | Interrupted reason ->
     ds :=
       [ D.make ~code:(interrupt_code reason) ~severity:D.Warning ~loc:D.Whole
           ~hint:"raise --timeout/--budget for a full verdict"
           (Printf.sprintf "semantic check interrupted (%s) — %s undecided, \
                            partial verdict" (Guard.reason_code reason)
              (property_name r.property)) ]);
  if r.vacuous then
    ds :=
      D.make ~code:"G019" ~severity:D.Warning ~loc:D.Whole
        (Printf.sprintf "empty operand language — %s decided vacuously"
           (property_name r.property))
      :: !ds;
  (match r.cross_check with Some d -> ds := d :: !ds | None -> ());
  D.sort !ds

let lint ?guard ?(cross_check = true) g =
  match universal ?guard ~cross_check g with
  | r -> to_diags ~fail_severity:D.Info r
  | exception Invalid_argument _ ->
    (* language too large to materialise (or infinite): the syntactic tier
       already reports G008; the semantic tier has nothing sound to add *)
    []
