(* The verbs the CLI and the daemon share.  See the mli. *)

open Ucfg_cfg
module Lang = Ucfg_lang.Lang
module Diag = Ucfg_lint.Diag
module SL = Ucfg_lint.Semantic_lint
module Guard = Ucfg_exec.Guard
module Bignum = Ucfg_util.Bignum

let badf fmt = Printf.ksprintf invalid_arg fmt

(* --- the exit-code table --------------------------------------------------- *)

let diagnose = function
  | Guard.Interrupt reason -> (Diag.interrupted reason, 124)
  (* the library marks unsupported-input preconditions with
     [invalid_arg]/[failwith] ("cyclic grammar", "grammar not in CNF", …):
     input-dependent, hence a client error *)
  | Invalid_argument msg | Failure msg -> (Diag.invalid_input msg, 2)
  (* anything else — I/O failures, Not_found, assertion failures deep in an
     analysis pass — is a fault of the program, not of its input *)
  | exn -> (Diag.internal (Printexc.to_string exn), 70)

(* the semantic tier renders a guard trip as an R001–R003 diagnostic (a
   partial verdict) instead of raising *)
let tripped diags =
  List.find_map
    (fun (d : Diag.t) ->
       match d.Diag.code with
       | "R001" -> Some Guard.Timeout
       | "R002" -> Some Guard.Budget
       | "R003" -> Some Guard.Cancel
       | _ -> None)
    diags

let exit_code diags =
  if tripped diags <> None then 124
  else if Diag.has_errors diags then 1
  else 0

(* --- result payloads -------------------------------------------------------- *)

let diags_json diags = Json.Raw (Diag.list_to_json diags)

let big_opt = function
  | Some b -> Json.Str (Bignum.to_string b)
  | None -> Json.Null

let lint_diags ~guard ~semantic g =
  let static = Ucfg_lint.Grammar_lint.run g in
  if semantic then Diag.sort (static @ SL.lint ~guard g) else static

let lint ~guard ~semantic g =
  let diags = lint_diags ~guard ~semantic g in
  (* a partial verdict must never be cached: the daemon turns it back into
     an uncached 124 error response *)
  Option.iter (fun reason -> raise (Guard.Interrupt reason)) (tripped diags);
  let errors, warnings, infos = Diag.count_severity diags in
  Json.Obj
    [ ("diagnostics", diags_json diags);
      ("errors", Json.Int errors);
      ("warnings", Json.Int warnings);
      ("infos", Json.Int infos) ]

let ambiguity ~guard g =
  let v = Ambiguity.check ~guard g in
  let via, witness =
    match v.Ambiguity.via with
    | Ambiguity.Certificate -> ("certificate", Json.Null)
    | Ambiguity.Static_witness w -> ("static-witness", Json.Str w)
    | Ambiguity.Counting -> ("counting", Json.Null)
  in
  Json.Obj
    [ ("unambiguous", Json.Bool v.Ambiguity.unambiguous);
      ("total_trees", big_opt v.Ambiguity.total_trees);
      ("word_count",
       match v.Ambiguity.word_count with
       | Some c -> Json.Int c
       | None -> Json.Null);
      ("via", Json.Str via);
      ("witness", witness) ]

let check_report ?guard ~cross_check ~property g1 g2 =
  let need_g2 () =
    match g2 with
    | Some g -> g
    | None -> badf "property %S needs a second grammar" property
  in
  match property with
  | "universal" -> SL.universal ?guard ~cross_check g1
  | "includes" -> SL.includes ?guard ~cross_check g1 (need_g2 ())
  | "equiv" -> SL.equiv ?guard ~cross_check g1 (need_g2 ())
  | "disjoint" -> SL.disjoint ?guard ~cross_check g1 (need_g2 ())
  | p ->
    badf "unknown property %S (expected universal, includes, equiv, \
          disjoint)" p

let backend_name (report : SL.report) =
  match report.SL.backend with
  | SL.Counting -> "count"
  | SL.Packed -> "packed"
  | SL.Mixed -> "mixed"

let check_result property (report : SL.report) =
  let status, reason =
    match report.SL.status with
    | SL.Holds -> ("holds", Json.Null)
    | SL.Fails _ -> ("fails", Json.Null)
    | SL.Interrupted r -> ("interrupted", Json.Str (Guard.reason_code r))
  in
  let witness =
    match report.SL.status with
    | SL.Fails cex ->
      Json.Obj
        [ ("word", Json.Str cex.SL.word);
          ("in_first", Json.Bool cex.SL.in_first);
          ("in_second", Json.Bool cex.SL.in_second) ]
    | _ -> Json.Null
  in
  Json.Obj
    [ ("property", Json.Str property);
      ("status", Json.Str status);
      ("reason", reason);
      ("backend", Json.Str (backend_name report));
      ("vacuous", Json.Bool report.SL.vacuous);
      ("cardinal", big_opt report.SL.cardinal);
      ("cardinal2", big_opt report.SL.cardinal2);
      ("witness", witness);
      ("diagnostics", diags_json (SL.to_diags report)) ]

let check ~guard ~cross_check ~property g1 g2 =
  let report = check_report ~guard ~cross_check ~property g1 g2 in
  (match report.SL.status with
   | SL.Interrupted reason -> raise (Guard.Interrupt reason)
   | _ -> ());
  check_result property report

let rectangles ~guard g =
  let res = Ucfg_rect.Extract.run ~guard g in
  let v, shape_ok = Ucfg_rect.Extract.verify g res in
  Json.Obj
    [ ("word_length", Json.Int res.Ucfg_rect.Extract.word_length);
      ("cnf_size", Json.Int res.Ucfg_rect.Extract.cnf_size);
      ("annotated_size", Json.Int res.Ucfg_rect.Extract.annotated_size);
      ("rectangles", Json.Int (List.length res.Ucfg_rect.Extract.rectangles));
      ("bound", Json.Int res.Ucfg_rect.Extract.bound);
      ("is_cover", Json.Bool v.Ucfg_rect.Cover.is_cover);
      ("is_disjoint", Json.Bool v.Ucfg_rect.Cover.is_disjoint);
      ("balanced_within_bound", Json.Bool shape_ok) ]

let rank ~split g lang =
  let len =
    match Lang.uniform_length lang with
    | Some l -> l
    | None -> badf "rank needs a non-empty uniform-length language"
  in
  let split =
    match split with
    | Some s ->
      if s < 1 || s >= len then
        badf "split %d out of range for word length %d" s len;
      s
    | None -> (len + 1) / 2
  in
  let m = Ucfg_comm.Matrix.of_language (Grammar.alphabet g) lang ~split in
  let gf2 = Ucfg_comm.Rank.gf2 m in
  Json.Obj
    [ ("word_length", Json.Int len);
      ("split", Json.Int split);
      ("rows", Json.Int (Ucfg_comm.Matrix.rows m));
      ("cols", Json.Int (Ucfg_comm.Matrix.cols m));
      ("ones", Json.Int (Ucfg_comm.Matrix.ones m));
      ("gf2_rank", Json.Int gf2);
      (* Rank.disjoint_cover_lower_bound, reusing the GF(2) rank *)
      ("cover_lower_bound", Json.Int (max gf2 (Ucfg_comm.Rank.mod_p m)));
      ("language_digest", Json.Str (Lang.digest lang)) ]
