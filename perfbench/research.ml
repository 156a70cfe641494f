(* The offline research batch: the paper's computations, run one after
   another in this process with the domain pool at 2 jobs.  Every task
   checks its output against an answer known independently of the code
   path it times. *)

open Ucfg_cfg
open Ucfg_lang
module Bignum = Ucfg_util.Bignum
module Rng = Ucfg_util.Rng
module Alphabet = Ucfg_word.Alphabet

type task = { name : string; run : unit -> unit }

let big = Bignum.of_int

(* |L_n| = 4^n - 3^n, from the definition: pairs of n-bit masks whose AND
   is nonzero *)
let ln_cardinal n = Bignum.sub (Bignum.pow (big 4) n) (Bignum.pow (big 3) n)

let tier_name l =
  match Lang.tier l with `T0 -> "T0" | `T1 -> "T1" | `T2 -> "T2" | `Set -> "set"

let note_tier l = Spans.count ("lang.tier_hits." ^ tier_name l) 1.

(* --- the task families --------------------------------------------------- *)

(* Minimal-CNF searches whose verdict and node count are pinned (ground
   truth of bench E13/E32): the minimal size, or none within the caps,
   after exactly this many nodes at any job count. *)
let searches =
  [ ("L_2 k<=2 size<=8", 2, Some 2, 8, None, 9246);
    ("L_3 k<=3 size<=6", 3, None, 6, None, 86643) ]

let search ?(ln = Ln.language) (name, n, max_nonterminals, max_size, size, nodes) =
  let l = ln n in
  { name = "search " ^ name;
    run = (fun () ->
        let r =
          Spans.time "search.minimal_cnf" (fun () ->
              Ucfg_core.Search.minimal_cnf_size ?max_nonterminals ~max_size
                Alphabet.binary l)
        in
        Spans.count "search.nodes" (float_of_int r.nodes_explored);
        Spans.count "memo.hits" (float_of_int r.memo_hits);
        Spans.count "memo.misses" (float_of_int r.memo_misses);
        Util.check
          (r.minimal_size = size && r.interrupted = None
           && r.nodes_explored = nodes)
          "search %s: size %s after %d nodes, expected %s after %d" name
          (Option.fold ~none:"none" ~some:string_of_int r.minimal_size)
          r.nodes_explored
          (Option.fold ~none:"none" ~some:string_of_int size) nodes) }

(* the T2 fixpoint of the Appendix A grammar: exactly L_n *)
let fixpoint n =
  let g = Constructions.log_cfg n in
  { name = Printf.sprintf "factored fixpoint log_cfg %d" n;
    run = (fun () ->
        let l =
          Spans.time "analysis.fixpoint_factored" (fun () ->
              Analysis.language_exn ~factored:true g)
        in
        note_tier l;
        if !Spans.timing then
          Option.iter
            (fun f -> Spans.count "factored.nodes"
                (float_of_int (Factored.node_count f)))
            (Lang.to_factored l);
        Util.check
          (Lang.tier l = `T2 && Bignum.equal (Lang.cardinal_big l) (ln_cardinal n))
          "fixpoint log_cfg %d: tier %s, |L| = %s, expected T2 and 4^n-3^n" n
          (tier_name l) (Bignum.to_string (Lang.cardinal_big l))) }

(* log_cfg is ambiguous, the Sigma^2n chain is not *)
let ambiguity n =
  let cases =
    [ ("log_cfg", Constructions.log_cfg n, false);
      ("sigma_chain", Constructions.sigma_chain Alphabet.binary (2 * n), true) ]
  in
  { name = Printf.sprintf "factored ambiguity n=%d" n;
    run = (fun () ->
        List.iter
          (fun (name, g, unambiguous) ->
             let v =
               Spans.time "ambiguity.check" (fun () ->
                   Ambiguity.check ~factored:true g)
             in
             Util.check (v.Ambiguity.unambiguous = unambiguous)
               "ambiguity %s %d: unambiguous = %b" name n v.Ambiguity.unambiguous)
          cases) }

(* Lemma 19: a [1,n]-rectangle has discrepancy at most 2^(3m); the full
   family rectangle meets the bound exactly *)
let family_rectangle m =
  let blocks = Ucfg_disc.Blocks.create (4 * m) in
  (blocks, Ucfg_disc.Discrepancy.tight_example blocks)

let discrepancy ?(disc = family_rectangle) ~rng m =
  let blocks, tight = disc m in
  let partition = Ucfg_rect.Partition.make ~n:(4 * m) 1 (4 * m) in
  let rng = Rng.split rng and samples = 40 in
  let bound = 1 lsl (3 * m) in
  { name = Printf.sprintf "discrepancy m=%d" m;
    run = (fun () ->
        let d =
          Spans.time "discrepancy.of_rectangle" (fun () ->
              Ucfg_disc.Discrepancy.of_rectangle blocks tight)
        in
        let r =
          Spans.time "discrepancy.of_rectangle" (fun () ->
              Ucfg_disc.Discrepancy.max_over_random blocks ~rng ~samples
                ~partition)
        in
        Util.check (abs d = bound && r <= bound)
          "discrepancy m=%d: tight %d, random max %d, bound %d" m d r bound) }

(* Proposition 7 on one grammar: a cover within N|G| rectangles, disjoint
   when the grammar is unambiguous; on a disjoint cover the GF(2) rank of
   the same language's midpoint matrix is at most the cover's size *)
let extract (name, g, unambiguous) =
  { name = "extract " ^ name;
    run = (fun () ->
        let res =
          Spans.time "extract.run" (fun () -> Ucfg_rect.Extract.run g)
        in
        let l = Spans.time "analysis.fixpoint" (fun () -> Analysis.language_exn g) in
        note_tier l;
        let rects = res.Ucfg_rect.Extract.rectangles in
        let v =
          Spans.time "cover.verify" (fun () -> Ucfg_rect.Cover.verify rects l)
        in
        let len = Option.get (Lang.uniform_length l) in
        let m =
          Spans.time "matrix.build" (fun () ->
              Ucfg_comm.Matrix.of_language Alphabet.binary l ~split:(len / 2))
        in
        let rank = Spans.time "rank.gf2" (fun () -> Ucfg_comm.Rank.gf2 m) in
        let count = List.length rects in
        Util.check
          (v.Ucfg_rect.Cover.is_cover && count <= res.Ucfg_rect.Extract.bound
           && ((not unambiguous) || v.Ucfg_rect.Cover.is_disjoint)
           && ((not v.Ucfg_rect.Cover.is_disjoint) || rank <= count))
          "extract %s: cover %b, disjoint %b, %d rectangles (bound %d), rank %d"
          name v.Ucfg_rect.Cover.is_cover v.Ucfg_rect.Cover.is_disjoint count
          res.Ucfg_rect.Extract.bound rank) }

let extract_cases ln =
  [ ("log_cfg 8", Constructions.log_cfg 8, false);
    ("example4 4", Constructions.example4 4, true);
    ("example4 5", Constructions.example4 5, true);
    ("trivial L_4", Constructions.of_language Alphabet.binary (ln 4), true) ]

(* Theorem 17 via rank: the midpoint matrix of L_n has rank 2^n - 1 over
   GF(2) and modulo a large prime (bench E11) *)
let rank ?(ln = Ln.language) n =
  let l = ln n in
  { name = Printf.sprintf "rank L_%d" n;
    run = (fun () ->
        let m =
          Spans.time "matrix.build" (fun () ->
              Ucfg_comm.Matrix.of_language Alphabet.binary l ~split:n)
        in
        let r = Spans.time "rank.gf2" (fun () -> Ucfg_comm.Rank.gf2 m) in
        let p = Spans.time "rank.mod_p" (fun () -> Ucfg_comm.Rank.mod_p m) in
        Util.check
          (r = (1 lsl n) - 1 && p = r
           && Bignum.equal (Lang.cardinal_big l) (ln_cardinal n))
          "rank L_%d: GF(2) %d, mod p %d, expected 2^n-1" n r p) }

(* Tier T1: the one-rule-per-word grammar of [k] seeded words of a length
   past the 62-letter machine-word limit; its fixpoint must land in T1
   and hold exactly the drawn words *)
let wide ~rng ~len ~k =
  let words =
    List.init k (fun _ ->
        String.init len (fun _ -> if Rng.bool rng then 'a' else 'b'))
  in
  let expected = Lang.of_list words in
  let g = Constructions.of_language Alphabet.binary expected in
  { name = Printf.sprintf "wide fixpoint len=%d" len;
    run = (fun () ->
        let l =
          Spans.time "analysis.fixpoint" (fun () ->
              Analysis.language_exn ~max_len:128 g)
        in
        note_tier l;
        Util.check
          (Lang.tier l = `T1 && Lang.equal l expected)
          "wide len=%d: tier %s, expected T1 and the drawn words" len
          (tier_name l)) }

(* --- the batch ------------------------------------------------------------ *)

(* The languages and Lemma 19 rectangles every round reads, built once
   per set-up; grammars stay fresh per round. *)
type shared = {
  ln : int -> Lang.t;
  disc : int -> Ucfg_disc.Blocks.t * Ucfg_rect.Set_rectangle.t;
}

let shared () =
  let langs = List.map (fun n -> (n, Ln.language n)) [ 2; 3; 4; 8; 9 ] in
  let rects = List.map (fun m -> (m, family_rectangle m)) [ 4; 5 ] in
  { ln = (fun n -> List.assoc n langs); disc = (fun m -> List.assoc m rects) }

(* One round holds every family once or more, each task costing 5-700 ms;
   the seed draws the discrepancy rectangles, the long words and the order
   of each round, so all seeds run the same mix. *)
let round sh rng =
  let tasks =
    List.map (search ~ln:sh.ln) searches
    @ List.map fixpoint [ 12; 13; 14; 15 ]
    @ List.map ambiguity [ 12; 16 ]
    @ List.map (discrepancy ~disc:sh.disc ~rng) [ 4; 5 ]
    @ List.map extract (extract_cases sh.ln)
    @ List.map (rank ~ln:sh.ln) [ 8; 9 ]
    @ List.map (fun len -> wide ~rng ~len ~k:400) [ 72; 120 ]
  in
  let a = Array.of_list tasks in
  Rng.shuffle rng a;
  Array.to_list a

(* the first tasks of a fresh process pay for heap growth and code
   loading; set-up runs one small instance of each family *)
let warmup_tasks rng =
  [ search ("L_1 k<=3 size<=12", 1, None, 12, Some 3, 516); fixpoint 10;
    ambiguity 8; discrepancy ~rng 3;
    extract ("example4 2", Constructions.example4 2, true); rank 5;
    wide ~rng ~len:70 ~k:50 ]

let rounds_per_10s = 6

type run = {
  setup_s : float;
  latencies_ms : float list;
  by_task : (string * float) list;  (** task name, ms; in run order *)
  wall_s : float;
  rss_mb : float;
}

(* [run ~traced ~seed ~seconds ~reps ~jobs] — set-up builds the shared
   inputs and runs the warm-up, [reps] times: once before the first round,
   and then between rounds, spread over the run, so that the median set-up
   time samples the host over the whole run.  The first set-up's inputs
   serve every round.  Each round's own inputs are built just before the
   round, off the clock, so neither the timed phase nor the peak RSS grows
   with the rounds already run.  With [traced], the layer timers record
   the rounds (never the set-ups). *)
let run ~traced ~seed ~seconds ~reps ~jobs =
  Ucfg_exec.Exec.set_jobs jobs;
  let setups = ref [] in
  let setup () =
    let rng = Rng.create (seed * 7919 + 5) in
    let s, secs =
      Util.timed (fun () ->
          let s = shared () in
          List.iter (fun t -> Util.attempt (); t.run ()) (warmup_tasks rng);
          s)
    in
    setups := secs :: !setups;
    s
  in
  let sh = setup () in
  let rng = Rng.create (seed * 7919 + 3) in
  let lat = ref [] and wall = ref 0. in
  let rounds = max 1 (seconds * rounds_per_10s / 10) in
  for j = 0 to rounds - 1 do
    if j > 0 && j * reps / rounds > (j - 1) * reps / rounds then
      ignore (setup ());
    let tasks = round sh rng in
    let (), s =
      Util.timed (fun () ->
          Spans.with_modes ~timing:traced ~alloc:false (fun () ->
              List.iter
                (fun t ->
                   Util.attempt ();
                   let (), s = Util.timed t.run in
                   lat := (t.name, s *. 1e3) :: !lat)
                tasks))
    in
    wall := !wall +. s
  done;
  let by_task = List.rev !lat in
  { setup_s = Util.median !setups; latencies_ms = List.map snd by_task;
    by_task; wall_s = !wall; rss_mb = Util.peak_rss_mb "self" }

(* median latency per task name, for the human-readable report *)
let summary r =
  let names = List.sort_uniq compare (List.map fst r.by_task) in
  List.map
    (fun n ->
       let xs = List.filter_map (fun (m, v) -> if m = n then Some v else None) r.by_task in
       (n, List.length xs, Util.median xs))
    names
