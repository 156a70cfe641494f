(* Self-verifying files and the resumable-search sessions built on them;
   see the mli for the contract. *)

type load = Loaded of string | Absent | Invalid of string

let mkdir_p path =
  let rec ensure p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      ensure (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  ensure path

(* distinct temp names per writer: pid for cross-process, a counter for
   cross-domain *)
let tmp_counter = Atomic.make 0

let write ~magic path payload =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       Printf.fprintf oc "%s %s %d\n" magic
         (Digest.to_hex (Digest.string payload))
         (String.length payload);
       output_string oc payload);
  (* atomic on POSIX: readers see the old file or the new one, never a
     prefix of either *)
  Unix.rename tmp path

let read ~magic path =
  match open_in_bin path with
  | exception Sys_error _ -> Absent
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         match input_line ic with
         | exception End_of_file -> Invalid "empty file"
         | header -> (
             let prefix = magic ^ " " in
             let fields =
               if String.starts_with ~prefix header then
                 String.split_on_char ' '
                   (String.sub header (String.length prefix)
                      (String.length header - String.length prefix))
               else []
             in
             match fields with
             | [ digest; len_text ] -> (
                 match int_of_string_opt len_text with
                 | None -> Invalid "malformed length"
                 | Some len when len < 0 -> Invalid "malformed length"
                 | Some len -> (
                     match really_input_string ic len with
                     | exception End_of_file -> Invalid "truncated payload"
                     | payload ->
                       if pos_in ic <> in_channel_length ic then
                         Invalid "trailing garbage"
                       else if
                         Digest.to_hex (Digest.string payload) <> digest
                       then Invalid "digest mismatch"
                       else Loaded payload))
             | _ -> Invalid "unknown header or version"))

let magic = "ucfg-search v1"

let file ~dir = Filename.concat dir "checkpoint"

(* --- resumable-search sessions ------------------------------------------- *)

exception Reject

let nat ~max text =
  match int_of_string_opt text with
  | Some n when n >= 0 && n <= max -> n
  | _ -> raise Reject

type 'a session = {
  dir : string option;
  params : string;
  memo : Memo.t option;
  restored : 'a option;
  warning : string option;
}

let open_session ~dir ~resume ~params memo parse =
  let session restored warning = { dir; params; memo; restored; warning } in
  let load dir =
    match read ~magic (file ~dir) with
    | Absent -> session None None
    | Invalid reason -> session None (Some reason)
    | Loaded payload -> (
        match String.split_on_char '\n' payload with
        | p :: body when p = params -> (
            let lines =
              List.filter (( <> ) [ "" ])
                (List.map (String.split_on_char ' ') body)
            in
            let memo_lines, own =
              List.partition (fun l -> List.hd l = "memo") lines
            in
            let entry = function [ _; k; v ] -> (k, v) | _ -> raise Reject in
            match (List.map entry memo_lines, parse own) with
            | entries, restored ->
              Option.iter (fun m -> Memo.add_entries m entries) memo;
              session (Some restored) None
            | exception (Reject | Failure _ | Invalid_argument _) ->
              session None (Some "unparseable checkpoint payload"))
        | _ ->
          session None
            (Some "parameter mismatch (different search or library version)"))
  in
  match dir with Some dir when resume -> load dir | _ -> session None None

let trip s body =
  Option.map
    (fun dir ->
       let memo_lines =
         match s.memo with
         | Some m ->
           List.map
             (fun (key, v) -> Printf.sprintf "memo %s %s" key v)
             (Memo.entries m)
         | None -> []
       in
       let path = file ~dir in
       write ~magic path
         (String.concat ""
            (List.map (fun l -> l ^ "\n") ((s.params :: body) @ memo_lines)));
       path)
    s.dir

let finish s =
  Option.iter
    (fun dir -> try Sys.remove (file ~dir) with Sys_error _ -> ())
    s.dir

let memo_counts s =
  match s.memo with
  | Some m ->
    let st = Memo.stats m in
    (st.Memo.hits, st.Memo.misses)
  | None -> (0, 0)
