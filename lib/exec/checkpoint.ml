(* Self-verifying files and the search checkpoints built on them; see the
   mli for the contract. *)

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

let save ~dir payload =
  let path = file ~dir in
  write ~magic path payload;
  path

let load ~dir = read ~magic (file ~dir)

let clear ~dir =
  try Sys.remove (file ~dir) with Sys_error _ -> ()
