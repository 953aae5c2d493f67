module Vfs = Dw_storage.Vfs
module Checksum = Dw_util.Checksum

type mark = { day : int; lsn : Dw_txn.Wal.lsn }

type t = { vfs : Vfs.t; name : string; marks : (string, mark) Hashtbl.t }

(* Journal records, one per line, body guarded by an FNV-1a suffix:
     m|table|day|lsn|crc        mark advanced
   plus the legacy unchecksummed [table|day|lsn] lines from the rewrite
   format this journal replaced.  A record whose checksum does not match
   its body is treated as the torn tail: it and everything after it are
   ignored, so a crash mid-append falls back to the last durable state
   instead of poisoning [load].  An intact record of another kind (the
   [c|]/[x|] bootstrap-cursor records older journals hold) is skipped. *)

let encode_mark table m =
  let body = Printf.sprintf "m|%s|%d|%d" table m.day m.lsn in
  Printf.sprintf "%s|%s\n" body (Checksum.hex body)

(* split off the trailing [|crc] field and verify it against the rest *)
let split_checksum line =
  match String.rindex_opt line '|' with
  | None -> None
  | Some i ->
    let body = String.sub line 0 i in
    let crc = String.sub line (i + 1) (String.length line - i - 1) in
    if String.length crc = 8 && String.equal (Checksum.hex body) crc then Some body else None

let parse_mark table day lsn =
  match (int_of_string_opt day, int_of_string_opt lsn) with
  | Some day, Some lsn -> Some (`Mark (table, { day; lsn }))
  | _ -> None

let parse_record line =
  match split_checksum line with
  | Some body -> (
    match String.split_on_char '|' body with
    | [ "m"; table; day; lsn ] -> parse_mark table day lsn
    | _ -> Some `Other)
  | None -> (
    (* legacy full-rewrite format: [table|day|lsn], no checksum *)
    match String.split_on_char '|' line with
    | [ table; day; lsn ] -> parse_mark table day lsn
    | _ -> None)

let load vfs ~name =
  let t = { vfs; name; marks = Hashtbl.create 8 } in
  if Vfs.exists vfs name then begin
    let file = Vfs.open_existing vfs name in
    let len = Vfs.size file in
    let data = if len = 0 then "" else Bytes.to_string (Vfs.read_at file ~off:0 ~len) in
    Vfs.close file;
    let lines = String.split_on_char '\n' data in
    (* stop at the first corrupt record — it is the torn tail — and track
       the byte length of the valid prefix, so the tail can be truncated
       away; left in place, later appends would land beyond the garbage
       and be invisible to every subsequent load *)
    let rec replay valid = function
      | [] | [ "" ] -> valid
      | "" :: rest -> replay (valid + 1) rest
      | line :: rest -> (
        match parse_record line with
        | Some (`Mark (table, m)) ->
          Hashtbl.replace t.marks table m;
          replay (valid + String.length line + 1) rest
        | Some `Other -> replay (valid + String.length line + 1) rest
        | None -> valid)
    in
    let valid = replay 0 lines in
    if valid < len then begin
      let file = Vfs.open_existing vfs name in
      Vfs.truncate file valid;
      Vfs.fsync file;
      Vfs.close file
    end
  end;
  t

let get t ~table =
  match Hashtbl.find_opt t.marks table with
  | Some mark -> mark
  | None -> { day = -1; lsn = 0 }

let advance t ~table mark =
  let current = get t ~table in
  if mark.day < current.day || mark.lsn < current.lsn then
    invalid_arg
      (Printf.sprintf "Watermark.advance: regression for %s (day %d->%d, lsn %d->%d)" table
         current.day mark.day current.lsn mark.lsn);
  let file = Vfs.open_or_create t.vfs t.name in
  ignore (Vfs.append file (Bytes.of_string (encode_mark table mark)) : int);
  Vfs.fsync file;
  Vfs.close file;
  Hashtbl.replace t.marks table mark

let tables t =
  Hashtbl.fold (fun table _ acc -> table :: acc) t.marks [] |> List.sort String.compare
