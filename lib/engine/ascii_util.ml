module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Codec = Dw_relation.Codec
module Expr = Dw_relation.Expr
module Vfs = Dw_storage.Vfs
module Heap_file = Dw_storage.Heap_file

type dump_stats = { rows : int; bytes : int }
type load_stats = { rows : int; bad_lines : int }

let write_lines vfs dest emit =
  let file = Vfs.create vfs dest in
  let chunk = Buffer.create 8192 in
  let rows = ref 0 in
  let flush_chunk () =
    if Buffer.length chunk > 0 then begin
      ignore (Vfs.append file (Buffer.to_bytes chunk) : int);
      Buffer.clear chunk
    end
  in
  emit (fun line ->
      Buffer.add_string chunk line;
      Buffer.add_char chunk '\n';
      incr rows;
      if Buffer.length chunk >= 8192 then flush_chunk ());
  flush_chunk ();
  Vfs.fsync file;
  let bytes = Vfs.size file in
  Vfs.close file;
  { rows = !rows; bytes }

let dump db ~table ?where ~dest () =
  let tbl = Db.table db table in
  let schema = Table.schema tbl in
  let keep = match where with None -> fun _ -> true | Some e -> Expr.compile_pred schema e in
  write_lines (Db.vfs db) dest (fun out ->
      Table.scan tbl (fun _ tuple -> if keep tuple then out (Codec.encode_ascii schema tuple)))

let dump_tuples vfs ~schema ~dest tuples =
  write_lines vfs dest (fun out ->
      List.iter (fun tuple -> out (Codec.encode_ascii schema tuple)) tuples)

let iter_lines vfs fname ~f =
  match Vfs.open_existing vfs fname with
  | exception Not_found -> Error (Printf.sprintf "no such file %s" fname)
  | file ->
    let len = Vfs.size file in
    let data = if len = 0 then Bytes.create 0 else Vfs.read_at file ~off:0 ~len in
    Vfs.close file;
    let count = ref 0 in
    let pos = ref 0 in
    while !pos < len do
      let nl =
        let rec go i = if i >= len || Bytes.get data i = '\n' then i else go (i + 1) in
        go !pos
      in
      if nl > !pos then begin
        f (Bytes.sub_string data !pos (nl - !pos));
        incr count
      end;
      pos := nl + 1
    done;
    Ok !count

let load db ~table ~src =
  match Db.table_opt db table with
  | None -> Error (Printf.sprintf "no such table %s" table)
  | Some tbl ->
    let schema = Table.schema tbl in
    let rows = ref 0 in
    let bad = ref 0 in
    let result =
      iter_lines (Db.vfs db) src ~f:(fun line ->
          match Codec.decode_ascii schema line with
          | Ok tuple ->
            (* direct block write, bypassing WAL and index maintenance *)
            ignore (Table.raw_insert_blind tbl (Codec.encode_binary schema tuple)
                    : Heap_file.rid);
            incr rows
          | Error _ -> incr bad)
    in
    (match result with
     | Error e -> Error e
     | Ok _ ->
       Table.rebuild_indexes tbl;
       Db.flush_all db;
       Ok { rows = !rows; bad_lines = !bad })
