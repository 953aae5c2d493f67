module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Codec = Dw_relation.Codec
module Expr = Dw_relation.Expr
module Vfs = Dw_storage.Vfs

type stats = { rows : int; bytes : int }

let magic = "DWEXP1\n"
let product_tag = "DW-OCAML-1.0"

(* header: magic, product line, key_arity line, one column line per
   column ("name<TAB>type<TAB>null|notnull"), blank line, u64 row count *)

let schema_header schema =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_string buf (product_tag ^ "\n");
  Buffer.add_string buf (Printf.sprintf "key_arity=%d\n" (Schema.key_arity schema));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s\t%s\t%s\n" c.Schema.name (Value.ty_to_string c.Schema.ty)
           (if c.Schema.nullable then "null" else "notnull")))
    (Schema.columns schema);
  Buffer.add_string buf "\n";
  Buffer.contents buf

let export_table db ~table ?where ~dest () =
  let tbl = Db.table db table in
  let schema = Table.schema tbl in
  let file = Vfs.create (Db.vfs db) dest in
  let header = schema_header schema in
  (* count first so the header can carry it *)
  let keep = match where with None -> fun _ -> true | Some e -> Expr.compile_pred schema e in
  let rows = ref 0 in
  Table.scan tbl (fun _ tuple -> if keep tuple then incr rows);
  let count_line = Printf.sprintf "rows=%d\n" !rows in
  ignore (Vfs.append file (Bytes.of_string header) : int);
  ignore (Vfs.append file (Bytes.of_string count_line) : int);
  let width = Schema.record_size schema in
  (* batch record writes into page-sized chunks (sequential I/O) *)
  let chunk = Buffer.create 4096 in
  let flush_chunk () =
    if Buffer.length chunk > 0 then begin
      ignore (Vfs.append file (Buffer.to_bytes chunk) : int);
      Buffer.clear chunk
    end
  in
  Table.scan tbl (fun _ tuple ->
      if keep tuple then begin
        Buffer.add_bytes chunk (Codec.encode_binary schema tuple);
        if Buffer.length chunk + width > 4096 then flush_chunk ()
      end);
  flush_chunk ();
  Vfs.fsync file;
  let bytes = Vfs.size file in
  Vfs.close file;
  { rows = !rows; bytes }

(* reading *)

let read_all vfs fname =
  match Vfs.open_existing vfs fname with
  | exception Not_found -> Error (Printf.sprintf "no such file %s" fname)
  | file ->
    let len = Vfs.size file in
    let data = if len = 0 then Bytes.create 0 else Vfs.read_at file ~off:0 ~len in
    Vfs.close file;
    Ok data

let parse_header data =
  let len = Bytes.length data in
  let line_end pos =
    let rec go i = if i >= len then len else if Bytes.get data i = '\n' then i else go (i + 1) in
    go pos
  in
  let read_line pos =
    let e = line_end pos in
    (Bytes.sub_string data pos (e - pos), e + 1)
  in
  let mlen = String.length magic in
  if len < mlen || Bytes.sub_string data 0 mlen <> magic then Error "bad magic"
  else begin
    let product, pos = read_line mlen in
    if product <> product_tag then
      Error (Printf.sprintf "product mismatch: file is %S, this engine is %S" product product_tag)
    else begin
      let key_line, pos = read_line pos in
      match
        if String.length key_line > 10 && String.sub key_line 0 10 = "key_arity=" then
          int_of_string_opt (String.sub key_line 10 (String.length key_line - 10))
        else None
      with
      | None -> Error "bad key_arity line"
      | Some key_arity ->
        let rec cols pos acc =
          let line, next = read_line pos in
          if line = "" then (List.rev acc, next)
          else
            match String.split_on_char '\t' line with
            | [ name; ty_str; null_str ] -> (
                match Value.ty_of_string ty_str with
                | Some ty ->
                  cols next ({ Schema.name; ty; nullable = null_str = "null" } :: acc)
                | None -> (List.rev acc, next) (* triggers schema error below *))
            | _ -> (List.rev acc, next)
        in
        let columns, pos = cols pos [] in
        if columns = [] then Error "no columns in header"
        else begin
          let rows_line, pos = read_line pos in
          match
            if String.length rows_line > 5 && String.sub rows_line 0 5 = "rows=" then
              int_of_string_opt (String.sub rows_line 5 (String.length rows_line - 5))
            else None
          with
          | None -> Error "bad rows line"
          | Some rows -> (
              match Schema.make ~key_arity columns with
              | schema -> Ok (schema, rows, pos)
              | exception Invalid_argument msg -> Error msg)
        end
    end
  end

let read_header vfs fname =
  match read_all vfs fname with
  | Error e -> Error e
  | Ok data -> (
      match parse_header data with
      | Ok (schema, rows, _) -> Ok (schema, rows)
      | Error e -> Error e)

let iter_records vfs fname ~f =
  match read_all vfs fname with
  | Error e -> Error e
  | Ok data -> (
      match parse_header data with
      | Error e -> Error e
      | Ok (schema, rows, pos) ->
        let width = Schema.record_size schema in
        let len = Bytes.length data in
        let rec go pos n =
          if pos + width <= len && n < rows then begin
            f (Codec.decode_binary schema data pos);
            go (pos + width) (n + 1)
          end
          else n
        in
        let n = go pos 0 in
        if n <> rows then Error (Printf.sprintf "expected %d rows, file holds %d" rows n)
        else Ok n)
