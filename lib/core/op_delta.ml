module Ast = Dw_sql.Ast
module Printer = Dw_sql.Printer
module Parser = Dw_sql.Parser
module Tuple = Dw_relation.Tuple
module Schema = Dw_relation.Schema
module Codec = Dw_relation.Codec

type op = { stmt : Ast.stmt; before_images : Tuple.t list }
type t = { txn_id : int; ops : op list }

let make ~txn_id stmts = { txn_id; ops = List.map (fun stmt -> { stmt; before_images = [] }) stmts }

let with_before_images ~txn_id pairs =
  { txn_id; ops = List.map (fun (stmt, before_images) -> { stmt; before_images }) pairs }

let op_size_bytes op ~schema_of =
  let text = Printer.size_bytes op.stmt in
  match op.before_images with
  | [] -> text
  | images -> (
      match schema_of (Ast.table_of op.stmt) with
      | Some schema -> text + (List.length images * Schema.record_size schema)
      | None -> invalid_arg "Op_delta.op_size_bytes: images without schema")

let size_bytes ?(schema_of = fun _ -> None) t =
  (* 8 bytes of transaction framing *)
  List.fold_left (fun acc op -> acc + op_size_bytes op ~schema_of) 8 t.ops

let tables t =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun op ->
      let name = Ast.table_of op.stmt in
      if Hashtbl.mem seen name then None
      else begin
        Hashtbl.add seen name ();
        Some name
      end)
    t.ops

(* the tuples an INSERT statement describes, in the schema's column order
   (the same resolution Db.insert_values performs) *)
let tuples_of_insert schema columns rows =
  List.map
    (fun row ->
      match columns with
      | None ->
        if List.length row <> Schema.arity schema then
          invalid_arg "Op_delta.value_delta: INSERT arity mismatch";
        Array.of_list row
      | Some cols ->
        let tuple = Array.make (Schema.arity schema) Dw_relation.Value.Null in
        (try List.iter2 (fun col v -> tuple.(Schema.index_of schema col) <- v) cols row
         with Invalid_argument _ ->
           invalid_arg "Op_delta.value_delta: INSERT columns/values mismatch");
        tuple)
    rows

(* every SET expression reads the before image, as in SQL *)
let after_image schema sets before =
  List.fold_left
    (fun tuple (col, e) -> Tuple.set schema tuple col (Dw_relation.Expr.eval schema before e))
    before sets

let value_delta ~table ~schema t =
  let changes op =
    if not (String.equal (Ast.table_of op.stmt) table) then []
    else
      match op.stmt with
      | Ast.Insert { columns; rows; _ } ->
        List.map (fun row -> Delta.Insert row) (tuples_of_insert schema columns rows)
      | Ast.Update { sets; _ } ->
        List.map
          (fun before -> Delta.Update (before, after_image schema sets before))
          op.before_images
      | Ast.Delete _ -> List.map (fun before -> Delta.Delete before) op.before_images
      | Ast.Select _ | Ast.Create_table _ -> []
  in
  Delta.make ~table ~schema (List.concat_map changes t.ops)

(* percent-encoding of the field separators used by the wire format *)

let encode_field s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0A"
      | '#' -> Buffer.add_string buf "%23"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let decode_field s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "bad percent escape"
  in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let encode_line ?(schema_of = fun _ -> None) t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (string_of_int t.txn_id);
  List.iter
    (fun op ->
      Buffer.add_char buf '\t';
      Buffer.add_string buf (encode_field (Printer.to_string op.stmt));
      List.iter
        (fun image ->
          match schema_of (Ast.table_of op.stmt) with
          | Some schema ->
            Buffer.add_char buf '#';
            Buffer.add_string buf (encode_field (Codec.encode_ascii schema image))
          | None -> invalid_arg "Op_delta.encode_line: images without schema")
        op.before_images)
    t.ops;
  Buffer.contents buf

let decode_line ?(schema_of = fun _ -> None) line =
  match String.split_on_char '\t' line with
  | [] | [ _ ] ->
    if line = "" then Error "empty op-delta line"
    else (
      match int_of_string_opt line with
      | Some txn_id -> Ok { txn_id; ops = [] }
      | None -> Error "bad txn id")
  | txn_field :: op_fields -> (
      match int_of_string_opt txn_field with
      | None -> Error (Printf.sprintf "bad txn id %S" txn_field)
      | Some txn_id ->
        let decode_op field =
          match String.split_on_char '#' field with
          | [] -> Error "empty op field"
          | stmt_field :: image_fields -> (
              match Parser.parse (decode_field stmt_field) with
              | Error e -> Error e
              | Ok stmt ->
                let rec images acc = function
                  | [] -> Ok (List.rev acc)
                  | img :: rest -> (
                      match schema_of (Ast.table_of stmt) with
                      | None -> Error "before images present but no schema resolvable"
                      | Some schema -> (
                          match Codec.decode_ascii schema (decode_field img) with
                          | Ok t -> images (t :: acc) rest
                          | Error e -> Error e))
                in
                (match images [] image_fields with
                 | Ok before_images -> Ok { stmt; before_images }
                 | Error e -> Error e))
        in
        let rec go acc = function
          | [] -> Ok { txn_id; ops = List.rev acc }
          | field :: rest -> (
              match decode_op field with
              | Ok op -> go (op :: acc) rest
              | Error e -> Error e)
        in
        go [] op_fields)

let pp ppf t =
  Format.fprintf ppf "@[<v>op-delta txn=%d:@," t.txn_id;
  List.iter
    (fun op ->
      Format.fprintf ppf "  %s%s@," (Printer.to_string op.stmt)
        (match op.before_images with
         | [] -> ""
         | l -> Printf.sprintf " (+%d before images)" (List.length l)))
    t.ops;
  Format.fprintf ppf "@]"
