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

(* every SET expression reads the before image, as in SQL; columns and
   expressions resolve once per statement *)
let after_image schema sets =
  let sets =
    List.map
      (fun (col, e) -> (Schema.index_of_opt schema col, Dw_relation.Expr.compile schema e))
      sets
  in
  fun before ->
    let after = Array.copy before in
    List.iter
      (fun (i, f) ->
        let v = f before in
        match i with Some i -> after.(i) <- v | None -> raise Not_found)
      sets;
    after

let value_delta ~table ~schema t =
  let changes op =
    if not (String.equal (Ast.table_of op.stmt) table) then []
    else
      match op.stmt with
      | Ast.Insert { columns; rows; _ } ->
        List.map (fun row -> Delta.Insert row) (tuples_of_insert schema columns rows)
      | Ast.Update { sets; _ } ->
        let after_image = after_image schema sets in
        List.map (fun before -> Delta.Update (before, after_image before)) op.before_images
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

(* [s] from [start] to [stop] with its percent escapes resolved.  The
   encoder writes '%' only as the first of three bytes, so a '%' that is
   not followed by two hex digits inside the field is an error. *)
let decode_field s start stop =
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> -1
  in
  let buf = Buffer.create (stop - start) in
  let rec go i =
    if i >= stop then Ok (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else
      let hi = if i + 2 < stop then hex s.[i + 1] else -1 in
      let lo = if i + 2 < stop then hex s.[i + 2] else -1 in
      if hi < 0 || lo < 0 then Error "bad percent escape"
      else begin
        Buffer.add_char buf (Char.chr ((hi * 16) + lo));
        go (i + 3)
      end
  in
  go start

let encode_line_sized ?(schema_of = fun _ -> None) t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (string_of_int t.txn_id);
  (* [size_bytes], counted from the text printed here *)
  let size =
    List.fold_left
      (fun size op ->
        Buffer.add_char buf '\t';
        let text = Printer.to_string op.stmt in
        Buffer.add_string buf (encode_field text);
        match op.before_images with
        | [] -> size + String.length text
        | images -> (
            match schema_of (Ast.table_of op.stmt) with
            | Some schema ->
              List.iter
                (fun image ->
                  Buffer.add_char buf '#';
                  Buffer.add_string buf (encode_field (Codec.encode_ascii schema image)))
                images;
              size + String.length text + (List.length images * Schema.record_size schema)
            | None -> invalid_arg "Op_delta.encode_line: images without schema"))
      8 t.ops
  in
  (Buffer.contents buf, size)

let encode_line ?schema_of t = fst (encode_line_sized ?schema_of t)

(* the end of the op field part from [i]: the first tab or '#' in [s],
   else its length; [escaped] is set when a '%' comes before it *)
let rec field_end s i escaped =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '\t' | '#' -> i
    | '%' ->
      escaped := true;
      field_end s (i + 1) escaped
    | _ -> field_end s (i + 1) escaped

(* A line is decoded where it lies, in one pass over its op fields: each
   part (a statement, or a before image after a '#') is found by index,
   and one that holds no '%' (no escaped byte) is parsed or decoded in
   place; the rare one that does is unescaped into one copy first. *)
let decode_line ?(schema_of = fun _ -> None) line =
  let n = String.length line in
  let escaped = ref false and stop = ref 0 in
  (* the part from [start], which ends at [!stop] *)
  let part start decode =
    escaped := false;
    stop := field_end line start escaped;
    if not !escaped then decode line start !stop
    else
      match decode_field line start !stop with
      | Error e -> Error e
      | Ok text -> decode text 0 (String.length text)
  in
  let stmt_at s start stop = Parser.parse_sub s ~off:start ~len:(stop - start) in
  let rec images stmt acc =
    if !stop < n && String.unsafe_get line !stop = '#' then
      match schema_of (Ast.table_of stmt) with
      | None -> Error "before images present but no schema resolvable"
      | Some schema -> (
          let image s off stop = Codec.decode_ascii_sub schema s ~off ~len:(stop - off) in
          match part (!stop + 1) image with
          | Ok t -> images stmt (t :: acc)
          | Error e -> Error e)
    else Ok { stmt; before_images = List.rev acc }
  in
  let tab = Option.value (String.index_opt line '\t') ~default:n in
  let txn_id =
    match Codec.small_int line 0 tab with
    | Some _ as id -> id
    | None -> int_of_string_opt (String.sub line 0 tab)
  in
  if tab = n then
    if n = 0 then Error "empty op-delta line"
    else match txn_id with Some txn_id -> Ok { txn_id; ops = [] } | None -> Error "bad txn id"
  else
    match txn_id with
    | None -> Error (Printf.sprintf "bad txn id %S" (String.sub line 0 tab))
    | Some txn_id ->
      (* the op fields, each after a tab: a statement, then its images *)
      let rec go acc start =
        match part start stmt_at with
        | Error e -> Error e
        | Ok stmt -> (
          match images stmt [] with
          | Error e -> Error e
          | Ok op ->
            if !stop = n then Ok { txn_id; ops = List.rev (op :: acc) }
            else go (op :: acc) (!stop + 1))
      in
      go [] (tab + 1)

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
