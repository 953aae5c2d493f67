module Expr = Dw_relation.Expr
module Value = Dw_relation.Value

let agg_name = function
  | Ast.Count_star | Ast.Count -> "COUNT"
  | Ast.Sum -> "SUM"
  | Ast.Avg -> "AVG"
  | Ast.Min -> "MIN"
  | Ast.Max -> "MAX"

let add_sep_list buf add = function
  | [] -> ()
  | x :: rest ->
    add buf x;
    List.iter
      (fun x ->
        Buffer.add_string buf ", ";
        add buf x)
      rest

let add_alias buf = function
  | None -> ()
  | Some alias ->
    Buffer.add_string buf " AS ";
    Buffer.add_string buf alias

let add_item buf = function
  | Ast.Star -> Buffer.add_char buf '*'
  | Ast.Item (e, alias) ->
    Expr.add_to_buffer buf e;
    add_alias buf alias
  | Ast.Agg (fn, e, alias) ->
    Buffer.add_string buf (agg_name fn);
    Buffer.add_char buf '(';
    (match e with None -> Buffer.add_char buf '*' | Some e -> Expr.add_to_buffer buf e);
    Buffer.add_char buf ')';
    add_alias buf alias

let ty_to_sql = function
  | Value.Tint -> "INT"
  | Value.Tfloat -> "FLOAT"
  | Value.Tbool -> "BOOL"
  | Value.Tdate -> "DATE"
  | Value.Tstring n -> Printf.sprintf "STRING(%d)" n

let add_column_def buf (c : Ast.column_def) =
  Buffer.add_string buf c.Ast.col_name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (ty_to_sql c.Ast.col_ty);
  if not c.Ast.col_nullable then Buffer.add_string buf " NOT NULL";
  if c.Ast.col_key then Buffer.add_string buf " KEY"

let add_literal buf v = Buffer.add_string buf (Value.to_sql_literal v)

let add_where buf = function
  | None -> ()
  | Some e ->
    Buffer.add_string buf " WHERE ";
    Expr.add_to_buffer buf e

let add_names buf keyword = function
  | [] -> ()
  | names ->
    Buffer.add_string buf keyword;
    add_sep_list buf Buffer.add_string names

let to_string stmt =
  let buf = Buffer.create 96 in
  (match stmt with
   | Ast.Select { items; table; where; group_by; order_by } ->
     Buffer.add_string buf "SELECT ";
     add_sep_list buf add_item items;
     Buffer.add_string buf " FROM ";
     Buffer.add_string buf table;
     add_where buf where;
     add_names buf " GROUP BY " group_by;
     add_names buf " ORDER BY " order_by
   | Ast.Insert { table; columns; rows } ->
     Buffer.add_string buf "INSERT INTO ";
     Buffer.add_string buf table;
     (match columns with
      | None -> ()
      | Some cs ->
        Buffer.add_string buf " (";
        add_sep_list buf Buffer.add_string cs;
        Buffer.add_char buf ')');
     Buffer.add_string buf " VALUES ";
     add_sep_list buf
       (fun buf vs ->
         Buffer.add_char buf '(';
         add_sep_list buf add_literal vs;
         Buffer.add_char buf ')')
       rows
   | Ast.Update { table; sets; where } ->
     Buffer.add_string buf "UPDATE ";
     Buffer.add_string buf table;
     Buffer.add_string buf " SET ";
     add_sep_list buf
       (fun buf (c, e) ->
         Buffer.add_string buf c;
         Buffer.add_string buf " = ";
         Expr.add_to_buffer buf e)
       sets;
     add_where buf where
   | Ast.Delete { table; where } ->
     Buffer.add_string buf "DELETE FROM ";
     Buffer.add_string buf table;
     add_where buf where
   | Ast.Create_table { table; columns } ->
     Buffer.add_string buf "CREATE TABLE ";
     Buffer.add_string buf table;
     Buffer.add_string buf " (";
     add_sep_list buf add_column_def columns;
     Buffer.add_char buf ')');
  Buffer.contents buf

let pp ppf stmt = Format.pp_print_string ppf (to_string stmt)
let size_bytes stmt = String.length (to_string stmt)
