module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Vfs = Dw_storage.Vfs
module Schema = Dw_relation.Schema
module Ast = Dw_sql.Ast
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Transform = Dw_core.Transform
module Trigger_extract = Dw_core.Trigger_extract

(* per (source, logical table) replication state *)
type binding = {
  rule : Transform.rule;        (* logical -> physical *)
  inverse : Transform.rule;     (* physical -> logical *)
  physical_schema : Schema.t;
  capture : Trigger_extract.handle;
}

type source = {
  db : Db.t;
  bindings : (string * binding) list;  (* logical table -> binding *)
}

type t = {
  logical_table : string;
  tables : (string * Schema.t) list;   (* all logical tables *)
  sources : source array;
  mutable business_txns : Op_delta.t list;  (* newest first *)
  mutable next_txn_id : int;
}

let make_rule ~heterogeneous ~logical_table ~logical_schema i =
  let suffix = if heterogeneous then Printf.sprintf "_s%d" i else "" in
  {
    Transform.src_table = logical_table;
    dst_table = logical_table ^ suffix;
    column_map =
      List.map (fun c -> (c.Schema.name, c.Schema.name ^ suffix)) (Schema.columns logical_schema);
    constants = [];
  }

let invert_rule rule =
  {
    Transform.src_table = rule.Transform.dst_table;
    dst_table = rule.Transform.src_table;
    column_map = List.map (fun (a, b) -> (b, a)) rule.Transform.column_map;
    constants = [];
  }

let create ?(heterogeneous = true) ?(extra_tables = []) ~sources ~logical_table ~logical_schema
    () =
  if sources < 1 then invalid_arg "Enterprise.create: sources < 1";
  let tables = (logical_table, logical_schema) :: extra_tables in
  let mk i =
    let vfs = Vfs.in_memory () in
    let db = Db.create ~vfs ~name:(Printf.sprintf "src%d" i) () in
    let bindings =
      List.map
        (fun (tname, schema) ->
          let rule = make_rule ~heterogeneous ~logical_table:tname ~logical_schema:schema i in
          let physical_schema = Transform.dst_schema rule ~src:schema in
          ignore (Db.create_table db ~name:rule.Transform.dst_table physical_schema : Table.t);
          let capture = Trigger_extract.install db ~table:rule.Transform.dst_table in
          (tname, { rule; inverse = invert_rule rule; physical_schema; capture }))
        tables
    in
    { db; bindings }
  in
  {
    logical_table;
    tables;
    sources = Array.init sources mk;
    business_txns = [];
    next_txn_id = 1;
  }

let binding_for t i table =
  match List.assoc_opt table t.sources.(i).bindings with
  | Some b -> b
  | None -> raise Not_found

let source_db t i = t.sources.(i).db
let rule_to_physical t i = (binding_for t i t.logical_table).rule
let physical_table t i = (binding_for t i t.logical_table).rule.Transform.dst_table
let logical_tables t = List.map fst t.tables

let submit t stmts =
  (* validate targets first *)
  let bad =
    List.find_opt (fun stmt -> not (List.mem_assoc (Ast.table_of stmt) t.tables)) stmts
  in
  match bad with
  | Some stmt ->
    Error
      (Printf.sprintf "business transaction touches unknown logical table %s"
         (Ast.table_of stmt))
  | None ->
    (* wrapper capture: once, at the business level, spanning all tables *)
    let od = Op_delta.make ~txn_id:t.next_txn_id stmts in
    t.next_txn_id <- t.next_txn_id + 1;
    (* fan out to every replica, each in its own local transaction *)
    let apply_source source =
      let rec translate acc = function
        | [] -> Ok (List.rev acc)
        | stmt :: rest -> (
            let tname = Ast.table_of stmt in
            let binding = List.assoc tname source.bindings in
            let schema = List.assoc tname t.tables in
            match Transform.apply_stmt binding.rule ~src:schema stmt with
            | Ok (Some stmt') -> translate (stmt' :: acc) rest
            | Ok None -> translate acc rest
            | Error e -> Error e)
      in
      match translate [] stmts with
      | Error e -> Error e
      | Ok physical_stmts -> (
          match
            Db.with_txn source.db (fun txn ->
                List.iter
                  (fun stmt -> ignore (Db.exec source.db txn stmt : Db.exec_result))
                  physical_stmts)
          with
          | () -> Ok ()
          | exception Invalid_argument e -> Error e)
    in
    let rec fan_out i =
      if i >= Array.length t.sources then Ok ()
      else
        match apply_source t.sources.(i) with
        | Ok () -> fan_out (i + 1)
        | Error e -> Error (Printf.sprintf "source %d: %s" i e)
    in
    (match fan_out 0 with
     | Ok () ->
       t.business_txns <- od :: t.business_txns;
       Ok ()
     | Error e -> Error e)

let business_op_deltas t = List.rev t.business_txns

let extract_replica_value_deltas_for t ~table =
  let schema =
    match List.assoc_opt table t.tables with Some s -> s | None -> raise Not_found
  in
  Array.to_list t.sources
  |> List.map (fun source ->
         let binding = List.assoc table source.bindings in
         let physical_delta = Trigger_extract.collect source.db binding.capture in
         Transform.apply_delta binding.inverse ~src:binding.physical_schema ~dst:schema
           physical_delta)

let extract_replica_value_deltas t = extract_replica_value_deltas_for t ~table:t.logical_table
