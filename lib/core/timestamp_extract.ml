module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Ascii_util = Dw_engine.Ascii_util
module Export_util = Dw_engine.Export_util
module Heap_file = Dw_storage.Heap_file

type output =
  | To_file of string
  | To_table of string
  | To_table_export of { delta_table : string; export_file : string }

type stats = { rows : int; bytes_out : int; scanned_rows : int }

let work_units ~table_rows ~delta_rows = float_of_int table_rows +. float_of_int delta_rows

let matching_rows ~via db ~table ~since =
  let tbl = Db.table db table in
  let ts_col =
    match Table.ts_column tbl with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Timestamp_extract: table %s has no timestamp column" table)
  in
  match via with
  | `Ts_index ->
    let acc = ref [] in
    Table.ts_range tbl ~after:since (fun _ tuple -> acc := tuple :: !acc);
    let rows = List.rev !acc in
    (rows, List.length rows)
  | `Scan ->
    let schema = Table.schema tbl in
    let acc = ref [] in
    let scanned = ref 0 in
    Table.scan tbl (fun _ tuple ->
        incr scanned;
        match Tuple.get schema tuple ts_col with
        | Value.Date d when d > since -> acc := tuple :: !acc
        | Value.Date _ | _ -> ());
    (List.rev !acc, !scanned)

(* the delta table is a verbatim copy: no timestamp maintenance, or the
   captured last_modified values would be re-stamped on insert *)
let fresh_delta_table db name schema =
  (match Db.table_opt db name with Some _ -> Db.drop_table db name | None -> ());
  ignore (Db.create_table db ~name schema : Table.t)

let extract ?(via = `Scan) ?restrict ?project db ~table ~since ~output =
  let tbl = Db.table db table in
  let source_schema = Table.schema tbl in
  let rows, scanned = matching_rows ~via db ~table ~since in
  (* restriction: extra predicate over the source schema *)
  let rows =
    match restrict with
    | None -> rows
    | Some pred -> List.filter (Expr.compile_pred source_schema pred) rows
  in
  (* sub-setting: project to a column subset (key columns must survive) *)
  let schema, rows =
    match project with
    | None -> (source_schema, rows)
    | Some cols ->
      List.iteri
        (fun i _ ->
          let key_col = (Schema.column source_schema i).Schema.name in
          if i < Schema.key_arity source_schema && not (List.mem key_col cols) then
            invalid_arg
              (Printf.sprintf "Timestamp_extract: projection drops key column %s" key_col))
        (List.init (Schema.key_arity source_schema) Fun.id);
      let sub = Schema.project source_schema cols in
      let idxs = List.map (Schema.index_of source_schema) cols in
      (sub, List.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) idxs)) rows)
  in
  let delta = Delta.make ~table ~schema (List.map (fun r -> Delta.Upsert r) rows) in
  let stats =
    match output with
    | To_file dest ->
      let d = Ascii_util.dump_tuples (Db.vfs db) ~schema ~dest rows in
      { rows = d.Ascii_util.rows; bytes_out = d.Ascii_util.bytes; scanned_rows = scanned }
    | To_table delta_table ->
      fresh_delta_table db delta_table schema;
      Db.with_txn db (fun txn ->
          List.iter
            (fun row -> ignore (Db.insert db txn delta_table row : Heap_file.rid))
            rows);
      { rows = List.length rows; bytes_out = 0; scanned_rows = scanned }
    | To_table_export { delta_table; export_file } ->
      fresh_delta_table db delta_table schema;
      Db.with_txn db (fun txn ->
          List.iter
            (fun row -> ignore (Db.insert db txn delta_table row : Heap_file.rid))
            rows);
      let e = Export_util.export_table db ~table:delta_table ~dest:export_file () in
      { rows = e.Export_util.rows; bytes_out = e.Export_util.bytes; scanned_rows = scanned }
  in
  (delta, stats)
