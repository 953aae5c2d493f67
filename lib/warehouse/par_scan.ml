module Ast = Dw_sql.Ast
module Heap_file = Dw_storage.Heap_file
module Domain_pool = Dw_util.Domain_pool
module Db = Dw_engine.Db
module Table = Dw_engine.Table

let default_partitions = 8

(* contiguous page ranges covering [0, pages), sizes differing by <= 1 *)
let ranges ~pages ~parts =
  let base = pages / parts and rem = pages mod parts in
  let rec go i start acc =
    if i = parts then List.rev acc
    else
      let len = base + if i < rem then 1 else 0 in
      go (i + 1) (start + len) ((start, start + len) :: acc)
  in
  go 0 0 []

let exec ?(partitions = default_partitions) ~pool db txn stmt =
  if partitions < 1 then invalid_arg "Par_scan.exec: partitions must be >= 1";
  match stmt with
  | Ast.Select { items; table = tname; where; group_by; order_by } ->
    if Db.txn_mode txn <> `Snapshot then
      invalid_arg "Par_scan.exec: requires a `Snapshot transaction";
    let table = Db.table db tname in
    (* the page count is fixed here: rows in pages appended later are
       invisible to the snapshot *)
    let pages = Heap_file.page_count (Table.heap table) in
    let scan (from_page, to_page) () =
      Db.select_pages db txn table ?where ~from_page ~to_page ()
    in
    (* each range's rows are in rid order, and the ranges are in page
       order, so the join is the sequential scan's list *)
    let parts = Domain_pool.run_all pool (List.map scan (ranges ~pages ~parts:partitions)) in
    Db.eval_select (Table.schema table) ~items ~group_by ~order_by (List.concat parts)
  | Ast.Create_table _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ ->
    invalid_arg "Par_scan: only SELECT statements are supported"

let exec_sql ?partitions ~pool db txn input =
  match Dw_sql.Parser.parse input with
  | Error e -> Error e
  | Ok stmt -> (
      match exec ?partitions ~pool db txn stmt with
      | result -> Ok result
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error (Printf.sprintf "unknown table %s" (Ast.table_of stmt)))
