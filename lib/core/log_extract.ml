module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Wal = Dw_txn.Wal
module Log_record = Dw_txn.Log_record
module Schema = Dw_relation.Schema
module Codec = Dw_relation.Codec
module Heap_file = Dw_storage.Heap_file

type stats = { records_scanned : int; log_bytes : int; committed_txns : int }

let work_units ~log_records ~delta_rows =
  float_of_int log_records +. float_of_int delta_rows

(* one pass to find winners, one pass to pull this table's images *)
let committed_dml ?(since_lsn = 0) db ~table =
  let wal = Db.wal db in
  let committed = Hashtbl.create 32 in
  let scanned = ref 0 in
  Wal.iter_from wal since_lsn (fun _ record ->
      incr scanned;
      match record.Log_record.body with
      | Log_record.Commit -> Hashtbl.replace committed record.Log_record.tx ()
      | Log_record.Begin | Log_record.Abort | Log_record.Insert _ | Log_record.Delete _
      | Log_record.Update _ | Log_record.Purge _ | Log_record.Checkpoint _ ->
        ());
  let dml = ref [] in
  Wal.iter_from wal since_lsn (fun _ record ->
      if Hashtbl.mem committed record.Log_record.tx then
        match record.Log_record.body with
        | Log_record.Insert { table = t; rid; after } when t = table ->
          dml := (record.Log_record.tx, `Ins (rid, after)) :: !dml
        | Log_record.Delete { table = t; rid; before } when t = table ->
          dml := (record.Log_record.tx, `Del (rid, before)) :: !dml
        | Log_record.Update { table = t; rid; before; after } when t = table ->
          dml := (record.Log_record.tx, `Upd (rid, before, after)) :: !dml
        (* a purge frees a capture log's consumed rows: bookkeeping, not
           a change to extract *)
        | Log_record.Insert _ | Log_record.Delete _ | Log_record.Update _ | Log_record.Purge _
        | Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.Checkpoint _ ->
          ());
  (List.rev !dml, !scanned, Wal.segment_bytes wal)

let to_change schema = function
  | `Ins (_, after) -> Delta.Insert (Codec.decode_binary schema after 0)
  | `Del (_, before) -> Delta.Delete (Codec.decode_binary schema before 0)
  | `Upd (_, before, after) ->
    Delta.Update (Codec.decode_binary schema before 0, Codec.decode_binary schema after 0)

let extract ?since_lsn db ~table () =
  let schema = Table.schema (Db.table db table) in
  let dml, scanned, log_bytes = committed_dml ?since_lsn db ~table in
  let txns = List.sort_uniq compare (List.map fst dml) in
  let changes = List.map (fun (_, op) -> to_change schema op) dml in
  ( Delta.make ~table ~schema changes,
    { records_scanned = scanned; log_bytes; committed_txns = List.length txns } )

let extract_grouped ?since_lsn db ~table () =
  let schema = Table.schema (Db.table db table) in
  let dml, scanned, log_bytes = committed_dml ?since_lsn db ~table in
  let order = ref [] in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (tx, op) ->
      match Hashtbl.find_opt groups tx with
      | Some cell -> cell := op :: !cell
      | None ->
        order := tx :: !order;
        Hashtbl.add groups tx (ref [ op ]))
    dml;
  let result =
    List.rev_map
      (fun tx ->
        let ops = List.rev !(Hashtbl.find groups tx) in
        (tx, Delta.make ~table ~schema (List.map (to_change schema) ops)))
      !order
  in
  (result, { records_scanned = scanned; log_bytes; committed_txns = Hashtbl.length groups })

let ship ~src ~dest ~table =
  match Db.table_opt src table, Db.table_opt dest table with
  | None, _ -> Error (Printf.sprintf "source has no table %s" table)
  | _, None -> Error (Printf.sprintf "destination has no table %s" table)
  | Some s, Some d ->
    if not (Schema.equal (Table.schema s) (Table.schema d)) then
      Error "log shipping requires identical schemas at source and destination"
    else begin
      let dml, _, _ = committed_dml src ~table in
      let heap = Table.heap d in
      let applied = ref 0 in
      List.iter
        (fun (_, op) ->
          incr applied;
          match op with
          | `Ins (rid, after) -> Heap_file.force_at heap rid (Some after)
          | `Del (rid, _) -> Heap_file.force_at heap rid None
          | `Upd (rid, _, after) -> Heap_file.force_at heap rid (Some after))
        dml;
      Table.rebuild_indexes d;
      Ok !applied
    end
