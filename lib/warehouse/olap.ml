module Db = Dw_engine.Db
module Metrics = Dw_util.Metrics

type query = { name : string; sql : string }

let standard_queries ~table =
  [
    { name = "row count"; sql = Printf.sprintf "SELECT COUNT(*) FROM %s" table };
    {
      name = "stock value";
      sql = Printf.sprintf "SELECT SUM(qty) AS units, SUM(price) AS value FROM %s" table;
    };
    {
      name = "per-qty histogram";
      sql =
        Printf.sprintf "SELECT qty, COUNT(*) AS n, AVG(price) FROM %s GROUP BY qty ORDER BY qty"
          table;
    };
    {
      name = "low-stock price extremes";
      sql =
        Printf.sprintf "SELECT MIN(price), MAX(price) FROM %s WHERE qty < 100" table;
    };
    {
      name = "id band";
      sql =
        Printf.sprintf
          "SELECT part_id, price FROM %s WHERE part_id >= 100 AND part_id < 200 ORDER BY part_id"
          table;
    };
  ]

type query_result = { query : string; rows : int; duration : float }

let finish_query ~name ~duration outcome =
  match outcome with
  | Ok (Db.Rows { rows; _ }) -> Ok { query = name; rows = List.length rows; duration }
  | Ok (Db.Affected _ | Db.Created) -> Error (name ^ ": not a query")
  | Error e -> Error (name ^ ": " ^ e)

let run ?(mode = `Snapshot) wh q =
  let db = Warehouse.db wh in
  (* timed on the metrics registry clock, so simulated-time runs report
     simulated durations and the olap.query histogram fills in *)
  let timer = Metrics.start_timer (Db.metrics db) "olap.query" in
  let txn = Db.begin_txn ~mode db in
  let outcome = Db.exec_sql db txn q.sql in
  (* read-only: anything but a row set is rolled back *)
  (match outcome with Ok (Db.Rows _) -> Db.commit db txn | Ok _ | Error _ -> Db.abort db txn);
  let duration = Metrics.stop_timer timer in
  finish_query ~name:q.name ~duration outcome

let run_parallel ?partitions ~pool wh q =
  let db = Warehouse.db wh in
  let timer = Metrics.start_timer (Db.metrics db) "olap.query_parallel" in
  let txn = Db.begin_txn ~mode:`Snapshot db in
  let outcome = Par_scan.exec_sql ?partitions ~pool db txn q.sql in
  (match outcome with Ok (Db.Rows _) -> Db.commit db txn | Ok _ | Error _ -> Db.abort db txn);
  let duration = Metrics.stop_timer timer in
  finish_query ~name:q.name ~duration outcome

let run_all ?mode wh queries =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | q :: rest -> (
        match run ?mode wh q with
        | Ok r -> go (r :: acc) rest
        | Error e -> (List.rev acc, Some e))
  in
  go [] queries
