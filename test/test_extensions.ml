(* Tests for the extension features: timestamp-extraction restriction and
   sub-setting, extraction marks, group commit, and the aggregate
   view unit pieces not covered by the warehouse suite. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Timestamp_extract = Dw_core.Timestamp_extract
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mk_source ?(rows = 40) () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~archive_log:true ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

let touch db ~first_id ~size =
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  Db.with_txn db (fun txn ->
      ignore (Db.exec db txn (Workload.update_parts_stmt ~first_id ~size) : Db.exec_result));
  watermark

(* ---------- restriction / sub-setting ---------- *)

let ts_restrict () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:20 in
  (* only even-qty rows of the delta *)
  let delta, _ =
    Timestamp_extract.extract
      ~restrict:(Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 5)))
      db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "r.asc")
  in
  check Alcotest.int "restricted rows" 5 (Delta.row_count delta)

let ts_project () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:7 in
  let delta, _ =
    Timestamp_extract.extract ~project:[ "part_id"; "qty" ] db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "p.asc")
  in
  check Alcotest.int "rows" 7 (Delta.row_count delta);
  check Alcotest.int "projected arity" 2 (Schema.arity delta.Delta.schema);
  List.iter
    (fun change ->
      match change with
      | Delta.Upsert row -> check Alcotest.int "tuple arity" 2 (Array.length row)
      | _ -> Alcotest.fail "expected upserts")
    delta.Delta.changes

let ts_project_must_keep_key () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:3 in
  try
    ignore
      (Timestamp_extract.extract ~project:[ "qty" ] db ~table:"parts" ~since:watermark
         ~output:(Timestamp_extract.To_file "x.asc"));
    Alcotest.fail "expected key-projection failure"
  with Invalid_argument _ -> ()

let ts_restrict_and_project_to_table () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:10 in
  let delta, _ =
    Timestamp_extract.extract
      ~restrict:(Expr.Cmp (Expr.Gt, Expr.Col "part_id", Expr.Lit (Value.Int 4)))
      ~project:[ "part_id"; "price" ] db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_table "slim_delta")
  in
  check Alcotest.int "rows" 6 (Delta.row_count delta);
  let tbl = Db.table db "slim_delta" in
  check Alcotest.int "table arity" 2 (Schema.arity (Table.schema tbl));
  check Alcotest.int "table rows" 6 (Table.row_count tbl)

(* ---------- extraction marks ---------- *)

let mk_dw () =
  let vfs = Vfs.in_memory () in
  let wh = Warehouse.create ~vfs ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  (vfs, wh)

let reopen_dw vfs =
  Vfs.crash_reset vfs;
  Warehouse.reopen ~vfs ~name:"dw" ~replicas:[ ("parts", Workload.parts_schema) ] ~views:[]
    ~agg_views:[] ()

let pipe ?(method_ = Pipeline.Timestamp) src wh =
  Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_ ~transport:Pipeline.Direct ()

let round p =
  match Pipeline.run_round p with
  | Ok stats -> stats.Pipeline.extracted_changes
  | Error e -> Alcotest.fail e

(* the parts mark: (day, lsn, snapshot round) *)
let mark_of wh =
  let m = Warehouse.mark wh "parts" in
  Warehouse.(m.day, m.lsn, m.snap)

let replica wh = List.sort Tuple.compare (Warehouse.replica_rows wh "parts")

let logged_load db ~size =
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size ~day:(Db.current_day db) ()))

let mark = Alcotest.(triple int int int)

(* a mark survives re-creating the pipeline, over the same warehouse and
   over one re-adopted from its bytes *)
let watermark_roundtrip () =
  let src = mk_source () in
  let vfs, wh = mk_dw () in
  let p = pipe src wh in
  check mark "no mark before the first round" (-1, 0, 0) (mark_of wh);
  check Alcotest.int "first round = everything" 40 (round p);
  let want = (Db.current_day src, Dw_txn.Wal.next_lsn (Db.wal src), 0) in
  check mark "mark committed" want (mark_of wh);
  check Alcotest.int "re-created pipeline resumes" 0 (round (pipe src wh));
  (* a plain reopen, with no catalog of its own for the marks, adopts
     them: the restarted pipeline resumes instead of starting over *)
  let wh = reopen_dw vfs in
  check mark "mark persisted" want (mark_of wh);
  check Alcotest.int "restarted pipeline resumes" 0 (round (pipe src wh))

(* two rounds of each position-reading method; round 2 only sees round-2
   changes *)
let watermark_drives_incremental_rounds () =
  let db = mk_source ~rows:0 () in
  logged_load db ~size:40;
  let _, ts_wh = mk_dw () and _, log_wh = mk_dw () in
  let ts = pipe db ts_wh and log = pipe ~method_:Pipeline.Log db log_wh in
  check Alcotest.int "round 1 = everything" 40 (round ts);
  check Alcotest.int "log round 1 = everything" 40 (round log);
  ignore (touch db ~first_id:11 ~size:3 : int);
  check Alcotest.int "round 2 = new changes only" 3 (round ts);
  check Alcotest.int "log round matches" 3 (round log)

(* fault-injection regression: kill the warehouse at every write/fsync
   event of one log round; the recovered mark and replica must be both
   before the round or both after it, and the restarted pipeline must
   converge *)
let watermark_crash_during_advance () =
  let scene () =
    let src = mk_source ~rows:0 () in
    logged_load src ~size:20;
    let vfs, wh = mk_dw () in
    let p = pipe ~method_:Pipeline.Log src wh in
    ignore (round p : int);
    ignore (touch src ~first_id:3 ~size:5 : int);
    (src, vfs, wh, p)
  in
  let _, vfs0, wh0, p0 = scene () in
  let before = (mark_of wh0, replica wh0) in
  Vfs.set_fault vfs0 (Some (Vfs.Fault.make ~seed:1 ()));
  check Alcotest.int "round applies the touch" 5 (round p0);
  let after = (mark_of wh0, replica wh0) in
  let total = match Vfs.fault vfs0 with Some f -> Vfs.Fault.events f | None -> 0 in
  check Alcotest.bool "events counted" true (total > 0);
  for k = 0 to total - 1 do
    let src, vfs, _, p = scene () in
    Vfs.set_fault vfs (Some (Vfs.Fault.make ~fail_stop_after:k ~seed:(10 + k) ()));
    (try ignore (Pipeline.run_round p : (Pipeline.round_stats, string) result)
     with Vfs.Fault.Crash _ -> ());
    let wh = reopen_dw vfs in
    let got = (mark_of wh, replica wh) in
    check Alcotest.bool (Printf.sprintf "event %d: mark and data agree" k) true
      (got = before || got = after);
    ignore (round (pipe ~method_:Pipeline.Log src wh) : int);
    check Alcotest.bool (Printf.sprintf "event %d: converged" k) true
      (replica wh = List.sort Tuple.compare (Db.with_txn src (fun txn -> Db.select src txn "parts" ())))
  done

(* ---------- group commit ---------- *)

let group_commit_fewer_fsyncs () =
  let metrics = Dw_util.Metrics.create () in
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.set_sync_mode db (`Group 10);
  let before = Dw_util.Metrics.get metrics "vfs.fsyncs" in
  for i = 1 to 25 do
    Db.with_txn db (fun txn ->
        List.iter
          (fun stmt -> ignore (Db.exec db txn stmt : Db.exec_result))
          (Workload.insert_parts_txn ~first_id:i ~size:1 ~day:0 ()))
  done;
  let commits_synced = Dw_util.Metrics.get metrics "vfs.fsyncs" - before in
  check Alcotest.int "2 group syncs for 25 commits" 2 commits_synced;
  (* recovery still sees all flushed work plus the tail (in-memory vfs
     retains everything; the mode only changes fsync cadence) *)
  ignore (Db.recover db : Dw_txn.Recovery.stats);
  check Alcotest.int "all rows" 25 (Table.row_count (Db.table db "parts"))

let group_commit_validates () =
  let db = mk_source ~rows:0 () in
  try
    Db.set_sync_mode db (`Group 0);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let suite =
  [
    test "ts restrict" ts_restrict;
    test "ts project" ts_project;
    test "ts project must keep key" ts_project_must_keep_key;
    test "ts restrict+project to table" ts_restrict_and_project_to_table;
    test "watermark roundtrip" watermark_roundtrip;
    test "watermark drives incremental rounds" watermark_drives_incremental_rounds;
    test "watermark crash sweep during advance" watermark_crash_during_advance;
    test "group commit fewer fsyncs" group_commit_fewer_fsyncs;
    test "group commit validates" group_commit_validates;
  ]
