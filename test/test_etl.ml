(* Tests for Dw_etl.Pipeline: every extraction method drives the same
   source activity into the warehouse over multiple rounds; replicas and
   views converge; queued transport and schema transformation work. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Spj_view = Dw_core.Spj_view
module Transform = Dw_core.Transform
module Snapshot_extract = Dw_core.Snapshot_extract
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mk_source () =
  let db = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table db in
  db

let mk_warehouse ?(table = "parts") ?(schema = Workload.parts_schema) ?(view = true) () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table ~schema;
  if view then
    Warehouse.define_view wh
      (Spj_view.Select_project
         {
           name = table ^ "_view";
           table;
           schema;
           filter = None;
           project =
             [ { Spj_view.out_name = (Schema.column schema 0).Schema.name;
                 from_side = Spj_view.L;
                 from_col = (Schema.column schema 0).Schema.name } ];
         });
  wh

let run_activity db ~seed ~txns ~first_insert_id =
  Db.advance_day db;
  let rng = Prng.create ~seed in
  for i = 0 to txns - 1 do
    let stmts =
      match Prng.int rng 3 with
      | 0 ->
        Workload.insert_parts_txn ~first_id:(first_insert_id + (i * 10)) ~size:3
          ~day:(Db.current_day db) ()
      | 1 -> [ Workload.update_parts_stmt ~first_id:(1 + Prng.int rng 30) ~size:4 ]
      | _ -> [ Workload.delete_parts_stmt ~first_id:(1 + Prng.int rng 30) ~size:2 ]
    in
    Db.with_txn db (fun txn ->
        List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) stmts)
  done

let table_rows db name =
  let rows = ref [] in
  Table.scan (Db.table db name) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let converged src wh =
  let s = table_rows src "parts" in
  let w = table_rows (Warehouse.db wh) "parts" in
  List.length s = List.length w && List.for_all2 Tuple.equal s w

(* a method that observes all change kinds converges over multiple rounds *)
let pipeline_converges method_ transport () =
  let src = mk_source () in
  let wh = mk_warehouse () in
  let pipe = Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_ ~transport () in
  (* the initial load happens through logged transactions so that capture
     mechanisms installed at pipeline creation observe it *)
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:40 ~day:(Db.current_day src) ()));
  (* round 1: initial state *)
  (match Pipeline.run_round pipe with
   | Ok stats -> check Alcotest.bool "round 1 shipped" true (stats.Pipeline.shipped_bytes > 0)
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "after initial round" true (converged src wh);
  (* rounds 2 and 3: incremental *)
  run_activity src ~seed:1 ~txns:8 ~first_insert_id:100;
  (match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "after round 2" true (converged src wh);
  run_activity src ~seed:2 ~txns:8 ~first_insert_id:300;
  (match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "after round 3" true (converged src wh);
  check Alcotest.int "3 rounds" 3 (Pipeline.rounds pipe);
  (* views stayed consistent throughout *)
  let materialized = Warehouse.view_rows wh "parts_view" in
  let recomputed = Warehouse.recompute_view wh "parts_view" in
  check Alcotest.bool "view consistent" true (materialized = recomputed)

let trigger_direct = pipeline_converges Pipeline.Trigger Pipeline.Direct
let trigger_queued = pipeline_converges Pipeline.Trigger (Pipeline.Queued "dq")
let log_direct = pipeline_converges Pipeline.Log Pipeline.Direct
let snapshot_direct =
  pipeline_converges (Pipeline.Snapshot Snapshot_extract.Sort_merge) Pipeline.Direct
let snapshot_window_queued =
  pipeline_converges (Pipeline.Snapshot (Snapshot_extract.Window 4096)) (Pipeline.Queued "dq")

(* the timestamp method misses deletes: run insert/update-only activity *)
let timestamp_pipeline () =
  let src = mk_source () in
  Workload.load_parts src ~rows:40 ();
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Timestamp
      ~transport:(Pipeline.Queued "tsq") ()
  in
  (match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "initial load" true (converged src wh);
  Db.advance_day src;
  Db.with_txn src (fun txn ->
      ignore (Db.exec src txn (Workload.update_parts_stmt ~first_id:1 ~size:10) : Db.exec_result);
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:200 ~size:5 ~day:(Db.current_day src) ()));
  (match Pipeline.run_round pipe with
   | Ok stats -> check Alcotest.int "15 upserts" 15 stats.Pipeline.extracted_changes
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "converged without deletes" true (converged src wh)

(* op-delta pipeline: transactions go through the wrapper *)
let opdelta_pipeline () =
  let src = mk_source () in
  Workload.load_parts src ~rows:40 ();
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Op_delta_wrapper
      ~transport:(Pipeline.Queued "opq") ()
  in
  let cap = Option.get (Pipeline.capture pipe) in
  (* the wrapper path has no "initial load" concept: seed the warehouse
     through integration so the views stay consistent *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Dw_core.Delta.make ~table:"parts" ~schema:Workload.parts_schema
          (List.map (fun r -> Dw_core.Delta.Insert r) (table_rows src "parts")))
      : Warehouse.stats);
  let submit stmts =
    match Dw_core.Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  Db.advance_day src;
  submit (Workload.insert_parts_txn ~first_id:100 ~size:3 ~day:(Db.current_day src) ());
  submit [ Workload.update_parts_stmt ~first_id:1 ~size:10 ];
  submit [ Workload.delete_parts_stmt ~first_id:20 ~size:5 ];
  (match Pipeline.run_round pipe with
   | Ok stats ->
     check Alcotest.int "5 statements" 5 stats.Pipeline.extracted_changes;
     (* wire volume is tiny: 3 inserts + 2 small statements *)
     check Alcotest.bool "small wire volume" true (stats.Pipeline.shipped_bytes < 1000)
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "converged" true (converged src wh);
  (* nothing new: empty round *)
  match Pipeline.run_round pipe with
  | Ok stats -> check Alcotest.int "empty round" 0 stats.Pipeline.extracted_changes
  | Error e -> Alcotest.fail e

(* transformation: warehouse stores a renamed, reduced schema *)
let transformed_pipeline () =
  let src = mk_source () in
  Workload.load_parts src ~rows:30 ();
  let dw_schema =
    Schema.make
      [
        { Schema.name = "pid"; ty = Value.Tint; nullable = false };
        { Schema.name = "quantity"; ty = Value.Tint; nullable = false };
        { Schema.name = "sys"; ty = Value.Tstring 4; nullable = false };
      ]
  in
  let rule =
    {
      Transform.src_table = "parts";
      dst_table = "dw_parts";
      column_map = [ ("part_id", "pid"); ("qty", "quantity") ];
      constants = [ ("sys", Value.Str "erp1") ];
    }
  in
  let wh = mk_warehouse ~table:"dw_parts" ~schema:dw_schema ~view:false () in
  let pipe =
    Pipeline.create ~transform:rule ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Pipeline.Trigger ~transport:Pipeline.Direct ()
  in
  (* trigger pipelines only see changes from installation on *)
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:500 ~size:4 ~day:0 ()));
  (match Pipeline.run_round pipe with
   | Ok stats -> check Alcotest.int "4 inserts" 4 stats.Pipeline.extracted_changes
   | Error e -> Alcotest.fail e);
  let rows = table_rows (Warehouse.db wh) "dw_parts" in
  check Alcotest.int "4 transformed rows" 4 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.int "arity" 3 (Array.length r);
      check Alcotest.bool "constant" true (r.(2) = Value.Str "erp1"))
    rows

(* compaction: a churn round ships the net change only *)
let compacted_pipeline () =
  let src = mk_source () in
  let wh = mk_warehouse ~view:false () in
  let pipe =
    Pipeline.create ~compact:true ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Pipeline.Trigger ~transport:Pipeline.Direct ()
  in
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:10 ~day:0 ()));
  (* churn the same 10 rows repeatedly *)
  for _ = 1 to 8 do
    Db.with_txn src (fun txn ->
        ignore (Db.exec src txn (Workload.update_parts_stmt ~first_id:1 ~size:10)
                : Db.exec_result))
  done;
  (match Pipeline.run_round pipe with
   | Ok stats ->
     (* 10 inserts + 80 updates collapse to 10 net inserts *)
     check Alcotest.int "trigger captured everything" 90 stats.Pipeline.extracted_changes;
     check Alcotest.bool "wire carries the net change only" true
       (stats.Pipeline.shipped_bytes < 10 * 300)
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "still converges" true (converged src wh)

(* a round over a table with zero committed changes is a clean no-op:
   nothing extracted, nothing shipped twice, still converged *)
let round_with_zero_changes () =
  let src = mk_source () in
  let wh = mk_warehouse ~view:false () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Trigger
      ~transport:(Pipeline.Queued "zq") ()
  in
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:20 ~day:0 ()));
  (match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "converged" true (converged src wh);
  (* two idle rounds in a row *)
  for _ = 1 to 2 do
    match Pipeline.run_round pipe with
    | Ok stats -> check Alcotest.int "idle round extracts nothing" 0 stats.Pipeline.extracted_changes
    | Error e -> Alcotest.fail e
  done;
  check Alcotest.bool "still converged" true (converged src wh);
  check Alcotest.int "3 rounds counted" 3 (Pipeline.rounds pipe)

(* the table's committed mark row in the warehouse: (day, lsn, snap) *)
let mark_row wh =
  let m = Warehouse.mark wh "parts" in
  Warehouse.(m.day, m.lsn, m.snap)

let mark_day wh =
  let day, _, _ = mark_row wh in
  day

let ok_round pipe =
  match Pipeline.run_round pipe with
  | Ok stats -> stats.Pipeline.extracted_changes
  | Error e -> Alcotest.fail e

(* the source faulting mid-extract must not advance the mark: the
   failed round is a no-op and the next round re-extracts everything *)
let crash_mid_extract_resumes () =
  let src = mk_source () in
  Workload.load_parts src ~rows:30 ();
  let wh = mk_warehouse ~view:false () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Timestamp
      ~transport:Pipeline.Direct ()
  in
  (match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "initial load" true (converged src wh);
  (* timestamp method misses deletes: insert/update activity only *)
  Db.advance_day src;
  Db.with_txn src (fun txn ->
      ignore (Db.exec src txn (Workload.update_parts_stmt ~first_id:3 ~size:6) : Db.exec_result));
  let day_before = mark_day wh in
  (* every source write now faults: the extract dies writing its delta
     file, before anything ships *)
  Vfs.set_fault (Db.vfs src) (Some (Vfs.Fault.make ~write_fail_p:1.0 ~fsync_fail_p:1.0 ~seed:4 ()));
  (try
     match Pipeline.run_round pipe with
     | Ok _ -> Alcotest.fail "round succeeded under a total-failure fault"
     | Error _ -> ()
   with Vfs.Fault.Transient _ -> ());
  Vfs.set_fault (Db.vfs src) None;
  check Alcotest.int "mark never regressed or advanced" day_before (mark_day wh);
  check Alcotest.int "failed round not counted" 1 (Pipeline.rounds pipe);
  (* the next round picks the changes up as if the fault never happened *)
  (match Pipeline.run_round pipe with
   | Ok stats -> check Alcotest.int "re-extracted after fault" 6 stats.Pipeline.extracted_changes
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "converged after resume" true (converged src wh);
  check Alcotest.bool "mark advanced after success" true (mark_day wh > day_before)

(* a log round commits its mark with its data, so a write fault on the
   source device (where no mark lives any more) cannot split them: no
   later round re-applies the faulted round's inserts *)
let log_round_after_faulted_mark_write () =
  let src = mk_source () in
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Log
      ~transport:(Pipeline.Queued "lq") ()
  in
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:40 ~day:(Db.current_day src) ()));
  ignore (ok_round pipe : int);
  run_activity src ~seed:1 ~txns:8 ~first_insert_id:100;
  Vfs.set_fault (Db.vfs src) (Some (Vfs.Fault.make ~write_fail_p:1.0 ~fsync_fail_p:1.0 ~seed:4 ()));
  ignore (ok_round pipe : int);
  Vfs.set_fault (Db.vfs src) None;
  ignore (ok_round pipe : int);
  ignore (ok_round pipe : int);
  check Alcotest.bool "converged" true (converged src wh);
  check Alcotest.bool "view consistent" true
    (Warehouse.view_rows wh "parts_view" = Warehouse.recompute_view wh "parts_view")

(* the snapshot round a pipeline diffs against is part of its mark: a
   pipeline re-created over the same source and warehouse applies only
   what changed since the last committed round *)
let restarted_snapshot_pipeline_resumes () =
  let src = mk_source () in
  Workload.load_parts src ~rows:30 ();
  let wh = mk_warehouse () in
  let create () =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts"
      ~method_:(Pipeline.Snapshot Snapshot_extract.Sort_merge) ~transport:Pipeline.Direct ()
  in
  check Alcotest.int "initial round" 30 (ok_round (create ()));
  Db.advance_day src;
  Db.with_txn src (fun txn ->
      ignore (Db.exec src txn (Workload.update_parts_stmt ~first_id:3 ~size:4) : Db.exec_result);
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:100 ~size:3 ~day:(Db.current_day src) ()));
  let pipe = create () in
  check Alcotest.int "only the new changes" 7 (ok_round pipe);
  check Alcotest.bool "converged" true (converged src wh);
  check Alcotest.int "quiet round" 0 (ok_round pipe);
  check Alcotest.int "mark names round 3" 3 (let _, _, snap = mark_row wh in snap)

(* a round never reads past a transaction still open: B captures after
   A but commits first, a round runs, then A commits — each integrates
   exactly once *)
let open_transaction_is_not_skipped () =
  let src = mk_source () in
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Trigger
      ~transport:(Pipeline.Queued "tq") ()
  in
  let row id = Workload.gen_part (Prng.create ~seed:id) ~id ~day:(Db.current_day src) in
  let a = Db.begin_txn src in
  ignore (Db.insert_row src a "parts" (row 1) : Dw_storage.Heap_file.rid);
  let b = Db.begin_txn src in
  ignore (Db.insert_row src b "parts" (row 2) : Dw_storage.Heap_file.rid);
  Db.commit src b;
  check Alcotest.int "B waits behind A" 0 (ok_round pipe);
  Db.commit src a;
  check Alcotest.int "A and B, once each" 2 (ok_round pipe);
  check Alcotest.int "quiet round" 0 (ok_round pipe);
  check Alcotest.bool "converged" true (converged src wh)

(* an Op-Delta line is appended before its source transaction commits:
   when the commit record fails to write, the transaction rolls back and
   the round integrates only the transactions that committed *)
let failed_opdelta_commit_not_integrated () =
  let src = mk_source () in
  Workload.load_parts src ~rows:20 ();
  let wh = mk_warehouse () in
  ignore
    (Warehouse.integrate_value_delta wh
       (Dw_core.Delta.make ~table:"parts" ~schema:Workload.parts_schema
          (List.map (fun r -> Dw_core.Delta.Insert r) (table_rows src "parts")))
      : Warehouse.stats);
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Op_delta_wrapper
      ~transport:(Pipeline.Queued "fq") ()
  in
  let cap = Option.get (Pipeline.capture pipe) in
  let update first_id =
    Dw_core.Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id ~size:3 ]
  in
  let vfs = Db.vfs src in
  (* one update's events end with its commit record and the fsync *)
  let counter = Vfs.Fault.make ~seed:1 () in
  Vfs.set_fault vfs (Some counter);
  (match update 1 with Ok _ -> () | Error e -> Alcotest.fail e);
  let commit_write = Vfs.Fault.events counter - 2 in
  let window = { Vfs.Fault.from_event = commit_write; until_event = commit_write + 1 } in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make ~sustained:[ Vfs.Fault.Error_rate { window; write_p = 1.0; fsync_p = 0.0 } ]
          ~seed:1 ()));
  (match update 5 with
   | exception Vfs.Fault.Transient _ -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected the commit to fail");
  Vfs.set_fault vfs None;
  check Alcotest.(list int) "no transaction left open" [] (Db.active_txns src);
  (match update 9 with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "the two committed statements" 2 (ok_round pipe);
  check Alcotest.bool "converged" true (converged src wh);
  check Alcotest.int "quiet round" 0 (ok_round pipe)

(* Trigger and Op-Delta pipelines restarted over a source and warehouse
   reopened from their bytes resume from the mark, also when the purge
   left the capture table empty *)
let restarted_capture_pipeline_resumes method_ () =
  let srcvfs = Vfs.in_memory () and whvfs = Vfs.in_memory () in
  let src = Db.create ~vfs:srcvfs ~name:"src" () in
  let _ = Workload.create_parts_table src in
  let wh = Warehouse.create ~vfs:whvfs ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let create src wh =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_
      ~transport:(Pipeline.Queued "rq") ()
  in
  let submit pipe src stmts =
    match Pipeline.capture pipe with
    | Some cap -> (
        match Dw_core.Opdelta_capture.exec_txn cap stmts with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
    | None ->
      Db.with_txn src (fun txn ->
          List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts)
  in
  let pipe = create src wh in
  submit pipe src (Workload.insert_parts_txn ~first_id:1 ~size:10 ~day:(Db.current_day src) ());
  check Alcotest.bool "first round" true (ok_round pipe > 0);
  let catalog =
    List.map (fun tbl -> (Table.name tbl, Table.schema tbl, Table.ts_column tbl)) (Db.tables src)
  in
  Vfs.crash_reset srcvfs;
  Vfs.crash_reset whvfs;
  let src, _ = Db.reopen ~vfs:srcvfs ~name:"src" ~tables:catalog () in
  let wh =
    Warehouse.reopen ~vfs:whvfs ~name:"dw"
      ~replicas:[ ("parts", Workload.parts_schema) ] ~views:[] ~agg_views:[] ()
  in
  let pipe = create src wh in
  submit pipe src [ Workload.update_parts_stmt ~first_id:2 ~size:3 ];
  (* three updated rows, or the one statement that updated them *)
  check Alcotest.int "only the new changes"
    (if method_ = Pipeline.Trigger then 3 else 1)
    (ok_round pipe);
  check Alcotest.int "quiet round" 0 (ok_round pipe);
  check Alcotest.bool "converged" true (converged src wh)

let create_validates () =
  let src = mk_source () in
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  (* no replica *)
  try
    ignore
      (Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Trigger
         ~transport:Pipeline.Direct ());
    Alcotest.fail "expected missing-replica failure"
  with Invalid_argument _ -> ()

(* a round's duration is read from the warehouse registry's clock: under
   a Sim_clock that nothing advances, every round takes exactly 0 *)
let round_time_on_registry_clock () =
  let src = mk_source () in
  let wh = mk_warehouse () in
  Dw_util.Metrics.use_sim_clock (Db.metrics (Warehouse.db wh)) (Dw_util.Sim_clock.create ());
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Trigger
      ~transport:Pipeline.Direct ()
  in
  Db.with_txn src (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec src txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:20 ~day:(Db.current_day src) ()));
  match Pipeline.run_round pipe with
  | Ok stats ->
    check Alcotest.int "changes applied" 20 stats.Pipeline.extracted_changes;
    check (Alcotest.float 0.0) "sim-clock round time" 0.0 stats.Pipeline.total_seconds
  | Error e -> Alcotest.fail e

let suite =
  [
    test "trigger pipeline (direct)" trigger_direct;
    test "trigger pipeline (queued)" trigger_queued;
    test "log pipeline" log_direct;
    test "snapshot pipeline (sort-merge)" snapshot_direct;
    test "snapshot pipeline (window, queued)" snapshot_window_queued;
    test "timestamp pipeline" timestamp_pipeline;
    test "op-delta pipeline" opdelta_pipeline;
    test "transformed pipeline" transformed_pipeline;
    test "compacted pipeline" compacted_pipeline;
    test "round with zero changes is a no-op" round_with_zero_changes;
    test "crash mid-extract leaves watermark, resumes" crash_mid_extract_resumes;
    test "log round after a faulted mark write converges" log_round_after_faulted_mark_write;
    test "restarted snapshot pipeline resumes" restarted_snapshot_pipeline_resumes;
    test "open transaction is not skipped" open_transaction_is_not_skipped;
    test "failed op-delta commit is not integrated" failed_opdelta_commit_not_integrated;
    test "restarted trigger pipeline resumes"
      (restarted_capture_pipeline_resumes Pipeline.Trigger);
    test "restarted op-delta pipeline resumes"
      (restarted_capture_pipeline_resumes Pipeline.Op_delta_wrapper);
    test "create validates" create_validates;
    test "round time reads the warehouse clock" round_time_on_registry_clock;
  ]
