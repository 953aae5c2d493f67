(* Failure injection and nasty edge cases: buffer-pool steal + crash,
   torn queue sidecar files, key-changing updates, mid-statement errors,
   trigger stacking, and export/import corruption. *)

module Vfs = Dw_storage.Vfs
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Workload = Dw_workload.Workload
module Persistent_queue = Dw_transport.Persistent_queue
module Wal = Dw_txn.Wal
module Log_record = Dw_txn.Log_record
module Metrics = Dw_util.Metrics
module Spj_view = Dw_core.Spj_view
module Opdelta_capture = Dw_core.Opdelta_capture
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- steal: uncommitted dirty pages reach disk, then crash ---------- *)

let steal_then_crash_undone () =
  (* a 2-frame pool forces eviction (with write-back) of pages dirtied by
     the still-running transaction; recovery must undo them *)
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:2 ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  (* committed baseline *)
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:50 ~day:0 ()));
  (* loser: dirties far more pages than the pool holds *)
  let txn = Db.begin_txn db in
  List.iter
    (fun s -> ignore (Db.exec db txn s : Db.exec_result))
    (Workload.insert_parts_txn ~first_id:1000 ~size:200 ~day:0 ());
  (* crash now (no commit, no abort); prove stolen pages reached the vfs *)
  check Alcotest.bool "pages were stolen" true
    (Dw_util.Metrics.get (Db.metrics db) "pool.writebacks" > 0);
  let stats = Db.recover db in
  check Alcotest.bool "losers undone" true (stats.Dw_txn.Recovery.undone > 0);
  check Alcotest.int "only committed rows remain" 50 (Table.row_count (Db.table db "parts"))

let steal_committed_redone () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:2 ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:120 ~day:0 ()));
  ignore (Db.recover db : Dw_txn.Recovery.stats);
  check Alcotest.int "committed rows all present" 120 (Table.row_count (Db.table db "parts"))

(* ---------- torn queue sidecar ---------- *)

let torn_offset_file_redelivers () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"q" in
  Persistent_queue.enqueue q "m1";
  Persistent_queue.enqueue q "m2";
  ignore (Persistent_queue.peek q : string option);
  Persistent_queue.ack q;
  Persistent_queue.close q;
  (* tear the offset sidecar (crash mid-write): only 4 of 8 bytes *)
  let off = Vfs.open_existing vfs "q.q.off" in
  Vfs.truncate off 4;
  Vfs.close off;
  let q2 = Persistent_queue.open_ vfs ~name:"q" in
  (* conservative restart: both messages redelivered (at-least-once) *)
  check Alcotest.int "redelivered from zero" 2 (Persistent_queue.pending q2);
  check (Alcotest.option Alcotest.string) "m1 again" (Some "m1") (Persistent_queue.peek q2);
  Persistent_queue.close q2

(* ---------- key-changing updates ---------- *)

let key_update_collision_aborts_statement () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:5 ~day:0 ()));
  let before =
    List.sort Tuple.compare (Db.with_txn db (fun txn -> Db.select db txn "parts" ()))
  in
  (* shift every key by +1: the scan hits key 2 while it still exists *)
  (try
     Db.with_txn db (fun txn ->
         ignore
           (Db.update_where db txn "parts"
              ~set:[ ("part_id", Expr.Binop (Expr.Add, Expr.Col "part_id", Expr.Lit (Value.Int 1))) ]
              ~where:None : int));
     Alcotest.fail "expected key collision"
   with Invalid_argument _ -> ());
  let after =
    List.sort Tuple.compare (Db.with_txn db (fun txn -> Db.select db txn "parts" ()))
  in
  check Alcotest.bool "rolled back" true
    (List.length before = List.length after && List.for_all2 Tuple.equal before after)

let key_update_disjoint_succeeds () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:5 ~day:0 ()));
  (* move key 3 to 300: no collision *)
  ignore
    (Db.with_txn db (fun txn ->
         Db.update_where db txn "parts"
           ~set:[ ("part_id", Expr.Lit (Value.Int 300)) ]
           ~where:(Some (Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int 3))))));
  let tbl = Db.table db "parts" in
  check Alcotest.bool "old key gone" true (Table.find_key tbl [| Value.Int 3 |] = None);
  check Alcotest.bool "new key found" true (Table.find_key tbl [| Value.Int 300 |] <> None)

(* ---------- mid-statement evaluation errors ---------- *)

let division_by_zero_aborts () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:3 ~day:0 ()));
  let txn = Db.begin_txn db in
  (match
     Db.exec_sql db txn "UPDATE parts SET qty = qty / (part_id - part_id) WHERE part_id = 1"
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected division failure");
  Db.abort db txn;
  check Alcotest.int "table intact" 3 (Table.row_count (Db.table db "parts"))

(* ---------- multiple triggers stack ---------- *)

let triggers_stack_in_order () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  let log = ref [] in
  let mk name = { Trigger.name; on = [ Trigger.On_insert ]; action = (fun _ _ -> log := name :: !log) } in
  Db.add_trigger db ~table:"parts" (mk "first");
  Db.add_trigger db ~table:"parts" (mk "second");
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:1 ~day:0 ()));
  check (Alcotest.list Alcotest.string) "registration order" [ "first"; "second" ]
    (List.rev !log)

(* ---------- transient faults on the commit path ---------- *)

(* five committed parts, then one transaction that updates them all and
   meets [fault] just before it commits *)
let commit_under_fault fault =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:5 ~day:0 ()));
  let set_qty n txn =
    ignore
      (Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int n)) ] ~where:None : int)
  in
  (match
     Db.with_txn db (fun txn ->
         set_qty 7 txn;
         Vfs.set_fault vfs (Some fault))
   with
   | () -> Alcotest.fail "expected the commit to raise Transient"
   | exception Vfs.Fault.Transient _ -> ());
  Vfs.set_fault vfs None;
  check (Alcotest.list Alcotest.int) "no transaction left open" [] (Db.active_txns db);
  let qtys () =
    Db.with_txn db (fun txn -> Db.select db txn "parts" ())
    |> List.map (fun row -> match row.(2) with Value.Int q -> q | _ -> -1)
    |> List.sort_uniq compare
  in
  let seen = qtys () in
  (* the next writer is not blocked by a leaked table lock *)
  set_qty 9 |> Db.with_txn db;
  check (Alcotest.list Alcotest.int) "next update applies" [ 9 ] (qtys ());
  seen

(* the commit record cannot be written: the transaction lost, and must be
   rolled back rather than left open holding its locks *)
let commit_write_fault_rolls_back () =
  let seen = commit_under_fault (Vfs.Fault.make ~write_fail_p:1.0 ~seed:1 ()) in
  check Alcotest.bool "the update is rolled back" false (List.mem 7 seen)

(* the commit record is written but its fsync fails: the commit stands,
   and the transaction still finishes *)
let commit_fsync_fault_finishes () =
  let seen = commit_under_fault (Vfs.Fault.make ~fsync_fail_p:1.0 ~seed:1 ()) in
  check (Alcotest.list Alcotest.int) "the commit stands" [ 7 ] seen

(* a Begin goes to the log buffer: it makes no write or fsync event, so
   a device that fails every write cannot fail it *)
let begin_costs_no_device_event () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let plan = Vfs.Fault.make ~write_fail_p:1.0 ~seed:1 () in
  Vfs.set_fault vfs (Some plan);
  let txn = Db.begin_txn db in
  check Alcotest.int "no device event" 0 (Vfs.Fault.events plan);
  check (Alcotest.list Alcotest.int) "the transaction is active" [ Db.txid txn ] (Db.active_txns db);
  Vfs.set_fault vfs None;
  Db.commit db txn;
  check (Alcotest.list Alcotest.int) "and finishes" [] (Db.active_txns db)

(* ---------- the log buffer: write-ahead, commit faults, torn writes ---------- *)

let catalog db = List.map (fun t -> (Table.name t, Table.schema t, Table.ts_column t)) (Db.tables db)

let parts_rows db =
  let acc = ref [] in
  Table.scan (Db.table db "parts") (fun _ tuple -> acc := tuple :: !acc);
  List.sort Tuple.compare !acc

(* a statement whose log buffer fills and cannot be written out: the
   append that meets the fault raises after its heap change, and the
   abort must undo that row too.  3,000 rows of records overflow the
   64 KiB buffer well before the statement ends.  [setup] commits first *)
let dml_under_log_write_fault ?(setup = fun _ _ -> ()) statement () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:3000 ();
  Db.with_txn db (setup db);
  let before = parts_rows db in
  (match
     Db.with_txn db (fun txn ->
         Vfs.set_fault vfs (Some (Vfs.Fault.make ~write_fail_p:1.0 ~seed:1 ()));
         statement db txn)
   with
   | () -> Alcotest.fail "expected the log write-out to raise Transient"
   | exception Vfs.Fault.Transient _ -> ());
  Vfs.set_fault vfs None;
  check (Alcotest.list Alcotest.int) "no transaction left open" [] (Db.active_txns db);
  let after = parts_rows db in
  check Alcotest.int "row count restored" (List.length before) (List.length after);
  check Alcotest.bool "rows restored" true (List.equal Tuple.equal before after)

let delete_all db txn = ignore (Db.delete_where db txn "parts" ~where:None : int)

let update_all db txn =
  ignore (Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 7)) ] ~where:None : int)

(* into the slots [delete_all] freed: a new heap page's write would
   fail before any row changed *)
let insert_many db txn =
  let prng = Dw_util.Prng.create ~seed:5 in
  for id = 1 to 3000 do
    ignore (Db.insert db txn "parts" (Workload.gen_part prng ~id ~day:0) : Heap_file.rid)
  done

let crash_and_reopen ?pool_pages vfs db =
  let catalog = catalog db in
  Vfs.crash_reset vfs;
  Db.reopen ?pool_pages ~vfs ~name:(Db.name db) ~tables:catalog ()

(* a transaction larger than a 2-page pool has its pages stolen while its
   later frames are still in the log buffer; the pool's write-back hook
   writes the buffer out first, so after a real crash (the buffer lost)
   recovery still finds a frame for every stolen row and undoes it *)
let write_ahead_under_steal () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:2 ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun s -> ignore (Db.exec db txn s : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:1 ~size:50 ~day:0 ()));
  let committed = parts_rows db in
  let txn = Db.begin_txn db in
  List.iter
    (fun s -> ignore (Db.exec db txn s : Db.exec_result))
    (Workload.insert_parts_txn ~first_id:1000 ~size:200 ~day:0 ());
  check Alcotest.bool "pages were stolen" true (Metrics.get (Db.metrics db) "pool.writebacks" > 0);
  let seg = Vfs.open_existing vfs "src.wal.000000000000" in
  check Alcotest.bool "frames still buffered" true (Wal.next_lsn (Db.wal db) > Vfs.size seg);
  Vfs.close seg;
  let db, stats = crash_and_reopen ~pool_pages:2 vfs db in
  check Alcotest.bool "losers undone" true (stats.Dw_txn.Recovery.undone > 0);
  check Alcotest.bool "only the committed rows stand" true (parts_rows db = committed)

(* the commit's log write fails and so does the Abort's: the buffered
   frames go out with the next commit, and must not show a Commit for
   the failed transaction *)
let commit_write_fault_logs_no_commit () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:20 ();
  Db.checkpoint db;
  let before = parts_rows db in
  let txn = Db.begin_txn db in
  ignore (Db.exec db txn (Workload.update_parts_stmt ~first_id:1 ~size:10) : Db.exec_result);
  let window = { Vfs.Fault.from_event = 0; until_event = 2 } in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make ~sustained:[ Vfs.Fault.Error_rate { window; write_p = 1.0; fsync_p = 0.0 } ]
          ~seed:1 ()));
  (match Db.commit db txn with
   | () -> Alcotest.fail "expected the commit to raise Transient"
   | exception Vfs.Fault.Transient _ -> ());
  check Alcotest.bool "rolled back in memory" true (parts_rows db = before);
  Db.with_txn db (fun txn ->
      ignore (Db.exec db txn (Workload.delete_parts_stmt ~first_id:15 ~size:2) : Db.exec_result));
  let after = parts_rows db in
  let db, stats = crash_and_reopen vfs db in
  check Alcotest.int "the failed transaction is the one loser" 1 stats.Dw_txn.Recovery.losers;
  check Alcotest.bool "the later commit stands alone" true (parts_rows db = after);
  let frames tx =
    let acc = ref [] in
    Wal.iter_all (Db.wal db) (fun _ r ->
        if r.Log_record.tx = tx then
          match r.Log_record.body with
          | Log_record.Commit -> acc := "commit" :: !acc
          | Log_record.Abort -> acc := "abort" :: !acc
          | _ -> ());
    List.rev !acc
  in
  check Alcotest.(list string) "no Commit frame for it" [ "abort" ] (frames (Db.txid txn))

(* a database whose parts rows are on the device, then one 50-row UPDATE
   committed: the rows before and after it, the LSN of each of its
   frames, the LSN past its Commit, and its number of log writes *)
let fifty_row_update () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:80 ();
  Db.checkpoint db;
  let before = parts_rows db in
  let wal = Db.wal db in
  let from = Wal.next_lsn wal in
  let m = Db.metrics db in
  let writes = Metrics.observed_count m "wal.append" in
  ignore
    (Db.with_txn db (fun txn -> Db.exec db txn (Workload.update_parts_stmt ~first_id:11 ~size:50))
      : Db.exec_result);
  let log_writes = Metrics.observed_count m "wal.append" - writes in
  let frames = ref [] in
  Wal.iter_from wal from (fun lsn r -> frames := (lsn, r.Log_record.body) :: !frames);
  (vfs, db, before, parts_rows db, List.rev !frames, Wal.next_lsn wal, log_writes)

let fifty_row_update_one_write () =
  let _, _, _, _, frames, _, log_writes = fifty_row_update () in
  let kind = function
    | Log_record.Begin -> "begin"
    | Log_record.Update _ -> "update"
    | Log_record.Commit -> "commit"
    | Log_record.Abort | Log_record.Insert _ | Log_record.Delete _ | Log_record.Checkpoint _ ->
      "other"
  in
  check Alcotest.(list string) "Begin, 50 Updates, Commit"
    (("begin" :: List.init 50 (fun _ -> "update")) @ [ "commit" ])
    (List.map (fun (_, body) -> kind body) frames);
  check Alcotest.int "in one log write" 1 log_writes

(* the update's one log write, torn at every frame boundary and one byte
   either side (the surviving prefix is cut back on the device, as a
   crash mid-write leaves it): without the whole Commit frame recovery
   reaches the state before the update, with it the state after *)
let torn_log_write_recovers () =
  let _, _, before, after, frames, end_, _ = fifty_row_update () in
  let start = fst (List.hd frames) in
  let cuts =
    List.concat_map (fun b -> [ b - 1; b; b + 1 ]) (List.map fst frames @ [ end_ ])
    |> List.filter (fun k -> k >= start && k <= end_)
    |> List.sort_uniq compare
  in
  List.iter
    (fun cut ->
      let vfs, db, _, _, _, _, _ = fifty_row_update () in
      (* the checkpoint rotated the log: the update is the newest
         segment, which begins at [start] *)
      let seg = Vfs.open_existing vfs (Printf.sprintf "src.wal.%012d" start) in
      Vfs.truncate seg (cut - start);
      Vfs.close seg;
      let db, _ = crash_and_reopen vfs db in
      let want, what = if cut = end_ then (after, "after") else (before, "before") in
      check Alcotest.bool (Printf.sprintf "cut at %d recovers the state %s" (cut - start) what) true
        (parts_rows db = want))
    cuts;
  check Alcotest.bool "the update changed rows" true (before <> after)

(* the warehouse twin: a pipeline's Op-Delta refresh of one captured
   UPDATE is one warehouse transaction (the replica rows, the view's
   upkeep and the mark past the update), written to the log at once *)
let qty_view =
  let column c = { Spj_view.out_name = c; from_side = Spj_view.L; from_col = c } in
  Spj_view.Select_project
    {
      name = "parts_qty";
      table = "parts";
      schema = Workload.parts_schema;
      filter = None;
      project = [ column "part_id"; column "qty" ];
    }

let wh_state wh =
  ( List.sort Tuple.compare (Warehouse.replica_rows wh "parts"),
    Warehouse.view_rows wh "parts_qty",
    Warehouse.mark wh "parts" )

let refresh_pipeline src wh =
  Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Op_delta_wrapper
    ~transport:Pipeline.Direct ()

let refresh pipe =
  match Pipeline.run_round pipe with Ok stats -> stats | Error e -> Alcotest.fail e

(* a warehouse whose first refresh (20 inserted rows) is on the device,
   then a second round refreshing one 10-row UPDATE: the source, the
   warehouse device, its state before and after that round, the LSN of
   each of the round's frames and the LSN past its Commit *)
let op_delta_refresh () =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  let vfs = Vfs.in_memory () in
  let wh = Warehouse.create ~vfs ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  Warehouse.define_view wh qty_view;
  let pipe = refresh_pipeline src wh in
  let exec stmts =
    match Opdelta_capture.exec_txn (Option.get (Pipeline.capture pipe)) stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  exec (Workload.insert_parts_txn ~first_id:1 ~size:20 ~day:0 ());
  ignore (refresh pipe : Pipeline.round_stats);
  let wdb = Warehouse.db wh in
  Db.checkpoint wdb;
  let before = wh_state wh in
  exec [ Workload.update_parts_stmt ~first_id:5 ~size:10 ];
  let wal = Db.wal wdb in
  let from = Wal.next_lsn wal in
  let writes = Metrics.observed_count (Db.metrics wdb) "wal.append" in
  let stats = refresh pipe in
  check Alcotest.int "one refresh transaction" 1 stats.Pipeline.integration.Warehouse.txns;
  check Alcotest.int "in one log write" 1
    (Metrics.observed_count (Db.metrics wdb) "wal.append" - writes);
  let frames = ref [] in
  Wal.iter_from wal from (fun lsn _ -> frames := lsn :: !frames);
  (src, vfs, before, wh_state wh, List.rev !frames, Wal.next_lsn wal)

(* that log write torn at every frame boundary and one byte either side:
   after a restart the replica, the view and the mark are all before the
   round or, with the whole Commit frame, all after it; re-running the
   round then applies the UPDATE (qty + 1) exactly once *)
let torn_refresh_write_recovers () =
  let _, _, before, after, frames, end_ = op_delta_refresh () in
  let start = List.hd frames in
  let cuts =
    List.concat_map (fun b -> [ b - 1; b; b + 1 ]) (frames @ [ end_ ])
    |> List.filter (fun k -> k >= start && k <= end_)
    |> List.sort_uniq compare
  in
  List.iter
    (fun cut ->
      let src, vfs, _, _, _, _ = op_delta_refresh () in
      (* the checkpoint rotated the log: the round is the newest
         segment, which begins at [start] *)
      let seg = Vfs.open_existing vfs (Printf.sprintf "dw.wal.%012d" start) in
      Vfs.truncate seg (cut - start);
      Vfs.close seg;
      Vfs.crash_reset vfs;
      let wh =
        Warehouse.reopen ~vfs ~name:"dw"
          ~replicas:[ ("parts", Workload.parts_schema) ]
          ~views:[ qty_view ] ~agg_views:[] ()
      in
      let want, what = if cut = end_ then (after, "after") else (before, "before") in
      check Alcotest.bool (Printf.sprintf "cut at %d recovers the state %s" (cut - start) what)
        true (wh_state wh = want);
      ignore (refresh (refresh_pipeline src wh) : Pipeline.round_stats);
      check Alcotest.bool (Printf.sprintf "cut at %d: the re-run applies the round once" (cut - start))
        true (wh_state wh = after))
    cuts;
  check Alcotest.bool "the round changed the replica" true (before <> after)

(* ---------- export corruption detection ---------- *)

let truncated_export_rejected () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:20 ();
  ignore (Dw_engine.Export_util.export_table db ~table:"parts" ~dest:"p.exp" ()
          : Dw_engine.Export_util.stats);
  let f = Vfs.open_existing vfs "p.exp" in
  Vfs.truncate f (Vfs.size f - 150);
  Vfs.close f;
  let _ = Db.create_table db ~name:"p2" ~ts_column:"last_modified" Workload.parts_schema in
  check Alcotest.bool "truncated dump rejected" true
    (Result.is_error (Dw_engine.Import_util.import_table db ~src:"p.exp" ~table:"p2"))

(* ---------- deep buffer pool churn keeps data intact ---------- *)

let pool_churn_integrity () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:3 ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:500 ();
  (* interleave scans and updates under heavy eviction *)
  for round = 1 to 5 do
    ignore
      (Db.with_txn db (fun txn ->
           Db.update_where db txn "parts"
             ~set:[ ("qty", Expr.Lit (Value.Int round)) ]
             ~where:
               (Some
                  (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int (round * 50)))))))
  done;
  let tbl = Db.table db "parts" in
  check Alcotest.int "all rows survive" 500 (Table.row_count tbl);
  match Table.find_key tbl [| Value.Int 10 |] with
  | Some (_, t) ->
    check Alcotest.bool "last round visible" true
      (Tuple.get Workload.parts_schema t "qty" = Value.Int 5)
  | None -> Alcotest.fail "row 10 missing"

(* ---------- sustained fault plans (flap / error window / latency) ---------- *)

let vfs_counter vfs name =
  match List.assoc_opt name (Metrics.snapshot (Vfs.metrics vfs)) with
  | Some v -> v
  | None -> 0

let sustained_flap_deterministic () =
  (* flap phase is pure arithmetic over the event index: the schedule
     survives revive (the probe's view), while crash_reset detaches the
     whole plan (a fresh device) *)
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make ~tear_on_crash:false
          ~sustained:
            [
              Vfs.Fault.Crash_flap
                {
                  window = { from_event = 2; until_event = max_int };
                  period_on = 1;
                  period_off = 2;
                };
            ]
          ~seed:3 ()));
  let f = Vfs.create vfs "probe" in
  let append () = ignore (Vfs.append f (Bytes.make 8 'x') : int) in
  append ();
  append ();
  (match append () with
   | () -> Alcotest.fail "event 2 is an ON phase: should crash"
   | exception Vfs.Fault.Crash _ -> ());
  (match append () with
   | () -> Alcotest.fail "dead vfs accepted a write"
   | exception Vfs.Fault.Crash _ -> ());
  Vfs.revive vfs;
  append ();
  append ();
  (match append () with
   | () -> Alcotest.fail "event 5 is the next ON phase: should crash again"
   | exception Vfs.Fault.Crash _ -> ());
  Vfs.crash_reset vfs;
  for _ = 1 to 10 do
    append ()
  done

let sustained_error_rate_window () =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make
          ~sustained:
            [
              Vfs.Fault.Error_rate
                { window = { from_event = 0; until_event = 4 }; write_p = 1.0; fsync_p = 1.0 };
            ]
          ~seed:5 ()));
  let f = Vfs.create vfs "probe" in
  for i = 0 to 3 do
    match Vfs.append f (Bytes.make 8 'x') with
    | (_ : int) -> Alcotest.failf "event %d inside the window should fail transiently" i
    | exception Vfs.Fault.Transient _ -> ()
  done;
  (* window closed: the write goes through, and the transient failures
     left no bytes behind *)
  ignore (Vfs.append f (Bytes.make 8 'x') : int);
  check Alcotest.int "transient writes had no effect" 8 (Vfs.size f);
  check Alcotest.int "every windowed write counted" 4 (vfs_counter vfs "fault.transient_writes")

let sustained_latency_counted () =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make
          ~sustained:
            [ Vfs.Fault.Latency { window = { from_event = 0; until_event = 3 }; delay_s = 5e-4 } ]
          ~seed:9 ()));
  let f = Vfs.create vfs "probe" in
  for _ = 1 to 5 do
    ignore (Vfs.append f (Bytes.make 8 'x') : int)
  done;
  check Alcotest.int "exactly the windowed events spiked" 3
    (vfs_counter vfs "fault.latency_spikes")

let sustained_rejects_malformed () =
  let mk sustained = Vfs.Fault.make ~sustained ~seed:1 () in
  (match
     mk
       [
         Vfs.Fault.Crash_flap
           { window = { from_event = 0; until_event = 1 }; period_on = 0; period_off = 1 };
       ]
   with
   | (_ : Vfs.Fault.t) -> Alcotest.fail "period_on = 0 accepted"
   | exception Invalid_argument _ -> ());
  match
    mk
      [
        Vfs.Fault.Error_rate
          { window = { from_event = 0; until_event = 1 }; write_p = 1.5; fsync_p = 0.0 };
      ]
  with
  | (_ : Vfs.Fault.t) -> Alcotest.fail "probability > 1 accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    test "steal then crash: losers undone" steal_then_crash_undone;
    test "steal: committed redone" steal_committed_redone;
    test "torn offset file redelivers" torn_offset_file_redelivers;
    test "key update collision aborts" key_update_collision_aborts_statement;
    test "key update disjoint succeeds" key_update_disjoint_succeeds;
    test "division by zero aborts" division_by_zero_aborts;
    test "triggers stack in order" triggers_stack_in_order;
    test "truncated export rejected" truncated_export_rejected;
    test "pool churn integrity" pool_churn_integrity;
    test "crash flap phases deterministic, revive vs crash_reset" sustained_flap_deterministic;
    test "error-rate window raises then clears" sustained_error_rate_window;
    test "latency spikes counted inside the window" sustained_latency_counted;
    test "malformed sustained plans rejected" sustained_rejects_malformed;
    test "commit write fault rolls back" commit_write_fault_rolls_back;
    test "commit fsync fault finishes the commit" commit_fsync_fault_finishes;
    test "a Begin costs no device event" begin_costs_no_device_event;
    test "write-ahead under steal survives a crash" write_ahead_under_steal;
    test "a failed commit write logs no Commit" commit_write_fault_logs_no_commit;
    test "a 50-row update is 52 frames in one log write" fifty_row_update_one_write;
    test "a torn log write recovers at every frame boundary" torn_log_write_recovers;
    test "a torn warehouse refresh recovers at every frame boundary" torn_refresh_write_recovers;
    test "a failed log write-out in a DELETE is undone" (dml_under_log_write_fault delete_all);
    test "a failed log write-out in an UPDATE is undone" (dml_under_log_write_fault update_all);
    test "a failed log write-out in INSERTs is undone"
      (dml_under_log_write_fault ~setup:delete_all insert_many);
  ]
