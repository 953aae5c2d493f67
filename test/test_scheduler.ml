(* Tests for Dw_engine.Scheduler: effect-based cooperative sessions over
   the real engine — interleaving, lock blocking, deadlock surfacing, and
   the batch-vs-online availability contrast with real 2PL. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Scheduler = Dw_engine.Scheduler
module Workload = Dw_workload.Workload

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mk_db () =
  let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"db" () in
  let _ = Workload.create_parts_table db in
  db

let exec db txn stmt = ignore (Db.exec db txn stmt : Db.exec_result)

let report_for name (r : Scheduler.report) =
  List.find (fun s -> s.Scheduler.session = name) r.Scheduler.sessions

let sessions_interleave () =
  let db = mk_db () in
  Workload.load_parts db ~rows:50 ();
  let order = ref [] in
  let reader label =
    {
      Scheduler.name = label;
      start_at = 0;
      work =
        (fun () ->
          for _ = 1 to 3 do
            Db.with_txn db (fun txn -> ignore (Db.select db txn "parts" ()));
            order := label :: !order
          done);
    }
  in
  let r = Scheduler.run db [ reader "a"; reader "b" ] in
  check Alcotest.int "both finished" 2
    (List.length (List.filter (fun s -> s.Scheduler.failed = None) r.Scheduler.sessions));
  (* cooperative round-robin: the completion order alternates *)
  let sequence = List.rev !order in
  check Alcotest.bool "interleaved" true
    (match sequence with
     | "a" :: "b" :: _ -> true
     | "b" :: "a" :: _ -> true
     | _ -> false)

let writer_blocks_reader () =
  let db = mk_db () in
  Workload.load_parts db ~rows:50 ();
  (* writer: one long transaction of 6 update statements; reader arrives
     during it and must wait for commit *)
  let writer =
    {
      Scheduler.name = "writer";
      start_at = 0;
      work =
        (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 5 do
                exec db txn (Workload.update_parts_stmt ~first_id:(1 + (i * 5)) ~size:3)
              done));
    }
  in
  let reader =
    {
      Scheduler.name = "reader";
      start_at = 1;
      work = (fun () -> Db.with_txn db (fun txn -> ignore (Db.select db txn "parts" ())));
    }
  in
  let r = Scheduler.run db [ writer; reader ] in
  let w = report_for "writer" r and rd = report_for "reader" r in
  check Alcotest.bool "no failures" true (w.Scheduler.failed = None && rd.Scheduler.failed = None);
  check Alcotest.bool "reader was blocked" true (rd.Scheduler.blocked_slices > 0);
  check Alcotest.bool "reader finished after writer" true
    (rd.Scheduler.finished >= w.Scheduler.finished)

let readers_share () =
  let db = mk_db () in
  Workload.load_parts db ~rows:50 ();
  let reader label start_at =
    {
      Scheduler.name = label;
      start_at;
      work =
        (fun () ->
          Db.with_txn db (fun txn ->
              for _ = 1 to 3 do
                ignore (Db.select db txn "parts" ())
              done));
    }
  in
  let r = Scheduler.run db [ reader "r1" 0; reader "r2" 0; reader "r3" 1 ] in
  List.iter
    (fun s -> check Alcotest.int (s.Scheduler.session ^ " never blocked") 0 s.Scheduler.blocked_slices)
    r.Scheduler.sessions

let deadlock_surfaces () =
  let db = mk_db () in
  Workload.load_parts db ~rows:10 ();
  let _ = Db.create_table db ~name:"other" Workload.parts_schema in
  Db.with_txn db (fun txn ->
      ignore (Db.insert db txn "other" (Workload.gen_part (Dw_util.Prng.create ~seed:1) ~id:1 ~day:0)));
  (* t1 locks parts then other; t2 locks other then parts *)
  let t1 =
    {
      Scheduler.name = "t1";
      start_at = 0;
      work =
        (fun () ->
          Db.with_txn db (fun txn ->
              exec db txn (Workload.update_parts_stmt ~first_id:1 ~size:1);
              ignore
                (Db.update_where db txn "other" ~set:[ ("qty", Dw_relation.Expr.Lit (Value.Int 0)) ]
                   ~where:None)));
    }
  in
  let t2 =
    {
      Scheduler.name = "t2";
      start_at = 0;
      work =
        (fun () ->
          Db.with_txn db (fun txn ->
              ignore
                (Db.update_where db txn "other" ~set:[ ("qty", Dw_relation.Expr.Lit (Value.Int 1)) ]
                   ~where:None);
              exec db txn (Workload.update_parts_stmt ~first_id:1 ~size:1)));
    }
  in
  let r = Scheduler.run db [ t1; t2 ] in
  let failures =
    List.filter (fun s -> s.Scheduler.failed <> None) r.Scheduler.sessions
  in
  (* exactly one of the two is chosen as the deadlock victim and aborted *)
  check Alcotest.int "one victim" 1 (List.length failures);
  (match failures with
   | [ victim ] ->
     check Alcotest.bool "deadlock abort" true
       (match victim.Scheduler.failed with
        | Some msg ->
          (try ignore (Str.search_forward (Str.regexp "Deadlock") msg 0); true
           with Not_found -> false)
        | None -> false)
   | _ -> ());
  (* the survivor's work is committed and the victim rolled back *)
  check Alcotest.int "table intact" 10 (Table.row_count (Db.table db "parts"))

(* the W2R availability story with real locks: batch integration starves
   a concurrent reader for its whole duration; per-transaction
   integration bounds it *)
let batch_vs_online_with_real_locks () =
  let run_mode online =
    let db = mk_db () in
    Workload.load_parts db ~rows:100 ();
    let integrate =
      {
        Scheduler.name = "integrator";
        start_at = 0;
        work =
          (fun () ->
            let apply_one i txn =
              exec db txn (Workload.update_parts_stmt ~first_id:(1 + (i * 7)) ~size:3)
            in
            if online then
              for i = 0 to 9 do
                Db.with_txn db (fun txn -> apply_one i txn)
              done
            else
              Db.with_txn db (fun txn ->
                  for i = 0 to 9 do
                    apply_one i txn
                  done));
      }
    in
    let reader =
      {
        Scheduler.name = "reader";
        start_at = 2;
        work = (fun () -> Db.with_txn db (fun txn -> ignore (Db.select db txn "parts" ())));
      }
    in
    let r = Scheduler.run db [ integrate; reader ] in
    (report_for "reader" r).Scheduler.blocked_slices
  in
  let batch_wait = run_mode false in
  let online_wait = run_mode true in
  check Alcotest.bool "batch starves the reader longer" true (batch_wait > online_wait);
  check Alcotest.bool "online wait is short" true (online_wait <= 2)

let empty_and_trivial () =
  let db = mk_db () in
  let r = Scheduler.run db [] in
  check Alcotest.int "empty run" 0 r.Scheduler.total_slices;
  (* a session that raises immediately is recorded, not propagated *)
  let r =
    Scheduler.run db
      [ { Scheduler.name = "boom"; start_at = 0; work = (fun () -> failwith "kaput") } ]
  in
  (match (List.hd r.Scheduler.sessions).Scheduler.failed with
   | Some msg -> check Alcotest.bool "failure recorded" true (String.length msg > 0)
   | None -> Alcotest.fail "expected failure");
  (* hooks were restored: plain Db use outside the scheduler still works *)
  Db.with_txn db (fun txn -> ignore (Db.select db txn "parts" ()))

let future_arrival_jump () =
  let db = mk_db () in
  Workload.load_parts db ~rows:5 ();
  let ran = ref false in
  let r =
    Scheduler.run db
      [ { Scheduler.name = "late"; start_at = 50;
          work = (fun () -> Db.with_txn db (fun txn ->
              ran := true;
              ignore (Db.select db txn "parts" ()))) } ]
  in
  check Alcotest.bool "late session ran" true !ran;
  check Alcotest.bool "clock jumped to arrival" true (r.Scheduler.total_slices >= 50)

(* a k/v table holding the row (1, 10) *)
let kv_db () =
  let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"db" () in
  let schema =
    Dw_relation.Schema.make ~key_arity:1
      [ { Dw_relation.Schema.name = "k"; ty = Value.Tint; nullable = false };
        { Dw_relation.Schema.name = "v"; ty = Value.Tint; nullable = false } ]
  in
  ignore (Db.create_table db ~name:"t" schema : Table.t);
  Db.with_txn db (fun txn ->
      ignore (Db.insert db txn "t" [| Value.Int 1; Value.Int 10 |] : Dw_storage.Heap_file.rid));
  db

let sql db txn text =
  match Db.exec_sql db txn text with Ok _ -> () | Error e -> Alcotest.fail e

(* a writer updates the row, runs a few statements and aborts; a
   read-write reader arriving meanwhile waits for its row lock and must
   then read the committed row, not the image it saw before the wait *)
let find_by_key_reads_no_dirty_row () =
  let db = kv_db () in
  let writer =
    {
      Scheduler.name = "writer";
      start_at = 0;
      work =
        (fun () ->
          let txn = Db.begin_txn db in
          sql db txn "UPDATE t SET v = 99 WHERE k = 1";
          for _ = 1 to 3 do
            ignore (Db.select db txn "t" ())
          done;
          Db.abort db txn);
    }
  in
  let seen = ref None in
  let reader =
    {
      Scheduler.name = "reader";
      start_at = 2;
      work =
        (fun () ->
          Db.with_txn db (fun txn -> seen := Db.find_by_key db txn "t" [| Value.Int 1 |]));
    }
  in
  let r = Scheduler.run db [ writer; reader ] in
  check Alcotest.bool "reader waited" true ((report_for "reader" r).Scheduler.blocked_slices > 0);
  check (Alcotest.option Alcotest.string) "committed row"
    (Some (Dw_relation.Tuple.to_string [| Value.Int 1; Value.Int 10 |]))
    (Option.map (fun (_, row) -> Dw_relation.Tuple.to_string row) !seen)

(* The locking rule at a warehouse: a refresh transaction X-locks a
   view's backing table when it writes the view, so a read-write lookup
   of a view row waits for the commit and then reads the committed row;
   a snapshot lookup never waits and reads the row as it was. *)
let view_row_lookup_waits_for_refresh () =
  let module Warehouse = Dw_warehouse.Warehouse in
  let module Op_delta = Dw_core.Op_delta in
  let wh = Test_warehouse.mk_wh ~views:[ Test_warehouse.sp_view ] () in
  let db = Warehouse.db wh in
  let k, qty =
    match
      List.find_map
        (fun (row, _) ->
          match row with
          | [| Value.Int k; Value.Int q |] when q < 499 -> Some (k, q)
          | _ -> None)
        (Warehouse.view_rows wh "small_qty")
    with
    | Some hit -> hit
    | None -> Alcotest.fail "no small_qty row"
  in
  let parse text =
    match Dw_sql.Parser.parse text with Ok stmt -> stmt | Error e -> Alcotest.fail e
  in
  (* the parts run's upkeep writes small_qty when the first supply
     statement opens the next run; three statement boundaries follow *)
  let stmts =
    parse (Printf.sprintf "UPDATE parts SET qty = qty + 1 WHERE part_id = %d" k)
    :: List.init 3 (fun i ->
        parse (Printf.sprintf "UPDATE supply SET supplier = 'x' WHERE supply_id = %d" (i + 1)))
  in
  let refresh =
    {
      Scheduler.name = "refresh";
      start_at = 0;
      work =
        (fun () ->
          ignore
            (Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:1 stmts ] : Warehouse.stats));
    }
  in
  let key = [| Value.Int k |] in
  let row_qty = function
    | Some (_, [| _; Value.Int q |]) -> q
    | Some _ | None -> Alcotest.fail "small_qty row missing"
  in
  let locked_qty = ref 0 and snapshot_qty = ref 0 in
  let reader =
    {
      Scheduler.name = "reader";
      start_at = 3;
      work =
        (fun () ->
          Db.with_txn db (fun txn ->
              locked_qty := row_qty (Db.find_by_key db txn "small_qty" key)));
    }
  in
  let snapshot =
    {
      Scheduler.name = "snapshot";
      start_at = 3;
      work =
        (fun () ->
          let txn = Db.begin_txn ~mode:`Snapshot db in
          snapshot_qty := row_qty (Db.find_by_key db txn "small_qty" key);
          Db.commit db txn);
    }
  in
  let r = Scheduler.run db [ refresh; reader; snapshot ] in
  List.iter
    (fun s -> check Alcotest.bool (s.Scheduler.session ^ " ok") true (s.Scheduler.failed = None))
    r.Scheduler.sessions;
  let rf = report_for "refresh" r and rd = report_for "reader" r in
  check Alcotest.bool "reader waited" true (rd.Scheduler.blocked_slices > 0);
  check Alcotest.bool "reader finished after the refresh" true
    (rd.Scheduler.finished > rf.Scheduler.finished);
  check Alcotest.int "reader reads the committed row" (qty + 1) !locked_qty;
  check Alcotest.int "snapshot never waits" 0 (report_for "snapshot" r).Scheduler.blocked_slices;
  check Alcotest.int "snapshot reads the row as it was" qty !snapshot_qty

(* statements, row writes and reads on a table a transaction holds in X
   reach the lock manager once *)
let one_lock_request_per_written_table () =
  let db = mk_db () in
  Workload.load_parts db ~rows:50 ();
  let acquires () = Dw_util.Metrics.get (Db.metrics db) "lock.acquires" in
  let run_txn () =
    let before = acquires () in
    Db.with_txn db (fun txn ->
        for i = 0 to 9 do
          exec db txn (Workload.update_parts_stmt ~first_id:(1 + (i * 3)) ~size:3)
        done;
        exec db txn (Workload.delete_parts_stmt ~first_id:40 ~size:2);
        let found = Option.get (Db.find_by_key db txn "parts" [| Value.Int 5 |]) in
        Db.update_row db txn "parts" found (snd found);
        ignore (Db.select db txn "parts" ());
        Db.lock_table db txn "parts");
    acquires () - before
  in
  check Alcotest.int "one request" 1 (run_txn ());
  check Alcotest.int "one request in the next transaction" 1 (run_txn ())

let suite =
  [
    test "sessions interleave" sessions_interleave;
    test "writer blocks reader" writer_blocks_reader;
    test "readers share" readers_share;
    test "deadlock surfaces" deadlock_surfaces;
    test "batch vs online with real locks" batch_vs_online_with_real_locks;
    test "empty and trivial sessions" empty_and_trivial;
    test "future arrival jump" future_arrival_jump;
    test "find_by_key reads no dirty row" find_by_key_reads_no_dirty_row;
    test "a view row lookup waits for the refresh" view_row_lookup_waits_for_refresh;
    test "one lock request per written table" one_lock_request_per_written_table;
  ]
