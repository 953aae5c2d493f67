(* Tests for the snapshot-isolation read path: version-store semantics
   through Db (visibility, transaction consistency, read-only
   enforcement, GC, abort/rid stability, recovery reset), lock-free OLAP
   over the warehouse, batched-vs-sequential refresh equivalence under
   concurrent snapshot readers, and a qcheck property that a reader's
   snapshot is exactly the committed-prefix state it began at. *)

module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng
module Value = Dw_relation.Value
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Heap_file = Dw_storage.Heap_file
module Lock_manager = Dw_txn.Lock_manager
module Version_store = Dw_txn.Version_store
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Scheduler = Dw_engine.Scheduler
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Warehouse = Dw_warehouse.Warehouse
module Olap = Dw_warehouse.Olap

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mk_db ?metrics ?(rows = 20) () =
  let vfs = match metrics with Some m -> Vfs.in_memory ~metrics:m () | None -> Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

let exec db txn stmt = ignore (Db.exec db txn stmt : Db.exec_result)
let select_all db txn = Db.select db txn "parts" ()
let count db txn = List.length (select_all db txn)

let sorted_rows rows = List.sort Tuple.compare rows

let id_pred id = Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int id))

(* ---------- basic visibility ---------- *)

let snapshot_sees_begin_state () =
  let db = mk_db () in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let before = sorted_rows (select_all db snap) in
  (* a full mix of committed changes after the snapshot began *)
  Db.with_txn db (fun txn ->
      exec db txn (Workload.update_parts_stmt ~first_id:1 ~size:5);
      exec db txn (Workload.delete_parts_stmt ~first_id:6 ~size:5);
      List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:21 ~size:5 ~day:0 ()));
  check Alcotest.int "snapshot row count frozen" 20 (count db snap);
  check Alcotest.bool "snapshot rows unchanged" true
    (sorted_rows (select_all db snap) = before);
  Db.commit db snap;
  (* a fresh snapshot sees the new state *)
  let snap2 = Db.begin_txn ~mode:`Snapshot db in
  check Alcotest.int "new snapshot sees the commit" 20 (count db snap2);
  check Alcotest.int "deleted rows gone for new snapshot" 0
    (List.length (Db.select db snap2 "parts" ~where:(id_pred 6) ()));
  Db.commit db snap2

let snapshot_ignores_uncommitted () =
  let db = mk_db () in
  (* writer first, then the snapshot: pending before-images must win over
     the writer's in-place heap updates *)
  let writer = Db.begin_txn db in
  ignore (Db.update_where db writer "parts"
            ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:None : int);
  let snap = Db.begin_txn ~mode:`Snapshot db in
  List.iter
    (fun row ->
      match row.(2) with
      | Value.Int 0 -> Alcotest.fail "snapshot saw an uncommitted qty"
      | _ -> ())
    (select_all db snap);
  Db.commit db writer;
  (* even after the writer commits: its CSN is above the snapshot's *)
  List.iter
    (fun row ->
      match row.(2) with
      | Value.Int 0 -> Alcotest.fail "snapshot saw a post-begin commit"
      | _ -> ())
    (select_all db snap);
  Db.commit db snap

let snapshot_find_by_key_versions () =
  let db = mk_db () in
  let key id = [| Value.Int id |] in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let orig =
    match Db.find_by_key db snap "parts" (key 3) with
    | Some (_, t) -> t
    | None -> Alcotest.fail "row 3 missing"
  in
  Db.with_txn db (fun txn ->
      ignore (Db.delete_where db txn "parts" ~where:(Some (id_pred 3)) : int);
      List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:40 ~size:1 ~day:0 ()));
  (* deleted row still resolvable through its chain; post-begin insert absent *)
  (match Db.find_by_key db snap "parts" (key 3) with
   | Some (_, t) -> check Alcotest.bool "image is the original tuple" true (Tuple.compare t orig = 0)
   | None -> Alcotest.fail "snapshot lost the deleted row");
  check Alcotest.bool "post-begin insert invisible" true
    (Db.find_by_key db snap "parts" (key 40) = None);
  Db.commit db snap;
  let snap2 = Db.begin_txn ~mode:`Snapshot db in
  check Alcotest.bool "new snapshot: delete visible" true
    (Db.find_by_key db snap2 "parts" (key 3) = None);
  check Alcotest.bool "new snapshot: insert visible" true
    (Db.find_by_key db snap2 "parts" (key 40) <> None);
  Db.commit db snap2

(* ---------- lock freedom ---------- *)

let snapshot_takes_no_locks () =
  let metrics = Metrics.create () in
  let db = mk_db ~metrics () in
  (* a writer holds the table X lock with uncommitted work *)
  let writer = Db.begin_txn db in
  ignore (Db.update_where db writer "parts"
            ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:None : int);
  let acquires_before = Metrics.get metrics "lock.acquires" in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  check Alcotest.int "reads under a writer's X lock" 20 (count db snap);
  ignore (Db.find_by_key db snap "parts" [| Value.Int 1 |]
          : (Heap_file.rid * Tuple.t) option);
  check Alcotest.bool "holds no lock resources" true
    (Lock_manager.held_by (Db.locks db) (Db.txid snap) = []);
  check Alcotest.int "no lock acquisitions at all" acquires_before
    (Metrics.get metrics "lock.acquires");
  check Alcotest.int "lock.wait histogram empty" 0 (Metrics.observed_count metrics "lock.wait");
  Db.commit db snap;
  Db.commit db writer

let snapshot_is_read_only () =
  let db = mk_db () in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let rejects f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  rejects (fun () ->
      ignore (Db.insert db snap "parts" (Workload.gen_part (Prng.create ~seed:1) ~id:99 ~day:0)
              : Heap_file.rid));
  rejects (fun () ->
      ignore (Db.update_where db snap "parts"
                ~set:[ ("qty", Expr.Lit (Value.Int 1)) ] ~where:None : int));
  rejects (fun () -> ignore (Db.delete_where db snap "parts" ~where:None : int));
  (* exec_sql maps Invalid_argument into its error result *)
  (match Db.exec_sql db snap "CREATE TABLE t (a INT KEY)" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "CREATE TABLE through a snapshot succeeded");
  check Alcotest.int "nothing changed" 20 (count db snap);
  Db.commit db snap

(* ---------- abort and rid stability ---------- *)

let abort_keeps_snapshot_exact () =
  let db = mk_db () in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let before = sorted_rows (select_all db snap) in
  (* delete then insert (the freed slot may be reused), then abort: the
     undo path must restore rows at their original rids so the snapshot
     neither loses nor double-counts a row *)
  let txn = Db.begin_txn db in
  ignore (Db.delete_where db txn "parts"
            ~where:(Some (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 5)))) : int);
  List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:30 ~size:5 ~day:0 ());
  Db.abort db txn;
  check Alcotest.bool "snapshot unchanged across abort" true
    (sorted_rows (select_all db snap) = before);
  Db.commit db snap;
  let rw = Db.begin_txn db in
  check Alcotest.int "heap restored" 20 (count db rw);
  check Alcotest.int "no stray versions after abort"
    0 (Version_store.entries (Db.version_store db));
  Db.commit db rw

(* ---------- garbage collection ---------- *)

let gc_bounded_by_oldest_reader () =
  let db = mk_db () in
  let vs = Db.version_store db in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  Db.with_txn db (fun txn ->
      ignore (Db.update_where db txn "parts"
                ~set:[ ("qty", Expr.Lit (Value.Int 7)) ] ~where:None : int));
  check Alcotest.bool "versions pinned by the reader" true (Version_store.entries vs > 0);
  check Alcotest.int "reader still resolves old rows" 20 (count db snap);
  Db.commit db snap;
  (* last reader gone: the commit's GC pass drops everything *)
  check Alcotest.int "store drained after last reader" 0 (Version_store.entries vs)

let gc_without_readers_is_immediate () =
  let db = mk_db () in
  Db.with_txn db (fun txn ->
      ignore (Db.update_where db txn "parts"
                ~set:[ ("qty", Expr.Lit (Value.Int 7)) ] ~where:None : int));
  check Alcotest.int "no readers: nothing retained" 0
    (Version_store.entries (Db.version_store db))

let recovery_resets_version_store () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:1 ~size:10 ~day:0 ()));
  (* pin some versions with a still-open reader, then crash *)
  let snap = Db.begin_txn ~mode:`Snapshot db in
  Db.with_txn db (fun txn ->
      ignore (Db.update_where db txn "parts"
                ~set:[ ("qty", Expr.Lit (Value.Int 1)) ] ~where:None : int));
  check Alcotest.bool "versions live pre-crash" true
    (Version_store.entries (Db.version_store db) > 0);
  ignore snap;
  Vfs.crash_reset vfs;
  let db2, _stats =
    Db.reopen ~vfs ~name:"db"
      ~tables:[ ("parts", Workload.parts_schema, Some "last_modified") ] ()
  in
  check Alcotest.int "recovered store is empty" 0
    (Version_store.entries (Db.version_store db2));
  let snap2 = Db.begin_txn ~mode:`Snapshot db2 in
  check Alcotest.int "snapshot over recovered state" 10 (count db2 snap2);
  Db.commit db2 snap2

(* ---------- OLAP over the warehouse ---------- *)

let mk_wh ?(parts = 50) () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let rng = Prng.create ~seed:77 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init parts (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  wh

let olap_snapshot_never_blocks () =
  let wh = mk_wh () in
  let db = Warehouse.db wh in
  let metrics = Db.metrics db in
  let ods =
    List.init 8 (fun i ->
        Op_delta.make ~txn_id:i [ Workload.update_parts_stmt ~first_id:(1 + (i * 6)) ~size:5 ])
  in
  let integrator =
    {
      Scheduler.name = "integrator";
      start_at = 0;
      work =
        (fun () ->
          ignore
            (Warehouse.integrate_op_deltas ~policy:Warehouse.default_batch_policy wh ods
              : Warehouse.stats));
    }
  in
  let readers =
    List.init 4 (fun i ->
        {
          Scheduler.name = Printf.sprintf "olap-%d" i;
          start_at = 1 + i;
          work =
            (fun () ->
              (* default mode is `Snapshot *)
              match Olap.run_all wh (Olap.standard_queries ~table:"parts") with
              | _, Some e -> failwith e
              | results, None ->
                if List.length results <> 5 then failwith "short result list");
        })
  in
  let r = Scheduler.run db (integrator :: readers) in
  List.iter
    (fun s ->
      (match s.Scheduler.failed with
       | Some e -> Alcotest.failf "session %s failed: %s" s.Scheduler.session e
       | None -> ());
      if s.Scheduler.session <> "integrator" then
        check Alcotest.int (s.Scheduler.session ^ " never blocked") 0 s.Scheduler.blocked_slices)
    r.Scheduler.sessions;
  check Alcotest.int "lock.wait empty for the whole run" 0
    (Metrics.observed_count metrics "lock.wait")

let olap_run_all_keeps_prefix () =
  let wh = mk_wh () in
  let queries =
    [
      { Olap.name = "ok-1"; sql = "SELECT COUNT(*) FROM parts" };
      { Olap.name = "ok-2"; sql = "SELECT SUM(qty) FROM parts" };
      { Olap.name = "bad"; sql = "SELECT nope FROM parts" };
      { Olap.name = "never-runs"; sql = "SELECT COUNT(*) FROM parts" };
    ]
  in
  match Olap.run_all wh queries with
  | results, Some err ->
    check Alcotest.int "completed prefix preserved" 2 (List.length results);
    check (Alcotest.list Alcotest.string) "prefix in order" [ "ok-1"; "ok-2" ]
      (List.map (fun r -> r.Olap.query) results);
    check Alcotest.bool "error names the failing query" true
      (String.length err >= 3 && String.sub err 0 3 = "bad")
  | _, None -> Alcotest.fail "expected a failure"

let batched_equals_sequential_under_readers () =
  (* the batched integrator must produce the same final replica state as
     sequential apply even while snapshot readers run concurrently, and
     the readers must each see one of the source-transaction-boundary
     states (transaction consistency), never a torn intermediate *)
  let rows = 40 in
  let rng = Prng.create ~seed:5 in
  let mix = Workload.gen_mix rng ~existing_ids:rows ~txns:12 ~max_txn_size:5 in
  let ods =
    List.mapi (fun i op -> Op_delta.make ~txn_id:i (Workload.op_to_stmts ~seed:5 ~day:0 op)) mix
  in
  let wh_seq = mk_wh ~parts:rows () in
  ignore (Warehouse.integrate_op_deltas wh_seq ods : Warehouse.stats);
  let wh = mk_wh ~parts:rows () in
  let db = Warehouse.db wh in
  (* record every committed state the batched run can pass through:
     sequential prefixes of the op-delta stream *)
  let prefix_states =
    let wh_p = mk_wh ~parts:rows () in
    let states = ref [ sorted_rows (Warehouse.replica_rows wh_p "parts") ] in
    List.iter
      (fun od ->
        ignore (Warehouse.integrate_op_deltas wh_p [ od ] : Warehouse.stats);
        states := sorted_rows (Warehouse.replica_rows wh_p "parts") :: !states)
      ods;
    !states
  in
  let observed = ref [] in
  let integrator =
    {
      Scheduler.name = "integrator";
      start_at = 0;
      work =
        (fun () ->
          ignore
            (Warehouse.integrate_op_deltas ~policy:Warehouse.default_batch_policy wh ods
              : Warehouse.stats));
    }
  in
  let readers =
    List.init 5 (fun i ->
        {
          Scheduler.name = Printf.sprintf "reader-%d" i;
          start_at = 1 + (i * 2);
          work =
            (fun () ->
              let snap = Db.begin_txn ~mode:`Snapshot db in
              observed := sorted_rows (select_all db snap) :: !observed;
              Db.commit db snap);
        })
  in
  let r = Scheduler.run db (integrator :: readers) in
  List.iter
    (fun s ->
      match s.Scheduler.failed with
      | Some e -> Alcotest.failf "session %s failed: %s" s.Scheduler.session e
      | None -> check Alcotest.int (s.Scheduler.session ^ " lock-free") 0 s.Scheduler.blocked_slices)
    r.Scheduler.sessions;
  check Alcotest.bool "batched final state = sequential final state" true
    (sorted_rows (Warehouse.replica_rows wh "parts")
    = sorted_rows (Warehouse.replica_rows wh_seq "parts"));
  List.iter
    (fun state ->
      check Alcotest.bool "reader saw a source-txn-boundary state" true
        (List.exists (fun p -> p = state) prefix_states))
    !observed

(* ---------- lock-free range reads on another domain ---------- *)

(* A snapshot range query on a second domain while the main domain
   commits inserts and delete/re-insert pairs inside the range.  The
   reader walks the primary-key index and the heap without locks, so the
   index must never hand it a half-updated leaf and a row freed under it
   must fall through to its version chain instead of raising. *)
let range_reader_races_writer () =
  let db = mk_db ~rows:1000 () in
  Db.set_plan_mode db `Index_preferred;
  let sql = "SELECT part_id, price FROM parts WHERE part_id >= 100 AND part_id < 300 ORDER BY part_id" in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let queries = ref 0 and failed = ref [] and dups = ref 0 in
        while not (Atomic.get stop) do
          incr queries;
          let snap = Db.begin_txn ~mode:`Snapshot db in
          (match Db.exec_sql db snap sql with
           | Ok (Db.Rows { rows; _ }) ->
             let ids = List.map (fun r -> r.(0)) rows in
             if List.length (List.sort_uniq compare ids) <> List.length ids then incr dups
           | Ok _ -> failed := "not a row set" :: !failed
           | Error e -> failed := e :: !failed
           | exception e -> failed := Printexc.to_string e :: !failed);
          Db.commit db snap
        done;
        (!queries, !failed, !dups))
  in
  for round = 0 to 2999 do
    Db.with_txn db (fun txn ->
        List.iter (exec db txn)
          (Workload.insert_parts_txn ~first_id:(1001 + (round * 10)) ~size:10 ~day:0 ());
        let first_id = 100 + (round * 10 mod 200) in
        exec db txn (Workload.delete_parts_stmt ~first_id ~size:10);
        List.iter (exec db txn) (Workload.insert_parts_txn ~first_id ~size:10 ~day:0 ()))
  done;
  Atomic.set stop true;
  let queries, failed, dups = Domain.join reader in
  check Alcotest.bool "reader ran queries" true (queries > 0);
  check Alcotest.(list string) "no failed range query" [] (List.sort_uniq compare failed);
  check Alcotest.int "no result with a duplicate part_id" 0 dups

(* ---------- the snapshot-exactness property ---------- *)

(* Interleave random committed transactions with snapshot readers opened
   at random points: each reader, queried at the very end, must see
   exactly the committed-prefix state that was current when it began. *)
let prop_snapshot_is_committed_prefix =
  QCheck2.Test.make ~name:"snapshot = committed prefix under interleaved commits" ~count:30
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 12))
    (fun (seed, txns) ->
      let rows = 25 in
      let db = mk_db ~rows () in
      let rng = Prng.create ~seed in
      let mix = Workload.gen_mix rng ~existing_ids:rows ~txns ~max_txn_size:5 in
      let expected = ref [] in
      (* snapshot + independently captured state at every prefix point *)
      let open_reader () =
        let state =
          let rw = Db.begin_txn db in
          let s = sorted_rows (select_all db rw) in
          Db.commit db rw;
          s
        in
        let snap = Db.begin_txn ~mode:`Snapshot db in
        expected := (snap, state) :: !expected
      in
      open_reader ();
      List.iteri
        (fun i op ->
          Db.with_txn db (fun txn ->
              List.iter (exec db txn) (Workload.op_to_stmts ~seed ~day:0 op));
          if i mod 2 = Prng.int rng 2 then open_reader ())
        mix;
      let ok =
        List.for_all
          (fun (snap, state) ->
            let got = sorted_rows (select_all db snap) in
            Db.commit db snap;
            got = state)
          !expected
      in
      if not ok then QCheck2.Test.fail_reportf "seed %d: a snapshot diverged from its prefix" seed
      else begin
        (* all readers closed: everything must be collectable *)
        if Version_store.entries (Db.version_store db) <> 0 then
          QCheck2.Test.fail_reportf "seed %d: version store not drained" seed
        else true
      end)

let suite =
  [
    test "snapshot sees begin-time state" snapshot_sees_begin_state;
    test "snapshot ignores uncommitted and later commits" snapshot_ignores_uncommitted;
    test "find_by_key resolves versions" snapshot_find_by_key_versions;
    test "snapshot takes no locks, lock.wait empty" snapshot_takes_no_locks;
    test "snapshot transactions are read-only" snapshot_is_read_only;
    test "abort keeps snapshots exact (rid stability)" abort_keeps_snapshot_exact;
    test "gc bounded by oldest reader" gc_bounded_by_oldest_reader;
    test "gc immediate without readers" gc_without_readers_is_immediate;
    test "recovery resets the version store" recovery_resets_version_store;
    test "olap snapshot readers never block" olap_snapshot_never_blocks;
    test "run_all returns completed prefix on failure" olap_run_all_keeps_prefix;
    test "batched = sequential under snapshot readers" batched_equals_sequential_under_readers;
    test "snapshot range reads race the writer safely" range_reader_races_writer;
    QCheck_alcotest.to_alcotest prop_snapshot_is_committed_prefix;
  ]
