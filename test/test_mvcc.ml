(* Tests for the snapshot-isolation read path: version-store semantics
   through Db (visibility, transaction consistency, read-only
   enforcement, GC, abort/rid stability, recovery reset), lock-free OLAP
   over the warehouse, batched-vs-sequential refresh equivalence under
   concurrent snapshot readers, a qcheck property that the version store
   answers as its full-scan reference kept here, and one that a reader's
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

let abort_of_inserts_leaves_no_chain () =
  let db = mk_db () in
  let vs = Db.version_store db in
  (* a pinned reader, so nothing but the abort can drop the entries *)
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let txn = Db.begin_txn db in
  List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:30 ~size:5 ~day:0 ());
  check Alcotest.int "one pending entry per insert" 5 (Version_store.entries vs);
  Db.abort db txn;
  check Alcotest.int "no entries after the abort" 0 (Version_store.entries vs);
  let visited = ref 0 in
  Version_store.iter_table vs ~table:"parts" (fun _ -> incr visited);
  check Alcotest.int "iter_table visits no rid" 0 !visited;
  check Alcotest.int "reader sees the loaded rows" 20 (count db snap);
  Db.commit db snap

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

(* ---------- the version store against its full-scan reference ---------- *)

(* The store as it was before gc retired batches in commit order: every
   gc pass walks every chain of every table and partitions it.  Kept
   here, without the mutex, as the reference the store must match. *)
module Full_scan_store = struct
  type entry = {
    mutable superseded_at : int;  (* commit CSN of the superseding writer; max_int while pending *)
    mutable writer : int;         (* txid while pending; -1 once published *)
    image : Tuple.t option;       (* None = the row did not exist before *)
  }

  let pending_csn = max_int

  type t = {
    (* table -> rid -> chain, newest entry first (descending superseded_at,
       with at most one pending entry at the head — writers hold X locks,
       so two transactions never have unpublished writes to the same rid) *)
    tables : (string, (Heap_file.rid, entry list ref) Hashtbl.t) Hashtbl.t;
    (* writer txid -> the pending entries it noted, with their rids: publish
       stamps each entry directly, discard unlinks it from its chain *)
    by_tx : (int, (string * Heap_file.rid * entry) list ref) Hashtbl.t;
    mutable live : int;
  }

  let create () =
    { tables = Hashtbl.create 8; by_tx = Hashtbl.create 8; live = 0 }

  let table_tbl t table =
    match Hashtbl.find_opt t.tables table with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 32 in
      Hashtbl.add t.tables table tbl;
      tbl

  let note t ~tx ~table ~rid ~image =
    let tbl = table_tbl t table in
    let chain =
      match Hashtbl.find_opt tbl rid with
      | Some chain -> chain
      | None ->
        let chain = ref [] in
        Hashtbl.add tbl rid chain;
        chain
    in
    let already_noted =
      match !chain with
      | head :: _ -> head.superseded_at = pending_csn && head.writer = tx
      | [] -> false
    in
    if not already_noted then begin
      let entry = { superseded_at = pending_csn; writer = tx; image } in
      chain := entry :: !chain;
      t.live <- t.live + 1;
      let cell =
        match Hashtbl.find_opt t.by_tx tx with
        | Some cell -> cell
        | None ->
          let cell = ref [] in
          Hashtbl.add t.by_tx tx cell;
          cell
      in
      cell := (table, rid, entry) :: !cell
    end

  let publish t ~tx ~csn =
    match Hashtbl.find_opt t.by_tx tx with
    | None -> ()
    | Some cell ->
      (* a pending entry stays its chain's head until published or
         discarded, so no chain lookup is needed to find it *)
      List.iter
        (fun (_, _, e) ->
          e.superseded_at <- csn;
          e.writer <- -1)
        !cell;
      Hashtbl.remove t.by_tx tx

  let discard t ~tx =
    match Hashtbl.find_opt t.by_tx tx with
    | None -> ()
    | Some cell ->
      List.iter
        (fun (table, rid, _) ->
          match Hashtbl.find_opt t.tables table with
          | None -> ()
          | Some tbl -> (
              match Hashtbl.find_opt tbl rid with
              | Some chain -> (
                  match !chain with
                  | head :: rest when head.writer = tx ->
                    t.live <- t.live - 1;
                    if rest = [] then Hashtbl.remove tbl rid else chain := rest
                  | _ -> ())
              | None -> ()))
        !cell;
      Hashtbl.remove t.by_tx tx

  let resolve t ~table ~rid ~csn =
    match Hashtbl.find_opt t.tables table with
    | None -> `Current
    | Some tbl -> (
        match Hashtbl.find_opt tbl rid with
        | None -> `Current
        | Some chain ->
          (* newest-first, superseded_at strictly descending: the visible
             version is the oldest entry still superseded after [csn] *)
          let rec go best = function
            | [] -> best
            | e :: rest -> if e.superseded_at > csn then go (Some e) rest else best
          in
          (match go None !chain with
           | None -> `Current
           | Some { image = Some tuple; _ } -> `Image tuple
           | Some { image = None; _ } -> `Absent))

  let iter_table t ~table f =
    let rids =
      match Hashtbl.find_opt t.tables table with
      | None -> []
      | Some tbl -> Hashtbl.fold (fun rid _ acc -> rid :: acc) tbl []
    in
    List.iter f rids

  let entries t = t.live

  let gc t ~horizon =
    let dropped = ref 0 in
    Hashtbl.iter
      (fun _table tbl ->
        let doomed = ref [] in
        Hashtbl.iter
          (fun rid chain ->
            let keep, drop =
              List.partition
                (fun e -> e.superseded_at = pending_csn || e.superseded_at > horizon)
                !chain
            in
            if drop <> [] then begin
              dropped := !dropped + List.length drop;
              if keep = [] then doomed := rid :: !doomed else chain := keep
            end)
          tbl;
        List.iter (Hashtbl.remove tbl) !doomed)
      t.tables;
    t.live <- t.live - !dropped;
    !dropped

  let drop_table t ~table =
    (match Hashtbl.find_opt t.tables table with
     | None -> ()
     | Some tbl ->
       Hashtbl.iter (fun _ chain -> t.live <- t.live - List.length !chain) tbl;
       Hashtbl.remove t.tables table);
    (* forget the dropped table's rids in writers' publish lists *)
    Hashtbl.iter
      (fun _ cell -> cell := List.filter (fun (tname, _, _) -> tname <> table) !cell)
      t.by_tx

  let clear t =
    Hashtbl.reset t.tables;
    Hashtbl.reset t.by_tx;
    t.live <- 0
end

let vs_tables = [| "a"; "b" |]
let vs_rids = Array.init 6 (fun i -> { Heap_file.page = i / 3; slot = i mod 3 })

type vs_op =
  | Write of int * int * int  (* writer (0 mod 3 = a new one), (table, rid), image (0 mod 3 = an insert) *)
  | Publish of int
  | Discard of int
  | Aborted_inserts of int  (* a new writer inserts at free rids of one table, then aborts *)
  | Open_reader
  | Close_reader of int
  | Close_all  (* the horizon jumps to the newest CSN *)
  | Gc
  | Recreate of int  (* pin a reader, drop a table, write to a table of the same name *)
  | Clear

let show_vs_op = function
  | Write (a, b, c) -> Printf.sprintf "Write(%d,%d,%d)" a b c
  | Publish a -> Printf.sprintf "Publish %d" a
  | Discard a -> Printf.sprintf "Discard %d" a
  | Aborted_inserts a -> Printf.sprintf "Aborted_inserts %d" a
  | Open_reader -> "Open_reader"
  | Close_reader a -> Printf.sprintf "Close_reader %d" a
  | Close_all -> "Close_all"
  | Gc -> "Gc"
  | Recreate a -> Printf.sprintf "Recreate %d" a
  | Clear -> "Clear"

let gen_vs_op =
  QCheck2.Gen.(
    let n = int_range 0 1000 in
    frequency
      [
        (16, map3 (fun a b c -> Write (a, b, c)) n n n);
        (6, map (fun a -> Publish a) n);
        (2, map (fun a -> Discard a) n);
        (2, map (fun a -> Aborted_inserts a) n);
        (4, pure Open_reader);
        (3, map (fun a -> Close_reader a) n);
        (1, pure Close_all);
        (6, pure Gc);
        (2, map (fun a -> Recreate a) n);
        (1, pure Clear);
      ])

exception Disagree of string

type vs_model = {
  store : Version_store.t;
  reference : Full_scan_store.t;
  mutable next_tx : int;
  (* open writers, newest first, with the (table, rid) indexes they hold X locks on *)
  mutable writers : (int * (int * int) list ref) list;
  mutable csn : int;
  (* the snapshot CSNs of the open readers *)
  mutable readers : int list;
}

(* both stores answer alike: entries, every (table, rid, csn) up to one
   past the newest CSN, and every table's rid set *)
let vs_agree m what =
  let disagree fmt = Printf.ksprintf (fun s -> raise (Disagree (what ^ ": " ^ s))) fmt in
  let got = Version_store.entries m.store and want = Full_scan_store.entries m.reference in
  if got <> want then disagree "entries %d, reference %d" got want;
  Array.iter
    (fun table ->
      Array.iter
        (fun rid ->
          for csn = 0 to m.csn + 1 do
            if Version_store.resolve m.store ~table ~rid ~csn
               <> Full_scan_store.resolve m.reference ~table ~rid ~csn
            then disagree "resolve %s %s at %d" table (Heap_file.rid_to_string rid) csn
          done)
        vs_rids;
      let rids iter =
        let acc = ref [] in
        iter (fun rid -> acc := rid :: !acc);
        List.sort Heap_file.rid_compare !acc
      in
      if rids (Version_store.iter_table m.store ~table)
         <> rids (Full_scan_store.iter_table m.reference ~table)
      then disagree "iter_table %s" table)
    vs_tables

let vs_pick xs k = List.nth xs (k mod List.length xs)

let vs_new_writer m =
  let tx = m.next_tx in
  m.next_tx <- tx + 1;
  let held = ref [] in
  m.writers <- (tx, held) :: m.writers;
  (tx, held)

let vs_locked_by_other m tx key =
  List.exists (fun (w, held) -> w <> tx && List.mem key !held) m.writers

let vs_note m (tx, held) ((ti, ri) as key) image =
  if not (vs_locked_by_other m tx key) then begin
    let table = vs_tables.(ti) and rid = vs_rids.(ri) in
    Version_store.note m.store ~tx ~table ~rid ~image;
    Full_scan_store.note m.reference ~tx ~table ~rid ~image;
    if not (List.mem key !held) then held := key :: !held;
    vs_agree m "note"
  end

let vs_finish m tx ~commit =
  m.writers <- List.filter (fun (w, _) -> w <> tx) m.writers;
  if commit then begin
    m.csn <- m.csn + 1;
    Version_store.publish m.store ~tx ~csn:m.csn;
    Full_scan_store.publish m.reference ~tx ~csn:m.csn;
    vs_agree m "publish"
  end
  else begin
    Version_store.discard m.store ~tx;
    Full_scan_store.discard m.reference ~tx;
    vs_agree m "discard"
  end

(* the horizon as Db computes it: the oldest open reader, else the newest CSN *)
let vs_gc m =
  let horizon = List.fold_left min m.csn m.readers in
  let got = Version_store.gc m.store ~horizon
  and want = Full_scan_store.gc m.reference ~horizon in
  if got <> want then
    raise (Disagree (Printf.sprintf "gc at %d dropped %d, reference %d" horizon got want));
  vs_agree m "gc"

let vs_step m = function
  | Write (a, b, c) ->
    let writer =
      if a mod 3 = 0 || m.writers = [] then vs_new_writer m else vs_pick m.writers a
    in
    vs_note m writer (b mod 2, b / 2 mod 6) (if c mod 3 = 0 then None else Some [| Value.Int c |])
  | Publish a -> if m.writers <> [] then vs_finish m (fst (vs_pick m.writers a)) ~commit:true
  | Discard a -> if m.writers <> [] then vs_finish m (fst (vs_pick m.writers a)) ~commit:false
  | Aborted_inserts a ->
    let writer = vs_new_writer m in
    for k = 0 to a mod 3 do
      vs_note m writer (a mod 2, (a + k) mod 6) None
    done;
    vs_finish m (fst writer) ~commit:false
  | Open_reader -> m.readers <- m.csn :: m.readers
  | Close_reader a ->
    if m.readers <> [] then begin
      let i = a mod List.length m.readers in
      m.readers <- List.filteri (fun j _ -> j <> i) m.readers
    end
  | Close_all ->
    m.readers <- [];
    vs_gc m
  | Gc -> vs_gc m
  | Recreate a ->
    let ti = a mod 2 in
    m.readers <- m.csn :: m.readers;
    Version_store.drop_table m.store ~table:vs_tables.(ti);
    Full_scan_store.drop_table m.reference ~table:vs_tables.(ti);
    vs_agree m "drop_table";
    let writer = vs_new_writer m in
    vs_note m writer (ti, a / 2 mod 6) (Some [| Value.Int a |]);
    vs_finish m (fst writer) ~commit:true
  | Clear ->
    (* crash recovery: every writer and reader of the old run is gone *)
    Version_store.clear m.store;
    Full_scan_store.clear m.reference;
    m.writers <- [];
    m.readers <- [];
    vs_agree m "clear"

(* With no live entry left, the store keeps no batch: Db skips gc on an
   empty store, so a batch left queued would stay until the next write.
   Two ways to empty it, each ending as small as a new store. *)
let emptied_store_keeps_no_batch () =
  let rid = { Heap_file.page = 0; slot = 0 } in
  let size vs = Obj.reachable_words (Obj.repr vs) in
  let empty = size (Version_store.create ()) in
  (* a published batch not yet retired, then its table dropped *)
  let vs = Version_store.create () in
  Version_store.note vs ~tx:1 ~table:"a" ~rid ~image:None;
  Version_store.publish vs ~tx:1 ~csn:1;
  Version_store.drop_table vs ~table:"a";
  check Alcotest.int "drop: no entries" 0 (Version_store.entries vs);
  check Alcotest.int "drop: nothing queued" empty (size vs);
  (* a writer's table dropped under it, then the writer commits *)
  let vs = Version_store.create () in
  Version_store.note vs ~tx:1 ~table:"a" ~rid ~image:None;
  Version_store.drop_table vs ~table:"a";
  Version_store.publish vs ~tx:1 ~csn:1;
  check Alcotest.int "publish: no entries" 0 (Version_store.entries vs);
  check Alcotest.int "publish: nothing queued" empty (size vs)

let prop_version_store_matches_full_scan =
  QCheck2.Test.make ~name:"version store = full-scan reference under random histories" ~count:300
    ~print:QCheck2.Print.(list show_vs_op)
    QCheck2.Gen.(list_size (int_range 1 80) gen_vs_op)
    (fun ops ->
      let m =
        { store = Version_store.create (); reference = Full_scan_store.create (); next_tx = 1;
          writers = []; csn = 0; readers = [] }
      in
      List.iteri
        (fun i op ->
          try vs_step m op
          with Disagree what -> QCheck2.Test.fail_reportf "step %d (%s): %s" i (show_vs_op op) what)
        ops;
      (* every writer commits and every reader closes: both stores drain *)
      (try
         List.iter (fun (tx, _) -> vs_finish m tx ~commit:true) m.writers;
         vs_step m Close_all
       with Disagree what -> QCheck2.Test.fail_reportf "drain: %s" what);
      Version_store.entries m.store = 0)

(* ---------- the snapshot-exactness property ---------- *)

(* Interleave random committed transactions with snapshot readers opened
   at random points and closed at random points, in random order: each
   reader, queried as it closes, must see exactly the committed-prefix
   state that was current when it began.  Each close runs a GC pass, so
   the horizon moves up in steps while newer versions stay pinned. *)
let prop_snapshot_is_committed_prefix =
  QCheck2.Test.make ~name:"snapshot = committed prefix under interleaved commits" ~count:30
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 12))
    (fun (seed, txns) ->
      let rows = 25 in
      let db = mk_db ~rows () in
      let rng = Prng.create ~seed in
      let mix = Workload.gen_mix rng ~existing_ids:rows ~txns ~max_txn_size:5 in
      let open_readers = ref [] in
      (* snapshot + independently captured state at every prefix point *)
      let open_reader () =
        let state =
          let rw = Db.begin_txn db in
          let s = sorted_rows (select_all db rw) in
          Db.commit db rw;
          s
        in
        let snap = Db.begin_txn ~mode:`Snapshot db in
        open_readers := (snap, state) :: !open_readers
      in
      let close_reader i =
        let snap, state = List.nth !open_readers i in
        open_readers := List.filteri (fun j _ -> j <> i) !open_readers;
        let got = sorted_rows (select_all db snap) in
        Db.commit db snap;
        if got <> state then
          QCheck2.Test.fail_reportf "seed %d: a snapshot diverged from its prefix" seed
      in
      let close_some () =
        while !open_readers <> [] && Prng.int rng 3 = 0 do
          close_reader (Prng.int rng (List.length !open_readers))
        done
      in
      open_reader ();
      List.iteri
        (fun i op ->
          Db.with_txn db (fun txn ->
              List.iter (exec db txn) (Workload.op_to_stmts ~seed ~day:0 op));
          close_some ();
          if i mod 2 = Prng.int rng 2 then open_reader ())
        mix;
      while !open_readers <> [] do
        close_reader (Prng.int rng (List.length !open_readers))
      done;
      (* all readers closed: everything must be collectable *)
      if Version_store.entries (Db.version_store db) <> 0 then
        QCheck2.Test.fail_reportf "seed %d: version store not drained" seed
      else true)

(* ---------- an uncommitted insert against a snapshot scan ---------- *)

(* The main domain inserts 50 new keys per transaction and aborts every
   transaction, while a second domain runs snapshot scans of the table.
   A new row's version entry must exist before the row is in the heap,
   and an abort's undo must not leave a scan holding the row once its
   entry is gone: no scan may ever return a key above the loaded ones. *)
let snapshot_never_reads_an_aborted_insert () =
  let rows = 20 in
  let db = mk_db ~rows () in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let scans = ref 0 and dirty = ref 0 in
        while not (Atomic.get stop) do
          incr scans;
          let snap = Db.begin_txn ~mode:`Snapshot db in
          let uncommitted row = Value.compare row.(0) (Value.Int rows) > 0 in
          if List.exists uncommitted (select_all db snap) then incr dirty;
          Db.commit db snap
        done;
        (!scans, !dirty))
  in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Unix.gettimeofday () < deadline do
    let txn = Db.begin_txn db in
    List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:(rows + 1) ~size:50 ~day:0 ());
    Db.abort db txn
  done;
  Atomic.set stop true;
  let scans, dirty = Domain.join reader in
  check Alcotest.bool "reader ran scans" true (scans > 0);
  check Alcotest.int "scans that returned an aborted insert" 0 dirty;
  check Alcotest.int "no entries left" 0 (Version_store.entries (Db.version_store db))

(* ---------- statement-level version notes ---------- *)

(* A statement notes all its victims before its first heap write.  A
   range UPDATE whose fifth row collides on the primary key, in a
   transaction that then aborts, leaves no entry, and snapshots taken
   before and after it read the pre-statement rows; a snapshot begun
   before a committed 50-row UPDATE reads all 50 before images; and
   after a reopen an uncommitted UPDATE's before images still reach a
   snapshot through the recovered table. *)
let statement_notes_hold_before_images () =
  let rows_where db snap where = sorted_rows (Db.select db snap "parts" ~where ()) in
  let low = Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 10)) in
  (* a failed statement, then an abort *)
  let db = mk_db () in
  Db.with_txn db (fun txn ->
      List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:105 ~size:1 ~day:0 ()));
  let vs = Db.version_store db in
  let before_snap = Db.begin_txn ~mode:`Snapshot db in
  let pre = sorted_rows (select_all db before_snap) in
  let txn = Db.begin_txn db in
  (match Db.exec_sql db txn "UPDATE parts SET part_id = part_id + 100 WHERE part_id <= 10" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "the colliding UPDATE succeeded");
  let during_snap = Db.begin_txn ~mode:`Snapshot db in
  check Alcotest.bool "the earlier snapshot reads the pre-statement rows" true
    (sorted_rows (select_all db before_snap) = pre);
  check Alcotest.bool "a snapshot under the failed statement reads them" true
    (sorted_rows (select_all db during_snap) = pre);
  Db.abort db txn;
  check Alcotest.int "no entries after the abort" 0 (Version_store.entries vs);
  let after_snap = Db.begin_txn ~mode:`Snapshot db in
  List.iter
    (fun snap ->
      check Alcotest.bool "pre-statement rows after the abort" true
        (sorted_rows (select_all db snap) = pre);
      Db.commit db snap)
    [ before_snap; during_snap; after_snap ];
  (* a committed 50-row UPDATE under an older snapshot *)
  let db = mk_db ~rows:50 () in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let pre = sorted_rows (select_all db snap) in
  Db.with_txn db (fun txn ->
      check Alcotest.int "50 rows updated" 50
        (Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:None));
  check Alcotest.int "one entry per updated row" 50
    (Version_store.entries (Db.version_store db));
  check Alcotest.bool "the snapshot reads all 50 before images" true
    (sorted_rows (select_all db snap) = pre);
  Db.commit db snap;
  (* an uncommitted UPDATE after a reopen *)
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  Db.with_txn db (fun txn ->
      List.iter (exec db txn) (Workload.insert_parts_txn ~first_id:1 ~size:10 ~day:0 ()));
  Vfs.crash_reset vfs;
  let db, _stats =
    Db.reopen ~vfs ~name:"db" ~tables:[ ("parts", Workload.parts_schema, Some "last_modified") ] ()
  in
  let old_snap = Db.begin_txn ~mode:`Snapshot db in
  let pre = rows_where db old_snap low in
  let writer = Db.begin_txn db in
  check Alcotest.int "10 rows updated" 10
    (Db.update_where db writer "parts" ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:(Some low));
  let new_snap = Db.begin_txn ~mode:`Snapshot db in
  let chained = ref 0 in
  Version_store.iter_table (Db.version_store db) ~table:"parts" (fun _ -> incr chained);
  check Alcotest.int "the store holds the recovered table's chains" 10 !chained;
  List.iter
    (fun snap ->
      check Alcotest.bool "before images after the reopen" true (rows_where db snap low = pre);
      Db.commit db snap)
    [ old_snap; new_snap ];
  Db.abort db writer

(* an OLAP scan of a table larger than the pool reads its pages cold, so
   the pages a refresh just wrote stay cached *)
let snapshot_scan_keeps_writer_pages () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:16 ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:3_000 ();
  let heap = Table.heap (Db.table db "parts") in
  check Alcotest.bool "the table is larger than the pool" true (Heap_file.page_count heap > 32);
  let key = [| Value.Int 1_500 |] in
  let read_row () =
    Db.with_txn db (fun txn -> ignore (Db.find_by_key db txn "parts" key : _ option))
  in
  Db.with_txn db (fun txn ->
      exec db txn (Workload.update_parts_stmt ~first_id:1_500 ~size:1));
  read_row ();
  let misses () = Metrics.get (Db.metrics db) "pool.misses" in
  List.iter
    (fun where ->
      let snap = Db.begin_txn ~mode:`Snapshot db in
      check Alcotest.int "the scan reads every row" 3_000
        (List.length (Db.select db snap "parts" ?where ()));
      Db.commit db snap;
      let before = misses () in
      read_row ();
      check Alcotest.int "the written row's pages are still cached" before (misses ()))
    [ None; Some (Expr.Cmp (Expr.Ge, Expr.Col "qty", Expr.Lit (Value.Int 0))) ];
  (* a partitioned scan's page ranges read cold too *)
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let pages = Heap_file.page_count heap in
  check Alcotest.int "the page ranges read every row" 3_000
    (List.length (Db.select_pages db snap (Db.table db "parts") ~from_page:0 ~to_page:pages ()));
  Db.commit db snap;
  let before = misses () in
  read_row ();
  check Alcotest.int "still cached after the page ranges" before (misses ())

(* a snapshot aggregate over a table four times the pool folds records
   where the scan hands them over and reads cold: per row it allocates
   next to nothing on the calling domain, and it evicts and writes back
   nothing *)
let snapshot_aggregates_allocate_little () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:64 ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  let rows = 30_000 in
  Workload.load_parts db ~rows ();
  let heap = Table.heap (Db.table db "parts") in
  check Alcotest.bool "the table is at least 4x the pool" true (Heap_file.page_count heap >= 4 * 64);
  let queries =
    [
      "SELECT COUNT(*) FROM parts";
      "SELECT SUM(qty) AS units, AVG(price) FROM parts";
      "SELECT qty, COUNT(*) AS n, AVG(price) FROM parts GROUP BY qty ORDER BY qty";
    ]
  in
  let snap = Db.begin_txn ~mode:`Snapshot db in
  let run () =
    List.iter
      (fun q ->
        match Db.exec_sql db snap q with
        | Ok (Db.Rows _) -> ()
        | Ok _ -> Alcotest.fail "not rows"
        | Error e -> Alcotest.fail e)
      queries
  in
  run ();
  let m = Db.metrics db in
  let evictions = Metrics.get m "pool.evictions" and writebacks = Metrics.get m "pool.writebacks" in
  (* [Gc.minor_words] reads the domain's allocation pointer; the
     quick_stat's minor count moves only at a collection *)
  let before = Gc.quick_stat () and minor_before = Gc.minor_words () in
  run ();
  let minor_after = Gc.minor_words () and after = Gc.quick_stat () in
  Db.commit db snap;
  let scanned = float_of_int (rows * List.length queries) in
  let minor = (minor_after -. minor_before) /. scanned in
  let promoted = (after.Gc.promoted_words -. before.Gc.promoted_words) /. scanned in
  if minor >= 4.0 || promoted >= 1.0 then
    Alcotest.failf "per row: %.2f minor words (limit 4), %.2f promoted (limit 1)" minor promoted;
  check Alcotest.int "no eviction" evictions (Metrics.get m "pool.evictions");
  check Alcotest.int "no write-back" writebacks (Metrics.get m "pool.writebacks")

(* a reader domain folds aggregates over one snapshot while the main
   domain inserts, updates, deletes and aborts on a table larger than
   the pool, so the writer's write-backs and the reader's cold device
   reads interleave: on both backends, every aggregate equals the fold
   of the snapshot's own [Db.select] rows, and [Par_scan]'s result *)
let snapshot_aggregates_race_the_writer () =
  let run_on vfs =
    let db = Db.create ~pool_pages:16 ~vfs ~name:"db" () in
    let _ = Workload.create_parts_table db in
    Workload.load_parts db ~rows:2_000 ();
    check Alcotest.bool "the table is larger than the pool" true
      (Heap_file.page_count (Table.heap (Db.table db "parts")) > 16);
    let stop = Atomic.make false in
    Dw_util.Domain_pool.with_pool ~domains:2 @@ fun pool ->
    let reader () =
      let snapshots = ref 0 and bad = ref [] in
      let expect q want got = if want <> got then bad := q :: !bad in
      let sql snap q =
        match Db.exec_sql db snap q with
        | Ok r -> r
        | Error e ->
          bad := (q ^ ": " ^ e) :: !bad;
          Db.Affected 0
      in
      while (not (Atomic.get stop)) || !snapshots = 0 do
        incr snapshots;
        let snap = Db.begin_txn ~mode:`Snapshot db in
        let rows = Db.select db snap "parts" () in
        let qty r = match r.(2) with Value.Int n -> n | _ -> assert false in
        let price r = r.(3) in
        let rows_of cols rows = Db.Rows { columns = cols; rows } in
        let n = List.length rows in
        let count_q = "SELECT COUNT(*), SUM(qty) FROM parts" in
        expect count_q
          (rows_of [ "col0"; "col1" ]
             [ [| Value.Int n; Value.Int (List.fold_left (fun a r -> a + qty r) 0 rows) |] ])
          (sql snap count_q);
        let price_q = "SELECT MIN(price), MAX(price), AVG(price) FROM parts" in
        let prices = List.map price rows in
        let pick keep = function
          | [] -> Value.Null
          | v :: vs -> List.fold_left (fun a b -> if keep (Value.compare b a) then b else a) v vs
        in
        let avg =
          match List.fold_left Value.add (Value.Int 0) prices with
          | Value.Float total -> Value.Float (total /. float_of_int n)
          | _ -> Value.Null
        in
        expect price_q
          (rows_of [ "col0"; "col1"; "col2" ] [ [| pick (fun c -> c < 0) prices; pick (fun c -> c > 0) prices; avg |] ])
          (sql snap price_q);
        let group_q = "SELECT qty, COUNT(*) AS n FROM parts WHERE qty < 500 GROUP BY qty" in
        let counts = Hashtbl.create 64 in
        List.iter
          (fun r ->
            if qty r < 500 then
              Hashtbl.replace counts (qty r) (1 + Option.value ~default:0 (Hashtbl.find_opt counts (qty r))))
          rows;
        let groups = List.sort compare (Hashtbl.fold (fun q n acc -> (q, n) :: acc) counts []) in
        expect group_q
          (rows_of [ "qty"; "n" ] (List.map (fun (q, n) -> [| Value.Int q; Value.Int n |]) groups))
          (sql snap group_q);
        List.iter
          (fun q ->
            let par = Dw_warehouse.Par_scan.exec_sql ~partitions:3 ~pool db snap q in
            expect ("Par_scan " ^ q) (Ok (sql snap q)) par)
          [ count_q; price_q; group_q ];
        Db.commit db snap
      done;
      (!snapshots, List.sort_uniq compare !bad)
    in
    let reader = Domain.spawn reader in
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        for round = 0 to 149 do
          let txn = Db.begin_txn db in
          List.iter (exec db txn)
            (Workload.insert_parts_txn ~first_id:(2_001 + (round * 20)) ~size:20 ~day:0 ());
          exec db txn (Workload.update_parts_stmt ~first_id:(1 + (round * 13 mod 1_900)) ~size:50);
          exec db txn (Workload.delete_parts_stmt ~first_id:(1 + (round * 7 mod 1_990)) ~size:5);
          if round mod 4 = 3 then Db.abort db txn else Db.commit db txn
        done);
    let snapshots, bad = Domain.join reader in
    check Alcotest.bool "the reader took snapshots" true (snapshots > 0);
    check Alcotest.(list string) "aggregates that differ from the rows' fold" [] bad
  in
  run_on (Vfs.in_memory ());
  let dir = Filename.temp_file "dwrace" "" in
  Sys.remove dir;
  let vfs = Vfs.on_disk dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Vfs.list_files vfs);
      Unix.rmdir dir)
    (fun () -> run_on vfs)

let suite =
  [
    test "snapshot sees begin-time state" snapshot_sees_begin_state;
    test "snapshot ignores uncommitted and later commits" snapshot_ignores_uncommitted;
    test "find_by_key resolves versions" snapshot_find_by_key_versions;
    test "snapshot takes no locks, lock.wait empty" snapshot_takes_no_locks;
    test "snapshot transactions are read-only" snapshot_is_read_only;
    test "abort keeps snapshots exact (rid stability)" abort_keeps_snapshot_exact;
    test "an aborted insert-only transaction leaves no chain" abort_of_inserts_leaves_no_chain;
    test "gc bounded by oldest reader" gc_bounded_by_oldest_reader;
    test "gc immediate without readers" gc_without_readers_is_immediate;
    test "recovery resets the version store" recovery_resets_version_store;
    test "olap snapshot readers never block" olap_snapshot_never_blocks;
    test "run_all returns completed prefix on failure" olap_run_all_keeps_prefix;
    test "batched = sequential under snapshot readers" batched_equals_sequential_under_readers;
    test "snapshot range reads race the writer safely" range_reader_races_writer;
    test "an emptied version store keeps no batch" emptied_store_keeps_no_batch;
    QCheck_alcotest.to_alcotest prop_version_store_matches_full_scan;
    QCheck_alcotest.to_alcotest prop_snapshot_is_committed_prefix;
    test "a snapshot scan never reads an aborted insert" snapshot_never_reads_an_aborted_insert;
    test "a statement's notes hold its before images" statement_notes_hold_before_images;
    test "a snapshot scan leaves a writer's pages cached" snapshot_scan_keeps_writer_pages;
    test "snapshot aggregates allocate little and evict nothing" snapshot_aggregates_allocate_little;
    test "snapshot aggregates race the writer on both backends" snapshot_aggregates_race_the_writer;
  ]
