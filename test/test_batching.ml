(* Tests for the batching layers: group-commit WAL (policy object, sim
   clock deadlines, scheduler-driven concurrent committers), coalesced
   transport (frame codecs, batch enqueue / run ack, block shipping), and
   the op-delta integrator (valve behaviour, mark atomicity, and a qcheck
   property that every way of applying a stream — no policy, any policy,
   a partitioned fleet — reaches the same state). *)

module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Sim_clock = Dw_util.Sim_clock
module Prng = Dw_util.Prng
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Scheduler = Dw_engine.Scheduler
module Wal = Dw_txn.Wal
module Log_record = Dw_txn.Log_record
module Group_commit = Dw_txn.Group_commit
module Workload = Dw_workload.Workload
module Tuple = Dw_relation.Tuple
module Op_delta = Dw_core.Op_delta
module Pq = Dw_transport.Persistent_queue
module File_ship = Dw_transport.File_ship
module Warehouse = Dw_warehouse.Warehouse
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Stage = Dw_etl.Stage
module Domain_pool = Dw_util.Domain_pool
module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- group commit ---------- *)

let mk_db () =
  let metrics = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  (metrics, db)

let commit_one db i =
  let day = Db.current_day db in
  Db.with_txn db (fun txn ->
      List.iter
        (fun stmt -> ignore (Db.exec db txn stmt : Db.exec_result))
        (Workload.insert_parts_txn ~first_id:i ~size:1 ~day ()))

let gc_deadline_on_sim_clock () =
  (* the max-wait deadline runs on the registry clock: deterministic
     under Sim_clock, flushed by poll once the clock passes it *)
  let metrics = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock metrics clk;
  let vfs = Vfs.in_memory ~metrics () in
  let wal = Wal.create vfs ~name:"wal" ~archive:false in
  let g = Group_commit.create ~policy:{ max_group = 100; max_wait_s = 5.0 } wal in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Commit } : Wal.lsn);
  Group_commit.note_commit g;
  check Alcotest.int "pending before deadline" 1 (Group_commit.pending g);
  Group_commit.poll g;
  check Alcotest.int "poll before deadline is a no-op" 1 (Group_commit.pending g);
  Sim_clock.advance clk 6;
  Group_commit.poll g;
  check Alcotest.int "poll after deadline flushes" 0 (Group_commit.pending g);
  check Alcotest.int "one group observed" 1 (Metrics.observed_count metrics "wal.group_size")

let gc_deadline_zero_flushes_every_commit () =
  let metrics = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock metrics clk;
  let vfs = Vfs.in_memory ~metrics () in
  let wal = Wal.create vfs ~name:"wal" ~archive:false in
  let g = Group_commit.create ~policy:{ max_group = 100; max_wait_s = 0.0 } wal in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Commit } : Wal.lsn);
  Group_commit.note_commit g;
  check Alcotest.int "max_wait 0 degenerates to every-commit" 0 (Group_commit.pending g)

let gc_group_size_histogram () =
  (* 10 commits at group 4 -> flushed groups of 4, 4 and (after sync) 2 *)
  let metrics, db = mk_db () in
  Db.set_sync_mode db (`Group 4);
  let count0 = Metrics.observed_count metrics "wal.group_size" in
  let sum0 = Metrics.observed_sum metrics "wal.group_size" in
  for i = 1 to 10 do
    commit_one db i
  done;
  check Alcotest.int "pending tail group" 2 (Db.pending_group_commits db);
  Db.sync db;
  check Alcotest.int "sync drains the group" 0 (Db.pending_group_commits db);
  check Alcotest.int "three groups flushed" 3
    (Metrics.observed_count metrics "wal.group_size" - count0);
  check (Alcotest.float 0.001) "sizes sum to the commit count" 10.0
    (Metrics.observed_sum metrics "wal.group_size" -. sum0)

let gc_mode_switch_flushes_open_group () =
  let metrics, db = mk_db () in
  Db.set_sync_mode db (`Group 10);
  for i = 1 to 3 do
    commit_one db i
  done;
  check Alcotest.int "3 pending" 3 (Db.pending_group_commits db);
  let fsyncs = Metrics.get metrics "vfs.fsyncs" in
  Db.set_sync_mode db `Every_commit;
  check Alcotest.int "switch flushed the open group" 0 (Db.pending_group_commits db);
  check Alcotest.bool "switch issued the fsync" true (Metrics.get metrics "vfs.fsyncs" > fsyncs)

let gc_policy_deadline_at_statement_boundary () =
  (* a commit lull must not starve the group: the deadline is re-checked
     at every statement boundary (Db drives Group_commit.poll) *)
  let metrics = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock metrics clk;
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.set_sync_mode db (`Group_policy { Group_commit.max_group = 100; max_wait_s = 2.0 });
  commit_one db 1;
  check Alcotest.int "commit pending" 1 (Db.pending_group_commits db);
  Sim_clock.advance clk 3;
  (* a read-only statement from some other session crosses a statement
     boundary; the overdue group must flush before that statement runs *)
  Db.with_txn db (fun txn ->
      ignore (Db.select db txn "parts" () : Tuple.t list);
      check Alcotest.int "boundary poll flushed the overdue group" 0
        (Db.pending_group_commits db))

let gc_scheduler_concurrent_committers () =
  (* logical sessions committing concurrently share group fsyncs *)
  let metrics, db = mk_db () in
  Db.set_sync_mode db (`Group 3);
  let before = Metrics.get metrics "vfs.fsyncs" in
  let sessions =
    List.init 6 (fun i ->
        { Scheduler.name = Printf.sprintf "committer-%d" i;
          start_at = i;
          work = (fun () -> commit_one db (i + 1)) })
  in
  let report = Scheduler.run db sessions in
  check Alcotest.int "no failed sessions" 0
    (List.length (List.filter (fun s -> s.Scheduler.failed <> None) report.Scheduler.sessions));
  Db.sync db;
  let fsyncs = Metrics.get metrics "vfs.fsyncs" - before in
  check Alcotest.bool "6 commits cost at most 3 fsyncs" true (fsyncs <= 3);
  check Alcotest.int "all rows landed" 6 (Table.row_count (Db.table db "parts"))

let gc_policy_validates () =
  let _, db = mk_db () in
  (try
     Db.set_sync_mode db (`Group_policy { Group_commit.max_group = 0; max_wait_s = 1.0 });
     Alcotest.fail "expected max_group failure"
   with Invalid_argument _ -> ());
  try
    Db.set_sync_mode db (`Group_policy { Group_commit.max_group = 4; max_wait_s = -1.0 });
    Alcotest.fail "expected max_wait failure"
  with Invalid_argument _ -> ()

(* ---------- coalesced transport ---------- *)

let frames_roundtrip () =
  let msgs = [ "alpha"; ""; "gamma with spaces"; String.make 300 'x' ] in
  (match Pq.decode_frames (Pq.encode_frames msgs) with
   | Ok back -> check (Alcotest.list Alcotest.string) "roundtrip" msgs back
   | Error e -> Alcotest.fail e);
  (* corrupt one payload byte: the block must be rejected whole *)
  let b = Pq.encode_frames msgs in
  Bytes.set b 9 '!';
  match Pq.decode_frames b with
  | Ok _ -> Alcotest.fail "corrupt frame accepted"
  | Error msg -> check Alcotest.bool "error is descriptive" true (String.length msg > 0)

let batch_and_single_interoperate () =
  (* batched producer, per-message consumer, and vice versa, on the same
     queue file *)
  let vfs = Vfs.in_memory () in
  let q = Pq.open_ vfs ~name:"q" in
  Pq.enqueue_batch q [ "a"; "b"; "c" ];
  Pq.enqueue q "d";
  check Alcotest.int "pending" 4 (Pq.pending q);
  check (Alcotest.option Alcotest.string) "peek sees batch head" (Some "a") (Pq.peek q);
  Pq.ack q;
  check (Alcotest.list Alcotest.string) "run after single ack" [ "b"; "c"; "d" ]
    (Pq.peek_run q ~max:10);
  Pq.ack_run q 2;
  check Alcotest.int "two acked in one run" 1 (Pq.pending q);
  Pq.close q;
  (* reopen: the unacked tail is redelivered *)
  let q2 = Pq.open_ vfs ~name:"q" in
  check (Alcotest.list Alcotest.string) "redelivered after reopen" [ "d" ]
    (Pq.peek_run q2 ~max:10);
  Pq.close q2

let ack_run_validates () =
  let vfs = Vfs.in_memory () in
  let q = Pq.open_ vfs ~name:"q" in
  Pq.enqueue_batch q [ "a"; "b" ];
  (try
     Pq.ack_run q 3;
     Alcotest.fail "expected over-ack failure"
   with Invalid_argument _ -> ());
  Pq.ack_run q 0;
  check Alcotest.int "ack_run 0 is a no-op" 2 (Pq.pending q)

let ship_messages_blocks_and_roundtrip () =
  let msgs = List.init 40 (fun i -> Printf.sprintf "op-delta line %03d" i) in
  let dst = Vfs.in_memory () in
  (match File_ship.ship_messages ~block_size:128 ~dst ~dst_name:"blk" msgs with
   | Error e -> Alcotest.fail e
   | Ok stats ->
     check Alcotest.bool "coalesced into fewer blocks than messages" true
       (stats.File_ship.chunks > 1 && stats.File_ship.chunks < List.length msgs));
  (match File_ship.fetch_messages dst ~name:"blk" with
   | Ok back -> check (Alcotest.list Alcotest.string) "shipped roundtrip" msgs back
   | Error e -> Alcotest.fail e);
  (* an oversized message still ships, in a block of its own *)
  let big = [ String.make 4096 'z'; "small" ] in
  (match File_ship.ship_messages ~block_size:128 ~dst ~dst_name:"big" big with
   | Error e -> Alcotest.fail e
   | Ok stats -> check Alcotest.int "oversize gets its own block" 2 stats.File_ship.chunks);
  match File_ship.fetch_messages dst ~name:"big" with
  | Ok back -> check (Alcotest.list Alcotest.string) "oversize roundtrip" big back
  | Error e -> Alcotest.fail e

let fetch_detects_corruption () =
  let dst = Vfs.in_memory () in
  (match File_ship.ship_messages ~dst ~dst_name:"blk" [ "hello"; "world" ] with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let f = Vfs.open_existing dst "blk" in
  Vfs.write_at f ~off:9 (Bytes.of_string "X");
  Vfs.close f;
  match File_ship.fetch_messages dst ~name:"blk" with
  | Ok _ -> Alcotest.fail "corrupt shipped block accepted"
  | Error _ -> ()

(* ---------- op-delta integration: policies, marks, partitioned ---------- *)

let proj col = { Spj_view.out_name = col; from_side = Spj_view.L; from_col = col }

let spj_view =
  Spj_view.Select_project
    {
      name = "small_qty";
      table = "parts";
      schema = Workload.parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj "part_id"; proj "qty" ];
    }

(* COUNT/SUM over an INT column: exact under any order of folding, so
   per-shard slices merge to the monolithic warehouse's rows bit for bit *)
let agg_view =
  {
    Agg_view.name = "qty_groups";
    table = "parts";
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates = [ ("n", Agg_view.Count); ("id_sum", Agg_view.Sum "part_id") ];
  }

let part_rows ~rows =
  let rng = Prng.create ~seed:5 in
  List.init rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0)

let mk_wh ~rows =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  Warehouse.load_replica wh ~table:"parts" (part_rows ~rows);
  Warehouse.define_view wh spj_view;
  Warehouse.define_agg_view wh agg_view;
  wh

(* txn ids start at 1: a partitioned shard's watermark starts at 0 *)
let ods_of_mix ~rows ~txns ~seed =
  let rng = Prng.create ~seed in
  let mix = Workload.gen_mix rng ~existing_ids:rows ~txns ~max_txn_size:6 in
  List.mapi (fun i op -> Op_delta.make ~txn_id:(i + 1) (Workload.op_to_stmts ~seed ~day:0 op)) mix

(* simulate queued readers: a fat lock-wait tail above the valve's
   threshold keeps halving the target until it hits the floor *)
let seed_lock_waits wh =
  let m = Db.metrics (Warehouse.db wh) in
  for _ = 1 to 50 do
    Metrics.observe m "lock.wait" 0.050
  done

let batched_apply_uses_fewer_txns () =
  let rows = 60 in
  let ods = ods_of_mix ~rows ~txns:12 ~seed:21 in
  let wh1 = mk_wh ~rows in
  let seq = Warehouse.integrate_op_deltas wh1 ods in
  let wh2 = mk_wh ~rows in
  let policy = { Warehouse.default_batch_policy with Warehouse.max_batch = 4 } in
  let bat = Warehouse.integrate_op_deltas ~policy wh2 ods in
  check Alcotest.int "sequential: one txn per source txn" 12 seq.Warehouse.txns;
  check Alcotest.int "batched: one txn per run of 4" 3 bat.Warehouse.txns;
  check Alcotest.int "same statements either way" seq.Warehouse.statements
    bat.Warehouse.statements;
  check Alcotest.bool "same replica contents" true
    (Warehouse.replica_rows wh1 "parts" = Warehouse.replica_rows wh2 "parts");
  check Alcotest.int "no valve without a policy" 0
    (Metrics.observed_count (Db.metrics (Warehouse.db wh1)) "warehouse.batch_size")

let valve_shrinks_under_lock_waits () =
  let rows = 40 in
  let ods = ods_of_mix ~rows ~txns:40 ~seed:8 in
  let wh = mk_wh ~rows in
  seed_lock_waits wh;
  let policy = { Warehouse.max_batch = 8; min_batch = 1; lock_wait_p95_s = 0.010 } in
  ignore (Warehouse.integrate_op_deltas ~policy wh ods : Warehouse.stats);
  check (Alcotest.float 0.001) "valve pinned at the floor" 1.0
    (Metrics.gauge (Db.metrics (Warehouse.db wh)) "warehouse.batch_size_target")

let valve_stays_open_without_contention () =
  let rows = 40 in
  let ods = ods_of_mix ~rows ~txns:10 ~seed:8 in
  let wh = mk_wh ~rows in
  let policy = { Warehouse.max_batch = 8; min_batch = 1; lock_wait_p95_s = 0.010 } in
  ignore (Warehouse.integrate_op_deltas ~policy wh ods : Warehouse.stats);
  check (Alcotest.float 0.001) "valve at the ceiling" 8.0
    (Metrics.gauge (Db.metrics (Warehouse.db wh)) "warehouse.batch_size_target")

let batch_policy_validates () =
  (try
     Warehouse.validate_batch_policy
       { Warehouse.max_batch = 2; min_batch = 0; lock_wait_p95_s = 0.01 };
     Alcotest.fail "expected min_batch failure"
   with Invalid_argument _ -> ());
  try
    Warehouse.validate_batch_policy
      { Warehouse.max_batch = 1; min_batch = 2; lock_wait_p95_s = 0.01 };
    Alcotest.fail "expected ceiling failure"
  with Invalid_argument _ -> ()

(* a statement failing mid-run rolls the whole run back — its mark
   included — while earlier runs and their marks stay committed *)
let mark_rolls_back_with_failed_run () =
  let rows = 30 in
  let good = ods_of_mix ~rows ~txns:3 ~seed:4 in
  let bad =
    match Dw_sql.Parser.parse "DELETE FROM nowhere WHERE part_id = 1" with
    | Ok stmt -> Op_delta.make ~txn_id:4 [ stmt ]
    | Error e -> Alcotest.fail e
  in
  let wh = mk_wh ~rows in
  let db = Warehouse.db wh in
  let progress = "progress" in
  ignore
    (Db.create_table db ~name:progress
       (Schema.make ~key_arity:1
          [ { Schema.name = "id"; ty = Value.Tint; nullable = false };
            { Schema.name = "applied"; ty = Value.Tint; nullable = false } ])
      : Table.t);
  Db.with_txn db (fun txn ->
      ignore (Db.insert db txn progress [| Value.Int 0; Value.Int 0 |] : Dw_storage.Heap_file.rid));
  let mark txn run =
    let last = List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 run in
    ignore
      (Db.update_where db txn progress ~set:[ ("applied", Expr.Lit (Value.Int last)) ] ~where:None
        : int)
  in
  (* runs of two: [1; 2] commits, [3; bad] fails on its second txn *)
  let policy = { Warehouse.max_batch = 2; min_batch = 2; lock_wait_p95_s = 0.010 } in
  (match Warehouse.integrate_op_deltas ~policy ~mark wh (good @ [ bad ]) with
   | (_ : Warehouse.stats) -> Alcotest.fail "expected the missing table to fail the run"
   | exception Invalid_argument _ -> ());
  let applied =
    Db.with_txn db (fun txn ->
        match Db.select db txn progress () with
        | [ [| _; Value.Int n |] ] -> n
        | _ -> Alcotest.fail "corrupt progress table")
  in
  check Alcotest.int "progress row holds the last committed run" 2 applied;
  let reference = mk_wh ~rows in
  ignore (Warehouse.integrate_op_deltas reference [ List.nth good 0; List.nth good 1 ]
          : Warehouse.stats);
  check Alcotest.bool "failed run's earlier txn rolled back too" true
    (Warehouse.replica_rows wh "parts" = Warehouse.replica_rows reference "parts");
  check Alcotest.bool "views rolled back with it" true
    (Warehouse.view_rows wh "small_qty" = Warehouse.view_rows reference "small_qty"
     && Warehouse.agg_view_rows wh "qty_groups" = Warehouse.agg_view_rows reference "qty_groups")

(* replica, SPJ view and aggregate view, each checked against recompute *)
let wh_state wh =
  let view = Warehouse.view_rows wh "small_qty" in
  let agg = Warehouse.agg_view_rows wh "qty_groups" in
  if view <> Warehouse.recompute_view wh "small_qty" then
    QCheck2.Test.fail_report "SPJ view diverged from recompute_view"
  else if agg <> Warehouse.recompute_agg_view wh "qty_groups" then
    QCheck2.Test.fail_report "aggregate view diverged from recompute_agg_view"
  else (List.sort Tuple.compare (Warehouse.replica_rows wh "parts"), view, agg)

let fleet_state ~shards ~rows ~policy ods =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Hash shards) in
  let pw = Partitioned.create ~spec ~name:"eqv" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica pw ~table:"parts" (part_rows ~rows);
  Partitioned.define_view pw spj_view;
  Partitioned.define_agg_view pw agg_view;
  let buckets, (_ : Stage.stats) = Stage.split ~spec ods in
  Domain_pool.with_pool ~domains:2 (fun pool ->
      ignore (Partitioned.refresh ~policy ~pool pw buckets : Warehouse.stats));
  ( Partitioned.replica_rows pw "parts",
    Partitioned.view_rows pw "small_qty",
    Partitioned.agg_view_rows pw "qty_groups" )

(* run lengths of a valve that halves after every run, from its ceiling
   down to its floor *)
let pinned_schedule (policy : Warehouse.batch_policy) n =
  let rec go target left =
    if left <= 0 then []
    else
      let len = min target left in
      len :: go (max policy.Warehouse.min_batch (target / 2)) (left - len)
  in
  go policy.Warehouse.max_batch n

let gen_policy =
  QCheck2.Gen.(
    map3
      (fun max_batch floor pinned ->
        ( { Warehouse.max_batch; min_batch = 1 + (floor mod max_batch); lock_wait_p95_s = 0.010 },
          pinned ))
      (int_range 1 16) (int_range 0 15) bool)

(* the equivalence property: for ANY op-delta stream, applying it with
   no policy, with ANY policy (the valve open or pinned at its floor),
   or through a partitioned fleet yields the same replica, view and
   aggregate state — only transaction boundaries differ — and [mark]
   sees every run, in order, once per warehouse transaction *)
let prop_batched_equals_sequential =
  QCheck2.Test.make
    ~name:"batched apply = one-at-a-time apply for random op-delta streams" ~count:25
    QCheck2.Gen.(tup4 (int_range 0 10_000) (int_range 1 14) gen_policy (int_range 1 3))
    (fun (seed, txns, (policy, pinned), shards) ->
      let rows = 50 in
      let ods = ods_of_mix ~rows ~txns ~seed in
      let apply ?policy wh =
        let runs = ref [] in
        let stats =
          Warehouse.integrate_op_deltas ?policy ~mark:(fun _ run -> runs := run :: !runs) wh ods
        in
        (stats, List.rev !runs)
      in
      let wh1 = mk_wh ~rows in
      let seq, seq_runs = apply wh1 in
      let wh2 = mk_wh ~rows in
      if pinned then seed_lock_waits wh2;
      let bat, bat_runs = apply ~policy wh2 in
      let marks_ok (stats : Warehouse.stats) runs =
        List.length runs = stats.Warehouse.txns && List.equal ( == ) (List.concat runs) ods
      in
      let fail msg =
        QCheck2.Test.fail_reportf "seed %d txns %d max %d min %d pinned %b shards %d: %s" seed
          txns policy.Warehouse.max_batch policy.Warehouse.min_batch pinned shards msg
      in
      if not (marks_ok seq seq_runs && List.for_all (fun r -> List.length r = 1) seq_runs) then
        fail "no-policy marks are not one per source transaction"
      else if not (marks_ok bat bat_runs) then fail "policy marks do not cover the stream"
      else if List.exists (fun r -> List.length r > policy.Warehouse.max_batch) bat_runs then
        fail "a run exceeded max_batch"
      else if pinned && List.map List.length bat_runs <> pinned_schedule policy txns then
        fail "pinned valve did not halve to its floor"
      else
        let sequential = wh_state wh1 in
        if wh_state wh2 <> sequential then fail "policy apply diverged"
        else if fleet_state ~shards ~rows ~policy ods <> sequential then
          fail "partitioned refresh diverged"
        else true)

let gc_snapshot_statement_leaves_group_pending () =
  (* the group belongs to the writer: a snapshot statement past the
     deadline leaves it pending (it still yields to the scheduler), and
     the next read-write statement flushes it *)
  let metrics = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock metrics clk;
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.set_sync_mode db (`Group_policy { Group_commit.max_group = 100; max_wait_s = 2.0 });
  commit_one db 1;
  Sim_clock.advance clk 3;
  let yields = ref 0 in
  Db.set_yield_hook db (Some (fun () -> incr yields));
  let snap = Db.begin_txn ~mode:`Snapshot db in
  ignore (Db.select db snap "parts" () : Tuple.t list);
  ignore (Db.exec_sql db snap "SELECT COUNT(*) FROM parts" : (Db.exec_result, string) result);
  Db.commit db snap;
  check Alcotest.int "both snapshot statements yielded" 2 !yields;
  check Alcotest.int "snapshot statements left the group pending" 1
    (Db.pending_group_commits db);
  Db.set_yield_hook db None;
  Db.with_txn db (fun txn ->
      ignore (Db.select db txn "parts" () : Tuple.t list);
      check Alcotest.int "a read-write statement flushed it" 0 (Db.pending_group_commits db))

let suite =
  [
    test "group deadline on sim clock" gc_deadline_on_sim_clock;
    test "group deadline 0 = every commit" gc_deadline_zero_flushes_every_commit;
    test "group size histogram" gc_group_size_histogram;
    test "mode switch flushes open group" gc_mode_switch_flushes_open_group;
    test "deadline polled at statement boundary" gc_policy_deadline_at_statement_boundary;
    test "scheduler sessions share group fsyncs" gc_scheduler_concurrent_committers;
    test "group policy validates" gc_policy_validates;
    test "frame codec roundtrip + corruption" frames_roundtrip;
    test "batched and single queue ops interoperate" batch_and_single_interoperate;
    test "ack_run validates" ack_run_validates;
    test "ship_messages packs blocks, roundtrips" ship_messages_blocks_and_roundtrip;
    test "fetch_messages detects corruption" fetch_detects_corruption;
    test "batched apply uses fewer txns, same state" batched_apply_uses_fewer_txns;
    test "valve shrinks under lock waits" valve_shrinks_under_lock_waits;
    test "valve stays open without contention" valve_stays_open_without_contention;
    test "batch policy validates" batch_policy_validates;
    test "mark rolls back with a failed run" mark_rolls_back_with_failed_run;
    QCheck_alcotest.to_alcotest prop_batched_equals_sequential;
    test "snapshot statements leave an overdue group to the writer"
      gc_snapshot_statement_leaves_group_pending;
  ]
