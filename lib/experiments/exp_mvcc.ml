(* W3 — measured OLAP availability under snapshot-isolation reads.

   The same online-refresh setting as W2R (an effect-handler scheduler
   interleaves the micro-batched integrator with OLAP reader sessions
   over one warehouse, real 2PL), but the readers' transaction mode is
   the experimental variable:

   - snapshot arm: readers run in [`Snapshot] mode (the Olap default) —
     no locks, visibility from the version store at their begin CSN;
   - locking arm: readers run in [`Read_write] mode — shared table
     locks, so they queue behind the integrator's exclusive locks;
   - batch arm: the whole maintenance cycle as ONE value-delta
     transaction, the paper's offline refresh — its duration is the
     outage a locking reader would see in the worst case.

   The interesting second-order effect: the batched integrator's AIMD
   valve shrinks its runs when reader lock-waits climb, so locking
   readers also throttle the refresh.  Snapshot readers generate no
   lock-waits at all, which keeps the valve wide open.  (The reported
   refresh-window wall-clock still includes interleaved reader slices —
   the scheduler is cooperative — so the windows of the two arms are
   comparable, not an outage measure; the batch arm's duration is the
   outage contrast.)

   Emitted metrics (the w3.* keys gated by Bench_gate):
   - histograms  w3.olap_latency_snapshot / w3.olap_latency_locking
     (per-query wall-clock seconds, one sample per reader session)
   - gauges      w3.olap_p95_snapshot_s / w3.olap_p95_locking_s,
                 w3.lock_wait_count_snapshot / w3.lock_wait_count_locking,
                 w3.reader_blocked_slices_snapshot / ..._locking,
                 w3.refresh_window_snapshot_s / w3.refresh_window_locking_s,
                 w3.batch_outage_s *)

module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Db = Dw_engine.Db
module Scheduler = Dw_engine.Scheduler
module Metrics = Dw_util.Metrics
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Trigger_extract = Dw_core.Trigger_extract
module Warehouse = Dw_warehouse.Warehouse
module Olap = Dw_warehouse.Olap
open Bench_support

let reader_count = 6
let txns = 20
let txn_size = 25
let stride = 60

let maintenance_stream () =
  List.init txns (fun i ->
      Op_delta.make ~txn_id:i
        [ Workload.update_parts_stmt ~first_id:(1 + (i * stride)) ~size:txn_size ])

(* the highest part id the stream updates: every arm's table holds at
   least this many rows, so each transaction matches [txn_size] of them *)
let stream_top = ((txns - 1) * stride) + txn_size

let qty_total wh =
  let qty = Schema.index_of Workload.parts_schema "qty" in
  List.fold_left
    (fun acc row -> match row.(qty) with Value.Int q -> acc + q | _ -> acc)
    0
    (Warehouse.replica_rows wh "parts")

let arm_label = function `Snapshot -> "snapshot" | `Read_write -> "locking"

(* one scheduled run: micro-batched integrator vs staggered OLAP readers
   whose transactions use [mode]; returns (scheduler report, refresh
   window seconds) and leaves the w3.* samples in the db's registry *)
let run_arm ~table_rows mode =
  let label = arm_label mode in
  let wh = Exp_warehouse.mk_warehouse ~replica_rows:table_rows in
  let db = Warehouse.db wh in
  let metrics = Db.metrics db in
  let ods = maintenance_stream () in
  let queries = Olap.standard_queries ~table:"parts" in
  let refresh = ref 0.0 in
  let integrator =
    {
      Scheduler.name = "integrator";
      start_at = 0;
      work =
        (fun () ->
          let t0 = Unix.gettimeofday () in
          ignore
            (Warehouse.integrate_op_deltas ~policy:Warehouse.default_batch_policy wh ods
              : Warehouse.stats);
          refresh := Unix.gettimeofday () -. t0);
    }
  in
  let readers =
    List.init reader_count (fun i ->
        {
          Scheduler.name = Printf.sprintf "olap-%d" i;
          start_at = 2 + (i * 3);
          work =
            (fun () ->
              let q = List.nth queries (i mod List.length queries) in
              match Olap.run ~mode wh q with
              | Ok r -> Metrics.observe metrics ("w3.olap_latency_" ^ label) r.Olap.duration
              | Error e -> failwith e);
        })
  in
  let qty_before = qty_total wh in
  let report = Scheduler.run db (integrator :: readers) in
  List.iter
    (fun s ->
      match s.Scheduler.failed with
      | Some e -> failwith (Printf.sprintf "w3 %s arm: session %s failed: %s" label s.Scheduler.session e)
      | None -> ())
    report.Scheduler.sessions;
  (* each UPDATE adds 1 to the qty of every row it matches *)
  let updated = qty_total wh - qty_before in
  if updated <> txns * txn_size then
    failwith
      (Printf.sprintf "w3 %s arm: the stream updated %d replica rows, not %d" label updated
         (txns * txn_size));
  let reader_blocked =
    List.fold_left
      (fun acc s ->
        if s.Scheduler.session = "integrator" then acc else acc + s.Scheduler.blocked_slices)
      0 report.Scheduler.sessions
  in
  Metrics.set_gauge metrics
    ("w3.olap_p95_" ^ label ^ "_s")
    (Metrics.percentile metrics ("w3.olap_latency_" ^ label) 0.95);
  Metrics.set_gauge metrics ("w3.lock_wait_count_" ^ label)
    (float_of_int (Metrics.observed_count metrics "lock.wait"));
  Metrics.set_gauge metrics
    ("w3.reader_blocked_slices_" ^ label)
    (float_of_int reader_blocked);
  Metrics.set_gauge metrics ("w3.refresh_window_" ^ label ^ "_s") !refresh;
  (report, !refresh)

(* the offline contrast: the whole cycle as one value-delta batch
   transaction; readers would be locked out for its entire duration *)
let run_batch_arm ~table_rows =
  let src = fresh_source ~rows:table_rows () in
  Db.set_day src (Db.current_day src + 1);
  let contents = sorted_rows src "parts" in
  let handle = Trigger_extract.install src ~table:"parts" in
  List.iter
    (fun od ->
      exec_txn src (List.map (fun (op : Op_delta.op) -> op.Op_delta.stmt) od.Op_delta.ops))
    (maintenance_stream ());
  let vd = Trigger_extract.collect src handle in
  let wh = replica_warehouse ~pool_pages:2048 ~views:[ cheap_parts ] contents in
  let metrics = Db.metrics (Warehouse.db wh) in
  let t0 = Unix.gettimeofday () in
  ignore (Warehouse.integrate_value_delta wh vd : Warehouse.stats);
  let outage = Unix.gettimeofday () -. t0 in
  require_replica_matches ~what:"w3 batch arm" wh src;
  Metrics.set_gauge metrics "w3.batch_outage_s" outage;
  outage

let run_w3 ~scale =
  section "W3: OLAP latency and refresh window - snapshot vs locking reads vs batch";
  let table_rows = max (scaled 2_000 ~scale) stream_top in
  let snap_report, snap_refresh = run_arm ~table_rows `Snapshot in
  let lock_report, lock_refresh = run_arm ~table_rows `Read_write in
  let outage = run_batch_arm ~table_rows in
  let blocked rep =
    List.fold_left
      (fun acc s ->
        if s.Scheduler.session = "integrator" then acc else acc + s.Scheduler.blocked_slices)
      0 rep.Scheduler.sessions
  in
  let show name (rep : Scheduler.report) refresh =
    [
      name;
      string_of_int (blocked rep);
      string_of_int rep.Scheduler.total_slices;
      dur refresh;
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "%d maintenance txns (%d-row updates, micro-batched) vs %d OLAP readers over %d rows"
         txns txn_size reader_count table_rows)
    ~header:[ "reader mode"; "reader blocked slices"; "makespan (slices)"; "refresh window" ]
    ~rows:
      [
        show "snapshot (lock-free)" snap_report snap_refresh;
        show "locking (2PL shared)" lock_report lock_refresh;
      ];
  Printf.printf
    "value-delta batch outage (offline contrast): %s\n\
     shape check: snapshot readers never block (0 blocked slices, empty lock.wait), so the \
     valve keeps refresh runs wide open; locking readers queue behind the integrator's \
     exclusive locks and would face the full %s outage under offline batch refresh\n"
    (dur outage) (dur outage)
