(* W5 — domain-parallel snapshot OLAP under a concurrent batch refresh.

   The tentpole measurement for the multicore read path: the same analyst
   query mix as W3, but executed by Par_scan over a Domain_pool at
   1/2/4/8 domains, while the W3 batch-outage scenario (one big
   value-delta refresh transaction) runs concurrently on its own domain.
   Snapshot readers take no locks, so the refresh never blocks them; the
   question is pure read-side scaling.

   The warehouse is made deliberately I/O-bound: the in-memory Vfs gets a
   per-operation delay and the buffer pool is sized well below the table,
   so every scan faults most of its pages and the partitions' simulated
   I/O waits overlap across domains.  That keeps the speedup signal
   meaningful even on a single-core host — domains overlap sleeps, not
   compute.

   After the refresh domain joins (quiesced warehouse), every query is
   run once more through both the sequential executor and Par_scan on one
   snapshot and the results compared structurally: the parallel path must
   be byte-identical, row order and column naming included.

   Emitted metrics (the w5.* keys gated by Bench_gate):
   - histograms  w5.olap_latency_d{n} (per-query seconds, per domain count)
   - gauges      w5.olap_qps_d{n}, w5.olap_p95_d{n}_s,
                 w5.speedup_d4 (throughput at 4 domains over 1 domain),
                 w5.identical (1.0 when parallel == sequential results),
                 w5.partitions, w5.refresh_window_s *)

module Db = Dw_engine.Db
module Metrics = Dw_util.Metrics
module Domain_pool = Dw_util.Domain_pool
module Workload = Dw_workload.Workload
module Trigger_extract = Dw_core.Trigger_extract
module Warehouse = Dw_warehouse.Warehouse
module Olap = Dw_warehouse.Olap
module Par_scan = Dw_warehouse.Par_scan
open Bench_support

(* pool far smaller than the table so repeated scans keep missing; enough
   stripes that domains rarely share a latch *)
let pool_pages = 16
let pool_stripes = 8
let partitions = 8
let op_delay = 200e-6
let refresh_txns = 10
let refresh_txn_size = 40

let queries = Olap.standard_queries ~table:"parts"

(* the refresh payload: the same shape as W3's batch arm — source-side
   update transactions captured by triggers into one value delta.
   Returns the source, its rows before the transactions (the replica's
   contents) and the delta. *)
let build_refresh_delta ~rows =
  let src = fresh_source ~rows () in
  Db.set_day src (Db.current_day src + 1);
  let contents = sorted_rows src "parts" in
  let handle = Trigger_extract.install src ~table:"parts" in
  for i = 0 to refresh_txns - 1 do
    exec_txn src [ Workload.update_parts_stmt ~first_id:(1 + (i * 50)) ~size:refresh_txn_size ]
  done;
  (src, contents, Trigger_extract.collect src handle)

type arm = { domains : int; qps : float; p95 : float; wall : float; wh : Warehouse.t }

let run_arm ~src ~contents ~vd ~domains ~queries_n =
  let wh = replica_warehouse ~pool_pages ~pool_stripes ~op_delay contents in
  let db = Warehouse.db wh in
  let metrics = Db.metrics db in
  let label = Printf.sprintf "d%d" domains in
  Domain_pool.with_pool ~domains @@ fun pool ->
  (* the W3 batch-outage scenario, concurrent: one value-delta refresh
     transaction on its own domain while the parallel readers run *)
  let refresh_window = ref 0.0 in
  let refresher =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        ignore (Warehouse.integrate_value_delta wh vd : Warehouse.stats);
        refresh_window := Unix.gettimeofday () -. t0)
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to queries_n - 1 do
    let q = List.nth queries (i mod List.length queries) in
    match Olap.run_parallel ~partitions ~pool wh q with
    | Ok r -> Metrics.observe metrics ("w5.olap_latency_" ^ label) r.Olap.duration
    | Error e -> failwith (Printf.sprintf "w5 %s: %s: %s" label q.Olap.name e)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Domain.join refresher;
  require_replica_matches ~what:("w5 " ^ label) wh src;
  let qps = float_of_int queries_n /. wall in
  let p95 = Metrics.percentile metrics ("w5.olap_latency_" ^ label) 0.95 in
  Metrics.set_gauge metrics ("w5.olap_qps_" ^ label) qps;
  Metrics.set_gauge metrics ("w5.olap_p95_" ^ label ^ "_s") p95;
  Metrics.set_gauge metrics "w5.refresh_window_s" !refresh_window;
  { domains; qps; p95; wall; wh }

(* quiesced byte-identity check: same snapshot, sequential vs parallel *)
let check_identical wh =
  let db = Warehouse.db wh in
  Domain_pool.with_pool ~domains:4 @@ fun pool ->
  List.for_all
    (fun (q : Olap.query) ->
      let txn = Db.begin_txn ~mode:`Snapshot db in
      let seq = Db.exec_sql db txn q.Olap.sql in
      let par = Par_scan.exec_sql ~partitions ~pool db txn q.Olap.sql in
      Db.commit db txn;
      seq = par)
    queries

let run_w5 ~scale =
  section "W5: domain-parallel snapshot OLAP under concurrent batch refresh";
  let rows = (if is_quick () then 2_000 else 8_000) * scale in
  let queries_n = if is_quick () then 10 else 25 in
  let domain_counts = if is_quick () then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let src, contents, vd = build_refresh_delta ~rows in
  let arms =
    List.map (fun d -> run_arm ~src ~contents ~vd ~domains:d ~queries_n) domain_counts
  in
  let arm d = List.find (fun a -> a.domains = d) arms in
  let speedup = (arm 4).qps /. (arm 1).qps in
  let last = List.nth arms (List.length arms - 1) in
  let identical = check_identical last.wh in
  let metrics = Db.metrics (Warehouse.db last.wh) in
  Metrics.set_gauge metrics "w5.speedup_d4" speedup;
  Metrics.set_gauge metrics "w5.identical" (if identical then 1.0 else 0.0);
  Metrics.set_gauge metrics "w5.partitions" (float_of_int partitions);
  print_table
    ~title:
      (Printf.sprintf
         "%d queries over %d rows (pool %d pages / %d stripes, %d partitions, %.0f us/op vfs \
          delay), value-delta refresh concurrent"
         queries_n rows pool_pages pool_stripes partitions (op_delay *. 1e6))
    ~header:[ "domains"; "throughput (q/s)"; "p95 latency"; "query phase" ]
    ~rows:
      (List.map
         (fun a ->
           [
             string_of_int a.domains;
             Printf.sprintf "%.1f" a.qps;
             dur a.p95;
             dur a.wall;
           ])
         arms);
  Printf.printf
    "speedup at 4 domains vs 1: %.2fx; parallel results %s sequential\n\
     shape check: snapshot readers never wait on the refresh transaction, so throughput \
     scales with overlapped page-fault I/O until the domains saturate the simulated disk\n"
    speedup
    (if identical then "byte-identical to" else "DIVERGE from")
