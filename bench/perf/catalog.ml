(* The dwperf metric catalogue: how each reported number is derived from
   a run.  BENCHMARK.json lists the same names and units; the smoke test
   checks the two agree.

   End-to-end metrics are what a user of the system sees.  Per-layer
   metrics attribute a run to the library's layers; every one of them is
   computed from the benchmark's own timers around public calls or from
   registry counters and histogram sums the library already emits, and
   each is a ratio (per committed transaction, per query, a share or a
   rate), so it does not grow with the number of epochs a host fits into
   the budget. *)

module Json = Dw_util.Json
module Warehouse = Dw_warehouse.Warehouse
module Stage = Dw_etl.Stage

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value = (if Float.is_finite value then value else 0.0) }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms s = s *. 1000.0

let txn_per_s (r : Runner.result) = ratio (float_of_int r.committed) r.wall_s

let end_to_end (r : Runner.result) =
  let p samples q = ms (Samples.percentile samples q) in
  let median samples = Samples.percentile samples 0.5 in
  let written = Probe.get r.probe "src.vfs.write_bytes" +. Probe.get r.probe "wh.vfs.write_bytes" in
  [
    m "setup_s" "s" (median r.setup_s);
    m "txn_per_s" "txn/s" (txn_per_s r);
    m "source_txn_p50_ms" "ms" (p r.txn_s 0.50);
    m "source_txn_p95_ms" "ms" (p r.txn_s 0.95);
    m "refresh_window_p50_ms" "ms" (p r.round_s 0.50);
    m "freshness_p50_ms" "ms" (p r.fresh_s 0.50);
    m "freshness_p95_ms" "ms" (p r.fresh_s 0.95);
    m "write_bytes_per_txn" "B/txn" (ratio written (float_of_int r.committed));
    m "live_heap_mb" "MiB" (median r.live_mb);
  ]

(* per-shard WAL appends, max over mean: how evenly the fleet shares the
   refresh work *)
let imbalance (r : Runner.result) =
  let rec shards i =
    match Hashtbl.find_opt r.probe (Printf.sprintf "wh%d.wal.append.n" i) with
    | Some v -> v :: shards (i + 1)
    | None -> []
  in
  match shards 0 with
  | ([] | [ _ ]) -> 1.0
  | xs ->
    let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    ratio (List.fold_left max 0.0 xs) mean

(* every layer metric, in layer order, paired with whether the result
   line reports it (BENCHMARK.json's per_layer list).  The others are
   times that read a constant 0 on some workloads (layers only some
   workloads run, lock waits, pool misses): the result line carries
   shares of the refresh window and counts in their place, and the trace
   table prints them.  Times are per committed transaction in
   microseconds, scaled by the run's median speed factor. *)
let layers (r : Runner.result) =
  let g = Probe.get r.probe in
  let n = float_of_int in
  let per_txn x = ratio x (n r.committed) in
  let factor = Samples.percentile r.factors 0.5 in
  let us x = per_txn (x *. factor *. 1e6) in
  let busy = r.round_busy_s in
  let integrate = g "wh.warehouse.refresh.s" in
  let queue = g "wh.queue.enqueue.s" +. g "wh.queue.ack.s" in
  (* the round's residual: wall time outside the children it waits on *)
  let self =
    busy
    -. if r.kind = Scenario.Partitioned_mix then r.stage_s +. r.refresh_s else integrate +. queue
  in
  let w = r.integration in
  let queries = n (Samples.length r.query_s) in
  let hits = g "wh.pool.hits" and misses = g "wh.pool.misses" in
  let fleet x = if r.kind = Scenario.Partitioned_mix then x else 0.0 in
  [
    (true, m "capture.us_per_txn" "us/txn" (us r.txn_busy_s));
    (true, m "capture.statements_per_txn" "stmt/txn" (per_txn (n r.statements)));
    (true, m "capture.bytes_per_txn" "B/txn" (per_txn r.captured_bytes));
    (true, m "src.wal.appends_per_txn" "1/txn" (per_txn (g "src.wal.append.n")));
    (true, m "src.vfs.write_bytes_per_txn" "B/txn" (per_txn (g "src.vfs.write_bytes")));
    (true, m "src.pool.misses_per_txn" "1/txn" (per_txn (g "src.pool.misses")));
    (true, m "pipeline.us_per_txn" "us/txn" (us busy));
    (true, m "pipeline.self_us_per_txn" "us/txn" (us self));
    (true, m "pipeline.attributed_frac" "fraction" (ratio (busy -. self) busy));
    (true, m "pipeline.shipped_bytes_per_txn" "B/txn" (per_txn (n r.shipped_bytes)));
    (false, m "queue.us_per_txn" "us/txn" (us queue));
    (true, m "queue.share" "fraction" (ratio queue busy));
    (true, m "queue.enqueue_calls_per_txn" "1/txn" (per_txn (g "wh.queue.enqueue.n")));
    (true, m "queue.ack_calls_per_txn" "1/txn" (per_txn (g "wh.queue.ack.n")));
    (true, m "queue.msgs_per_txn" "1/txn" (per_txn (g "wh.queue.batch_size.s")));
    (true, m "integrate.us_per_txn" "us/txn" (us integrate));
    (true, m "integrate.txns_per_txn" "1/txn" (per_txn (n w.Warehouse.txns)));
    (true, m "integrate.statements_per_txn" "stmt/txn" (per_txn (n w.Warehouse.statements)));
    (true, m "integrate.row_ops_per_txn" "1/txn" (per_txn (n w.Warehouse.row_ops)));
    (true, m "integrate.row_ops_per_s" "1/s" (ratio (n w.Warehouse.row_ops) (integrate *. factor)));
    (true, m "wh.wal.appends_per_txn" "1/txn" (per_txn (g "wh.wal.append.n")));
    (true, m "wh.wal.append_us_per_txn" "us/txn" (us (g "wh.wal.append.s")));
    (true, m "wh.wal.fsyncs_per_txn" "1/txn" (per_txn (g "wh.wal.fsync.n")));
    (true, m "wh.wal.fsync_us_per_txn" "us/txn" (us (g "wh.wal.fsync.s")));
    (true, m "wh.pool.hit_ratio" "fraction" (ratio hits (hits +. misses)));
    (true, m "wh.pool.misses_per_txn" "1/txn" (per_txn misses));
    (false, m "wh.pool.miss_us_per_txn" "us/txn" (us (g "wh.pool.miss.s")));
    (true, m "wh.pool.evictions_per_txn" "1/txn" (per_txn (g "wh.pool.evictions")));
    (true, m "wh.pool.writebacks_per_txn" "1/txn" (per_txn (g "wh.pool.writebacks")));
    (true, m "wh.vfs.reads_per_txn" "1/txn" (per_txn (g "wh.vfs.reads")));
    (true, m "wh.vfs.read_bytes_per_txn" "B/txn" (per_txn (g "wh.vfs.read_bytes")));
    (true, m "wh.vfs.write_bytes_per_txn" "B/txn" (per_txn (g "wh.vfs.write_bytes")));
    (true, m "wh.vfs.fsyncs_per_txn" "1/txn" (per_txn (g "wh.vfs.fsyncs")));
    (true, m "wh.lock.acquires_per_txn" "1/txn" (per_txn (g "wh.lock.acquires")));
    (true, m "wh.lock.blocks_per_txn" "1/txn" (per_txn (g "wh.lock.blocks")));
    (false, m "wh.lock.wait_us_per_txn" "us/txn" (us (g "wh.lock.wait.s")));
    (true, m "olap.query_per_s" "q/s" (ratio queries (r.raw_s *. factor)));
    (false, m "olap.query_p50_ms" "ms" (ms (Samples.percentile r.query_s 0.50)));
    (false, m "olap.query_p95_ms" "ms" (ms (Samples.percentile r.query_s 0.95)));
    (true, m "olap.rows_per_query" "rows" (ratio (n r.query_rows) queries));
    (true, m "olap.failed_share" "fraction" (ratio (n r.queries_failed) queries));
    (false, m "stage.us_per_txn" "us/txn" (us r.stage_s));
    (true, m "stage.share" "fraction" (ratio r.stage_s busy));
    (true, m "stage.routed_per_txn" "1/txn" (per_txn (n r.stage.Stage.routed)));
    (true, m "stage.broadcast_per_txn" "1/txn" (per_txn (n r.stage.Stage.broadcast)));
    (true, m "stage.split_rows_per_txn" "1/txn" (per_txn (n r.stage.Stage.split_rows)));
    (false, m "partitioned.us_per_txn" "us/txn" (us r.refresh_s));
    (true, m "partitioned.share" "fraction" (ratio r.refresh_s busy));
    (false, m "partitioned.shard_us_per_txn" "us/txn" (us (fleet integrate)));
    (true, m "partitioned.parallel_eff" "fraction" (fleet (ratio integrate (r.refresh_s *. 2.0))));
    (true, m "partitioned.imbalance" "ratio" (imbalance r));
    (true, m "partitioned.wh_txns_per_txn" "1/txn" (fleet (per_txn (n w.Warehouse.txns))));
    (true, m "machine.speed_factor" "ratio" factor);
    (true, m "machine.raw_txn_per_s" "txn/s" (ratio (n r.committed) r.raw_s));
    (true, m "gc.minor_collections_per_txn" "1/txn" (per_txn (g "gc.minor_collections")));
    (true, m "gc.major_collections_per_txn" "1/txn" (per_txn (g "gc.major_collections")));
    (true, m "gc.minor_words_per_txn" "words/txn" (per_txn (g "gc.minor_words")));
    (true, m "gc.promoted_words_per_txn" "words/txn" (per_txn (g "gc.promoted_words")));
  ]

let per_layer r = List.filter_map (fun (j, x) -> if j then Some x else None) (layers r)

let attempted (r : Runner.result) = r.issued + Samples.length r.round_s + Samples.length r.query_s
let failed (r : Runner.result) = r.txn_failed + r.rounds_failed + r.queries_failed

(* the benchmark's result line *)
let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
             metrics) );
    ]
