(* Experiment T5 — batching ablation across the refresh pipeline.

   The paper's Table 3/4 measure the end-to-end window of one extract →
   transport → integrate cycle; T5 asks how much of that window is
   per-transaction / per-message fixed cost, by sweeping the three
   batching knobs this repo adds:

     a. group-commit WAL: source-side fsyncs per committed transaction
        vs group size (Dw_txn.Group_commit);
     b. transport coalescing: queue fsyncs per message and ship blocks
        per message vs batched enqueue/ack and block packing
        (Persistent_queue.enqueue_batch, File_ship.ship_messages);
     c. micro-batched refresh: warehouse maintenance window for the same
        op-delta stream applied one source transaction per warehouse
        transaction (the Table 3/4 baseline) vs runs of consecutive
        source transactions per warehouse transaction
        (Warehouse.integrate_op_deltas ~policy).

   Deterministic results (counter ratios) land in t5.* gauges for the
   JSON schema check; wall-clock windows are reported but only their
   presence is validated. *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Metrics = Dw_util.Metrics
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Warehouse = Dw_warehouse.Warehouse
module Persistent_queue = Dw_transport.Persistent_queue
module File_ship = Dw_transport.File_ship
open Bench_support

let group_sizes = [ 1; 2; 4; 8; 16 ]
let batch_sizes = [ 1; 4; 8; 16 ]

(* ---------- part a: group-commit WAL ---------- *)

let run_group_commit ~scale =
  section "T5a: group commit - WAL fsyncs per committed source transaction";
  let txns = if is_quick () then 60 else 400 * scale in
  let header = [ "group size"; "txns"; "wal fsyncs"; "fsync/txn"; "mean group" ] in
  let rows =
    List.map
      (fun g ->
        let db = fresh_source ~rows:0 () in
        Db.set_sync_mode db (`Group g);
        let m = Db.metrics db in
        let fsyncs0 = Metrics.observed_count m "wal.fsync" in
        let day = Db.current_day db in
        for i = 0 to txns - 1 do
          exec_txn db (Workload.insert_parts_txn ~first_id:(i + 1) ~size:1 ~day ())
        done;
        (* durability barrier: close the last (possibly partial) group so
           every mode has made all [txns] commits durable *)
        Db.sync db;
        let fsyncs = Metrics.observed_count m "wal.fsync" - fsyncs0 in
        let per_txn = float_of_int fsyncs /. float_of_int txns in
        let mean_group =
          Metrics.observed_sum m "wal.group_size"
          /. float_of_int (max 1 (Metrics.observed_count m "wal.group_size"))
        in
        Metrics.set_gauge m (Printf.sprintf "t5.fsync_per_txn_g%d" g) per_txn;
        [
          string_of_int g; string_of_int txns; string_of_int fsyncs;
          Printf.sprintf "%.3f" per_txn; Printf.sprintf "%.1f" mean_group;
        ])
      group_sizes
  in
  print_table ~title:"Group commit (single-row insert transactions)" ~header ~rows;
  print_endline
    "shape check: fsync/txn ~ 1/group - the commit fsync is pure fixed cost, so group \
     commit removes it linearly until the log write itself dominates"

(* ---------- part b: transport coalescing ---------- *)

let t5_payload i =
  (* representative small op-delta line: one UPDATE statement as SQL text *)
  Printf.sprintf "%d\tUPDATE parts SET qty = qty + 1 WHERE part_id = %d;" i (1 + (i mod 997))

let run_transport ~scale =
  section "T5b: transport coalescing - queue fsyncs and ship blocks per message";
  let msgs = if is_quick () then 200 else 1000 * scale in
  let payloads = List.init msgs t5_payload in
  let count_fsyncs vfs = Metrics.get (Vfs.metrics vfs) "vfs.fsyncs" in
  (* per-message path: enqueue+fsync and ack+fsync for every message *)
  let vfs1 = Vfs.in_memory () in
  let q1 = Persistent_queue.open_ vfs1 ~name:"xfer" in
  let f0 = count_fsyncs vfs1 in
  List.iter (Persistent_queue.enqueue q1) payloads;
  let rec drain1 () =
    match Persistent_queue.peek q1 with
    | None -> ()
    | Some _ ->
      Persistent_queue.ack q1;
      drain1 ()
  in
  drain1 ();
  let single_fsyncs = count_fsyncs vfs1 - f0 in
  Persistent_queue.close q1;
  (* coalesced path: batches of 16 in, runs of 64 out *)
  let vfs2 = Vfs.in_memory () in
  let q2 = Persistent_queue.open_ vfs2 ~name:"xfer" in
  let f0 = count_fsyncs vfs2 in
  let rec enqueue_batches = function
    | [] -> ()
    | rest ->
      let batch = List.filteri (fun i _ -> i < 16) rest in
      let rest = List.filteri (fun i _ -> i >= 16) rest in
      Persistent_queue.enqueue_batch q2 batch;
      enqueue_batches rest
  in
  enqueue_batches payloads;
  let rec drain2 () =
    match Persistent_queue.peek_run q2 ~max:64 with
    | [] -> ()
    | run ->
      Persistent_queue.ack_run q2 (List.length run);
      drain2 ()
  in
  drain2 ();
  let batched_fsyncs = count_fsyncs vfs2 - f0 in
  Persistent_queue.close q2;
  (* ship round-trips: one file per message vs packed blocks *)
  let dst = Vfs.in_memory () in
  let block_size = Bench_support.scaled_chunk (64 * 1024) in
  let blocks, shipped_ok =
    match File_ship.ship_messages ~block_size ~dst ~dst_name:"t5.block" payloads with
    | Ok stats -> (stats.File_ship.chunks, true)
    | Error _ -> (0, false)
  in
  let roundtrip_ok =
    shipped_ok
    && (match File_ship.fetch_messages dst ~name:"t5.block" with
        | Ok back -> back = payloads
        | Error _ -> false)
  in
  let m = Vfs.metrics dst in
  let per_msg_single = float_of_int single_fsyncs /. float_of_int msgs in
  let per_msg_batched = float_of_int batched_fsyncs /. float_of_int msgs in
  Metrics.set_gauge m "t5.queue_fsync_per_msg_single" per_msg_single;
  Metrics.set_gauge m "t5.queue_fsync_per_msg_batched" per_msg_batched;
  Metrics.set_gauge m "t5.ship_blocks" (float_of_int blocks);
  Metrics.set_gauge m "t5.ship_msgs" (float_of_int msgs);
  print_table ~title:"Queue round-trip fsyncs (enqueue + ack)"
    ~header:[ "path"; "msgs"; "fsyncs"; "fsync/msg" ]
    ~rows:
      [
        [ "per-message"; string_of_int msgs; string_of_int single_fsyncs;
          Printf.sprintf "%.3f" per_msg_single ];
        [ "batch 16 / run 64"; string_of_int msgs; string_of_int batched_fsyncs;
          Printf.sprintf "%.3f" per_msg_batched ];
      ];
  Printf.printf
    "ship coalescing: %d messages packed into %d block(s) of <= %d B (vs %d per-message \
     round-trips); checksummed round-trip %s\n"
    msgs blocks block_size msgs
    (if roundtrip_ok then "ok" else "FAILED");
  if not roundtrip_ok then failwith "T5b: ship_messages round-trip failed"

(* ---------- part c: micro-batched warehouse refresh ---------- *)

(* the warehouse device gets a per-operation latency so the per-commit
   fixed cost (commit record + fsync) is physically real, as on the
   paper's staging database, instead of an in-memory no-op *)
let mk_wh ~replica_rows ~op_delay =
  parts_warehouse ~pool_pages:2048 ~op_delay ~views:[ cheap_parts ] ~rows:replica_rows ()

let run_refresh ~scale =
  section "T5c: refresh window - one txn per source txn vs micro-batched runs";
  let replica_rows = if is_quick () then 800 else 4_000 * scale in
  let n_txns = if is_quick () then 24 else 48 in
  let op_delay = 100e-6 in
  (* the maintenance stream: n_txns UPDATE transactions of 8 rows each,
     ranges staggered across the replica *)
  let ods =
    List.init n_txns (fun i ->
        Op_delta.make ~txn_id:i
          [ Workload.update_parts_stmt ~first_id:(1 + (i * 31 mod (replica_rows - 8))) ~size:8 ])
  in
  let wh_seq = mk_wh ~replica_rows ~op_delay in
  let seq_stats = ref Warehouse.zero_stats in
  let t_seq =
    time_only (fun () -> seq_stats := Warehouse.integrate_op_deltas wh_seq ods)
  in
  let reference = Warehouse.view_rows wh_seq "cheap_parts" in
  let header = [ "max batch"; "wh txns"; "window"; "vs sequential" ] in
  let best = ref (t_seq, !seq_stats) in
  let rows =
    List.map
      (fun b ->
        let wh = mk_wh ~replica_rows ~op_delay in
        let policy = { Warehouse.default_batch_policy with Warehouse.max_batch = b } in
        let stats = ref Warehouse.zero_stats in
        let t =
          time_only (fun () -> stats := Warehouse.integrate_op_deltas ~policy wh ods)
        in
        if Warehouse.view_rows wh "cheap_parts" <> reference then
          failwith "T5c: batched refresh diverged from sequential refresh";
        if b = 16 then best := (t, !stats);
        [
          string_of_int b;
          string_of_int (!stats).Warehouse.txns;
          dur t;
          Printf.sprintf "%.1f%% shorter" (pct_change ~base:t_seq ~other:t);
        ])
      batch_sizes
  in
  let rows =
    [ "1/txn (baseline)"; string_of_int (!seq_stats).Warehouse.txns; dur t_seq; "-" ] :: rows
  in
  print_table
    ~title:
      (Printf.sprintf "%d source txns (8-row updates) into a %d-row warehouse replica"
         n_txns replica_rows)
    ~header ~rows;
  let t_batched, batched_stats = !best in
  let m = Metrics.create () in
  (* a private registry: set_gauge mirrors into the dwbench sink *)
  Metrics.set_gauge m "t5.window_sequential_s" t_seq;
  Metrics.set_gauge m "t5.window_batched_s" t_batched;
  Metrics.set_gauge m "t5.window_speedup" (t_seq /. t_batched);
  Metrics.set_gauge m "t5.txns_sequential" (float_of_int (!seq_stats).Warehouse.txns);
  Metrics.set_gauge m "t5.txns_batched" (float_of_int batched_stats.Warehouse.txns);
  Printf.printf
    "shape check: identical view contents in every mode; batching trades refresh \
     granularity (readers see runs of %d source txns at once) for %.1f%% of the window\n"
    (List.fold_left max 1 batch_sizes)
    (pct_change ~base:t_seq ~other:t_batched)

let run_t5 ~scale =
  run_group_commit ~scale;
  run_transport ~scale;
  run_refresh ~scale
