(* Experiment S1 — paper Section 3.1.2: differential-snapshot extraction
   cost relative to the other methods.

   Expected shape: snapshot differential is the most expensive extraction
   path (full dump + diff each round, plus partition traffic for the
   bounded-memory algorithm); log extraction is the cheapest on the
   source's critical path. *)

module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Snapshot_extract = Dw_core.Snapshot_extract
module Timestamp_extract = Dw_core.Timestamp_extract
module Trigger_extract = Dw_core.Trigger_extract
module Log_extract = Dw_core.Log_extract
open Bench_support

let run ~scale =
  section "S1: differential snapshot vs other extraction methods";
  let table_rows = 20_000 * scale in
  let delta_rows = table_rows / 20 in
  (* source with archive logging so the log method is available *)
  let db = fresh_source ~archive:true ~rows:table_rows () in
  (* snapshot round 0 *)
  (match
     Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:None ~snapshot_dest:"s0.snap"
       ~algorithm:Snapshot_extract.Sort_merge
   with
   | Ok _ -> ()
   | Error e -> failwith e);
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  let since_lsn = Dw_txn.Wal.next_lsn (Db.wal db) in
  let handle = Trigger_extract.install db ~table:"parts" in
  (* the change activity: one update txn + one delete txn + one insert txn *)
  let t_workload_with_trigger =
    time_only (fun () ->
        exec_txn db [ Workload.update_parts_stmt ~first_id:1 ~size:delta_rows ];
        exec_txn db
          [
            Workload.delete_parts_stmt ~first_id:(table_rows - delta_rows)
              ~size:(delta_rows / 2);
          ];
        exec_txn db
          (Workload.insert_parts_txn ~first_id:(table_rows + 1) ~size:(delta_rows / 2)
             ~day:(Db.current_day db) ()))
  in
  (* each method extracts the same change set *)
  let (_, t_trigger) = time (fun () -> Trigger_extract.collect db handle) in
  let (_, t_log) = time (fun () -> Log_extract.extract ~since_lsn db ~table:"parts" ()) in
  let (_, t_ts) =
    time (fun () ->
        Timestamp_extract.extract db ~table:"parts" ~since:watermark
          ~output:(Timestamp_extract.To_file "ts.asc"))
  in
  let sm = ref (Ok 0.0) in
  let t_snap_sort =
    time_only (fun () ->
        match
          Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "s0.snap")
            ~snapshot_dest:"s1.snap" ~algorithm:Snapshot_extract.Sort_merge
        with
        | Ok _ -> ()
        | Error e -> sm := Error e)
  in
  let t_snap_hash =
    time_only (fun () ->
        match
          Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "s0.snap")
            ~snapshot_dest:"s2.snap" ~algorithm:(Snapshot_extract.Partitioned_hash 16)
        with
        | Ok _ -> ()
        | Error e -> sm := Error e)
  in
  let t_snap_window =
    time_only (fun () ->
        match
          Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "s0.snap")
            ~snapshot_dest:"s3.snap" ~algorithm:(Snapshot_extract.Window 4096)
        with
        | Ok _ -> ()
        | Error e -> sm := Error e)
  in
  (match !sm with Ok _ -> () | Error e -> failwith e);
  print_table ~title:(Printf.sprintf "Extraction of a %d-row change set from a %d-row table" (2 * delta_rows) table_rows)
    ~header:[ "Method"; "extraction time"; "note" ]
    ~rows:
      [
        [ "trigger (collect)"; dur t_trigger;
          Printf.sprintf "capture already paid during txns (%s)" (dur t_workload_with_trigger) ];
        [ "log (archive)"; dur t_log; "off the critical path" ];
        [ "timestamp (file)"; dur t_ts; "full scan; no deletes" ];
        [ "snapshot sort-merge"; dur t_snap_sort; "full dump + diff" ];
        [ "snapshot partitioned-hash"; dur t_snap_hash; "full dump + partition + diff" ];
        [ "snapshot window (LGM96)"; dur t_snap_window; "single pass, bounded memory" ];
      ];
  print_endline
    "shape check (paper): the snapshot methods cost the most per round; the log method has no \
     direct impact on source transactions"
