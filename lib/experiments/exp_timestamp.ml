(* Experiments T2 and T3 — paper Tables 2 and 3: timestamp-based delta
   extraction, and the end-to-end extract+load comparison.

   T2 shape: table output ≈ 2-3x file output; +Export adds more.
   T3 shape: the table+Export+Import path is 2-3.5x the file+Loader path,
   the gap widening with delta size. *)

module Db = Dw_engine.Db
module Vfs = Dw_storage.Vfs
module Workload = Dw_workload.Workload
module Timestamp_extract = Dw_core.Timestamp_extract
module Import_util = Dw_engine.Import_util
module Ascii_util = Dw_engine.Ascii_util
module File_ship = Dw_transport.File_ship
module Metrics = Dw_util.Metrics
open Bench_support

(* Build a source where exactly [delta_rows] rows carry a fresh timestamp:
   load the base table at day D, then update a contiguous id range at
   day D+1 through normal (logged) transactions. *)
let source_with_delta ~table_rows ~delta_rows =
  let db = fresh_source ~rows:table_rows () in
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  if delta_rows > 0 then
    exec_txn db [ Workload.update_parts_stmt ~first_id:1 ~size:delta_rows ];
  (db, watermark)

let run_t2 ~scale =
  section "T2 (Table 2): time stamp based delta extraction";
  let table_rows = source_rows ~scale in
  let steps = delta_row_steps ~scale in
  let file_times = ref [] and table_times = ref [] and export_times = ref [] in
  List.iter
    (fun delta_rows ->
      let db, watermark = source_with_delta ~table_rows ~delta_rows in
      let (_, s1), t_file =
        time (fun () ->
            Timestamp_extract.extract db ~table:"parts" ~since:watermark
              ~output:(Timestamp_extract.To_file "ts.asc"))
      in
      assert (s1.Timestamp_extract.rows = delta_rows);
      let _, t_table =
        time (fun () ->
            Timestamp_extract.extract db ~table:"parts" ~since:watermark
              ~output:(Timestamp_extract.To_table "ts_delta"))
      in
      let _, t_table_export =
        time (fun () ->
            Timestamp_extract.extract db ~table:"parts" ~since:watermark
              ~output:
                (Timestamp_extract.To_table_export
                   { delta_table = "ts_delta2"; export_file = "ts.exp" }))
      in
      file_times := t_file :: !file_times;
      table_times := t_table :: !table_times;
      export_times := t_table_export :: !export_times)
    steps;
  let row name times = name :: List.rev_map dur !times in
  print_table ~title:"Table 2: time stamp based delta extraction"
    ~header:("Method" :: List.map label_for_rows steps)
    ~rows:
      [
        row "File output" file_times;
        row "Table output" table_times;
        row "Table output + Export" export_times;
      ];
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Printf.printf "shape check: table/file ratio = %.2fx (paper: ~2-3x)\n"
    (avg !table_times /. avg !file_times);
  (List.rev !file_times, List.rev !export_times)

let run_t3 ~scale =
  section "T3 (Table 3): total extract + transport + load time";
  let table_rows = source_rows ~scale in
  let steps = delta_row_steps ~scale in
  let path1_times = ref [] and path2_times = ref [] in
  List.iter
    (fun delta_rows ->
      let db, watermark = source_with_delta ~table_rows ~delta_rows in
      (* the warehouse: a second database instance *)
      let dw_vfs = Vfs.in_memory () in
      let dw = Db.create ~pool_pages:1024 ~vfs:dw_vfs ~name:"dw" () in
      let _ = Db.create_table dw ~name:"parts" ~ts_column:"last_modified" Workload.parts_schema in
      (* path 1: file output -> ship -> DBMS Loader.  Trace spans decompose
         the refresh into the paper's Table 3 segments. *)
      let dwm = Vfs.metrics dw_vfs in
      let t_path1 =
        time_only (fun () ->
            Metrics.with_span dwm "t3.refresh" (fun () ->
                Metrics.with_span dwm "t3.extract" (fun () ->
                    ignore
                      (Timestamp_extract.extract db ~table:"parts" ~since:watermark
                         ~output:(Timestamp_extract.To_file "ts.asc")));
                Metrics.with_span dwm "t3.transport" (fun () ->
                    match
                      (* chunk size follows --quick scaling so the
                         transfer stays multi-chunk (Bench_support) *)
                      File_ship.ship ~chunk_size:(Bench_support.ship_chunk ())
                        ~src:(Db.vfs db) ~src_name:"ts.asc" ~dst:dw_vfs
                        ~dst_name:"ts.asc" ()
                    with
                    | Ok _ -> ()
                    | Error e -> failwith e);
                Metrics.with_span dwm "t3.load" (fun () ->
                    match Ascii_util.load dw ~table:"parts" ~src:"ts.asc" with
                    | Ok _ -> ()
                    | Error e -> failwith e)))
      in
      (* path 2: table output + Export -> ship -> Import *)
      let _ = Db.create_table dw ~name:"parts2" ~ts_column:"last_modified" Workload.parts_schema in
      let t_path2 =
        time_only (fun () ->
            Metrics.with_span dwm "t3.refresh" (fun () ->
                Metrics.with_span dwm "t3.extract" (fun () ->
                    ignore
                      (Timestamp_extract.extract db ~table:"parts" ~since:watermark
                         ~output:
                           (Timestamp_extract.To_table_export
                              { delta_table = "ts_delta"; export_file = "ts.exp" })));
                Metrics.with_span dwm "t3.transport" (fun () ->
                    match
                      File_ship.ship ~chunk_size:(Bench_support.ship_chunk ())
                        ~src:(Db.vfs db) ~src_name:"ts.exp" ~dst:dw_vfs
                        ~dst_name:"ts.exp" ()
                    with
                    | Ok _ -> ()
                    | Error e -> failwith e);
                Metrics.with_span dwm "t3.load" (fun () ->
                    match Import_util.import_table dw ~src:"ts.exp" ~table:"parts2" with
                    | Ok _ -> ()
                    | Error e -> failwith e)))
      in
      path1_times := t_path1 :: !path1_times;
      path2_times := t_path2 :: !path2_times)
    steps;
  let row name times = name :: List.rev_map dur !times in
  print_table ~title:"Table 3: total time to extract and load deltas"
    ~header:("Method" :: List.map label_for_rows steps)
    ~rows:
      [
        row "TS file output + DBMS Loader" path1_times;
        row "TS table output + Export + Import" path2_times;
      ];
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Printf.printf "shape check: path2/path1 ratio = %.2fx (paper: ~2-3.5x)\n"
    (avg !path2_times /. avg !path1_times)
