(* Experiment T1 — paper Table 1: "Database deltas dump and load
   techniques".  Export a delta table, Import it back, and load the same
   delta through the ASCII Loader, across the delta-size sweep.

   Expected shape: Import >> Loader > Export, all roughly linear. *)

module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Export_util = Dw_engine.Export_util
module Import_util = Dw_engine.Import_util
module Ascii_util = Dw_engine.Ascii_util
open Bench_support

let run ~scale =
  section "T1 (Table 1): Export / Import / DBMS Loader vs delta size";
  let steps = delta_row_steps ~scale in
  let export_times = ref [] in
  let import_times = ref [] in
  let loader_times = ref [] in
  List.iter
    (fun rows ->
      (* a source holding just the delta table (what gets dumped) *)
      let db = fresh_source ~rows () in
      (* Export the delta *)
      let _, t_export =
        time (fun () -> Export_util.export_table db ~table:"parts" ~dest:"delta.exp" ())
      in
      (* Import into an empty table of the same schema *)
      let _ = Db.create_table db ~name:"parts_import" ~ts_column:"last_modified" Workload.parts_schema in
      let import_result, t_import =
        time (fun () -> Import_util.import_table db ~src:"delta.exp" ~table:"parts_import")
      in
      (match import_result with
       | Ok s -> assert (s.Import_util.rows = rows)
       | Error e -> failwith e);
      (* ASCII dump once (not timed: it is the extraction's job), then Loader *)
      let _ = Ascii_util.dump db ~table:"parts" ~dest:"delta.asc" () in
      let _ = Db.create_table db ~name:"parts_load" ~ts_column:"last_modified" Workload.parts_schema in
      let load_result, t_loader =
        time (fun () -> Ascii_util.load db ~table:"parts_load" ~src:"delta.asc")
      in
      (match load_result with
       | Ok s -> assert (s.Ascii_util.rows = rows)
       | Error e -> failwith e);
      export_times := t_export :: !export_times;
      import_times := t_import :: !import_times;
      loader_times := t_loader :: !loader_times)
    steps;
  let row name times = name :: List.rev_map dur !times in
  print_table ~title:"Table 1: dump and load techniques"
    ~header:("Method" :: List.map label_for_rows steps)
    ~rows:[ row "Export" export_times; row "Import" import_times; row "DBMS Loader" loader_times ];
  let ratio =
    let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
    avg (List.rev !import_times) /. avg (List.rev !loader_times)
  in
  Printf.printf "shape check: mean Import/Loader ratio = %.2fx (paper: ~2-3.5x)\n" ratio
