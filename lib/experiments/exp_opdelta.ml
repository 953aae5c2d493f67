(* Experiments F3, T4 and V1 — paper Figure 3 (Op-Delta capture overhead),
   Table 4 (response time with DB log vs file log), and the delta-volume
   claim of Section 4.1.

   Expected shapes:
   - F3: insert capture overhead ~comparable to the trigger method
     (~66%); delete/update capture overhead tiny (a few %) because one
     small SQL string is written regardless of transaction size;
   - T4: file log <= DB log for every cell, the gap largest on inserts;
   - V1: op-delta bytes flat in txn size for update/delete, value-delta
     bytes linear. *)

module Opdelta_capture = Dw_core.Opdelta_capture
module Trigger_extract = Dw_core.Trigger_extract
module Delta = Dw_core.Delta
open Bench_support

(* response time of one transaction, with capture = None | DB | File *)
let response_time ~table_rows ~capture =
  response_time ~table_rows ~prepare:(fun db stmts ->
      let captured sink =
        let cap = Opdelta_capture.create db ~sink in
        fun () ->
          match Opdelta_capture.exec_txn cap stmts with
          | Ok _ -> ()
          | Error e -> failwith e
      in
      match capture with
      | `None -> fun () -> exec_txn db stmts
      | `Db_log -> captured (Opdelta_capture.To_db_table "opdelta_log")
      | `File_log -> captured (Opdelta_capture.To_file "opdelta.log"))

let run_f3 ~scale =
  section "F3 (Figure 3): Op-Delta extraction overhead";
  let table_rows = 20_000 * scale in
  let header = "Txn size" :: List.map string_of_int txn_sizes in
  let rows =
    List.concat_map
      (fun kind ->
        let base = List.map (response_time ~table_rows ~capture:`None kind) txn_sizes in
        let cap = List.map (response_time ~table_rows ~capture:`Db_log kind) txn_sizes in
        let overhead =
          List.map2 (fun b c -> Printf.sprintf "%.1f%%" ((c -. b) /. b *. 100.0)) base cap
        in
        [ (op_name kind ^ " overhead") :: overhead ])
      op_kinds
  in
  print_table ~title:"Figure 3: Op-Delta capture overhead (DB-table sink) vs txn size" ~header
    ~rows;
  print_endline
    "shape check (paper): insert ~66% avg (comparable to trigger); delete ~2.5% avg; update \
     ~3.7% avg"

let run_t4 ~scale =
  section "T4 (Table 4): response time - DB log vs file log";
  let table_rows = 20_000 * scale in
  let ms t = Printf.sprintf "%.1f" (t *. 1000.0) in
  let header =
    [ "Txn Size"; "Insert(DBLog)"; "Insert(FileLog)"; "Delete(DBLog)"; "Delete(FileLog)";
      "Update(DBLog)"; "Update(FileLog)" ]
  in
  let rows =
    List.map
      (fun size ->
        let cell kind capture = response_time ~table_rows ~capture kind size in
        [
          string_of_int size;
          ms (cell Insert `Db_log);
          ms (cell Insert `File_log);
          ms (cell Delete `Db_log);
          ms (cell Delete `File_log);
          ms (cell Update `Db_log);
          ms (cell Update `File_log);
        ])
      txn_sizes
  in
  print_table ~title:"Table 4: response time (ms) - DB log vs file log" ~header ~rows;
  print_endline
    "shape check (paper): FileLog <= DBLog everywhere; the gap is largest for inserts"

let run_v1 ~scale =
  section "V1 (Section 4.1): delta volume - Op-Delta vs value delta";
  let table_rows = 20_000 * scale in
  let header = [ "Op"; "Txn size"; "Op-Delta bytes"; "Value-delta bytes"; "ratio" ] in
  let rows = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun size ->
          let db, stmts = source_txn ~table_rows kind size in
          let handle = Trigger_extract.install db ~table:"parts" in
          let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "op.log") in
          (match Opdelta_capture.exec_txn cap stmts with
           | Ok _ -> ()
           | Error e -> failwith e);
          let value_delta = Trigger_extract.collect db handle in
          let op_bytes = Opdelta_capture.captured_bytes cap in
          let value_bytes = Delta.size_bytes value_delta in
          rows :=
            [
              op_name kind;
              string_of_int size;
              string_of_int op_bytes;
              string_of_int value_bytes;
              Printf.sprintf "%.1fx" (float_of_int value_bytes /. float_of_int (max 1 op_bytes));
            ]
            :: !rows)
        txn_sizes)
    op_kinds;
  print_table ~title:"Delta volume: Op-Delta vs value delta" ~header ~rows:(List.rev !rows);
  print_endline
    "shape check (paper): update/delete Op-Delta size independent of txn size; insert sizes \
     comparable between methods"
