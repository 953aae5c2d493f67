(* Tests for the extension features: timestamp-extraction restriction and
   sub-setting, extraction watermarks, group commit, and the aggregate
   view unit pieces not covered by the warehouse suite. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Timestamp_extract = Dw_core.Timestamp_extract
module Watermark = Dw_core.Watermark
module Log_extract = Dw_core.Log_extract
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let mk_source ?(rows = 40) () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~archive_log:true ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

let touch db ~first_id ~size =
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  Db.with_txn db (fun txn ->
      ignore (Db.exec db txn (Workload.update_parts_stmt ~first_id ~size) : Db.exec_result));
  watermark

(* ---------- restriction / sub-setting ---------- *)

let ts_restrict () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:20 in
  (* only even-qty rows of the delta *)
  let delta, _ =
    Timestamp_extract.extract
      ~restrict:(Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 5)))
      db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "r.asc")
  in
  check Alcotest.int "restricted rows" 5 (Delta.row_count delta)

let ts_project () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:7 in
  let delta, _ =
    Timestamp_extract.extract ~project:[ "part_id"; "qty" ] db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "p.asc")
  in
  check Alcotest.int "rows" 7 (Delta.row_count delta);
  check Alcotest.int "projected arity" 2 (Schema.arity delta.Delta.schema);
  List.iter
    (fun change ->
      match change with
      | Delta.Upsert row -> check Alcotest.int "tuple arity" 2 (Array.length row)
      | _ -> Alcotest.fail "expected upserts")
    delta.Delta.changes

let ts_project_must_keep_key () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:3 in
  try
    ignore
      (Timestamp_extract.extract ~project:[ "qty" ] db ~table:"parts" ~since:watermark
         ~output:(Timestamp_extract.To_file "x.asc"));
    Alcotest.fail "expected key-projection failure"
  with Invalid_argument _ -> ()

let ts_restrict_and_project_to_table () =
  let db = mk_source () in
  let watermark = touch db ~first_id:1 ~size:10 in
  let delta, _ =
    Timestamp_extract.extract
      ~restrict:(Expr.Cmp (Expr.Gt, Expr.Col "part_id", Expr.Lit (Value.Int 4)))
      ~project:[ "part_id"; "price" ] db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_table "slim_delta")
  in
  check Alcotest.int "rows" 6 (Delta.row_count delta);
  let tbl = Db.table db "slim_delta" in
  check Alcotest.int "table arity" 2 (Schema.arity (Table.schema tbl));
  check Alcotest.int "table rows" 6 (Table.row_count tbl)

(* ---------- watermarks ---------- *)

let watermark_roundtrip () =
  let vfs = Vfs.in_memory () in
  let wm = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "virgin day" (-1) (Watermark.get wm ~table:"parts").Watermark.day;
  Watermark.advance wm ~table:"parts" { Watermark.day = 10; lsn = 512 };
  Watermark.advance wm ~table:"orders" { Watermark.day = 4; lsn = 100 };
  (* re-open: state survives *)
  let wm2 = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "day persisted" 10 (Watermark.get wm2 ~table:"parts").Watermark.day;
  check Alcotest.int "lsn persisted" 512 (Watermark.get wm2 ~table:"parts").Watermark.lsn;
  check (Alcotest.list Alcotest.string) "tables" [ "orders"; "parts" ] (Watermark.tables wm2)

let watermark_no_regression () =
  let vfs = Vfs.in_memory () in
  let wm = Watermark.load vfs ~name:"marks" in
  Watermark.advance wm ~table:"parts" { Watermark.day = 10; lsn = 512 };
  try
    Watermark.advance wm ~table:"parts" { Watermark.day = 9; lsn = 600 };
    Alcotest.fail "expected regression failure"
  with Invalid_argument _ -> ()

let watermark_drives_incremental_rounds () =
  (* two extraction rounds; round 2 only sees round-2 changes *)
  let db = mk_source () in
  let vfs = Db.vfs db in
  let wm = Watermark.load vfs ~name:"marks" in
  (* round 1 *)
  let w1 = touch db ~first_id:1 ~size:5 in
  ignore w1;
  let mark = Watermark.get wm ~table:"parts" in
  let d1, _ =
    Timestamp_extract.extract db ~table:"parts" ~since:mark.Watermark.day
      ~output:(Timestamp_extract.To_file "r1.asc")
  in
  Watermark.advance wm ~table:"parts"
    { Watermark.day = Db.current_day db; lsn = Dw_txn.Wal.next_lsn (Db.wal db) };
  (* round 1 sees the full table (initial mark = -1) *)
  check Alcotest.int "round 1 = everything" 40 (Delta.row_count d1);
  (* round 2 *)
  ignore (touch db ~first_id:11 ~size:3 : int);
  let mark = Watermark.get wm ~table:"parts" in
  let d2, _ =
    Timestamp_extract.extract db ~table:"parts" ~since:mark.Watermark.day
      ~output:(Timestamp_extract.To_file "r2.asc")
  in
  check Alcotest.int "round 2 = new changes only" 3 (Delta.row_count d2);
  (* log-based round with the lsn watermark *)
  let d3, _ = Log_extract.extract ~since_lsn:mark.Watermark.lsn db ~table:"parts" () in
  check Alcotest.int "log round matches" 3 (Delta.row_count d3)

(* ---------- watermark torn-tail / fault hardening ---------- *)

let append_raw vfs name s =
  let f = Vfs.open_or_create vfs name in
  ignore (Vfs.append f (Bytes.of_string s) : int);
  Vfs.fsync f;
  Vfs.close f

(* a crash mid-append leaves a partial record: load falls back to the
   last durable state and truncates the tail, so post-recovery advances
   stay visible to every later load *)
let watermark_torn_tail () =
  let vfs = Vfs.in_memory () in
  let wm = Watermark.load vfs ~name:"marks" in
  Watermark.advance wm ~table:"parts" { Watermark.day = 3; lsn = 30 };
  Watermark.advance wm ~table:"orders" { Watermark.day = 1; lsn = 10 };
  append_raw vfs "marks" "m|parts|9|9";
  let wm2 = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "parts fell back" 3 (Watermark.get wm2 ~table:"parts").Watermark.day;
  check Alcotest.int "orders unaffected" 1 (Watermark.get wm2 ~table:"orders").Watermark.day;
  Watermark.advance wm2 ~table:"parts" { Watermark.day = 4; lsn = 40 };
  let wm3 = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "recovery advance visible" 4 (Watermark.get wm3 ~table:"parts").Watermark.day;
  check Alcotest.int "lsn too" 40 (Watermark.get wm3 ~table:"parts").Watermark.lsn

let watermark_corrupt_checksum () =
  let vfs = Vfs.in_memory () in
  let wm = Watermark.load vfs ~name:"marks" in
  Watermark.advance wm ~table:"parts" { Watermark.day = 1; lsn = 10 };
  Watermark.advance wm ~table:"parts" { Watermark.day = 2; lsn = 20 };
  (* flip bytes inside the last record's checksum field *)
  let f = Vfs.open_existing vfs "marks" in
  let len = Vfs.size f in
  Vfs.write_at f ~off:(len - 3) (Bytes.of_string "zz");
  Vfs.fsync f;
  Vfs.close f;
  let wm2 = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "fell back to last valid record" 1
    (Watermark.get wm2 ~table:"parts").Watermark.day

(* fault-injection regression: kill the store at every write/fsync event
   of one advance; whatever survives must be one of the two adjacent
   durable states, and the store must stay fully usable *)
let watermark_crash_during_advance () =
  let mk () =
    let vfs = Vfs.in_memory () in
    let wm = Watermark.load vfs ~name:"marks" in
    Watermark.advance wm ~table:"parts" { Watermark.day = 1; lsn = 10 };
    (vfs, wm)
  in
  let vfs0, wm0 = mk () in
  Vfs.set_fault vfs0 (Some (Vfs.Fault.make ~seed:1 ()));
  Watermark.advance wm0 ~table:"parts" { Watermark.day = 2; lsn = 20 };
  let total = match Vfs.fault vfs0 with Some f -> Vfs.Fault.events f | None -> 0 in
  check Alcotest.bool "events counted" true (total > 0);
  for k = 0 to total - 1 do
    let vfs, wm = mk () in
    Vfs.set_fault vfs (Some (Vfs.Fault.make ~fail_stop_after:k ~seed:(10 + k) ()));
    (try Watermark.advance wm ~table:"parts" { Watermark.day = 2; lsn = 20 }
     with Vfs.Fault.Crash _ -> ());
    Vfs.crash_reset vfs;
    let wm2 = Watermark.load vfs ~name:"marks" in
    let day = (Watermark.get wm2 ~table:"parts").Watermark.day in
    check Alcotest.bool "durable state only" true (day = 1 || day = 2);
    Watermark.advance wm2 ~table:"parts" { Watermark.day = 3; lsn = 30 };
    check Alcotest.int "usable after crash" 3
      (Watermark.get (Watermark.load vfs ~name:"marks") ~table:"parts").Watermark.day
  done

(* journals written before the bootstrap cursor moved out of the
   watermark store hold intact [c|]/[x|] records: load skips them rather
   than truncating them, and the marks after them, as a torn tail *)
let watermark_skips_cursor_records () =
  let vfs = Vfs.in_memory () in
  let record body = Printf.sprintf "%s|%s\n" body (Dw_util.Checksum.hex body) in
  let f = Vfs.create vfs "marks" in
  Vfs.write_at f ~off:0
    (Bytes.of_string
       (record "m|parts|1|10" ^ record "c|parts|100|2" ^ record "x|parts"
        ^ record "m|parts|2|20"));
  Vfs.close f;
  let size () =
    let f = Vfs.open_existing vfs "marks" in
    let n = Vfs.size f in
    Vfs.close f;
    n
  in
  let before = size () in
  let wm = Watermark.load vfs ~name:"marks" in
  check Alcotest.int "mark after the cursor records" 2
    (Watermark.get wm ~table:"parts").Watermark.day;
  check Alcotest.int "nothing truncated" before (size ())

(* ---------- group commit ---------- *)

let group_commit_fewer_fsyncs () =
  let metrics = Dw_util.Metrics.create () in
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Db.set_sync_mode db (`Group 10);
  let before = Dw_util.Metrics.get metrics "vfs.fsyncs" in
  for i = 1 to 25 do
    Db.with_txn db (fun txn ->
        List.iter
          (fun stmt -> ignore (Db.exec db txn stmt : Db.exec_result))
          (Workload.insert_parts_txn ~first_id:i ~size:1 ~day:0 ()))
  done;
  let commits_synced = Dw_util.Metrics.get metrics "vfs.fsyncs" - before in
  check Alcotest.int "2 group syncs for 25 commits" 2 commits_synced;
  (* recovery still sees all flushed work plus the tail (in-memory vfs
     retains everything; the mode only changes fsync cadence) *)
  ignore (Db.recover db : Dw_txn.Recovery.stats);
  check Alcotest.int "all rows" 25 (Table.row_count (Db.table db "parts"))

let group_commit_validates () =
  let db = mk_source ~rows:0 () in
  try
    Db.set_sync_mode db (`Group 0);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let suite =
  [
    test "ts restrict" ts_restrict;
    test "ts project" ts_project;
    test "ts project must keep key" ts_project_must_keep_key;
    test "ts restrict+project to table" ts_restrict_and_project_to_table;
    test "watermark roundtrip" watermark_roundtrip;
    test "watermark no regression" watermark_no_regression;
    test "watermark drives incremental rounds" watermark_drives_incremental_rounds;
    test "watermark torn tail truncated" watermark_torn_tail;
    test "watermark corrupt checksum ignored" watermark_corrupt_checksum;
    test "watermark crash sweep during advance" watermark_crash_during_advance;
    test "watermark skips legacy cursor records" watermark_skips_cursor_records;
    test "group commit fewer fsyncs" group_commit_fewer_fsyncs;
    test "group commit validates" group_commit_validates;
  ]
