(* Tests for Dw_txn: log record codec, WAL segments/archive, lock manager,
   recovery passes. *)

module Vfs = Dw_storage.Vfs
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Log_record = Dw_txn.Log_record
module Wal = Dw_txn.Wal
module Lock_manager = Dw_txn.Lock_manager
module Recovery = Dw_txn.Recovery
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Codec = Dw_relation.Codec

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let rid page slot = { Heap_file.page; slot }

(* ---------- log record codec ---------- *)

let sample_records =
  [
    { Log_record.tx = 1; body = Log_record.Begin };
    { Log_record.tx = 1; body = Log_record.Commit };
    { Log_record.tx = 2; body = Log_record.Abort };
    {
      Log_record.tx = 3;
      body = Log_record.Insert { table = "parts"; rid = rid 0 5; after = Bytes.of_string "abc" };
    };
    {
      Log_record.tx = 3;
      body = Log_record.Delete { table = "t"; rid = rid 9 1; before = Bytes.make 100 'z' };
    };
    {
      Log_record.tx = 4;
      body =
        Log_record.Update
          { table = "x"; rid = rid 2 2; before = Bytes.of_string "old"; after = Bytes.of_string "new" };
    };
    { Log_record.tx = 0; body = Log_record.Checkpoint [ 1; 2; 3 ] };
    { Log_record.tx = 0; body = Log_record.Checkpoint [] };
  ]

let record_equal (a : Log_record.t) (b : Log_record.t) =
  a.tx = b.tx
  &&
  match a.body, b.body with
  | Log_record.Begin, Log_record.Begin
  | Log_record.Commit, Log_record.Commit
  | Log_record.Abort, Log_record.Abort ->
    true
  | Log_record.Insert x, Log_record.Insert y ->
    x.table = y.table && x.rid = y.rid && Bytes.equal x.after y.after
  | Log_record.Delete x, Log_record.Delete y ->
    x.table = y.table && x.rid = y.rid && Bytes.equal x.before y.before
  | Log_record.Update x, Log_record.Update y ->
    x.table = y.table && x.rid = y.rid && Bytes.equal x.before y.before
    && Bytes.equal x.after y.after
  | Log_record.Checkpoint x, Log_record.Checkpoint y -> x = y
  | ( ( Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.Insert _
      | Log_record.Delete _ | Log_record.Update _ | Log_record.Checkpoint _ ),
      _ ) ->
    false

let log_record_roundtrip () =
  List.iter
    (fun record ->
      let encoded = Log_record.encode record in
      match Log_record.decode encoded ~off:0 with
      | Ok (decoded, next) ->
        check Alcotest.bool "roundtrip" true (record_equal record decoded);
        check Alcotest.int "consumed all" (Bytes.length encoded) next
      | Error e -> Alcotest.fail e)
    sample_records

let log_record_detects_corruption () =
  let encoded = Log_record.encode (List.nth sample_records 3) in
  (* flip a payload byte *)
  Bytes.set encoded 12 (Char.chr (Char.code (Bytes.get encoded 12) lxor 0xFF));
  check Alcotest.bool "corrupt rejected" true
    (Result.is_error (Log_record.decode encoded ~off:0))

let log_record_truncated () =
  let encoded = Log_record.encode (List.nth sample_records 3) in
  let torn = Bytes.sub encoded 0 (Bytes.length encoded - 2) in
  check Alcotest.bool "torn rejected" true (Result.is_error (Log_record.decode torn ~off:0))

(* ---------- wal ---------- *)

let wal_append_iter () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"test.wal" ~archive:false in
  let lsns = List.map (Wal.append wal) sample_records in
  Wal.flush wal;
  check Alcotest.bool "lsns increase" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < 7) lsns) (List.tl lsns));
  let got = ref [] in
  Wal.iter_all wal (fun _ r -> got := r :: !got);
  let got = List.rev !got in
  check Alcotest.int "all read back" (List.length sample_records) (List.length got);
  List.iter2
    (fun a b -> check Alcotest.bool "record" true (record_equal a b))
    sample_records got

let wal_iter_from () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"test.wal" ~archive:false in
  let lsns = List.map (Wal.append wal) sample_records in
  let from = List.nth lsns 4 in
  let count = ref 0 in
  Wal.iter_from wal from (fun lsn _ ->
      check Alcotest.bool "lsn filtered" true (lsn >= from);
      incr count);
  check Alcotest.int "tail records" 4 !count

let wal_archive_retains_segments () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"a.wal" ~archive:true in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Begin } : int);
  ignore (Wal.checkpoint wal ~active:[] : int);
  ignore (Wal.append wal { Log_record.tx = 2; body = Log_record.Begin } : int);
  ignore (Wal.checkpoint wal ~active:[] : int);
  check Alcotest.int "archived segments" 2 (List.length (Wal.archived_segments wal));
  (* archived records still replayable *)
  let begins = ref 0 in
  Wal.iter_all wal (fun _ r ->
      match r.Log_record.body with Log_record.Begin -> incr begins | _ -> ());
  check Alcotest.int "begins across segments" 2 !begins

(* a read from the last mark opens no closed segment: it reads the same
   bytes however many checkpoints archived the log before the mark *)
let wal_iter_from_skips_closed_segments () =
  let read_from_mark checkpoints =
    let vfs = Vfs.in_memory () in
    let wal = Wal.create vfs ~name:"m.wal" ~archive:true in
    let begin_ tx = ignore (Wal.append wal { Log_record.tx; body = Log_record.Begin } : int) in
    for i = 1 to checkpoints do
      for tx = 1 to 20 do begin_ ((i * 100) + tx) done;
      ignore (Wal.checkpoint wal ~active:[] : int)
    done;
    let mark = Wal.next_lsn wal in
    for tx = 1 to 5 do begin_ tx done;
    let read_bytes () = Dw_util.Metrics.get (Vfs.metrics vfs) "vfs.read_bytes" in
    let before = read_bytes () in
    let seen = ref 0 in
    Wal.iter_from wal mark (fun _ _ -> incr seen);
    check Alcotest.int "records past the mark" 5 !seen;
    check Alcotest.int "archived segments" checkpoints (List.length (Wal.archived_segments wal));
    read_bytes () - before
  in
  let bytes = read_from_mark 0 in
  check Alcotest.bool "reads the records past the mark" true (bytes > 0);
  List.iter
    (fun n -> check Alcotest.int (Printf.sprintf "%d checkpoints" n) bytes (read_from_mark n))
    [ 1; 3; 8 ]

let wal_no_archive_recycles () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"b.wal" ~archive:false in
  for i = 1 to 3 do
    ignore (Wal.append wal { Log_record.tx = i; body = Log_record.Begin } : int);
    ignore (Wal.checkpoint wal ~active:[] : int)
  done;
  (* only the checkpoint-holding segment plus current should remain *)
  check Alcotest.bool "segments recycled" true (List.length (Vfs.list_files vfs) <= 2)

let wal_survives_torn_tail () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"c.wal" ~archive:false in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Begin } : int);
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Commit } : int);
  Wal.flush wal;
  (* simulate a torn write: append garbage half-frame to the segment *)
  let seg = Vfs.open_existing vfs (List.hd (Vfs.list_files vfs)) in
  ignore (Vfs.append seg (Bytes.of_string "\x40\x00\x00\x00junk") : int);
  Vfs.close seg;
  let count = ref 0 in
  Wal.iter_all wal (fun _ _ -> incr count);
  check Alcotest.int "clean records only" 2 !count

(* regression: a torn tail must be *truncated* on re-open, not just
   skipped by the reader — otherwise a later append lands after the
   garbage and is unreachable forever *)
let wal_appends_after_torn_tail () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"d.wal" ~archive:false in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Begin } : int);
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Commit } : int);
  Wal.flush wal;
  let seg = Vfs.open_existing vfs (List.hd (Vfs.list_files vfs)) in
  ignore (Vfs.append seg (Bytes.of_string "\x40\x00\x00\x00junk") : int);
  Vfs.close seg;
  (* crash + restart: adoption truncates the torn tail... *)
  let wal2 = Wal.create vfs ~name:"d.wal" ~archive:false in
  check Alcotest.bool "torn tail truncated" true
    (Dw_util.Metrics.get (Vfs.metrics vfs) "wal.torn_segments" > 0);
  (* ...so post-recovery appends stay reachable across another restart *)
  ignore (Wal.append wal2 { Log_record.tx = 2; body = Log_record.Begin } : int);
  ignore (Wal.append wal2 { Log_record.tx = 2; body = Log_record.Commit } : int);
  Wal.flush wal2;
  let wal3 = Wal.create vfs ~name:"d.wal" ~archive:false in
  let count = ref 0 in
  Wal.iter_all wal3 (fun _ _ -> incr count);
  check Alcotest.int "old + new records all readable" 4 !count

(* regression: segment adoption used bare [int_of_string_opt], which also
   accepts "0x.."/"0o.."-prefixed, signed and '_'-separated forms — so a
   stray file like "e.wal.0x0000000001" was adopted as a segment on
   re-open, truncated as torn garbage, and shifted the recovered LSN.
   Only the fixed-width decimal names [segment_name] writes are valid. *)
let wal_ignores_stray_segment_names () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"e.wal" ~archive:false in
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Begin } : int);
  ignore (Wal.append wal { Log_record.tx = 1; body = Log_record.Commit } : int);
  Wal.flush wal;
  let lsn_before = Wal.next_lsn wal in
  let strays =
    [ "e.wal.0x0000000001"; "e.wal.+00000000001"; "e.wal.0_0000000001"; "e.wal.1" ]
  in
  List.iter
    (fun name ->
      let f = Vfs.create vfs name in
      ignore (Vfs.append f (Bytes.of_string "not a log segment") : int);
      Vfs.close f)
    strays;
  let wal2 = Wal.create vfs ~name:"e.wal" ~archive:false in
  check Alcotest.int "lsn unaffected by stray files" lsn_before (Wal.next_lsn wal2);
  check Alcotest.int "no stray file was 'repaired' as torn" 0
    (Dw_util.Metrics.get (Vfs.metrics vfs) "wal.torn_segments");
  let count = ref 0 in
  Wal.iter_all wal2 (fun _ _ -> incr count);
  check Alcotest.int "only real records iterate" 2 !count;
  (* the stray files were left alone, not truncated or deleted *)
  List.iter
    (fun name ->
      let f = Vfs.open_existing vfs name in
      check Alcotest.int (name ^ " untouched") 17 (Vfs.size f);
      Vfs.close f)
    strays

(* ---------- lock manager ---------- *)

let lm_shared_compatible () =
  let lm = Lock_manager.create () in
  check Alcotest.bool "t1 S" true (Lock_manager.acquire lm 1 (Lock_manager.Table "t") Lock_manager.S = Lock_manager.Granted);
  check Alcotest.bool "t2 S" true (Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.S = Lock_manager.Granted)

let lm_exclusive_conflicts () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm 1 (Lock_manager.Table "t") Lock_manager.X);
  (match Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.S with
   | Lock_manager.Blocked [ 1 ] -> ()
   | _ -> Alcotest.fail "expected Blocked [1]");
  Lock_manager.release_all lm 1;
  check Alcotest.bool "granted after release" true
    (Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.S = Lock_manager.Granted)

let lm_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm 1 (Lock_manager.Table "t") Lock_manager.S);
  check Alcotest.bool "self upgrade" true
    (Lock_manager.acquire lm 1 (Lock_manager.Table "t") Lock_manager.X = Lock_manager.Granted);
  (* now X is held: another S blocks *)
  check Alcotest.bool "other blocked" true
    (Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.S <> Lock_manager.Granted)

let lm_row_table_interaction () =
  let lm = Lock_manager.create () in
  let r = Lock_manager.Row ("t", rid 0 1) in
  ignore (Lock_manager.acquire lm 1 r Lock_manager.X);
  (* another txn's table S lock conflicts with the row X *)
  (match Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.S with
   | Lock_manager.Blocked l -> check (Alcotest.list Alcotest.int) "blockers" [ 1 ] l
   | _ -> Alcotest.fail "expected block");
  (* a row lock in a different table does not conflict *)
  check Alcotest.bool "other table ok" true
    (Lock_manager.acquire lm 2 (Lock_manager.Table "u") Lock_manager.X = Lock_manager.Granted);
  (* different rows both X fine *)
  check Alcotest.bool "different rows" true
    (Lock_manager.acquire lm 2 (Lock_manager.Row ("t", rid 0 2)) Lock_manager.X
     = Lock_manager.Granted)

let lm_deadlock_detection () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm 1 (Lock_manager.Table "a") Lock_manager.X);
  ignore (Lock_manager.acquire lm 2 (Lock_manager.Table "b") Lock_manager.X);
  (* 1 waits for b (held by 2) *)
  (match Lock_manager.acquire lm 1 (Lock_manager.Table "b") Lock_manager.X with
   | Lock_manager.Blocked _ -> ()
   | _ -> Alcotest.fail "expected block");
  (* 2 requesting a would close the cycle *)
  match Lock_manager.acquire lm 2 (Lock_manager.Table "a") Lock_manager.X with
  | Lock_manager.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected deadlock"

let lm_release_clears_waits () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm 1 (Lock_manager.Table "t") Lock_manager.X);
  ignore (Lock_manager.acquire lm 2 (Lock_manager.Table "t") Lock_manager.X);
  check Alcotest.bool "2 waiting" true (Lock_manager.waiting lm 2);
  Lock_manager.release_all lm 1;
  check Alcotest.bool "wait cleared" false (Lock_manager.waiting lm 2)

(* ---------- lock re-entry fast path ---------- *)

let lm_regrant_clears_wait () =
  let lm = Lock_manager.create () in
  let r1 = Lock_manager.Row ("t", rid 0 1) and r2 = Lock_manager.Row ("t", rid 0 2) in
  ignore (Lock_manager.acquire lm 1 r1 Lock_manager.X : Lock_manager.outcome);
  ignore (Lock_manager.acquire lm 2 r2 Lock_manager.X : Lock_manager.outcome);
  (match Lock_manager.acquire lm 1 r2 Lock_manager.X with
   | Lock_manager.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "expected Blocked [2]");
  check Alcotest.bool "1 waiting" true (Lock_manager.waiting lm 1);
  (* re-entry at a weaker mode than the X it holds *)
  check Alcotest.bool "re-entry granted" true
    (Lock_manager.acquire lm 1 r1 Lock_manager.S = Lock_manager.Granted);
  check Alcotest.bool "1 no longer waiting" false (Lock_manager.waiting lm 1);
  check Alcotest.bool "still holds only r1" true (Lock_manager.held_by lm 1 = [ r1 ]);
  (* the held mode is still X *)
  check Alcotest.bool "X kept" true
    (Lock_manager.acquire lm 2 r1 Lock_manager.S = Lock_manager.Blocked [ 1 ])

let lm_reentries_then_deadlock_across_tables () =
  let metrics = Dw_util.Metrics.create () in
  let lm = Lock_manager.create ~metrics () in
  (* a row in each of two tables *)
  let ra = Lock_manager.Row ("a", rid 0 1) in
  let rb = Lock_manager.Row ("b", rid 0 1) in
  let granted tx r m = Lock_manager.acquire lm tx r m = Lock_manager.Granted in
  check Alcotest.bool "1 X a" true (granted 1 ra Lock_manager.X);
  check Alcotest.bool "2 X b" true (granted 2 rb Lock_manager.X);
  (* fast-path re-entries *)
  check Alcotest.bool "1 re-enters a" true (granted 1 ra Lock_manager.X);
  check Alcotest.bool "2 re-enters b" true (granted 2 rb Lock_manager.S);
  (match Lock_manager.acquire lm 1 rb Lock_manager.S with
   | Lock_manager.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "expected 1 blocked on 2");
  (match Lock_manager.acquire lm 2 ra Lock_manager.X with
   | Lock_manager.Deadlock [ 1 ] -> ()
   | _ -> Alcotest.fail "expected deadlock across tables");
  check Alcotest.int "every call counted" 6 (Dw_util.Metrics.get metrics "lock.acquires")

let lm_upgrade_takes_slow_path () =
  let lm = Lock_manager.create () in
  let r = Lock_manager.Row ("t", rid 0 1) in
  ignore (Lock_manager.acquire lm 1 r Lock_manager.S : Lock_manager.outcome);
  ignore (Lock_manager.acquire lm 2 r Lock_manager.S : Lock_manager.outcome);
  (* holding S does not grant X: the upgrade checks the other S holder *)
  (match Lock_manager.acquire lm 1 r Lock_manager.X with
   | Lock_manager.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "expected upgrade blocked on 2");
  check Alcotest.bool "1 waiting" true (Lock_manager.waiting lm 1);
  Lock_manager.release_all lm 2;
  check Alcotest.bool "upgrade granted" true
    (Lock_manager.acquire lm 1 r Lock_manager.X = Lock_manager.Granted);
  match Lock_manager.acquire lm 2 r Lock_manager.S with
  | Lock_manager.Blocked [ 1 ] -> ()
  | _ -> Alcotest.fail "expected S blocked by the upgraded X"

(* ---------- recovery ---------- *)

let rec_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "v"; ty = Value.Tstring 20; nullable = true };
    ]

let encode t = Codec.encode_binary rec_schema t
let row id v = [| Value.Int id; Value.Str v |]

let recovery_redo_undo () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"r.wal" ~archive:false in
  let pool = Buffer_pool.create ~vfs ~capacity:8 () in
  let heap = Heap_file.create pool (Vfs.create vfs "t.heap") rec_schema in
  (* tx 1 commits an insert; tx 2 inserts but never commits; tx 3 commits a
     delete of tx1's row... build the log by hand *)
  let r0 = rid 0 0 and r1 = rid 0 1 in
  let log records = List.iter (fun r -> ignore (Wal.append wal r : int)) records in
  log
    [
      { Log_record.tx = 1; body = Log_record.Begin };
      { Log_record.tx = 1; body = Log_record.Insert { table = "t"; rid = r0; after = encode (row 1 "keep") } };
      { Log_record.tx = 1; body = Log_record.Commit };
      { Log_record.tx = 2; body = Log_record.Begin };
      { Log_record.tx = 2; body = Log_record.Insert { table = "t"; rid = r1; after = encode (row 2 "lose") } };
      (* crash: no commit for tx 2 *)
    ];
  (* simulate that tx2's dirty page reached disk before the crash *)
  Heap_file.force_at heap r1 (Some (encode (row 2 "lose")));
  let stats = Recovery.run ~wal ~resolve:(fun name -> if name = "t" then Some heap else None) in
  check Alcotest.int "winners" 1 stats.Recovery.winners;
  check Alcotest.int "losers" 1 stats.Recovery.losers;
  check Alcotest.bool "committed row present" true (Heap_file.exists_at heap r0);
  check Alcotest.bool "uncommitted row gone" false (Heap_file.exists_at heap r1)

let recovery_update_images () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"r2.wal" ~archive:false in
  let pool = Buffer_pool.create ~vfs ~capacity:8 () in
  let heap = Heap_file.create pool (Vfs.create vfs "t.heap") rec_schema in
  let r0 = rid 0 0 in
  let log records = List.iter (fun r -> ignore (Wal.append wal r : int)) records in
  log
    [
      { Log_record.tx = 1; body = Log_record.Begin };
      { Log_record.tx = 1; body = Log_record.Insert { table = "t"; rid = r0; after = encode (row 1 "v1") } };
      { Log_record.tx = 1; body = Log_record.Commit };
      { Log_record.tx = 2; body = Log_record.Begin };
      { Log_record.tx = 2;
        body = Log_record.Update { table = "t"; rid = r0; before = encode (row 1 "v1"); after = encode (row 1 "v2") } };
      (* tx 2 aborted explicitly but crash interrupted its rollback *)
      { Log_record.tx = 2; body = Log_record.Abort };
    ];
  Heap_file.force_at heap r0 (Some (encode (row 1 "v2")));
  ignore (Recovery.run ~wal ~resolve:(fun _ -> Some heap) : Recovery.stats);
  check Alcotest.bool "before image restored" true
    (Dw_relation.Tuple.equal (Heap_file.get heap r0) (row 1 "v1"))

let recovery_idempotent () =
  let vfs = Vfs.in_memory () in
  let wal = Wal.create vfs ~name:"r3.wal" ~archive:false in
  let pool = Buffer_pool.create ~vfs ~capacity:8 () in
  let heap = Heap_file.create pool (Vfs.create vfs "t.heap") rec_schema in
  let log records = List.iter (fun r -> ignore (Wal.append wal r : int)) records in
  log
    [
      { Log_record.tx = 1; body = Log_record.Begin };
      { Log_record.tx = 1; body = Log_record.Insert { table = "t"; rid = rid 0 0; after = encode (row 1 "x") } };
      { Log_record.tx = 1; body = Log_record.Commit };
    ];
  let resolve _ = Some heap in
  let s1 = Recovery.run ~wal ~resolve in
  let s2 = Recovery.run ~wal ~resolve in
  check Alcotest.int "same redone" s1.Recovery.redone s2.Recovery.redone;
  check Alcotest.int "single row" 1 (Heap_file.count heap)

(* ---------- restart ---------- *)

module Db = Dw_engine.Db

(* a log of [n] committed empty transactions, and no table: a reopen
   reads nothing but the log *)
let reopen_empty_log n =
  let metrics = Dw_util.Metrics.create () in
  let vfs = Vfs.in_memory ~metrics () in
  let db = Db.create ~vfs ~name:"r" () in
  for _ = 1 to n do
    Db.with_txn db ignore
  done;
  Vfs.crash_reset vfs;
  let before = Dw_util.Metrics.get metrics "vfs.read_bytes" in
  let db, stats = Db.reopen ~vfs ~name:"r" ~tables:[] () in
  (Dw_util.Metrics.get metrics "vfs.read_bytes" - before, Wal.next_lsn (Db.wal db), stats)

let reopen_reads_the_log_once_per_pass () =
  List.iter
    (fun n ->
      let read, log_bytes, stats = reopen_empty_log n in
      check Alcotest.int (Printf.sprintf "%d txns: records" n) (2 * n)
        stats.Recovery.records_scanned;
      check Alcotest.int (Printf.sprintf "%d txns: highest txid" n) n stats.Recovery.max_txid;
      (* the torn-tail scan that adopts the segment, then recovery's
         analysis, redo and undo passes: no pass of its own for the
         highest txid *)
      check Alcotest.int (Printf.sprintf "%d txns: bytes read" n) (4 * log_bytes) read)
    [ 1; 10; 100 ]

let reopen_txids_pass_a_loser () =
  let vfs = Vfs.in_memory () in
  let schema = Schema.make [ { Schema.name = "id"; ty = Value.Tint; nullable = false } ] in
  let db = Db.create ~vfs ~name:"r" () in
  ignore (Db.create_table db ~name:"t" schema : Dw_engine.Table.t);
  ignore (Db.create_table db ~name:"u" schema : Dw_engine.Table.t);
  Db.with_txn db (fun txn -> ignore (Db.insert db txn "t" [| Value.Int 0 |] : Heap_file.rid));
  (* the winner begins first; the loser, begun after it, holds the
     highest txid, and its frames reach the log with the winner's commit *)
  let winner = Db.begin_txn db in
  let loser = Db.begin_txn db in
  ignore (Db.insert db loser "u" [| Value.Int 1 |] : Heap_file.rid);
  ignore (Db.insert db winner "t" [| Value.Int 2 |] : Heap_file.rid);
  Db.commit db winner;
  Vfs.crash_reset vfs;
  let db, stats =
    Db.reopen ~vfs ~name:"r" ~tables:[ ("t", schema, None); ("u", schema, None) ] ()
  in
  let logged = ref 0 in
  Wal.iter_all (Db.wal db) (fun _ r -> logged := max !logged r.Log_record.tx);
  check Alcotest.int "the loser's txid is the log's highest" (Db.txid loser) !logged;
  check Alcotest.int "recovery saw it" !logged stats.Recovery.max_txid;
  check Alcotest.int "one loser" 1 stats.Recovery.losers;
  let next = Db.begin_txn db in
  check Alcotest.bool "the first txid after the reopen is past it" true (Db.txid next > !logged);
  Db.commit db next

let suite =
  [
    test "log record roundtrip" log_record_roundtrip;
    test "log record detects corruption" log_record_detects_corruption;
    test "log record truncated" log_record_truncated;
    test "wal append/iter" wal_append_iter;
    test "wal iter_from" wal_iter_from;
    test "wal archive retains segments" wal_archive_retains_segments;
    test "wal iter_from skips segments before the mark" wal_iter_from_skips_closed_segments;
    test "wal recycles without archive" wal_no_archive_recycles;
    test "wal survives torn tail" wal_survives_torn_tail;
    test "wal appends after torn tail" wal_appends_after_torn_tail;
    test "wal ignores stray segment names" wal_ignores_stray_segment_names;
    test "locks: shared compatible" lm_shared_compatible;
    test "locks: exclusive conflicts" lm_exclusive_conflicts;
    test "locks: upgrade" lm_upgrade;
    test "locks: row/table interaction" lm_row_table_interaction;
    test "locks: deadlock detection" lm_deadlock_detection;
    test "locks: release clears waits" lm_release_clears_waits;
    test "locks: re-entry grant ends a wait" lm_regrant_clears_wait;
    test "locks: cross-stripe deadlock after re-entries" lm_reentries_then_deadlock_across_tables;
    test "locks: S to X upgrade checks conflicts" lm_upgrade_takes_slow_path;
    test "recovery redo/undo" recovery_redo_undo;
    test "recovery update images" recovery_update_images;
    test "recovery idempotent" recovery_idempotent;
    test "restart: a reopen reads the log once per pass" reopen_reads_the_log_once_per_pass;
    test "restart: txids after a reopen pass a crashed loser's" reopen_txids_pass_a_loser;
  ]
