(* Tests for Dw_core: delta model, Op-Delta codec, all four value-delta
   extractors (with the end-to-end soundness property: extracted delta
   applied to the old state reproduces the new state), Op-Delta capture,
   hybrid before images, reconciliation, transformation rules. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Ast = Dw_sql.Ast
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Timestamp_extract = Dw_core.Timestamp_extract
module Trigger_extract = Dw_core.Trigger_extract
module Log_extract = Dw_core.Log_extract
module Snapshot_extract = Dw_core.Snapshot_extract
module Opdelta_capture = Dw_core.Opdelta_capture
module Reconcile = Dw_core.Reconcile
module Transform = Dw_core.Transform
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let schema = Workload.parts_schema

let mk_source ?(rows = 50) ?(archive = true) () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~archive_log:archive ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

let table_rows db name =
  let rows = ref [] in
  Table.scan (Db.table db name) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let rows_equal a b =
  List.length a = List.length b && List.for_all2 Tuple.equal a b

let exec_ok db txn stmt = ignore (Db.exec db txn stmt : Db.exec_result)

(* a deterministic mixed workload applied through individual transactions *)
let run_mix db ~seed ~txns =
  let rng = Prng.create ~seed in
  let ops = Workload.gen_mix rng ~existing_ids:50 ~txns ~max_txn_size:8 in
  List.iter
    (fun op ->
      let stmts = Workload.op_to_stmts ~day:(Db.current_day db) op in
      Db.with_txn db (fun txn -> List.iter (exec_ok db txn) stmts))
    ops

(* ---------- delta model ---------- *)

let delta_sizes () =
  let t1 = Workload.gen_part (Prng.create ~seed:1) ~id:1 ~day:0 in
  let t2 = Workload.gen_part (Prng.create ~seed:1) ~id:2 ~day:0 in
  let d =
    Delta.make ~table:"parts" ~schema
      [ Delta.Insert t1; Delta.Update (t1, t2); Delta.Delete t2; Delta.Upsert t1 ]
  in
  check Alcotest.int "rows" 4 (Delta.row_count d);
  check Alcotest.int "images" 5 (Delta.image_count d);
  check Alcotest.int "bytes" 500 (Delta.size_bytes d)

let delta_apply_model () =
  let p i v = [| Value.Int i; Value.Str (Printf.sprintf "p%d" v); Value.Int v; Value.Float 0.0; Value.Date 0 |] in
  let old_rows = [ p 1 1; p 2 2 ] in
  let d =
    Delta.make ~table:"parts" ~schema
      [ Delta.Insert (p 3 3); Delta.Delete (p 1 1); Delta.Update (p 2 2, p 2 22); Delta.Upsert (p 4 4) ]
  in
  let result = Delta.apply_to_rows d old_rows in
  check Alcotest.int "count" 3 (List.length result);
  check Alcotest.bool "p2 updated" true
    (List.exists (fun r -> Tuple.equal r (p 2 22)) result);
  check Alcotest.bool "p1 gone" true
    (not (List.exists (fun r -> r.(0) = Value.Int 1) result))

let delta_compact_basics () =
  let p i v = [| Value.Int i; Value.Str "x"; Value.Int v; Value.Float 0.0; Value.Date 0 |] in
  let d =
    Delta.make ~table:"parts" ~schema
      [
        Delta.Insert (p 1 1);            (* 1: insert then update -> insert final *)
        Delta.Update (p 1 1, p 1 11);
        Delta.Insert (p 2 2);            (* 2: insert then delete -> nothing *)
        Delta.Delete (p 2 2);
        Delta.Update (p 3 3, p 3 33);    (* 3: update chain -> first before, last after *)
        Delta.Update (p 3 33, p 3 333);
        Delta.Delete (p 4 4);            (* 4: delete then insert -> update *)
        Delta.Insert (p 4 44);
        Delta.Delete (p 5 5);            (* 5: plain delete survives *)
      ]
  in
  let c = Delta.compact d in
  check Alcotest.int "five keys, one net each minus the cancelled" 4 (Delta.row_count c);
  let kind k =
    List.find_map
      (fun ch ->
        if Tuple.equal (Delta.change_key schema ch) [| Value.Int k |] then
          Some
            (match ch with
             | Delta.Insert a -> ("I", a)
             | Delta.Delete b -> ("D", b)
             | Delta.Update (_, a) -> ("U", a)
             | Delta.Upsert a -> ("S", a))
        else None)
      c.Delta.changes
  in
  (match kind 1 with
   | Some ("I", a) -> check Alcotest.bool "final image" true (a.(2) = Value.Int 11)
   | _ -> Alcotest.fail "key 1");
  check Alcotest.bool "key 2 cancelled" true (kind 2 = None);
  (match kind 3 with
   | Some ("U", a) -> check Alcotest.bool "net update" true (a.(2) = Value.Int 333)
   | _ -> Alcotest.fail "key 3");
  (match kind 4 with Some ("U", _) -> () | _ -> Alcotest.fail "key 4");
  match kind 5 with Some ("D", _) -> () | _ -> Alcotest.fail "key 5"

let prop_compact_equivalent =
  (* deltas extracted from real workloads are always consistent with the
     pre-workload state, so both the original and the compacted delta
     apply cleanly and must agree *)
  QCheck2.Test.make ~name:"compact delta applies identically" ~count:40
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let db = mk_source () in
      let before = table_rows db "parts" in
      let handle = Trigger_extract.install db ~table:"parts" in
      run_mix db ~seed ~txns:15;
      let delta = Trigger_extract.collect db handle in
      let compacted = Delta.compact delta in
      let a = List.sort Tuple.compare (Delta.apply_to_rows delta before) in
      let b = List.sort Tuple.compare (Delta.apply_to_rows compacted before) in
      Delta.row_count compacted <= Delta.row_count delta
      && List.length a = List.length b
      && List.for_all2 Tuple.equal a b)

let wal_prune_after_extraction () =
  let db = mk_source ~archive:true () in
  run_mix db ~seed:7 ~txns:5;
  Db.checkpoint db;
  (* second round: update/delete only (insert ids would collide with the
     first mix's) *)
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:8));
  Db.checkpoint db;
  let wal = Db.wal db in
  check Alcotest.bool "segments accumulated" true
    (List.length (Dw_txn.Wal.archived_segments wal) >= 2);
  (* extract everything, then reclaim what the watermark covers *)
  let _, _ = Log_extract.extract db ~table:"parts" () in
  let upto = Dw_txn.Wal.next_lsn wal in
  let pruned = Dw_txn.Wal.prune_archived wal ~upto in
  check Alcotest.bool "segments reclaimed" true (pruned >= 2);
  check Alcotest.int "none left" 0 (List.length (Dw_txn.Wal.archived_segments wal));
  (* the current segment still replays *)
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:3));
  let d, _ = Log_extract.extract ~since_lsn:upto db ~table:"parts" () in
  check Alcotest.int "fresh changes still extractable" 3 (Delta.row_count d)

let delta_wire_roundtrip_and_errors () =
  let rng = Prng.create ~seed:4 in
  let t1 = Workload.gen_part rng ~id:1 ~day:0 in
  let t2 = Workload.gen_part rng ~id:2 ~day:0 in
  let d =
    Delta.make ~table:"parts" ~schema
      [ Delta.Insert t1; Delta.Update (t1, t2); Delta.Delete t2; Delta.Upsert t1 ]
  in
  (match Delta.of_file ~table:"parts" ~schema (Delta.to_file d) with
   | Ok d' ->
     check Alcotest.int "same changes" (Delta.row_count d) (Delta.row_count d');
     check Alcotest.int "same images" (Delta.image_count d) (Delta.image_count d')
   | Error e -> Alcotest.fail e);
  (* error branches *)
  check Alcotest.bool "bad tag" true
    (Result.is_error (Delta.of_file ~table:"t" ~schema "X|junk\n"));
  check Alcotest.bool "bad line" true (Result.is_error (Delta.of_file ~table:"t" ~schema "?\n"));
  check Alcotest.bool "update missing after" true
    (Result.is_error
       (Delta.of_file ~table:"t" ~schema ("U|" ^ Dw_relation.Codec.encode_ascii schema t1 ^ "\n")))

(* ---------- op-delta model ---------- *)

let opdelta_size_independent_of_txn_size () =
  let upd size = Workload.update_parts_stmt ~first_id:1 ~size in
  let od10 = Op_delta.make ~txn_id:1 [ upd 10 ] in
  let od10k = Op_delta.make ~txn_id:2 [ upd 10000 ] in
  let s10 = Op_delta.size_bytes od10 and s10k = Op_delta.size_bytes od10k in
  (* size differs only by the literal's digit count *)
  check Alcotest.bool "within a few bytes" true (abs (s10k - s10) <= 6);
  (* value delta for the same updates would be 2*size*100 bytes *)
  check Alcotest.bool "tiny vs value delta" true (s10k < 200)

let opdelta_wire_roundtrip () =
  let stmts =
    Workload.insert_parts_txn ~first_id:1000 ~size:3 ~day:42 ()
    @ [ Workload.update_parts_stmt ~first_id:1 ~size:5;
        Workload.delete_parts_stmt ~first_id:6 ~size:2 ]
  in
  let od = Op_delta.make ~txn_id:99 stmts in
  let line = Op_delta.encode_line od in
  match Op_delta.decode_line line with
  | Error e -> Alcotest.fail e
  | Ok od' ->
    check Alcotest.int "txn id" 99 od'.Op_delta.txn_id;
    check Alcotest.int "op count" (List.length stmts) (List.length od'.Op_delta.ops);
    List.iter2
      (fun s (op : Op_delta.op) -> check Alcotest.bool "stmt" true (Ast.equal s op.Op_delta.stmt))
      stmts od'.Op_delta.ops

let opdelta_wire_with_images () =
  let rng = Prng.create ~seed:5 in
  let images = [ Workload.gen_part rng ~id:1 ~day:3; Workload.gen_part rng ~id:2 ~day:3 ] in
  let od =
    Op_delta.with_before_images ~txn_id:7
      [ (Workload.delete_parts_stmt ~first_id:1 ~size:2, images) ]
  in
  let schema_of name = if name = "parts" then Some schema else None in
  let line = Op_delta.encode_line ~schema_of od in
  match Op_delta.decode_line ~schema_of line with
  | Error e -> Alcotest.fail e
  | Ok od' -> (
      match od'.Op_delta.ops with
      | [ op ] ->
        check Alcotest.int "images" 2 (List.length op.Op_delta.before_images);
        List.iter2
          (fun a b -> check Alcotest.bool "image" true (Tuple.equal a b))
          images op.Op_delta.before_images
      | _ -> Alcotest.fail "op shape");
  (* without schema resolution, decoding image lines fails *)
  check Alcotest.bool "needs schema" true (Result.is_error (Op_delta.decode_line line))

(* ---------- timestamp extraction ---------- *)

let ts_extract_finds_changes () =
  let db = mk_source () in
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 10);
  Db.with_txn db (fun txn ->
      exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:5);
      List.iter (exec_ok db txn) (Workload.insert_parts_txn ~first_id:100 ~size:3 ~day:0 ()));
  let delta, stats =
    Timestamp_extract.extract db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "delta.asc")
  in
  check Alcotest.int "8 changed rows" 8 (Delta.row_count delta);
  check Alcotest.int "scanned whole table" 53 stats.Timestamp_extract.scanned_rows;
  check Alcotest.bool "file written" true (stats.Timestamp_extract.bytes_out > 0);
  (* all changes are upserts *)
  List.iter
    (fun c ->
      match c with
      | Delta.Upsert _ -> ()
      | _ -> Alcotest.fail "timestamp extraction must produce upserts")
    delta.Delta.changes

let ts_extract_index_matches_scan () =
  let db = mk_source () in
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:10 ~size:7));
  let d_scan, _ =
    Timestamp_extract.extract ~via:`Scan db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "a.asc")
  in
  let d_idx, _ =
    Timestamp_extract.extract ~via:`Ts_index db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "b.asc")
  in
  check Alcotest.int "same rows" (Delta.row_count d_scan) (Delta.row_count d_idx)

let ts_extract_misses_deletes () =
  let db = mk_source () in
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.delete_parts_stmt ~first_id:1 ~size:5));
  let delta, _ =
    Timestamp_extract.extract db ~table:"parts" ~since:watermark
      ~output:(Timestamp_extract.To_file "c.asc")
  in
  (* the paper's criticism: deletes are invisible to the timestamp method *)
  check Alcotest.int "deletes invisible" 0 (Delta.row_count delta)

let ts_extract_table_output () =
  let db = mk_source () in
  let watermark = Db.current_day db in
  Db.set_day db (watermark + 1);
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:4));
  let _, stats =
    Timestamp_extract.extract db ~table:"parts" ~since:watermark
      ~output:
        (Timestamp_extract.To_table_export { delta_table = "parts_delta"; export_file = "d.exp" })
  in
  check Alcotest.int "delta table rows" 4 (Table.row_count (Db.table db "parts_delta"));
  check Alcotest.bool "export written" true (stats.Timestamp_extract.bytes_out > 0);
  (* captured last_modified values survived the copy *)
  Table.scan (Db.table db "parts_delta") (fun _ row ->
      check Alcotest.bool "stamp preserved" true
        (Tuple.get schema row "last_modified" = Value.Date (watermark + 1)))

(* ---------- trigger extraction ---------- *)

let trigger_extract_end_to_end () =
  let db = mk_source () in
  let before = table_rows db "parts" in
  let handle = Trigger_extract.install db ~table:"parts" in
  run_mix db ~seed:11 ~txns:20;
  let after = table_rows db "parts" in
  let delta = Trigger_extract.collect db handle in
  check Alcotest.bool "delta applies" true
    (rows_equal (List.sort Tuple.compare (Delta.apply_to_rows delta before)) after)

let trigger_extract_updates_paired () =
  let db = mk_source () in
  let handle = Trigger_extract.install db ~table:"parts" in
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:3));
  let delta = Trigger_extract.collect db handle in
  check Alcotest.int "3 updates" 3 (Delta.row_count delta);
  List.iter
    (function
      | Delta.Update (b, a) ->
        check Alcotest.bool "same key" true (Tuple.compare_key schema b a = 0)
      | _ -> Alcotest.fail "expected Update entries")
    delta.Delta.changes

let trigger_extract_drain () =
  let db = mk_source () in
  let handle = Trigger_extract.install db ~table:"parts" in
  run_mix db ~seed:3 ~txns:5;
  let d1, last = Trigger_extract.read db handle ~after:0 in
  check Alcotest.bool "captured something" true (Delta.row_count d1 > 0);
  Trigger_extract.purge db handle ~through:last;
  let d2 = Trigger_extract.collect db handle in
  check Alcotest.int "drained" 0 (Delta.row_count d2);
  Trigger_extract.uninstall db handle;
  (* only update/delete ops: insert ids would collide with the first mix *)
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:3));
  let d3 = Trigger_extract.collect db handle in
  check Alcotest.int "uninstalled captures nothing" 0 (Delta.row_count d3)

(* ---------- log extraction ---------- *)

let log_extract_end_to_end () =
  let db = mk_source ~archive:true () in
  let before = table_rows db "parts" in
  let since = Dw_txn.Wal.next_lsn (Db.wal db) in
  run_mix db ~seed:21 ~txns:20;
  let after = table_rows db "parts" in
  let delta, stats = Log_extract.extract ~since_lsn:since db ~table:"parts" () in
  check Alcotest.bool "committed txns seen" true (stats.Log_extract.committed_txns > 0);
  check Alcotest.bool "delta applies" true
    (rows_equal (List.sort Tuple.compare (Delta.apply_to_rows delta before)) after)

let log_extract_skips_aborted () =
  let db = mk_source () in
  let since = Dw_txn.Wal.next_lsn (Db.wal db) in
  let txn = Db.begin_txn db in
  exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:5);
  Db.abort db txn;
  let delta, _ = Log_extract.extract ~since_lsn:since db ~table:"parts" () in
  (* the abort's compensation is excluded along with the aborted work *)
  check Alcotest.int "aborted invisible" 0 (Delta.row_count delta)

let log_extract_grouped_boundaries () =
  let db = mk_source () in
  let since = Dw_txn.Wal.next_lsn (Db.wal db) in
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id:1 ~size:2));
  Db.with_txn db (fun txn -> exec_ok db txn (Workload.delete_parts_stmt ~first_id:10 ~size:3));
  let groups, _ = Log_extract.extract_grouped ~since_lsn:since db ~table:"parts" () in
  check Alcotest.int "two txns" 2 (List.length groups);
  (match groups with
   | [ (_, d1); (_, d2) ] ->
     check Alcotest.int "txn1 rows" 2 (Delta.row_count d1);
     check Alcotest.int "txn2 rows" 3 (Delta.row_count d2)
   | _ -> Alcotest.fail "group shape")

let log_ship_same_schema () =
  (* the initial load must be logged too: the bulk loader bypasses the WAL,
     so anything it loads would be invisible to log shipping *)
  let src = mk_source ~rows:0 ~archive:true () in
  Db.with_txn src (fun txn ->
      List.iter (exec_ok src txn) (Workload.insert_parts_txn ~first_id:1 ~size:30 ~day:0 ()));
  run_mix src ~seed:31 ~txns:10;
  (* destination: same engine, same schema, empty *)
  let dest_vfs = Vfs.in_memory () in
  let dest = Db.create ~vfs:dest_vfs ~name:"dw" () in
  let _ = Db.create_table dest ~name:"parts" ~ts_column:"last_modified" schema in
  (match Log_extract.ship ~src ~dest ~table:"parts" with
   | Ok n -> check Alcotest.bool "records applied" true (n > 0)
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "physically identical" true
    (rows_equal (table_rows src "parts") (table_rows dest "parts"))

let log_ship_rejects_schema_mismatch () =
  let src = mk_source ~rows:5 () in
  let dest = Db.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  let other =
    Schema.make
      [
        { Schema.name = "x"; ty = Value.Tint; nullable = false };
        { Schema.name = "y"; ty = Value.Tint; nullable = true };
      ]
  in
  let _ = Db.create_table dest ~name:"parts" other in
  check Alcotest.bool "rejected" true
    (Result.is_error (Log_extract.ship ~src ~dest ~table:"parts"))

(* ---------- snapshot extraction ---------- *)

let snapshot_extract_end_to_end () =
  let db = mk_source () in
  (* round 1: initial snapshot *)
  (match
     Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:None ~snapshot_dest:"s1.snap"
       ~algorithm:Snapshot_extract.Sort_merge
   with
   | Ok (d, _) -> check Alcotest.int "initial load delta" 50 (Delta.row_count d)
   | Error e -> Alcotest.fail e);
  let before = table_rows db "parts" in
  run_mix db ~seed:41 ~txns:15;
  let after = table_rows db "parts" in
  match
    Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "s1.snap")
      ~snapshot_dest:"s2.snap" ~algorithm:Snapshot_extract.Sort_merge
  with
  | Error e -> Alcotest.fail e
  | Ok (delta, _) ->
    check Alcotest.bool "delta applies" true
      (rows_equal (List.sort Tuple.compare (Delta.apply_to_rows delta before)) after)

let snapshot_partitioned_agrees () =
  let db = mk_source () in
  ignore
    (Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:None ~snapshot_dest:"p1.snap"
       ~algorithm:Snapshot_extract.Sort_merge);
  run_mix db ~seed:43 ~txns:10;
  let r1 =
    Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "p1.snap")
      ~snapshot_dest:"p2.snap" ~algorithm:Snapshot_extract.Sort_merge
  in
  let r2 =
    Snapshot_extract.extract db ~table:"parts" ~prev_snapshot:(Some "p1.snap")
      ~snapshot_dest:"p3.snap" ~algorithm:(Snapshot_extract.Partitioned_hash 4)
  in
  match r1, r2 with
  | Ok (d1, _), Ok (d2, s2) ->
    check Alcotest.int "same entries" (Delta.row_count d1) (Delta.row_count d2);
    check Alcotest.bool "scratch traffic" true (s2.Snapshot_extract.scratch_bytes > 0)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* ---------- op-delta capture ---------- *)

let capture_file_sink () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  (match
     Opdelta_capture.exec_txn cap (Workload.insert_parts_txn ~first_id:200 ~size:4 ~day:0 ())
   with
   | Ok results -> check Alcotest.int "4 results" 4 (List.length results)
   | Error e -> Alcotest.fail e);
  (match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id:1 ~size:6 ] with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  check Alcotest.int "2 op-deltas" 2 (List.length (Opdelta_capture.captured cap));
  match Opdelta_capture.read_sink cap with
  | Ok ods ->
    check Alcotest.int "sink roundtrip" 2 (List.length ods);
    List.iter2
      (fun (a : Op_delta.t) (b : Op_delta.t) ->
        check Alcotest.int "same op count" (List.length a.Op_delta.ops)
          (List.length b.Op_delta.ops))
      (Opdelta_capture.captured cap) ods
  | Error e -> Alcotest.fail e

(* a file log's positions are byte offsets past each line; a torn last
   line (a crash mid-append) is cut off before the next append *)
let capture_file_positions () =
  let db = mk_source () in
  let file = Vfs.create (Db.vfs db) "oplog" in
  ignore (Vfs.append file (Bytes.of_string "torn") : int);
  Vfs.close file;
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  check Alcotest.(list string) "torn line cut" []
    (List.map snd (Opdelta_capture.lines cap ~after:0));
  let exec first_id =
    match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id ~size:2 ] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  exec 1;
  exec 5;
  match Opdelta_capture.lines cap ~after:0 with
  | [ (p1, l1); (p2, l2) ] ->
    check Alcotest.int "first position: past its newline" (String.length l1 + 1) p1;
    check Alcotest.int "second position" (p1 + String.length l2 + 1) p2;
    check Alcotest.(list string) "past the first" [ l2 ]
      (List.map snd (Opdelta_capture.lines cap ~after:p1))
  | lines -> Alcotest.fail (Printf.sprintf "expected two lines, got %d" (List.length lines))

(* a file line is appended before its commit: a commit that fails, and
   one a crash cuts short, leave lines of transactions that never
   committed, which the wrapper withdraws *)
let capture_withdraws_uncommitted_lines () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:20 ();
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  let update cap first_id =
    Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id ~size:2 ]
  in
  let txns cap =
    List.map
      (fun (_, line) ->
        match Op_delta.decode_line line with
        | Ok od -> od.Op_delta.txn_id
        | Error e -> Alcotest.fail e)
      (Opdelta_capture.lines cap ~after:0)
  in
  (* count one update's write and fsync events: its commit record is
     the write before the commit's fsync *)
  let counter = Vfs.Fault.make ~seed:1 () in
  Vfs.set_fault vfs (Some counter);
  (match update cap 1 with Ok _ -> () | Error e -> Alcotest.fail e);
  let committed = txns cap in
  let commit_write = Vfs.Fault.events counter - 2 in
  (* the commit record, the abort record and the withdrawal marker all
     fail to write: the withdrawal waits in memory *)
  let window = { Vfs.Fault.from_event = commit_write; until_event = commit_write + 3 } in
  Vfs.set_fault vfs
    (Some
       (Vfs.Fault.make ~sustained:[ Vfs.Fault.Error_rate { window; write_p = 1.0; fsync_p = 0.0 } ]
          ~seed:1 ()));
  (match update cap 5 with
   | exception Vfs.Fault.Transient _ -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected the commit to fail");
  check Alcotest.(list int) "failed commit withdrawn" committed (txns cap);
  check Alcotest.int "nothing captured" 1 (List.length (Opdelta_capture.captured cap));
  (* the next line carries the marker; the crash lands on its commit record *)
  Vfs.set_fault vfs (Some (Vfs.Fault.make ~fail_stop_after:commit_write ~seed:1 ()));
  (match update cap 9 with
   | exception Vfs.Fault.Crash _ -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected a crash");
  let catalog = List.map (fun t -> (Table.name t, Table.schema t, Table.ts_column t)) (Db.tables db) in
  Vfs.crash_reset vfs;
  let db, _ = Db.reopen ~vfs ~name:"src" ~tables:catalog () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  check Alcotest.(list int) "crash loser withdrawn" committed (txns cap);
  (match update cap 13 with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "later lines read on" 2 (List.length (txns cap));
  match Opdelta_capture.read_sink cap with
  | Ok ods -> check Alcotest.int "sink holds committed lines only" 2 (List.length ods)
  | Error e -> Alcotest.fail e

let capture_db_sink_roundtrip () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_db_table "opdelta_log") in
  ignore (Opdelta_capture.exec_txn cap (Workload.insert_parts_txn ~first_id:300 ~size:2 ~day:0 ()));
  ignore (Opdelta_capture.exec_txn cap [ Workload.delete_parts_stmt ~first_id:1 ~size:3 ]);
  (* capture rows are transactional: they live in a table *)
  check Alcotest.bool "capture table populated" true
    (Table.row_count (Db.table db "opdelta_log") > 0);
  match Opdelta_capture.read_sink cap with
  | Ok ods -> check Alcotest.int "2 op-deltas" 2 (List.length ods)
  | Error e -> Alcotest.fail e

let capture_replay_reproduces_state () =
  let src = mk_source () in
  let cap = Opdelta_capture.create src ~sink:(Opdelta_capture.To_file "oplog") in
  let rng = Prng.create ~seed:55 in
  let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:25 ~max_txn_size:6 in
  List.iter
    (fun op ->
      match Opdelta_capture.exec_txn cap (Workload.op_to_stmts ~day:0 op) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    ops;
  (* replay the captured op-deltas on a replica that had the same start *)
  let replica = mk_source () in
  List.iter
    (fun (od : Op_delta.t) ->
      Db.with_txn replica (fun txn ->
          List.iter (fun (op : Op_delta.op) -> exec_ok replica txn op.Op_delta.stmt) od.Op_delta.ops))
    (Opdelta_capture.captured cap);
  check Alcotest.bool "replica converges" true
    (rows_equal (table_rows src "parts") (table_rows replica "parts"))

let capture_aborted_not_captured () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  (* second statement references an unknown column -> txn aborts *)
  let bad =
    Ast.Update
      { table = "parts"; sets = [ ("nope", Expr.Lit (Value.Int 1)) ]; where = None }
  in
  (match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id:1 ~size:2; bad ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error");
  check Alcotest.int "nothing captured" 0 (List.length (Opdelta_capture.captured cap));
  (* and the partial update rolled back: qty untouched *)
  let d, _ =
    Timestamp_extract.extract db ~table:"parts" ~since:(Db.current_day db - 1)
      ~output:(Timestamp_extract.To_file "t.asc")
  in
  ignore d

(* a lock conflict raises [Db.Would_block] out of the capture wrapper; its
   source transaction must not stay open *)
let capture_conflict_leaves_no_txn () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  let holder = Db.begin_txn db in
  ignore
    (Db.update_where db holder "parts" ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:None : int);
  (match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id:1 ~size:2 ] with
   | exception Db.Would_block _ -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected Would_block");
  check Alcotest.(list int) "only the lock holder is active" [ Db.txid holder ] (Db.active_txns db);
  check Alcotest.int "nothing captured" 0 (List.length (Opdelta_capture.captured cap));
  Db.commit db holder;
  check Alcotest.(list int) "no transaction left active" [] (Db.active_txns db)

let capture_lines_past_a_position () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_db_table "oplog") in
  List.iter
    (fun first_id ->
      match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id ~size:2 ] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 5; 9 ];
  let all = Opdelta_capture.lines cap ~after:0 in
  let positions = List.map fst all and texts l = List.map snd l in
  check Alcotest.int "three lines" 3 (List.length all);
  check Alcotest.bool "positions rise" true (List.sort_uniq compare positions = positions);
  check Alcotest.(list int) "lines in commit order"
    (List.map (fun (od : Op_delta.t) -> od.Op_delta.txn_id) (Opdelta_capture.captured cap))
    (List.map
       (fun line ->
         match Op_delta.decode_line line with
         | Ok od -> od.Op_delta.txn_id
         | Error e -> Alcotest.fail e)
       (texts all));
  let first = List.hd positions and last = List.nth positions 2 in
  check Alcotest.(list string) "past the first: the last two" (texts (List.tl all))
    (texts (Opdelta_capture.lines cap ~after:first));
  check Alcotest.(list string) "past the last: none" [] (texts (Opdelta_capture.lines cap ~after:last))

(* re-installing over a delta table that holds rows continues its
   positions; so does a consumer's purge over one a source reopen found
   empty *)
let trigger_install_continues_positions () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  Workload.load_parts db ~rows:10 ();
  let update db first_id =
    Db.with_txn db (fun txn -> exec_ok db txn (Workload.update_parts_stmt ~first_id ~size:2))
  in
  let handle = Trigger_extract.install db ~table:"parts" in
  update db 1;
  Trigger_extract.uninstall db handle;
  let handle = Trigger_extract.install db ~table:"parts" in
  update db 3;
  let delta, last = Trigger_extract.read db handle ~after:0 in
  check Alcotest.int "both updates" 4 (Delta.row_count delta);
  Trigger_extract.purge db handle ~through:last;
  Db.checkpoint db;
  let delta_schema = Table.schema (Db.table db "parts__delta") in
  Vfs.crash_reset vfs;
  let db, _ =
    Db.reopen ~vfs ~name:"src"
      ~tables:
        [ ("parts", Workload.parts_schema, Some "last_modified"); ("parts__delta", delta_schema, None) ]
      ()
  in
  let handle = Trigger_extract.install db ~table:"parts" in
  Trigger_extract.purge db handle ~through:last;
  update db 5;
  let delta, next = Trigger_extract.read db handle ~after:last in
  check Alcotest.int "the new update, past the mark" 2 (Delta.row_count delta);
  check Alcotest.bool "position moved on" true (next > last)

let capture_table_continues_positions () =
  let db = mk_source () in
  let exec cap first_id =
    match Opdelta_capture.exec_txn cap [ Workload.update_parts_stmt ~first_id ~size:2 ] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  exec (Opdelta_capture.create db ~sink:(Opdelta_capture.To_db_table "cap")) 1;
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_db_table "cap") in
  exec cap 3;
  check Alcotest.int "both transactions" 2 (List.length (Opdelta_capture.lines cap ~after:0))

let capture_hybrid_before_images () =
  let db = mk_source () in
  (* deletes and updates carry their before images; inserts never do *)
  let cap =
    Opdelta_capture.create ~capture_images:true db ~sink:(Opdelta_capture.To_file "oplog")
  in
  ignore (Opdelta_capture.exec_txn cap [ Workload.delete_parts_stmt ~first_id:1 ~size:4 ]);
  (match Opdelta_capture.captured cap with
   | [ od ] -> (
       match od.Op_delta.ops with
       | [ op ] -> check Alcotest.int "4 before images" 4 (List.length op.Op_delta.before_images)
       | _ -> Alcotest.fail "op shape")
   | _ -> Alcotest.fail "capture shape");
  (* inserts stay op-only *)
  ignore (Opdelta_capture.exec_txn cap (Workload.insert_parts_txn ~first_id:400 ~size:2 ~day:0 ()));
  match Opdelta_capture.captured cap with
  | [ _; od2 ] ->
    List.iter
      (fun (op : Op_delta.op) ->
        check Alcotest.int "no images on insert" 0 (List.length op.Op_delta.before_images))
      od2.Op_delta.ops
  | _ -> Alcotest.fail "capture shape 2"

let image_counts ods =
  List.concat_map
    (fun (od : Op_delta.t) ->
      List.map (fun (op : Op_delta.op) -> List.length op.Op_delta.before_images) od.Op_delta.ops)
    ods

(* without [~capture_images] an UPDATE or DELETE is the statement alone,
   in memory and on the sink, and its value delta is empty *)
let plain_capture_records_no_images () =
  let db = mk_source () in
  let cap = Opdelta_capture.create db ~sink:(Opdelta_capture.To_file "oplog") in
  check Alcotest.bool "not an image capture" false (Opdelta_capture.captures_images cap);
  List.iter
    (fun stmts ->
      match Opdelta_capture.exec_txn cap stmts with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ [ Workload.update_parts_stmt ~first_id:1 ~size:5 ];
      [ Workload.delete_parts_stmt ~first_id:6 ~size:5 ];
      Workload.insert_parts_txn ~first_id:400 ~size:2 ~day:0 () ];
  check Alcotest.(list int) "no images captured" [ 0; 0; 0; 0 ]
    (image_counts (Opdelta_capture.captured cap));
  (match Opdelta_capture.read_sink cap with
   | Ok ods -> check Alcotest.(list int) "no images on the sink" [ 0; 0; 0; 0 ] (image_counts ods)
   | Error e -> Alcotest.fail e);
  match Opdelta_capture.captured cap with
  | [ upd; del; _ ] ->
    List.iter
      (fun od ->
        check Alcotest.int "no value delta" 0
          (Delta.row_count (Op_delta.value_delta ~table:"parts" ~schema od)))
      [ upd; del ]
  | _ -> Alcotest.fail "capture shape"

(* each statement's images are the rows it is about to change, read
   inside the transaction: a DELETE after an UPDATE of the same rows sees
   the updated rows, and a statement that matches nothing records none *)
let hybrid_images_precede_each_statement () =
  let db = mk_source () in
  let before = List.filter (fun r -> match r.(0) with Value.Int k -> k <= 4 | _ -> false) in
  let start = before (table_rows db "parts") in
  let cap =
    Opdelta_capture.create ~capture_images:true db ~sink:(Opdelta_capture.To_file "oplog")
  in
  (match
     Opdelta_capture.exec_txn cap
       [ Workload.update_parts_stmt ~first_id:1 ~size:4;
         Workload.delete_parts_stmt ~first_id:1 ~size:4;
         Workload.delete_parts_stmt ~first_id:1 ~size:4 ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  match Opdelta_capture.captured cap with
  | [ { Op_delta.ops = [ upd; del; again ]; _ } as od ] ->
    check Alcotest.bool "the UPDATE's images are the rows before it" true
      (rows_equal start (List.sort Tuple.compare upd.Op_delta.before_images));
    let afters =
      List.filter_map
        (function Delta.Update (_, after) -> Some after | _ -> None)
        (Op_delta.value_delta ~table:"parts" ~schema od).Delta.changes
    in
    check Alcotest.bool "the DELETE's images are the UPDATE's after images" true
      (rows_equal (List.sort Tuple.compare afters)
         (List.sort Tuple.compare del.Op_delta.before_images));
    check Alcotest.int "a DELETE of nothing records nothing" 0
      (List.length again.Op_delta.before_images)
  | _ -> Alcotest.fail "capture shape"

(* a hybrid line spans many capture-table chunks and decodes back to the
   same statements and images *)
let hybrid_images_survive_the_capture_table () =
  let db = mk_source () in
  let cap =
    Opdelta_capture.create ~capture_images:true db
      ~sink:(Opdelta_capture.To_db_table "opdelta_log")
  in
  (match
     Opdelta_capture.exec_txn cap
       [ Workload.update_parts_stmt ~first_id:1 ~size:20;
         Workload.delete_parts_stmt ~first_id:21 ~size:20 ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "the line spans several chunk rows" true
    (Table.row_count (Db.table db "opdelta_log") > 2);
  match Opdelta_capture.read_sink cap, Opdelta_capture.captured cap with
  | Ok [ got ], [ want ] ->
    List.iter2
      (fun (g : Op_delta.op) (w : Op_delta.op) ->
        check Alcotest.string "statement" (Dw_sql.Printer.to_string w.Op_delta.stmt)
          (Dw_sql.Printer.to_string g.Op_delta.stmt);
        check Alcotest.int "20 images" 20 (List.length g.Op_delta.before_images);
        check Alcotest.bool "same images" true
          (rows_equal w.Op_delta.before_images g.Op_delta.before_images))
      got.Op_delta.ops want.Op_delta.ops
  | Ok ods, _ -> Alcotest.failf "read %d op-deltas" (List.length ods)
  | Error e, _ -> Alcotest.fail e

(* ---------- reconciliation ---------- *)

let reconcile_drops_duplicates () =
  let rng = Prng.create ~seed:9 in
  let t1 = Workload.gen_part rng ~id:1 ~day:0 in
  let t2 = Workload.gen_part rng ~id:2 ~day:0 in
  let stream = [ Delta.Insert t1; Delta.Update (t1, t2) ] in
  let d () = Delta.make ~table:"parts" ~schema stream in
  let merged, stats = Reconcile.reconcile [ d (); d (); d () ] in
  check Alcotest.int "one authoritative stream" 2 (Delta.row_count merged);
  check Alcotest.int "duplicates" 4 stats.Reconcile.duplicates_dropped;
  check Alcotest.int "no conflicts" 0 stats.Reconcile.conflicts_resolved

let reconcile_priority_wins_conflicts () =
  let rng = Prng.create ~seed:10 in
  let t1 = Workload.gen_part rng ~id:1 ~day:0 in
  let t1' = Tuple.set schema t1 "qty" (Value.Int 42) in
  let d1 = Delta.make ~table:"parts" ~schema [ Delta.Insert t1 ] in
  let d2 = Delta.make ~table:"parts" ~schema [ Delta.Insert t1' ] in
  let merged, stats = Reconcile.reconcile [ d1; d2 ] in
  check Alcotest.int "conflicts counted" 1 stats.Reconcile.conflicts_resolved;
  (match merged.Delta.changes with
   | [ Delta.Insert winner ] ->
     check Alcotest.bool "priority stream wins" true (Tuple.equal winner t1)
   | _ -> Alcotest.fail "shape")

let reconcile_keeps_repeated_changes () =
  let rng = Prng.create ~seed:12 in
  let t1 = Workload.gen_part rng ~id:1 ~day:0 in
  let t1a = Tuple.set schema t1 "qty" (Value.Int 1) in
  let t1b = Tuple.set schema t1 "qty" (Value.Int 2) in
  (* the same key updated twice in one stream must stay two changes *)
  let stream = [ Delta.Update (t1, t1a); Delta.Update (t1a, t1b) ] in
  let d () = Delta.make ~table:"parts" ~schema stream in
  let merged, _ = Reconcile.reconcile [ d (); d () ] in
  check Alcotest.int "both updates kept" 2 (Delta.row_count merged)

(* ---------- transformation rules ---------- *)

let dw_schema =
  Schema.make
    [
      { Schema.name = "pid"; ty = Value.Tint; nullable = false };
      { Schema.name = "quantity"; ty = Value.Tint; nullable = false };
      { Schema.name = "source_system"; ty = Value.Tstring 8; nullable = false };
    ]

let rule =
  {
    Transform.src_table = "parts";
    dst_table = "dw_parts";
    column_map = [ ("part_id", "pid"); ("qty", "quantity") ];
    constants = [ ("source_system", Value.Str "boeing1") ];
  }

let transform_validate () =
  (match Transform.validate rule ~src:schema ~dst:dw_schema with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let bad = { rule with column_map = [ ("nope", "pid") ] } in
  check Alcotest.bool "bad source col" true
    (Result.is_error (Transform.validate bad ~src:schema ~dst:dw_schema))

let transform_tuple_and_delta () =
  let t = Workload.gen_part (Prng.create ~seed:2) ~id:7 ~day:0 in
  let out = Transform.apply_tuple rule ~src:schema ~dst:dw_schema t in
  check Alcotest.bool "pid" true (out.(0) = Value.Int 7);
  check Alcotest.bool "const" true (out.(2) = Value.Str "boeing1");
  let d = Delta.make ~table:"parts" ~schema [ Delta.Insert t ] in
  let d' = Transform.apply_delta rule ~src:schema ~dst:dw_schema d in
  check Alcotest.string "renamed table" "dw_parts" d'.Delta.table

let transform_stmt_rewrites () =
  (* update on a mapped column rewrites cleanly *)
  let upd =
    Ast.Update
      {
        table = "parts";
        sets = [ ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 1))) ];
        where = Some (Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int 3)));
      }
  in
  (match Transform.apply_stmt rule ~src:schema upd with
   | Ok (Some (Ast.Update { table = "dw_parts"; sets = [ ("quantity", _) ]; where = Some w })) ->
     check Alcotest.string "where renamed" "pid = 3" (Expr.to_string w)
   | Ok _ -> Alcotest.fail "shape"
   | Error e -> Alcotest.fail e);
  (* where on a dropped column is an error *)
  let bad =
    Ast.Delete
      { table = "parts"; where = Some (Expr.Cmp (Expr.Gt, Expr.Col "price", Expr.Lit (Value.Float 1.0))) }
  in
  check Alcotest.bool "dropped column rejected" true
    (Result.is_error (Transform.apply_stmt rule ~src:schema bad));
  (* statements for other tables pass through as None *)
  match Transform.apply_stmt rule ~src:schema (Ast.Delete { table = "other"; where = None }) with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "expected None"

let transform_insert_projection () =
  let ins = List.hd (Workload.insert_parts_txn ~first_id:9 ~size:1 ~day:0 ()) in
  match Transform.apply_stmt rule ~src:schema ins with
  | Ok (Some (Ast.Insert { table = "dw_parts"; columns = Some cols; rows = [ row ] })) ->
    check (Alcotest.list Alcotest.string) "columns" [ "pid"; "quantity"; "source_system" ] cols;
    check Alcotest.int "row arity" 3 (List.length row);
    check Alcotest.bool "constant injected" true (List.nth row 2 = Value.Str "boeing1")
  | Ok _ -> Alcotest.fail "shape"
  | Error e -> Alcotest.fail e

(* property: every extractor's delta is sound on random workloads *)

let prop_extractors_sound =
  QCheck2.Test.make ~name:"trigger & log extraction sound on random workloads" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let db = mk_source () in
      let before = table_rows db "parts" in
      let since = Dw_txn.Wal.next_lsn (Db.wal db) in
      let handle = Trigger_extract.install db ~table:"parts" in
      run_mix db ~seed ~txns:12;
      let after = table_rows db "parts" in
      let trigger_delta = Trigger_extract.collect db handle in
      let log_delta, _ = Log_extract.extract ~since_lsn:since db ~table:"parts" () in
      (* the trigger delta also contains the capture-table writes?  no:
         trigger captures only parts changes; log extraction is filtered
         to the parts table *)
      rows_equal (List.sort Tuple.compare (Delta.apply_to_rows trigger_delta before)) after
      && rows_equal (List.sort Tuple.compare (Delta.apply_to_rows log_delta before)) after)

(* The encoder writes '%' only as a three-byte escape: a '%' before a
   non-hex byte, or too close to its field's end, is a decode error, not
   an exception, and the pipeline and the bootstrap report it *)
let bad_percent_escape_is_an_error () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let schema_of name = if name = "parts" then Some schema else None in
  let insert text = Printf.sprintf "7\tINSERT INTO parts VALUES (1, '%s')" text in
  List.iter
    (fun line ->
      match Op_delta.decode_line ~schema_of line with
      | Error e -> check Alcotest.string line "bad percent escape" e
      | Ok _ -> Alcotest.failf "%S decoded" line)
    [ insert "a%zzb"; insert "a%4"; "7\tDELETE FROM parts%4"; "7\tDELETE FROM parts%";
      "7\tDELETE FROM parts WHERE part_id = 1#1|a%zz|2"; "7\tDELETE FROM parts#1|a%4" ];
  (* a pipeline round over a file log holding such a line returns it *)
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  ignore (Workload.create_parts_table src : Table.t);
  let wh = Dw_warehouse.Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Dw_warehouse.Warehouse.add_replica wh ~table:"parts" ~schema;
  let pipe =
    Dw_etl.Pipeline.create ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Dw_etl.Pipeline.Op_delta_wrapper ~transport:Dw_etl.Pipeline.Direct ()
  in
  let log = Vfs.open_or_create (Db.vfs src) "pipeline.parts.oplog" in
  ignore (Vfs.append log (Bytes.of_string (insert "a%zzb" ^ "\n")) : int);
  Vfs.close log;
  (match Dw_etl.Pipeline.run_round pipe with
   | Error e -> check Alcotest.bool ("pipeline: " ^ e) true (contains e "bad percent escape")
   | Ok _ -> Alcotest.fail "the pipeline integrated an undecodable line");
  (* a bootstrap that drains such a frame aborts with it *)
  let module EB = Dw_experiments.Exp_bootstrap in
  let env = EB.mk_env { EB.rows = 10; commits = 0; chunk = 4; seed = 1 } in
  Dw_transport.Persistent_queue.enqueue env.EB.queue
    (Dw_transport.Frame.encode (Dw_transport.Frame.Data (insert "a%4")));
  match
    Result.bind
      (Dw_etl.Bootstrap.start ~owner:"t" ~source:env.EB.src ~capture:env.EB.cap ~table:"parts"
         ~queue:env.EB.queue ~warehouse:env.EB.wh ())
      Dw_etl.Bootstrap.run
  with
  | Error (Dw_etl.Bootstrap.Failed e) ->
    check Alcotest.bool ("bootstrap: " ^ e) true (contains e "bad percent escape")
  | Error (Dw_etl.Bootstrap.Lease_held _) -> Alcotest.fail "lease held"
  | Ok _ -> Alcotest.fail "the bootstrap applied an undecodable frame"

let suite =
  [
    test "delta sizes" delta_sizes;
    test "delta apply model" delta_apply_model;
    test "delta compact basics" delta_compact_basics;
    QCheck_alcotest.to_alcotest prop_compact_equivalent;
    test "wal prune after extraction" wal_prune_after_extraction;
    test "delta wire roundtrip and errors" delta_wire_roundtrip_and_errors;
    test "op-delta size independent of txn size" opdelta_size_independent_of_txn_size;
    test "op-delta wire roundtrip" opdelta_wire_roundtrip;
    test "op-delta wire with images" opdelta_wire_with_images;
    test "ts extract finds changes" ts_extract_finds_changes;
    test "ts extract index matches scan" ts_extract_index_matches_scan;
    test "ts extract misses deletes" ts_extract_misses_deletes;
    test "ts extract table output" ts_extract_table_output;
    test "trigger extract end to end" trigger_extract_end_to_end;
    test "trigger extract updates paired" trigger_extract_updates_paired;
    test "trigger extract drain" trigger_extract_drain;
    test "log extract end to end" log_extract_end_to_end;
    test "log extract skips aborted" log_extract_skips_aborted;
    test "log extract grouped boundaries" log_extract_grouped_boundaries;
    test "log ship same schema" log_ship_same_schema;
    test "log ship rejects schema mismatch" log_ship_rejects_schema_mismatch;
    test "snapshot extract end to end" snapshot_extract_end_to_end;
    test "snapshot partitioned agrees" snapshot_partitioned_agrees;
    test "capture file sink" capture_file_sink;
    test "capture file positions" capture_file_positions;
    test "capture withdraws uncommitted lines" capture_withdraws_uncommitted_lines;
    test "capture db sink roundtrip" capture_db_sink_roundtrip;
    test "capture replay reproduces state" capture_replay_reproduces_state;
    test "capture aborted not captured" capture_aborted_not_captured;
    test "capture conflict leaves no open txn" capture_conflict_leaves_no_txn;
    test "capture lines past a position" capture_lines_past_a_position;
    test "trigger install continues positions" trigger_install_continues_positions;
    test "capture table continues positions" capture_table_continues_positions;
    test "capture hybrid before images" capture_hybrid_before_images;
    test "a plain capture records no before images" plain_capture_records_no_images;
    test "hybrid images precede each statement" hybrid_images_precede_each_statement;
    test "hybrid images survive the capture table" hybrid_images_survive_the_capture_table;
    test "reconcile drops duplicates" reconcile_drops_duplicates;
    test "reconcile priority wins conflicts" reconcile_priority_wins_conflicts;
    test "reconcile keeps repeated changes" reconcile_keeps_repeated_changes;
    test "transform validate" transform_validate;
    test "transform tuple and delta" transform_tuple_and_delta;
    test "transform stmt rewrites" transform_stmt_rewrites;
    test "transform insert projection" transform_insert_projection;
    QCheck_alcotest.to_alcotest prop_extractors_sound;
    test "a bad percent escape is a decode error" bad_percent_escape_is_an_error;
  ]
