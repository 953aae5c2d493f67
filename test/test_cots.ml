(* Tests for Dw_cots: replicated heterogeneous sources, business-level
   Op-Delta capture vs per-replica value-delta extraction + reconciliation. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Reconcile = Dw_core.Reconcile
module Enterprise = Dw_cots.Enterprise
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let schema = Workload.parts_schema

let mk ?(sources = 3) () =
  Enterprise.create ~sources ~logical_table:"parts" ~logical_schema:schema ()

let submit_ok ent stmts =
  match Enterprise.submit ent stmts with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let run_business_mix ent ~seed ~txns =
  let rng = Prng.create ~seed in
  let ops = Workload.gen_mix rng ~existing_ids:20 ~txns ~max_txn_size:4 in
  List.iter (fun op -> submit_ok ent (Workload.op_to_stmts ~day:0 op)) ops

let seed_enterprise ent n =
  submit_ok ent (Workload.insert_parts_txn ~first_id:1 ~size:n ~day:0 ())

let physical_rows ent i =
  let db = Enterprise.source_db ent i in
  let rows = ref [] in
  Table.scan (Db.table db (Enterprise.physical_table ent i)) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let replicas_converge () =
  let ent = mk () in
  seed_enterprise ent 20;
  run_business_mix ent ~seed:1 ~txns:10;
  let r0 = physical_rows ent 0 and r1 = physical_rows ent 1 and r2 = physical_rows ent 2 in
  check Alcotest.int "same count 0/1" (List.length r0) (List.length r1);
  check Alcotest.int "same count 0/2" (List.length r0) (List.length r2);
  (* values are identical modulo column renaming: compare raw arrays *)
  List.iter2 (fun a b -> check Alcotest.bool "same values" true (Tuple.equal a b)) r0 r1

let heterogeneous_schemas_differ () =
  let ent = mk () in
  let s0 =
    Table.schema (Db.table (Enterprise.source_db ent 0) (Enterprise.physical_table ent 0))
  in
  let s1 =
    Table.schema (Db.table (Enterprise.source_db ent 1) (Enterprise.physical_table ent 1))
  in
  check Alcotest.bool "physically different schemas" false (Schema.equal s0 s1);
  check Alcotest.bool "different table names" true
    (Enterprise.physical_table ent 0 <> Enterprise.physical_table ent 1)

let wrapper_captures_once () =
  let ent = mk () in
  seed_enterprise ent 5;
  run_business_mix ent ~seed:2 ~txns:7;
  (* one op-delta per business transaction, regardless of replica count *)
  check Alcotest.int "8 business txns" 8 (List.length (Enterprise.business_op_deltas ent))

let value_streams_are_replicated () =
  let ent = mk () in
  seed_enterprise ent 10;
  run_business_mix ent ~seed:3 ~txns:6;
  let streams = Enterprise.extract_replica_value_deltas ent in
  check Alcotest.int "k streams" 3 (List.length streams);
  let counts = List.map Delta.row_count streams in
  (match counts with
   | c :: rest -> List.iter (fun c' -> check Alcotest.int "same volume per replica" c c') rest
   | [] -> Alcotest.fail "no streams");
  (* reconciliation collapses them to one authoritative stream *)
  let merged, stats = Reconcile.reconcile streams in
  check Alcotest.int "authoritative volume" (List.hd counts) (Delta.row_count merged);
  check Alcotest.int "duplicates dropped" (2 * List.hd counts)
    stats.Reconcile.duplicates_dropped;
  check Alcotest.int "no conflicts (exact replicas)" 0 stats.Reconcile.conflicts_resolved

let reconciled_equals_business_effects () =
  let ent = mk () in
  seed_enterprise ent 15;
  run_business_mix ent ~seed:4 ~txns:8;
  let streams = Enterprise.extract_replica_value_deltas ent in
  let merged, _ = Reconcile.reconcile streams in
  (* applying the reconciled delta to an empty logical table reproduces
     replica 0's physical contents *)
  let result = Delta.apply_to_rows merged [] in
  let expected = physical_rows ent 0 in
  check Alcotest.int "same count" (List.length expected) (List.length result);
  List.iter2
    (fun a b -> check Alcotest.bool "same rows" true (Tuple.equal a b))
    (List.sort Tuple.compare result) expected

let opdelta_volume_advantage () =
  let ent = mk () in
  seed_enterprise ent 30;
  submit_ok ent [ Workload.update_parts_stmt ~first_id:1 ~size:30 ];
  let op_bytes =
    List.fold_left
      (fun acc od -> acc + Op_delta.size_bytes od)
      0
      (Enterprise.business_op_deltas ent)
  in
  let value_bytes =
    List.fold_left
      (fun acc d -> acc + Delta.size_bytes d)
      0
      (Enterprise.extract_replica_value_deltas ent)
  in
  (* 3 replicas × (30 inserts + 30 updates×2 images) × 100B vs
     ~(30 insert stmts + 1 update stmt) of SQL text *)
  check Alcotest.bool "op-delta much smaller" true (op_bytes * 2 < value_bytes)

let submit_rejects_foreign_table () =
  let ent = mk () in
  match
    Enterprise.submit ent [ Dw_sql.Ast.Delete { table = "other"; where = None } ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected rejection"

let single_source_no_heterogeneity () =
  let ent =
    Enterprise.create ~heterogeneous:false ~sources:1 ~logical_table:"parts"
      ~logical_schema:schema ()
  in
  check Alcotest.string "physical = logical" "parts" (Enterprise.physical_table ent 0);
  seed_enterprise ent 3;
  check Alcotest.int "rows" 3 (List.length (physical_rows ent 0))

(* ---------- multi-table business transactions ---------- *)

let orders_schema =
  Schema.make
    [
      { Schema.name = "order_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "part_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "amount"; ty = Value.Tint; nullable = false };
    ]

let mk_multi () =
  Enterprise.create ~sources:2 ~logical_table:"parts" ~logical_schema:schema
    ~extra_tables:[ ("orders", orders_schema) ] ()

let multi_table_business_txn () =
  let ent = mk_multi () in
  check (Alcotest.list Alcotest.string) "tables" [ "parts"; "orders" ]
    (Enterprise.logical_tables ent);
  (* one business transaction spanning both tables: take stock and book
     the order atomically *)
  seed_enterprise ent 5;
  let cross_txn =
    [
      Workload.update_parts_stmt ~first_id:3 ~size:1;
      Dw_sql.Ast.Insert
        { table = "orders"; columns = None; rows = [ [ Value.Int 1; Value.Int 3; Value.Int 7 ] ] };
    ]
  in
  submit_ok ent cross_txn;
  (* both replicas of both tables got the effects *)
  for i = 0 to 1 do
    let db = Enterprise.source_db ent i in
    let orders_physical =
      match Enterprise.logical_tables ent with
      | _ -> Printf.sprintf "orders_s%d" i
    in
    check Alcotest.int (Printf.sprintf "order row at source %d" i) 1
      (Table.row_count (Db.table db orders_physical))
  done;
  (* the wrapper kept the cross-table boundary: ONE op-delta holding both
     statements, in order *)
  let ods = Enterprise.business_op_deltas ent in
  let cross = List.nth ods (List.length ods - 1) in
  check (Alcotest.list Alcotest.string) "txn spans both tables" [ "parts"; "orders" ]
    (List.map (fun op -> Dw_sql.Ast.table_of op.Op_delta.stmt) cross.Op_delta.ops);
  check Alcotest.int "both statements in one txn" 2 (List.length cross.Op_delta.ops);
  (* the value-delta view of the same activity: two independent per-table
     streams with no transaction linkage *)
  let parts_stream = List.hd (Enterprise.extract_replica_value_deltas_for ent ~table:"parts") in
  let orders_stream = List.hd (Enterprise.extract_replica_value_deltas_for ent ~table:"orders") in
  check Alcotest.string "stream 1 is parts only" "parts" parts_stream.Delta.table;
  check Alcotest.string "stream 2 is orders only" "orders" orders_stream.Delta.table;
  check Alcotest.int "orders stream has the insert" 1 (Delta.row_count orders_stream)

let multi_table_value_delta_soundness () =
  let ent = mk_multi () in
  seed_enterprise ent 8;
  submit_ok ent
    [ Dw_sql.Ast.Insert
        { table = "orders"; columns = None; rows = [ [ Value.Int 1; Value.Int 2; Value.Int 5 ] ] } ];
  submit_ok ent [ Workload.delete_parts_stmt ~first_id:1 ~size:2 ];
  (* each table's reconciled stream replays to that table's state *)
  List.iter
    (fun table ->
      let streams = Enterprise.extract_replica_value_deltas_for ent ~table in
      let merged, _ = Reconcile.reconcile streams in
      let replayed = Delta.apply_to_rows merged [] in
      let db = Enterprise.source_db ent 0 in
      let physical = table ^ "_s0" in
      check Alcotest.int (table ^ " replay count")
        (Table.row_count (Db.table db physical))
        (List.length replayed))
    (Enterprise.logical_tables ent)

let suite =
  [
    test "replicas converge" replicas_converge;
    test "heterogeneous schemas differ" heterogeneous_schemas_differ;
    test "wrapper captures once" wrapper_captures_once;
    test "value streams are replicated" value_streams_are_replicated;
    test "reconciled equals business effects" reconciled_equals_business_effects;
    test "op-delta volume advantage" opdelta_volume_advantage;
    test "submit rejects foreign table" submit_rejects_foreign_table;
    test "single source no heterogeneity" single_source_no_heterogeneity;
    test "multi-table business txn keeps boundaries" multi_table_business_txn;
    test "multi-table value deltas sound" multi_table_value_delta_soundness;
  ]
