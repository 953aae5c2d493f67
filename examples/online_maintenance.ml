(* Online warehouse maintenance: apply the same change stream as (a) one
   value-delta batch and (b) per-transaction Op-Deltas, and check that
   both converge to the same warehouse state.  How the two modes differ
   for concurrent OLAP queries — the paper's "Op-Delta can interleave
   with OLAP queries" claim (Section 4.1) — is shown on the real lock
   manager by examples/concurrent_warehouse.exe.

     dune exec examples/online_maintenance.exe *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Trigger_extract = Dw_core.Trigger_extract
module Warehouse = Dw_warehouse.Warehouse

let replica_rows = 3000
let maintenance_txns = 30

let mk_warehouse () =
  let wh = Warehouse.create ~pool_pages:2048 ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let rng = Dw_util.Prng.create ~seed:7 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init replica_rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  Warehouse.define_view wh
    (Spj_view.Select_project
       {
         name = "stock";
         table = "parts";
         schema = Workload.parts_schema;
         filter = Some (Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Lit (Value.Int 0)));
         project =
           [
             { Spj_view.out_name = "part_id"; from_side = Spj_view.L; from_col = "part_id" };
             { Spj_view.out_name = "qty"; from_side = Spj_view.L; from_col = "qty" };
           ];
       });
  wh

let () =
  (* --- source activity: 30 transactions, captured both ways --- *)
  let src = Db.create ~pool_pages:1024 ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Workload.load_parts ~seed:7 src ~rows:replica_rows ();
  Db.advance_day src;
  let handle = Trigger_extract.install src ~table:"parts" in
  let ods = ref [] in
  for i = 0 to maintenance_txns - 1 do
    let stmts =
      match i mod 3 with
      | 0 ->
        Workload.insert_parts_txn ~first_id:(replica_rows + 1 + (i * 40)) ~size:30
          ~day:(Db.current_day src) ()
      | 1 -> [ Workload.update_parts_stmt ~first_id:(1 + (i * 37)) ~size:30 ]
      | _ -> [ Workload.delete_parts_stmt ~first_id:(1 + (i * 53)) ~size:15 ]
    in
    Db.with_txn src (fun txn ->
        List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts);
    ods := Op_delta.make ~txn_id:i stmts :: !ods
  done;
  let ods = List.rev !ods in
  let value_delta = Trigger_extract.collect src handle in
  Printf.printf "captured: %d-change value delta | %d op-deltas\n"
    (Dw_core.Delta.row_count value_delta)
    (List.length ods);

  (* --- integrate both ways --- *)
  let wh_batch = mk_warehouse () in
  let batch_stats = Warehouse.integrate_value_delta wh_batch value_delta in
  let wh_online = mk_warehouse () in
  let online_stats = Warehouse.integrate_op_deltas wh_online ods in
  Printf.printf "batch integration: %d row ops in one transaction (%s)\n"
    batch_stats.Warehouse.row_ops
    (Dw_util.Fmt_util.human_duration batch_stats.Warehouse.duration);
  Printf.printf "online integration: %d transactions, %d row ops total\n"
    online_stats.Warehouse.txns online_stats.Warehouse.row_ops;

  (* both converge to the same warehouse state *)
  let same =
    Warehouse.view_rows wh_batch "stock" = Warehouse.view_rows wh_online "stock"
  in
  Printf.printf "states converge: %b\n" same;
  Printf.printf
    "\nthe batch holds the warehouse lock for its whole duration; the op-delta stream commits \
     %d short transactions that queries can slot in between (run \
     examples/concurrent_warehouse.exe to watch real sessions interleave).\n"
    online_stats.Warehouse.txns;
  if not same then exit 1
