(* Concurrent warehouse sessions over the real engine: the effect-handler
   scheduler interleaves an Op-Delta integrator with OLAP analysts, then
   replays the same maintenance as one value-delta batch to show the
   outage — the paper's Section 4.1 online-maintenance claim, live.

     dune exec examples/concurrent_warehouse.exe *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Scheduler = Dw_engine.Scheduler
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Warehouse = Dw_warehouse.Warehouse
module Olap = Dw_warehouse.Olap

let replica_rows = 1500
let maintenance_txns = 12

let mk_warehouse () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let rng = Dw_util.Prng.create ~seed:42 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init replica_rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  wh

let maintenance =
  List.init maintenance_txns (fun i ->
      Op_delta.make ~txn_id:i [ Workload.update_parts_stmt ~first_id:(1 + (i * 100)) ~size:40 ])

let analyst_sql = "SELECT COUNT(*) AS n, SUM(qty) AS units FROM parts WHERE qty > 0"

let run_mode ~online =
  let wh = mk_warehouse () in
  let db = Warehouse.db wh in
  let integrator =
    {
      Scheduler.name = "integrator";
      start_at = 0;
      work =
        (fun () ->
          if online then ignore (Warehouse.integrate_op_deltas wh maintenance : Warehouse.stats)
          else
            Db.with_txn db (fun txn ->
                List.iter
                  (fun od ->
                    List.iter
                      (fun (op : Op_delta.op) ->
                        ignore (Db.exec db txn op.Op_delta.stmt : Db.exec_result))
                      od.Op_delta.ops)
                  maintenance));
    }
  in
  let analysts =
    List.init 4 (fun i ->
        {
          Scheduler.name = Printf.sprintf "analyst-%d" i;
          start_at = 1 + (i * 3);
          work =
            (fun () ->
              Db.with_txn db (fun txn ->
                  match Db.exec_sql db txn analyst_sql with
                  | Ok _ -> ()
                  | Error e -> failwith e));
        })
  in
  Scheduler.run db (integrator :: analysts)

let describe label (r : Scheduler.report) =
  Printf.printf "%s (makespan %d statement slices):\n" label r.Scheduler.total_slices;
  List.iter
    (fun s ->
      Printf.printf "  %-12s arrived %2d  finished %2d  blocked %2d slices%s\n"
        s.Scheduler.session s.Scheduler.arrived s.Scheduler.finished s.Scheduler.blocked_slices
        (match s.Scheduler.failed with Some e -> "  FAILED: " ^ e | None -> ""))
    r.Scheduler.sessions

let () =
  Printf.printf
    "%d maintenance transactions (40-row updates) vs 4 analysts on a %d-row warehouse\n\n"
    maintenance_txns replica_rows;
  describe "value-delta batch (one transaction)" (run_mode ~online:false);
  print_newline ();
  describe "Op-Delta online (transaction per source txn)" (run_mode ~online:true);
  print_newline ();
  print_endline
    "reading guide: in batch mode every analyst that arrives during the integration is blocked \
     until its single transaction commits; in online mode analysts slot in between the short \
     maintenance transactions and never wait."
