(* Experiment F2 — paper Figure 2: insert/delete/update trigger overhead
   as a function of transaction size.

   Expected shape: insert overhead roughly constant (~80-100%); update
   overhead grows with transaction size (per-row base update cost shrinks
   as the scan amortises, the triggered 2 inserts/row do not); delete
   overhead in between. *)

module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Trigger_extract = Dw_core.Trigger_extract
open Bench_support

(* one transaction of [size] affected rows against a fresh source,
   optionally with the capture trigger installed *)
let response_time ~table_rows ~with_trigger =
  response_time ~table_rows ~prepare:(fun db stmts ->
      if with_trigger then
        ignore (Trigger_extract.install db ~table:"parts" : Trigger_extract.handle);
      fun () -> exec_txn db stmts)

let run ~scale =
  section "F2 (Figure 2): insert/delete/update trigger overhead";
  (* the paper holds the source table at 100k rows for update/delete *)
  let table_rows = 20_000 * scale in
  let header = "Txn size" :: List.map string_of_int txn_sizes in
  let rows =
    List.concat_map
      (fun kind ->
        let base = List.map (response_time ~table_rows ~with_trigger:false kind) txn_sizes in
        let trig = List.map (response_time ~table_rows ~with_trigger:true kind) txn_sizes in
        let overhead =
          List.map2 (fun b t -> Printf.sprintf "%.0f%%" ((t -. b) /. b *. 100.0)) base trig
        in
        [
          (op_name kind ^ " (no trigger)") :: List.map dur base;
          (op_name kind ^ " (trigger)") :: List.map dur trig;
          (op_name kind ^ " overhead") :: overhead;
        ])
      op_kinds
  in
  print_table ~title:"Figure 2: trigger overhead vs transaction size" ~header ~rows;
  print_endline
    "shape check (paper): insert overhead ~constant 80-100%; update overhead grows with txn \
     size (up to ~344%); delete overhead between them"


(* F2R — paper Section 3.1.3's remote-capture claim: writing the triggered
   delta "directly to an external system" costs an order of magnitude more
   when the staging database is another instance on the same machine, and
   10-100x across a LAN.  The external databases live on latency-injected
   Vfs backends (per-I/O delay standing in for IPC / 10 Mb/s-LAN RTT). *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Trigger = Dw_engine.Trigger
module Heap_file = Dw_storage.Heap_file

let delta_schema =
  Schema.make
    ({ Schema.name = "__seq"; ty = Value.Tint; nullable = false }
     :: Schema.columns Workload.parts_schema)

let remote_response_time ~table_rows ~target size =
  let setup () =
    let db = fresh_source ~rows:table_rows () in
    (match target with
     | `None -> ()
     | `Local_table | `Same_machine_db | `Lan_db ->
       let sink_db =
         match target with
         | `Local_table -> db
         | `Same_machine_db ->
           (* separate database process on the same host: IPC-ish latency *)
           Db.create ~vfs:(Vfs.in_memory ~op_delay:10e-6 ()) ~name:"staging" ()
         | `Lan_db ->
           (* staging across a 10 Mb/s switched LAN *)
           Db.create ~vfs:(Vfs.in_memory ~op_delay:100e-6 ()) ~name:"staging" ()
         | `None -> assert false
       in
       let _ = Db.create_table sink_db ~name:"delta" delta_schema in
       let seq = ref 0 in
       let write tuple =
         incr seq;
         let row = Array.append [| Value.Int !seq |] tuple in
         if sink_db == db then
           (* local: same transaction context, like Trigger_extract *)
           ()
         else
           (* external: its own transaction per row (the remote commit is
              what the paper's penalty is made of) *)
           Db.with_txn sink_db (fun txn ->
               ignore (Db.insert sink_db txn "delta" row : Heap_file.rid))
       in
       let local_write (ctx : Db.trigger_ctx) tuple =
         incr seq;
         let row = Array.append [| Value.Int !seq |] tuple in
         ignore (Db.insert ctx.Db.ctx_db ctx.Db.ctx_txn "delta" row : Heap_file.rid)
       in
       Db.add_trigger db ~table:"parts"
         {
           Trigger.name = "capture";
           on = [ Trigger.On_update ];
           action =
             (fun ctx event ->
               match event with
               | Trigger.Updated (_, before, after) ->
                 if sink_db == db then begin
                   local_write ctx before;
                   local_write ctx after
                 end
                 else begin
                   write before;
                   write after
                 end
               | Trigger.Inserted _ | Trigger.Deleted _ -> ());
         });
    let stmt = Workload.update_parts_stmt ~first_id:1 ~size in
    (db, stmt)
  in
  best_of ~repeat:3 ~setup (fun (db, stmt) ->
      exec_txn db [ stmt ])

let run_remote ~scale =
  section "F2R (Section 3.1.3): trigger capture to local vs external staging";
  let table_rows = 5_000 * scale in
  let sizes = [ 10; 100; 1000 ] in
  let header = "Capture target" :: List.map string_of_int sizes in
  let base = List.map (remote_response_time ~table_rows ~target:`None) sizes in
  let local = List.map (remote_response_time ~table_rows ~target:`Local_table) sizes in
  let same = List.map (remote_response_time ~table_rows ~target:`Same_machine_db) sizes in
  let lan = List.map (remote_response_time ~table_rows ~target:`Lan_db) sizes in
  let row name times = name :: List.map dur times in
  let ratio name times =
    name
    :: List.map2 (fun l t -> Printf.sprintf "%.1fx" (t /. l)) local times
  in
  print_table ~title:"update transaction response time by capture target" ~header
    ~rows:
      [
        row "no capture" base;
        row "local delta table" local;
        row "separate DB, same machine" same;
        row "DB across 10Mb/s LAN" lan;
        ratio "same-machine vs local" same;
        ratio "LAN vs local" lan;
      ];
  print_endline
    "shape check (paper): external capture costs ~10x (same machine) to 10-100x (LAN) the \
     local delta table"
