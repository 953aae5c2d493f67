(* Experiments W1 and W2R — the paper's Section 4.1 warehouse-side claims.

   W1: maintenance window, Op-Delta vs value delta, per operation kind and
   transaction size.  Expected: insert parity; delete window ~30% shorter
   with Op-Delta; update ~70% shorter.

   W2R: availability during maintenance, on the real lock manager.
   Expected: the value-delta batch blocks OLAP readers for the whole
   integration, Op-Delta interleaves with them with small bounded waits. *)

module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Delta = Dw_core.Delta
module Trigger_extract = Dw_core.Trigger_extract
module Warehouse = Dw_warehouse.Warehouse
module Metrics = Dw_util.Metrics
open Bench_support

let w1_txn_sizes = [ 10; 100; 1000; 10000 ]

let mk_warehouse ~replica_rows =
  parts_warehouse ~pool_pages:2048 ~views:[ cheap_parts ] ~rows:replica_rows ()

(* capture both representations of one source transaction, with the
   rows the source held before it: the replica contents a warehouse must
   start from for either representation to apply to it.  Both are in
   their wire form, as the paper ships them. *)
let capture_both ~table_rows kind size =
  let db, stmts = source_txn ~seed:99 ~table_rows kind size in
  let contents = sorted_rows db "parts" in
  let handle = Trigger_extract.install db ~table:"parts" in
  exec_txn db stmts;
  let value_file = Delta.to_file (Trigger_extract.collect db handle) in
  (contents, value_file, Op_delta.encode_line (Op_delta.make ~txn_id:1 stmts))

(* Each path's window decodes its own wire form where the warehouse
   receives it: the differential file's ASCII records, or the Op-Delta
   line's statements (one parse each). *)
let integrate_file wh file =
  match Delta.of_file ~table:"parts" ~schema:Workload.parts_schema file with
  | Ok delta -> Warehouse.integrate_value_delta wh delta
  | Error e -> failwith ("W1: differential file does not decode: " ^ e)

let integrate_line wh line =
  match Op_delta.decode_line line with
  | Ok od -> Warehouse.integrate_op_deltas wh [ od ]
  | Error e -> failwith ("W1: Op-Delta line does not decode: " ^ e)

(* the one txn size, shared by quick and full runs, whose counts W1 emits *)
let w1_gauge_size = 100

(* best-of-3 [integrate] on a fresh warehouse per repetition (GC noise):
   the window, and the last repetition's warehouse and stats (the counts
   are the same in every repetition) *)
let timed_path ~setup integrate =
  let last = ref None in
  let window = best_of ~repeat:3 ~setup (fun wh -> last := Some (wh, integrate wh)) in
  let wh, stats = Option.get !last in
  (window, wh, stats)

(* view-backing writes of every kind on [wh]'s registry *)
let view_writes wh =
  let m = Db.metrics (Warehouse.db wh) in
  List.fold_left
    (fun acc kind -> acc + Metrics.get m ("warehouse.view_writes." ^ kind))
    0 [ "insert"; "update"; "delete" ]

let same_view_rows a b =
  List.equal (fun (r, n) (r', n') -> Tuple.equal r r' && n = n') a b

(* An insert cell's two windows taken apart: decoding the wire form
   (median of 5 batches of 10 decodes) and integrating the decoded delta,
   each timed on its own.  Printed only; no gated key. *)
let decode_split ~setup ~value_file ~line =
  let of_ok = function Ok x -> x | Error e -> failwith ("W1: " ^ e) in
  let decode_value () =
    of_ok (Delta.of_file ~table:"parts" ~schema:Workload.parts_schema value_file)
  in
  let decode_op () = of_ok (Op_delta.decode_line line) in
  let per_decode decode =
    best_of ~setup:ignore (fun () ->
        for _ = 1 to 10 do
          ignore (Sys.opaque_identity (decode ()))
        done)
    /. 10.0
  in
  let delta = decode_value () and od = decode_op () in
  let integrate apply = best_of ~setup (fun wh -> ignore (apply wh : Warehouse.stats)) in
  let value_decode = per_decode decode_value and op_decode = per_decode decode_op in
  let us t = Printf.sprintf "%.0fus" (t *. 1e6) in
  [ us value_decode; us (integrate (fun wh -> Warehouse.integrate_value_delta wh delta));
    us op_decode; us (integrate (fun wh -> Warehouse.integrate_op_deltas wh [ od ]));
    Printf.sprintf "%.2fx" (op_decode /. value_decode);
    Printf.sprintf "%d / %d" (String.length line) (String.length value_file) ]

let run_w1 ~scale =
  section "W1: warehouse maintenance window - Op-Delta vs value delta";
  let table_rows = scaled 20_000 ~scale in
  let header =
    [ "Op"; "Txn size"; "value delta window"; "Op-Delta window"; "Op-Delta shorter by" ]
  in
  let sizes = if is_quick () then [ 10; 100; 1000 ] else w1_txn_sizes in
  (* a private registry: set_gauge mirrors into the dwbench sink *)
  let m = Metrics.create () in
  let rows = ref [] in
  let splits = ref [] in
  let improvements = Hashtbl.create 4 in
  List.iter
    (fun kind ->
      List.iter
        (fun size ->
          let contents, value_file, line = capture_both ~table_rows kind size in
          let setup () = replica_warehouse ~pool_pages:2048 ~views:[ cheap_parts ] contents in
          let t_value, wh_value, s_value =
            timed_path ~setup (fun wh -> integrate_file wh value_file)
          in
          let t_op, wh_op, s_op =
            timed_path ~setup (fun wh -> integrate_line wh line)
          in
          if kind = Insert then
            splits := (string_of_int size :: decode_split ~setup ~value_file ~line) :: !splits;
          (* both representations of one source transaction, applied to
             the rows it ran against, must leave the same view *)
          if
            not
              (same_view_rows
                 (Warehouse.view_rows wh_value "cheap_parts")
                 (Warehouse.view_rows wh_op "cheap_parts"))
          then
            failwith
              (Printf.sprintf "W1 %s %d: the value and Op-Delta paths left different views"
                 (op_name kind) size);
          if size = w1_gauge_size then
            List.iter
              (fun (name, v) ->
                Metrics.set_gauge m ("w1." ^ name ^ "_" ^ op_name kind) (float_of_int v))
              Warehouse.
                [ ("statements_value", s_value.statements); ("statements_op", s_op.statements);
                  ("row_ops_value", s_value.row_ops); ("row_ops_op", s_op.row_ops);
                  ("view_writes_value", view_writes wh_value);
                  ("view_writes_op", view_writes wh_op) ];
          let shorter = pct_change ~base:t_value ~other:t_op in
          Hashtbl.replace improvements kind
            (shorter :: (try Hashtbl.find improvements kind with Not_found -> []));
          rows :=
            [ op_name kind; string_of_int size; dur t_value; dur t_op;
              Printf.sprintf "%.1f%%" shorter ]
            :: !rows)
        sizes)
    op_kinds;
  print_table ~title:"Maintenance window per source transaction" ~header ~rows:(List.rev !rows);
  print_table ~title:"Insert windows taken apart: decode, then integrate"
    ~header:
      [ "Txn size"; "file decode"; "file integrate"; "line decode"; "line integrate";
        "decode line/file"; "bytes line / file" ]
    ~rows:(List.rev !splits);
  let avg kind =
    let l = try Hashtbl.find improvements kind with Not_found -> [] in
    List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))
  in
  (* Op-Delta window over value-delta window, averaged over txn sizes *)
  List.iter
    (fun kind ->
      Metrics.set_gauge m ("w1.window_ratio_" ^ op_name kind) (1.0 -. (avg kind /. 100.0)))
    op_kinds;
  Printf.printf
    "averages over txn sizes: insert %.1f%% | delete %.1f%% | update %.1f%% shorter with \
     Op-Delta\n(paper: insert parity; delete 31.8%% shorter; update 69.7%% shorter)\n"
    (avg Insert) (avg Delete) (avg Update)

(* W1agg: the same maintenance-window comparison with an AGGREGATE view
   (the [19] "shrinking the warehouse update window" setting) *)
let agg_view =
  {
    Dw_core.Agg_view.name = "qty_value";
    table = "parts";
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates =
      [ ("n", Dw_core.Agg_view.Count); ("value", Dw_core.Agg_view.Sum "price") ];
  }

let mk_agg_warehouse contents =
  let wh = replica_warehouse ~pool_pages:2048 contents in
  Warehouse.define_agg_view wh agg_view;
  wh

let run_w1_agg ~scale =
  section "W1agg: maintenance window with an aggregate (GROUP BY) view";
  let table_rows = scaled 10_000 ~scale in
  let header = [ "Op"; "Txn size"; "value delta"; "Op-Delta"; "Op-Delta shorter by" ] in
  let rows = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun size ->
          let contents, value_file, line = capture_both ~table_rows kind size in
          let t_value =
            best_of ~repeat:3
              ~setup:(fun () -> mk_agg_warehouse contents)
              (fun wh -> ignore (integrate_file wh value_file : Warehouse.stats))
          in
          let t_op =
            best_of ~repeat:3
              ~setup:(fun () -> mk_agg_warehouse contents)
              (fun wh -> ignore (integrate_line wh line : Warehouse.stats))
          in
          rows :=
            [ op_name kind; string_of_int size; dur t_value; dur t_op;
              Printf.sprintf "%.1f%%" (pct_change ~base:t_value ~other:t_op) ]
            :: !rows)
        [ 10; 100; 1000 ])
    op_kinds;
  print_table ~title:"Maintenance window (COUNT/SUM aggregate view attached)" ~header
    ~rows:(List.rev !rows);
  print_endline
    "shape check: the Op-Delta advantage persists when the maintenance work includes \
     aggregate-view upkeep (the [19] setting the paper positions itself in front of)"

(* W2R — the availability claim measured against the REAL lock manager:
   an effect-handler scheduler (Dw_engine.Scheduler) interleaves
   integrator and OLAP reader sessions over one warehouse database;
   reader waits come from actual 2PL conflicts, not a model. *)

module Scheduler = Dw_engine.Scheduler

let run_w2_real ~scale =
  section "W2R: availability with real 2PL (effect-handler scheduler)";
  let table_rows = scaled 2_000 ~scale in
  let txns = 20 in
  let run_mode online =
    let wh = mk_warehouse ~replica_rows:table_rows in
    let db = Warehouse.db wh in
    (* the maintenance stream: 20 update transactions of 25 rows *)
    let ods =
      List.init txns (fun i ->
          Op_delta.make ~txn_id:i
            [ Workload.update_parts_stmt ~first_id:(1 + (i * 60)) ~size:25 ])
    in
    let integrator =
      {
        Scheduler.name = "integrator";
        start_at = 0;
        work =
          (fun () ->
            if online then ignore (Warehouse.integrate_op_deltas wh ods : Warehouse.stats)
            else begin
              (* the batch: all transactions' statements in ONE warehouse txn *)
              exec_txn db
                (List.concat_map
                   (fun od ->
                     List.map (fun (op : Op_delta.op) -> op.Op_delta.stmt) od.Op_delta.ops)
                   ods)
            end);
      }
    in
    let readers =
      List.init 6 (fun i ->
          {
            Scheduler.name = Printf.sprintf "olap-%d" i;
            start_at = 2 + (i * 4);
            work =
              (fun () ->
                Db.with_txn db (fun txn ->
                    ignore (Db.select db txn "parts" ()) ));
          })
    in
    Scheduler.run db (integrator :: readers)
  in
  let show name (r : Scheduler.report) =
    let readers =
      List.filter (fun s -> s.Scheduler.session <> "integrator") r.Scheduler.sessions
    in
    let blocked = List.map (fun s -> s.Scheduler.blocked_slices) readers in
    let max_b = List.fold_left max 0 blocked in
    let avg_b =
      float_of_int (List.fold_left ( + ) 0 blocked) /. float_of_int (List.length blocked)
    in
    let failed = List.length (List.filter (fun s -> s.Scheduler.failed <> None) r.Scheduler.sessions) in
    [ name; string_of_int max_b; Printf.sprintf "%.1f" avg_b;
      string_of_int r.Scheduler.total_slices; string_of_int failed ]
  in
  let batch = run_mode false in
  let online = run_mode true in
  print_table
    ~title:
      (Printf.sprintf
         "%d maintenance txns (25-row updates) vs 6 OLAP readers over a %d-row warehouse" txns
         table_rows)
    ~header:[ "mode"; "max reader wait (slices)"; "avg reader wait"; "makespan"; "failures" ]
    ~rows:[ show "value-delta batch (1 txn)" batch; show "Op-Delta online (per txn)" online ];
  print_endline
    "shape check (paper): under real 2PL the batch makes readers wait for the whole \
     integration; per-transaction Op-Delta application bounds each wait at one short txn"
