module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Vfs = Dw_storage.Vfs
module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Ast = Dw_sql.Ast
module Delta = Dw_core.Delta
module Timestamp_extract = Dw_core.Timestamp_extract
module Snapshot_extract = Dw_core.Snapshot_extract
module Trigger_extract = Dw_core.Trigger_extract
module Log_extract = Dw_core.Log_extract
module Opdelta_capture = Dw_core.Opdelta_capture
module Op_delta = Dw_core.Op_delta
module Warehouse = Dw_warehouse.Warehouse
module Metrics = Dw_util.Metrics

type method_ = Timestamp | Snapshot | Trigger | Log | Op_delta

let method_name = function
  | Timestamp -> "timestamp"
  | Snapshot -> "snapshot"
  | Trigger -> "trigger"
  | Log -> "log"
  | Op_delta -> "op-delta"

let all_methods = [ Timestamp; Snapshot; Trigger; Log; Op_delta ]

type observed = {
  table_rows : int;
  rows : float;
  stmts : float;
  insert_rows : float;
  update_rows : float;
  delete_rows : float;
  log_records : float;
  lock_wait_p95_s : float;
  ship_p95_s : float;
  log_available : bool;
}

type coeffs = {
  image_bytes : float;
  stmt_bytes : float;
  update_images : float;
  log_records_per_row : float;
  ts_scan_per_row : float;
  snap_scan_per_row : float;
  row_unit : float;
}

type config = {
  replan_interval : int;
  hysteresis_margin : float;
  probe_rows : int;
  probe_txns : int;
  byte_unit : float;
  contention_weight : float;
  ship_latency_weight : float;
}

let default_config =
  {
    replan_interval = 1;
    hysteresis_margin = 0.2;
    probe_rows = 48;
    probe_txns = 9;
    byte_unit = 0.01;
    contention_weight = 50.0;
    ship_latency_weight = 10.0;
  }

let validate_config c =
  let bad fmt = Printf.ksprintf invalid_arg ("Planner.validate_config: " ^^ fmt) in
  let finite name v = if Float.is_nan v || v = infinity then bad "%s is not finite" name in
  if c.replan_interval < 1 then bad "replan_interval %d < 1" c.replan_interval;
  finite "hysteresis_margin" c.hysteresis_margin;
  if c.hysteresis_margin < 0.0 || c.hysteresis_margin >= 1.0 then
    bad "hysteresis_margin %g outside [0, 1)" c.hysteresis_margin;
  if c.probe_rows < 8 then bad "probe_rows %d < 8" c.probe_rows;
  if c.probe_txns < 3 then bad "probe_txns %d < 3" c.probe_txns;
  finite "byte_unit" c.byte_unit;
  if c.byte_unit <= 0.0 then bad "byte_unit %g <= 0" c.byte_unit;
  finite "contention_weight" c.contention_weight;
  if c.contention_weight < 0.0 then bad "contention_weight %g < 0" c.contention_weight;
  finite "ship_latency_weight" c.ship_latency_weight;
  if c.ship_latency_weight < 0.0 then bad "ship_latency_weight %g < 0" c.ship_latency_weight

type decision = {
  round : int;
  chosen : method_;
  previous : method_ option;
  switched : bool;
  scored : bool;
  costs : (method_ * float) list;
  inputs : observed;
  reason : string;
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  mutable coeffs : coeffs option;
  mutable current : method_ option;
  mutable last_scored_round : int;
  mutable last_costs : (method_ * float) list;
  mutable decisions : decision list;
  mutable switches : int;
}

let create ?(config = default_config) ?metrics () =
  validate_config config;
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    cfg = config;
    metrics;
    coeffs = None;
    current = None;
    last_scored_round = min_int;
    last_costs = [];
    decisions = [];
    switches = 0;
  }

let decisions t = List.rev t.decisions
let switches t = t.switches

(* ---------- micro-probe calibration ----------

   The probes measure the engine, not the workload: how many delta-table
   images a trigger writes per changed row, how many wire bytes an image
   and a statement cost, how many retained log records one changed row
   leaves behind, how many integration row ops one shipped row causes.
   They are deterministic (seeded in-memory Vfs instances), so two
   planners in one process agree — and the results are memoised for the
   session so only the first planner pays for them. *)

let probe_table = "probe"

let probe_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "qty"; ty = Value.Tint; nullable = false };
      { Schema.name = "ts"; ty = Value.Tdate; nullable = false };
    ]

let probe_row ~id ~day = [| Value.Int id; Value.Int (id * 7 mod 100); Value.Date day |]

let probe_insert ~id ~day =
  Ast.Insert { table = probe_table; columns = None; rows = [ Array.to_list (probe_row ~id ~day) ] }

let probe_range ~first ~size =
  Expr.And
    ( Expr.Cmp (Expr.Ge, Expr.Col "id", Expr.Lit (Value.Int first)),
      Expr.Cmp (Expr.Lt, Expr.Col "id", Expr.Lit (Value.Int (first + size))) )

let probe_update ~first ~size =
  Ast.Update
    {
      table = probe_table;
      sets = [ ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 1))) ];
      where = Some (probe_range ~first ~size);
    }

let probe_delete ~first ~size =
  Ast.Delete { table = probe_table; where = Some (probe_range ~first ~size) }

let mk_probe_db ?(archive = false) cfg =
  let db = Db.create ~archive_log:archive ~vfs:(Vfs.in_memory ()) ~name:"probe" () in
  ignore (Db.create_table db ~name:probe_table ~ts_column:"ts" probe_schema : Table.t);
  Db.with_txn db (fun txn ->
      for id = 1 to cfg.probe_rows do
        ignore (Db.insert db txn probe_table (probe_row ~id ~day:0) : Dw_storage.Heap_file.rid)
      done);
  db

(* the canonical probe mix, rows touched known by construction: a third
   inserts (2 rows each), a third range updates (4 rows), a third range
   deletes (2 rows).  Updates and deletes stay inside [1, probe_rows/2]
   so they never overlap the fresh inserts. *)
type probe_mix = {
  txn_stmts : Ast.stmt list list;
  mix_inserts : int;
  mix_updates : int;
  mix_deletes : int;
}

let probe_mix cfg =
  let next = ref (cfg.probe_rows + 1) in
  let ins = ref 0 and upd = ref 0 and del = ref 0 in
  let txns =
    List.init cfg.probe_txns (fun i ->
        match i mod 3 with
        | 0 ->
          let first = !next in
          next := first + 2;
          ins := !ins + 2;
          [ probe_insert ~id:first ~day:1; probe_insert ~id:(first + 1) ~day:1 ]
        | 1 ->
          upd := !upd + 4;
          [ probe_update ~first:(1 + (i * 5 mod (cfg.probe_rows / 2))) ~size:4 ]
        | _ ->
          del := !del + 2;
          [ probe_delete ~first:(1 + (i * 7 mod (cfg.probe_rows / 2))) ~size:2 ])
  in
  { txn_stmts = txns; mix_inserts = !ins; mix_updates = !upd; mix_deletes = !del }

let exec_probe_txns db txns =
  Db.advance_day db;
  List.iter
    (fun stmts ->
      Db.with_txn db (fun txn ->
          List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) stmts))
    txns

(* deletes can shrink below the statement's nominal range when a prior
   delete already removed ids; measure actual changed rows from the
   trigger probe's delta instead of trusting the construction *)
let session_coeffs : coeffs option ref = ref None

let run_probes cfg =
  let mix = probe_mix cfg in
  (* trigger probe: images per changed row, wire bytes per image *)
  let trig_db = mk_probe_db cfg in
  let handle = Trigger_extract.install trig_db ~table:probe_table in
  exec_probe_txns trig_db mix.txn_stmts;
  let trig_delta = Trigger_extract.collect trig_db handle in
  let changed = float_of_int (Delta.row_count trig_delta) in
  let images = float_of_int (Delta.image_count trig_delta) in
  let updates =
    List.fold_left
      (fun acc c -> match c with Delta.Update _ -> acc +. 1.0 | _ -> acc)
      0.0 trig_delta.Delta.changes
  in
  let image_bytes = float_of_int (Delta.size_bytes trig_delta) /. Float.max 1.0 images in
  let update_images =
    if updates > 0.0 then ((images -. changed) /. updates) +. 1.0 else 2.0
  in
  (* log probe: retained records per changed row (no trigger installed,
     so the log carries only the user transactions) *)
  let log_db = mk_probe_db ~archive:true cfg in
  exec_probe_txns log_db mix.txn_stmts;
  let _, log_stats = Log_extract.extract log_db ~table:probe_table () in
  let log_records_per_row =
    float_of_int log_stats.Log_extract.records_scanned /. Float.max 1.0 changed
  in
  (* op-delta probe: wire bytes per statement, plus integration row ops
     per changed row measured against a bare replica warehouse *)
  let op_db = mk_probe_db cfg in
  let cap = Opdelta_capture.create op_db ~sink:(Opdelta_capture.To_file "probe.oplog") in
  Db.advance_day op_db;
  List.iter
    (fun stmts ->
      match Opdelta_capture.exec_txn cap stmts with
      | Ok _ -> ()
      | Error e -> invalid_arg ("Planner.calibrate: probe transaction failed: " ^ e))
    mix.txn_stmts;
  let ods = Opdelta_capture.captured cap in
  let stmts = List.fold_left (fun acc od -> acc + List.length od.Op_delta.ops) 0 ods in
  let stmt_bytes =
    float_of_int (Opdelta_capture.captured_bytes cap) /. Float.max 1.0 (float_of_int stmts)
  in
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"probe_wh" () in
  Warehouse.add_replica wh ~table:probe_table ~schema:probe_schema;
  Warehouse.load_replica wh ~table:probe_table
    (List.init cfg.probe_rows (fun i -> probe_row ~id:(i + 1) ~day:0));
  let wh_stats = Warehouse.integrate_op_deltas wh ods in
  let row_unit = float_of_int wh_stats.Warehouse.row_ops /. Float.max 1.0 changed in
  (* timestamp probe: rows visited per table row (full scan) *)
  let ts_db = mk_probe_db cfg in
  exec_probe_txns ts_db mix.txn_stmts;
  let _, ts_stats =
    Timestamp_extract.extract ts_db ~table:probe_table ~since:0
      ~output:(Timestamp_extract.To_file "probe.ts.asc")
  in
  let ts_table_rows = Table.row_count (Db.table ts_db probe_table) in
  let ts_scan_per_row =
    float_of_int ts_stats.Timestamp_extract.scanned_rows
    /. Float.max 1.0 (float_of_int ts_table_rows)
  in
  (* snapshot probe: rows visited per table row for one diff round
     (dump now + re-read the previous snapshot) *)
  let snap_db = mk_probe_db cfg in
  let snap1 =
    Snapshot_extract.extract snap_db ~table:probe_table ~prev_snapshot:None
      ~snapshot_dest:"probe.snap.1" ~algorithm:Snapshot_extract.Sort_merge
  in
  (match snap1 with
   | Ok _ -> ()
   | Error e -> invalid_arg ("Planner.calibrate: snapshot baseline probe failed: " ^ e));
  exec_probe_txns snap_db mix.txn_stmts;
  (match
     Snapshot_extract.extract snap_db ~table:probe_table ~prev_snapshot:(Some "probe.snap.1")
       ~snapshot_dest:"probe.snap.2" ~algorithm:Snapshot_extract.Sort_merge
   with
   | Error e -> invalid_arg ("Planner.calibrate: snapshot diff probe failed: " ^ e)
   | Ok (_, snap_stats) ->
     let snap_table_rows = Table.row_count (Db.table snap_db probe_table) in
     let prev_rows = cfg.probe_rows in
     let snap_scan_per_row =
       float_of_int (snap_stats.Snapshot_extract.dumped_rows + prev_rows)
       /. Float.max 1.0 (float_of_int snap_table_rows)
     in
     {
       image_bytes;
       stmt_bytes;
       update_images;
       log_records_per_row;
       ts_scan_per_row;
       snap_scan_per_row;
       row_unit;
     })

let calibrate t =
  if t.coeffs = None then begin
    (match !session_coeffs with
     | Some c -> t.coeffs <- Some c
     | None ->
       let c = run_probes t.cfg in
       session_coeffs := Some c;
       t.coeffs <- Some c;
       Metrics.incr t.metrics "planner.calibrations");
    ()
  end

(* ---------- cost models ----------

   All costs are in work units (one unit ≈ one row visit), decomposed as
   extraction + wire + integration + latency/contention penalties, using
   the same per-method hooks the T7 scoring uses — the planner optimises
   the quantity the experiment measures. *)

let predict_with c cfg (o : observed) =
  let wire bytes = bytes *. cfg.byte_unit in
  let integrate = o.rows *. c.row_unit in
  let images =
    o.insert_rows +. o.delete_rows +. (c.update_images *. o.update_rows)
  in
  let ship_pen image_equiv = o.ship_p95_s *. cfg.ship_latency_weight *. image_equiv in
  let cost = function
    | Timestamp ->
      if o.delete_rows > 0.0 then infinity
      else
        let extract =
          Timestamp_extract.work_units
            ~table_rows:(int_of_float (c.ts_scan_per_row *. float_of_int o.table_rows))
            ~delta_rows:0
          +. o.rows
        in
        let bytes = o.rows *. c.image_bytes in
        extract +. wire bytes +. integrate +. ship_pen o.rows
    | Snapshot ->
      let extract =
        (c.snap_scan_per_row *. float_of_int o.table_rows) +. o.rows
      in
      let bytes = o.rows *. c.image_bytes in
      extract +. wire bytes +. integrate +. ship_pen o.rows
    | Trigger ->
      let extract = Trigger_extract.work_units ~images:0 +. images in
      let bytes = images *. c.image_bytes in
      let contention =
        o.lock_wait_p95_s *. cfg.contention_weight *. Trigger_extract.capture_units ~images:0
        +. (o.lock_wait_p95_s *. cfg.contention_weight *. images)
      in
      extract +. wire bytes +. integrate +. ship_pen images +. contention
    | Log ->
      if not o.log_available then infinity
      else
        (* the WAL reports exactly how many records the round retained
           (the log scan visits all of them, including other tables' and
           any capture overhead); the calibrated per-row estimate only
           covers rounds with no direct observation *)
        let records =
          if o.log_records > 0.0 then o.log_records else c.log_records_per_row *. o.rows
        in
        let extract =
          Log_extract.work_units ~log_records:(int_of_float records) ~delta_rows:0
          +. o.rows
        in
        let bytes = images *. c.image_bytes in
        extract +. wire bytes +. integrate +. ship_pen images
    | Op_delta ->
      let extract = Opdelta_capture.work_units ~statements:(int_of_float o.stmts) in
      let bytes = o.stmts *. c.stmt_bytes in
      extract +. wire bytes +. integrate +. ship_pen o.stmts
  in
  List.map (fun m -> (m, cost m)) all_methods

let predict t o =
  calibrate t;
  match t.coeffs with
  | Some c -> predict_with c t.cfg o
  | None -> assert false

let cost_of costs m = try List.assoc m costs with Not_found -> infinity

let record t d =
  t.decisions <- d :: t.decisions;
  if d.switched then begin
    t.switches <- t.switches + 1;
    Metrics.incr t.metrics "planner.switches"
  end;
  if d.scored then Metrics.incr t.metrics "planner.plans"
  else Metrics.incr t.metrics "planner.kept";
  List.iter
    (fun (m, cost) ->
      if cost < infinity then
        Metrics.set_gauge t.metrics ("planner.cost_" ^ method_name m) cost)
    d.costs;
  d

let plan t ~round o =
  calibrate t;
  let due =
    t.current = None || round - t.last_scored_round >= t.cfg.replan_interval
  in
  if not due then
    record t
      {
        round;
        chosen = Option.get t.current;
        previous = t.current;
        switched = false;
        scored = false;
        costs = t.last_costs;
        inputs = o;
        reason = "kept: replan interval not reached";
      }
  else begin
    let costs = predict t o in
    t.last_scored_round <- round;
    t.last_costs <- costs;
    let best, best_cost =
      List.fold_left
        (fun (bm, bc) (m, c) -> if c < bc then (m, c) else (bm, bc))
        (Op_delta, infinity) costs
    in
    let chosen, reason =
      match t.current with
      | None -> (best, Printf.sprintf "initial: %s %.1f units" (method_name best) best_cost)
      | Some cur ->
        let cur_cost = cost_of costs cur in
        if cur_cost = infinity then
          ( best,
            Printf.sprintf "forced off ineligible %s: %s %.1f units" (method_name cur)
              (method_name best) best_cost )
        else if best_cost < cur_cost *. (1.0 -. t.cfg.hysteresis_margin) then
          ( best,
            Printf.sprintf "switched: %s %.1f < %s %.1f x %.2f" (method_name best) best_cost
              (method_name cur) cur_cost
              (1.0 -. t.cfg.hysteresis_margin) )
        else
          ( cur,
            Printf.sprintf "kept %s %.1f (best %s %.1f within margin)" (method_name cur)
              cur_cost (method_name best) best_cost )
    in
    let previous = t.current in
    t.current <- Some chosen;
    record t
      {
        round;
        chosen;
        previous;
        switched = previous <> Some chosen;
        scored = true;
        costs;
        inputs = o;
        reason;
      }
end

let force t ~round m =
  let previous = t.current in
  t.current <- Some m;
  ignore
    (record t
       {
         round;
         chosen = m;
         previous;
         switched = previous <> Some m;
         scored = false;
         costs = t.last_costs;
         inputs =
           {
             table_rows = 0;
             rows = 0.0;
             stmts = 0.0;
             insert_rows = 0.0;
             update_rows = 0.0;
             delete_rows = 0.0;
             log_records = 0.0;
             lock_wait_p95_s = 0.0;
             ship_p95_s = 0.0;
             log_available = false;
           };
         reason = "forced: correctness fallback";
       }
      : decision)

(* ---------- warehouse-resident decision log ---------- *)

let log_table = "__planner_log"

let log_schema =
  Schema.make ~key_arity:2
    [
      { Schema.name = "src_table"; ty = Value.Tstring 40; nullable = false };
      { Schema.name = "round"; ty = Value.Tint; nullable = false };
      { Schema.name = "chosen"; ty = Value.Tstring 12; nullable = false };
      { Schema.name = "switched"; ty = Value.Tint; nullable = false };
      { Schema.name = "scored"; ty = Value.Tint; nullable = false };
      { Schema.name = "cost_timestamp"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "cost_snapshot"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "cost_trigger"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "cost_log"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "cost_op_delta"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "delta_rows"; ty = Value.Tfloat; nullable = false };
      { Schema.name = "table_rows"; ty = Value.Tint; nullable = false };
      { Schema.name = "reason"; ty = Value.Tstring 72; nullable = false };
    ]

let ensure_log_table db =
  match Db.table_opt db log_table with
  | Some _ -> ()
  | None -> ignore (Db.create_table db ~name:log_table log_schema : Table.t)

(* infinities cannot ride in a Tfloat column; store a sentinel *)
let ineligible_cost = -1.0
let encode_cost c = if c = infinity then ineligible_cost else c
let decode_cost c = if c = ineligible_cost then infinity else c

let clip n s = if String.length s <= n then s else String.sub s 0 n

let log_decision wh ~table d =
  let db = Warehouse.db wh in
  ensure_log_table db;
  let cost m = encode_cost (cost_of d.costs m) in
  let row =
    [|
      Value.Str (clip 40 table);
      Value.Int d.round;
      Value.Str (method_name d.chosen);
      Value.Int (if d.switched then 1 else 0);
      Value.Int (if d.scored then 1 else 0);
      Value.Float (cost Timestamp);
      Value.Float (cost Snapshot);
      Value.Float (cost Trigger);
      Value.Float (cost Log);
      Value.Float (cost Op_delta);
      Value.Float d.inputs.rows;
      Value.Int d.inputs.table_rows;
      Value.Str (clip 72 d.reason);
    |]
  in
  Db.with_txn db (fun txn -> Db.upsert_row db txn log_table row)

type log_row = {
  lr_table : string;
  lr_round : int;
  lr_chosen : string;
  lr_switched : bool;
  lr_scored : bool;
  lr_costs : (string * float) list;
  lr_rows : float;
  lr_table_rows : int;
  lr_reason : string;
}

let read_log wh ~table =
  let db = Warehouse.db wh in
  match Db.table_opt db log_table with
  | None -> []
  | Some _ ->
    let rows =
      Db.with_txn db (fun txn ->
          Db.select db txn log_table
            ~where:(Expr.Cmp (Expr.Eq, Expr.Col "src_table", Expr.Lit (Value.Str table)))
            ())
    in
    let decode = function
      | [|
          Value.Str lr_table;
          Value.Int lr_round;
          Value.Str lr_chosen;
          Value.Int switched;
          Value.Int scored;
          Value.Float c_ts;
          Value.Float c_snap;
          Value.Float c_trig;
          Value.Float c_log;
          Value.Float c_op;
          Value.Float lr_rows;
          Value.Int lr_table_rows;
          Value.Str lr_reason;
        |] ->
        {
          lr_table;
          lr_round;
          lr_chosen;
          lr_switched = switched = 1;
          lr_scored = scored = 1;
          lr_costs =
            [
              ("timestamp", decode_cost c_ts);
              ("snapshot", decode_cost c_snap);
              ("trigger", decode_cost c_trig);
              ("log", decode_cost c_log);
              ("op-delta", decode_cost c_op);
            ];
          lr_rows;
          lr_table_rows;
          lr_reason;
        }
      | _ -> invalid_arg "Planner.read_log: malformed __planner_log row"
    in
    List.sort (fun a b -> compare a.lr_round b.lr_round) (List.map decode rows)
