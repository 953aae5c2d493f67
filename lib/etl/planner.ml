module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Timestamp_extract = Dw_core.Timestamp_extract
module Snapshot_extract = Dw_core.Snapshot_extract
module Trigger_extract = Dw_core.Trigger_extract
module Log_extract = Dw_core.Log_extract
module Opdelta_capture = Dw_core.Opdelta_capture
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
  image_bytes : float;
  stmt_bytes : float;
}

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

let byte_unit = 0.01
let contention_weight = 50.0
let ship_latency_weight = 10.0
let hysteresis_margin = 0.2

type t = {
  metrics : Metrics.t;
  mutable current : method_ option;
  mutable last_costs : (method_ * float) list;
  mutable decisions : decision list;
  mutable switches : int;
}

let create ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { metrics; current = None; last_costs = []; decisions = []; switches = 0 }

let decisions t = List.rev t.decisions
let switches t = t.switches

(* ---------- cost models ----------

   All costs are in work units (one unit ≈ one row visit), decomposed as
   extraction + wire + integration + latency/contention penalties, using
   the same per-method hooks the T7 scoring uses — the planner optimises
   the quantity the experiment measures.  Each changed row costs one
   integration row op; a trigger logs an update as two images. *)

let predict (o : observed) =
  let wire bytes = bytes *. byte_unit in
  let integrate = o.rows in
  let images = o.insert_rows +. o.delete_rows +. (2.0 *. o.update_rows) in
  let ship_pen image_equiv = o.ship_p95_s *. ship_latency_weight *. image_equiv in
  let cost = function
    | Timestamp ->
      if o.delete_rows > 0.0 then infinity
      else
        let extract =
          Timestamp_extract.work_units ~table_rows:o.table_rows ~delta_rows:0 +. o.rows
        in
        extract +. wire (o.rows *. o.image_bytes) +. integrate +. ship_pen o.rows
    | Snapshot ->
      let extract = Snapshot_extract.work_units ~table_rows:o.table_rows ~delta_rows:0 +. o.rows in
      extract +. wire (o.rows *. o.image_bytes) +. integrate +. ship_pen o.rows
    | Trigger ->
      let extract = Trigger_extract.work_units ~images:0 +. images in
      let contention =
        o.lock_wait_p95_s *. contention_weight *. Trigger_extract.capture_units ~images:0
        +. (o.lock_wait_p95_s *. contention_weight *. images)
      in
      extract +. wire (images *. o.image_bytes) +. integrate +. ship_pen images +. contention
    | Log ->
      if not o.log_available then infinity
      else
        (* the log scan visits every record the round retained, other
           tables' and capture overhead included *)
        let extract =
          Log_extract.work_units ~log_records:(int_of_float o.log_records) ~delta_rows:0
          +. o.rows
        in
        extract +. wire (images *. o.image_bytes) +. integrate +. ship_pen images
    | Op_delta ->
      let extract = Opdelta_capture.work_units ~statements:(int_of_float o.stmts) in
      extract +. wire (o.stmts *. o.stmt_bytes) +. integrate +. ship_pen o.stmts
  in
  List.map (fun m -> (m, cost m)) all_methods

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
  let costs = predict o in
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
      else if best_cost < cur_cost *. (1.0 -. hysteresis_margin) then
        ( best,
          Printf.sprintf "switched: %s %.1f < %s %.1f x %.2f" (method_name best) best_cost
            (method_name cur) cur_cost (1.0 -. hysteresis_margin) )
      else
        ( cur,
          Printf.sprintf "kept %s %.1f (best %s %.1f within margin)" (method_name cur) cur_cost
            (method_name best) best_cost )
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
             image_bytes = 0.0;
             stmt_bytes = 0.0;
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
  Db.with_txn db (fun txn ->
      ignore (Db.insert_row ~upsert:true db txn log_table row : Dw_storage.Heap_file.rid))

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
