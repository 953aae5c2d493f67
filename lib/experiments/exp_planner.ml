(* T7 — cost-based planner vs static extraction methods under sustained
   load.

   Six identical sources run the identical Load_gen schedule (seeded,
   open-loop, virtual-time): three phases whose statement mix shifts the
   cheapest extraction method under the planner's feet — insert-heavy
   (many single-row statements), update-heavy (few wide range updates +
   deletes), scan-heavy (a DML trickle under read contention).  Five
   arms pin one static method each; the sixth runs the pipeline in
   `Planned` mode and lets Dw_etl.Planner re-choose every refresh round.

   Scoring is the planner's own objective, in deterministic work units:
   per round, extraction work (the per-method work_units hooks) + wire
   bytes x byte_unit + integration row ops.  No wall-clock anywhere, so
   the T7 gates in Bench_gate are CI-stable: the planned arm must end
   byte-identical to the source, cost at most 1.15x the best static arm
   overall, and stay strictly below the worst static arm in every phase.
   The timestamp arm is EXPECTED to diverge (the update-heavy phase
   deletes rows it can never see) — that divergence is itself gated, as
   is the planner never picking timestamp into it (eligibility).

   Emitted metrics (the t7.* keys gated by Bench_gate):
   - histogram loadgen.latency_ms (per-second p95 samples)
   - gauges    t7.units_<arm>, t7.units_<arm>_ph<n>, t7.planner_units,
               t7.best_static_units, t7.worst_static_units, t7.vs_best,
               t7.below_worst, t7.identical, t7.statics_identical,
               t7.timestamp_diverged, t7.switches, t7.fallbacks,
               t7.rounds, t7.offered, t7.admitted, t7.shed,
               t7.slo_breaches, t7.slo_attainment, t7.worst_p95_ms *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Value = Dw_relation.Value
module Metrics = Dw_util.Metrics
module Sim_clock = Dw_util.Sim_clock
module Workload = Dw_workload.Workload
module Load_gen = Dw_workload.Load_gen
module Snapshot_extract = Dw_core.Snapshot_extract
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline
module Planner = Dw_etl.Planner
open Bench_support

let phase_kinds = [ Load_gen.Insert_heavy; Load_gen.Update_heavy; Load_gen.Scan_heavy ]
let phase_count = List.length phase_kinds

let phase_index = function
  | Load_gen.Insert_heavy -> 0
  | Load_gen.Update_heavy -> 1
  | Load_gen.Scan_heavy -> 2

type arm_kind = { label : string; method_ : Pipeline.method_ }

let static_arms =
  [
    { label = "trigger"; method_ = Pipeline.Trigger };
    { label = "log"; method_ = Pipeline.Log };
    { label = "op-delta"; method_ = Pipeline.Op_delta_wrapper };
    { label = "snapshot"; method_ = Pipeline.Snapshot Snapshot_extract.Sort_merge };
    { label = "timestamp"; method_ = Pipeline.Timestamp };
  ]

let planned_arm = { label = "planned"; method_ = Pipeline.Planned }

(* arm-invariant schedule: the generator's queue model depends only on
   the op mix, never on the extraction method, so every arm admits the
   identical op sequence and the cost comparison is apples-to-apples *)
let lg_config ~rate ~seconds =
  {
    Load_gen.default_config with
    Load_gen.phases =
      List.map (fun kind -> { Load_gen.kind; rate; seconds }) phase_kinds;
  }

let exec_stmts db cap stmts =
  match cap with
  | Some cap -> (
      match Dw_core.Opdelta_capture.exec_txn cap stmts with
      | Ok _ -> ()
      | Error e -> failwith ("t7: captured transaction failed: " ^ e))
  | None ->
    exec_txn db stmts

let exec_op db cap lg op =
  match op with
  | Load_gen.Scan rows ->
    (* read-only range scan straight at the source engine: it drives the
       generator's contention signal, not the delta stream *)
    Db.with_txn db (fun txn ->
        ignore
          (Db.select db txn Workload.parts_table
             ~where:(Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int rows)))
             ()
            : Tuple.t list))
  | Load_gen.Dml _ -> exec_stmts db cap (Load_gen.stmts_of_op lg ~day:(Db.current_day db) op)

type arm_result = {
  a_label : string;
  phase_units : float array;
  total_units : float;
  identical : bool;
  rounds : int;
  switches : int;  (* planned arm only; 0 otherwise *)
  fallbacks : int;
  lg_summary : Load_gen.summary;
}

let run_arm metrics ~rows ~seed ~rate ~seconds ~ticks_per_round arm =
  let src = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:("t7_" ^ arm.label) () in
  ignore (Workload.create_parts_table src : Table.t);
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:("t7_wh_" ^ arm.label) () in
  Warehouse.add_replica wh ~table:Workload.parts_table ~schema:Workload.parts_schema;
  let lock_wait = ref 0.0 in
  let signals () = { Pipeline.lock_wait_p95_s = !lock_wait; ship_p95_s = 0.0 } in
  let planner =
    match arm.method_ with
    | Pipeline.Planned -> Some (Planner.create ~metrics ())
    | _ -> None
  in
  let pipe =
    Pipeline.create ?planner ~signals ~source:src ~warehouse:wh ~table:Workload.parts_table
      ~method_:arm.method_ ~transport:Pipeline.Direct ()
  in
  let cap = Pipeline.capture pipe in
  (* initial load as logged transactions so every installed capture
     channel observes it, then one un-scored round ships it *)
  let chunk = 50 in
  let rec load first =
    if first <= rows then begin
      let size = min chunk (rows - first + 1) in
      exec_stmts src cap
        (Workload.insert_parts_txn ~seed ~first_id:first ~size ~day:(Db.current_day src) ());
      load (first + size)
    end
  in
  load 1;
  (match Pipeline.run_round pipe with
   | Ok _ -> ()
   | Error e -> failwith ("t7: initial-load round failed: " ^ e));
  let clock = Sim_clock.create () in
  let lg =
    Load_gen.create ~config:(lg_config ~rate ~seconds) ~metrics ~seed ~clock
      ~existing_ids:rows ()
  in
  let phase_units = Array.make phase_count 0.0 in
  let rounds = ref 0 in
  while not (Load_gen.finished lg) do
    Db.advance_day src;
    let phase = ref 0 in
    for _ = 1 to ticks_per_round do
      let ts = Load_gen.tick lg in
      lock_wait := ts.Load_gen.lock_wait_p95_s;
      phase := phase_index ts.Load_gen.phase;
      List.iter (exec_op src cap lg) ts.Load_gen.ops
    done;
    match Pipeline.run_round pipe with
    | Error e -> failwith ("t7: refresh round failed: " ^ e)
    | Ok stats ->
      incr rounds;
      let units =
        stats.Pipeline.extract_units
        +. (Planner.byte_unit *. float_of_int stats.Pipeline.shipped_bytes)
        +. float_of_int stats.Pipeline.integration.Warehouse.row_ops
      in
      phase_units.(!phase) <- phase_units.(!phase) +. units
  done;
  let identical =
    sorted_rows src Workload.parts_table = sorted_rows (Warehouse.db wh) Workload.parts_table
  in
  {
    a_label = arm.label;
    phase_units;
    total_units = Array.fold_left ( +. ) 0.0 phase_units;
    identical;
    rounds = !rounds;
    switches = (match planner with Some p -> Planner.switches p | None -> 0);
    fallbacks = Pipeline.fallbacks pipe;
    lg_summary = Load_gen.summary lg;
  }

let gauge_label label = String.map (function '-' -> '_' | c -> c) label

let run_t7 ~scale =
  section "T7: cost-based planner vs static methods under sustained load";
  let rows = scaled 1_500 ~scale in
  let seed = 2007 in
  let rate = 40 in
  let seconds = if is_quick () then 8 else 30 in
  let ticks_per_round = if is_quick () then 2 else 3 in
  let metrics = Metrics.create () in
  let run = run_arm metrics ~rows ~seed ~rate ~seconds ~ticks_per_round in
  let planned = run planned_arm in
  let statics = List.map run static_arms in
  let all = planned :: statics in
  List.iter
    (fun a ->
      let l = gauge_label a.a_label in
      Metrics.set_gauge metrics (Printf.sprintf "t7.units_%s" l) a.total_units;
      Array.iteri
        (fun i u -> Metrics.set_gauge metrics (Printf.sprintf "t7.units_%s_ph%d" l (i + 1)) u)
        a.phase_units)
    all;
  let best = List.fold_left (fun acc a -> Float.min acc a.total_units) infinity statics in
  let worst = List.fold_left (fun acc a -> Float.max acc a.total_units) 0.0 statics in
  let vs_best = planned.total_units /. best in
  let below_worst =
    List.for_all
      (fun i ->
        let worst_ph =
          List.fold_left (fun acc a -> Float.max acc a.phase_units.(i)) 0.0 statics
        in
        planned.phase_units.(i) < worst_ph)
      (List.init phase_count Fun.id)
  in
  let statics_identical =
    List.for_all (fun a -> a.a_label = "timestamp" || a.identical) statics
  in
  let ts_arm = List.find (fun a -> a.a_label = "timestamp") statics in
  let s = planned.lg_summary in
  Metrics.set_gauge metrics "t7.planner_units" planned.total_units;
  Metrics.set_gauge metrics "t7.best_static_units" best;
  Metrics.set_gauge metrics "t7.worst_static_units" worst;
  Metrics.set_gauge metrics "t7.vs_best" vs_best;
  Metrics.set_gauge metrics "t7.below_worst" (if below_worst then 1.0 else 0.0);
  Metrics.set_gauge metrics "t7.identical" (if planned.identical then 1.0 else 0.0);
  Metrics.set_gauge metrics "t7.statics_identical" (if statics_identical then 1.0 else 0.0);
  Metrics.set_gauge metrics "t7.timestamp_diverged" (if ts_arm.identical then 0.0 else 1.0);
  Metrics.set_gauge metrics "t7.switches" (float_of_int planned.switches);
  Metrics.set_gauge metrics "t7.fallbacks" (float_of_int planned.fallbacks);
  Metrics.set_gauge metrics "t7.rounds" (float_of_int planned.rounds);
  Metrics.set_gauge metrics "t7.offered" (float_of_int s.Load_gen.total_offered);
  Metrics.set_gauge metrics "t7.admitted" (float_of_int s.Load_gen.total_admitted);
  Metrics.set_gauge metrics "t7.shed" (float_of_int s.Load_gen.total_shed);
  Metrics.set_gauge metrics "t7.slo_breaches" (float_of_int s.Load_gen.slo_breaches);
  Metrics.set_gauge metrics "t7.slo_attainment" s.Load_gen.slo_attainment;
  Metrics.set_gauge metrics "t7.worst_p95_ms" s.Load_gen.worst_p95_ms;
  print_table
    ~title:
      (Printf.sprintf
         "%d-row source, %d op/s open loop, 3 phases x %ds, refresh every %d virtual s \
          (work units: extraction + %.2f/wire-byte + integration row ops)"
         rows rate seconds ticks_per_round Planner.byte_unit)
    ~header:
      ([ "arm"; "total units" ]
      @ List.map (fun k -> Load_gen.phase_name k) phase_kinds
      @ [ "identical" ])
    ~rows:
      (List.map
         (fun a ->
           [
             a.a_label;
             Printf.sprintf "%.0f" a.total_units;
             Printf.sprintf "%.0f" a.phase_units.(0);
             Printf.sprintf "%.0f" a.phase_units.(1);
             Printf.sprintf "%.0f" a.phase_units.(2);
             (if a.identical then "yes" else if a.a_label = "timestamp" then "no (expected)" else "NO");
           ])
         all);
  Printf.printf
    "planner: %.0f units vs best static %.0f (%.2fx), worst %.0f; %d switches, %d \
     correctness fallbacks over %d rounds\n\
     load: %d offered, %d admitted, %d shed by the AIMD valve; SLO attainment %.0f%% \
     (worst p95 %.0f ms)\n\
     shape check: the planner tracks the per-phase winner as the mix shifts, so its total \
     sits at the static methods' lower envelope — no single static arm can do that across \
     all three phases\n"
    planned.total_units best vs_best worst planned.switches planned.fallbacks planned.rounds
    s.Load_gen.total_offered s.Load_gen.total_admitted s.Load_gen.total_shed
    (100.0 *. s.Load_gen.slo_attainment)
    s.Load_gen.worst_p95_ms
