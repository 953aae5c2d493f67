(* Tests for the cost-based extraction-method planner and its harness:
   per-method cost-model monotonicity in each model's dominant input,
   eligibility (timestamp vs deletes, log vs archiving), hysteresis
   convergence/no-flap qcheck properties, the __planner_log audit table,
   the `Planned pipeline end-to-end, the open-loop load generator
   (determinism, conservation, AIMD shedding), and the bench gate table. *)

module Vfs = Dw_storage.Vfs
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Load_gen = Dw_workload.Load_gen
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline
module Planner = Dw_etl.Planner
module Bench_gate = Dw_experiments.Bench_gate
module Json = Dw_util.Json
module Sim_clock = Dw_util.Sim_clock
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------------- cost models ---------------- *)

(* a moderate mixed workload every monotonicity test perturbs one axis of *)
let base_obs =
  {
    Planner.table_rows = 1_000;
    rows = 50.0;
    stmts = 12.0;
    insert_rows = 20.0;
    update_rows = 20.0;
    delete_rows = 10.0;
    log_records = 60.0;
    lock_wait_p95_s = 0.0;
    ship_p95_s = 0.0;
    log_available = true;
    image_bytes = 60.0;
    stmt_bytes = 50.0;
  }

let cost m obs = List.assoc m (Planner.predict obs)

let monotone name m lo hi =
  let c_lo = cost m lo and c_hi = cost m hi in
  if not (c_lo < c_hi && c_hi < infinity) then
    Alcotest.failf "%s: cost not strictly increasing (%g -> %g)" name c_lo c_hi

(* each model must grow in its dominant input with everything else fixed *)
let timestamp_monotone_in_table_rows () =
  let no_del = { base_obs with Planner.delete_rows = 0.0 } in
  monotone "timestamp/table_rows" Planner.Timestamp no_del
    { no_del with Planner.table_rows = 8_000 }

let snapshot_monotone_in_table_rows () =
  monotone "snapshot/table_rows" Planner.Snapshot base_obs
    { base_obs with Planner.table_rows = 8_000 }

let trigger_monotone_in_changed_rows () =
  monotone "trigger/rows" Planner.Trigger base_obs
    { base_obs with Planner.rows = 400.0; update_rows = 370.0 }

let trigger_monotone_in_lock_wait () =
  monotone "trigger/lock_wait" Planner.Trigger base_obs
    { base_obs with Planner.lock_wait_p95_s = 0.5 }

let log_monotone_in_log_records () =
  monotone "log/log_records" Planner.Log base_obs
    { base_obs with Planner.log_records = 2_000.0 }

let op_delta_monotone_in_stmts () =
  monotone "op-delta/stmts" Planner.Op_delta base_obs
    { base_obs with Planner.stmts = 300.0 }

let ship_latency_amplifies_wire_volume () =
  (* the trigger method ships per-image; a slow queue must make it dearer *)
  monotone "trigger/ship_p95" Planner.Trigger base_obs
    { base_obs with Planner.ship_p95_s = 0.5 }

let eligibility () =
  check Alcotest.bool "timestamp priced out under deletes" true
    (cost Planner.Timestamp base_obs = infinity);
  check Alcotest.bool "timestamp eligible without deletes" true
    (cost Planner.Timestamp { base_obs with Planner.delete_rows = 0.0 } < infinity);
  check Alcotest.bool "log priced out without archiving" true
    (cost Planner.Log { base_obs with Planner.log_available = false } = infinity);
  check Alcotest.bool "log eligible with archiving" true
    (cost Planner.Log base_obs < infinity)

(* ---------------- hysteresis properties ---------------- *)

(* derive a random-but-fixed workload profile from one seed *)
let random_obs rng =
  let fi = float_of_int in
  let ins = fi (Prng.int rng 60) in
  let upd = fi (Prng.int rng 60) in
  let del = fi (Prng.int rng 20) in
  {
    Planner.table_rows = 200 + Prng.int rng 3_800;
    rows = ins +. upd +. del;
    stmts = Float.max 1.0 ((ins /. 3.0) +. (upd /. 6.0) +. (del /. 2.0));
    insert_rows = ins;
    update_rows = upd;
    delete_rows = del;
    log_records = (ins +. upd +. del) *. 1.2;
    lock_wait_p95_s = fi (Prng.int rng 10) /. 100.0;
    ship_p95_s = fi (Prng.int rng 10) /. 100.0;
    log_available = Prng.int rng 2 = 0;
    image_bytes = 60.0;
    stmt_bytes = 50.0;
  }

(* stationary workload: the planner adopts one method on the first round
   and never leaves it (the adoption itself is the single "switch") *)
let prop_stationary_converges =
  QCheck2.Test.make ~name:"planner converges under a stationary workload" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let obs = random_obs (Prng.create ~seed) in
      let p = Planner.create () in
      let chosen =
        List.init 15 (fun i -> (Planner.plan p ~round:(i + 1) obs).Planner.chosen)
      in
      let first = List.hd chosen in
      if not (List.for_all (fun c -> c = first) chosen) then
        QCheck2.Test.fail_reportf "seed %d: choice drifted under a stationary workload" seed;
      if Planner.switches p > 1 then
        QCheck2.Test.fail_reportf "seed %d: %d switches, expected <= 1 (the adoption)" seed
          (Planner.switches p);
      true)

(* one mix shift: at most one switch per shift, and no flapping inside
   either stationary phase *)
let prop_one_switch_per_shift =
  QCheck2.Test.make ~name:"planner flaps at most once per mix shift" ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (seed_a, seed_b) ->
      let obs_a = random_obs (Prng.create ~seed:seed_a) in
      let obs_b = random_obs (Prng.create ~seed:(seed_b + 7)) in
      let p = Planner.create () in
      for r = 1 to 10 do
        ignore (Planner.plan p ~round:r obs_a : Planner.decision)
      done;
      for r = 11 to 20 do
        ignore (Planner.plan p ~round:r obs_b : Planner.decision)
      done;
      if Planner.switches p > 2 then
        QCheck2.Test.fail_reportf "seeds %d/%d: %d switches across one shift, expected <= 2"
          seed_a seed_b (Planner.switches p);
      (* inside each phase, only its first round may switch *)
      List.iter
        (fun (d : Planner.decision) ->
          if d.Planner.switched && d.Planner.round <> 1 && d.Planner.round <> 11 then
            QCheck2.Test.fail_reportf "seeds %d/%d: flapped mid-phase at round %d" seed_a
              seed_b d.Planner.round)
        (Planner.decisions p);
      true)

(* ---------------- __planner_log ---------------- *)

let mk_warehouse () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:Workload.parts_table ~schema:Workload.parts_schema;
  wh

let planner_log_roundtrip () =
  let wh = mk_warehouse () in
  let p = Planner.create () in
  let d1 = Planner.plan p ~round:1 base_obs in
  let d2 = Planner.plan p ~round:2 { base_obs with Planner.rows = 80.0 } in
  Planner.log_decision wh ~table:"parts" d1;
  Planner.log_decision wh ~table:"parts" d1 (* same key: upsert, not dup *);
  Planner.log_decision wh ~table:"parts" d2;
  let rows = Planner.read_log wh ~table:"parts" in
  check Alcotest.int "two audit rows" 2 (List.length rows);
  let r1 = List.hd rows in
  check Alcotest.int "round order" 1 r1.Planner.lr_round;
  check Alcotest.string "chosen method" (Planner.method_name d1.Planner.chosen)
    r1.Planner.lr_chosen;
  check Alcotest.int "all five costs logged" 5 (List.length r1.Planner.lr_costs);
  (* timestamp was ineligible (deletes observed): the -1 sentinel must
     decode back to infinity *)
  check Alcotest.bool "ineligible cost decodes to infinity" true
    (List.assoc "timestamp" r1.Planner.lr_costs = infinity);
  check Alcotest.bool "eligible costs decode finite" true
    (List.assoc "trigger" r1.Planner.lr_costs < infinity);
  check (Alcotest.float 1e-9) "observed delta rate logged" 50.0 r1.Planner.lr_rows;
  check Alcotest.int "no rows for other tables" 0
    (List.length (Planner.read_log wh ~table:"elsewhere"))

(* ---------------- `Planned pipeline end-to-end ---------------- *)

let sorted_rows db =
  let rows = ref [] in
  Table.scan (Db.table db Workload.parts_table) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let planned_pipeline_converges () =
  let src = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  ignore (Workload.create_parts_table src : Table.t);
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:Workload.parts_table
      ~method_:Pipeline.Planned ~transport:Pipeline.Direct ()
  in
  let cap =
    match Pipeline.capture pipe with
    | Some c -> c
    | None -> Alcotest.fail "Planned pipeline exposes no capture"
  in
  let exec stmts =
    match Dw_core.Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* logged initial load so every installed channel observes it *)
  Db.advance_day src;
  for chunk = 0 to 3 do
    exec
      (Workload.insert_parts_txn ~first_id:(1 + (chunk * 25)) ~size:25
         ~day:(Db.current_day src) ())
  done;
  (match Pipeline.run_round pipe with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let rng = Prng.create ~seed:11 in
  for round = 1 to 6 do
    Db.advance_day src;
    for i = 0 to 5 do
      (match Prng.int rng 3 with
       | 0 ->
         exec
           (Workload.insert_parts_txn
              ~first_id:(200 + (round * 40) + (i * 5))
              ~size:3 ~day:(Db.current_day src) ())
       | 1 -> exec [ Workload.update_parts_stmt ~first_id:(1 + Prng.int rng 60) ~size:4 ]
       | _ -> exec [ Workload.delete_parts_stmt ~first_id:(1 + Prng.int rng 60) ~size:2 ])
    done;
    match Pipeline.run_round pipe with
    | Ok stats ->
      check Alcotest.bool "extract units non-negative" true
        (stats.Pipeline.extract_units >= 0.0);
      check Alcotest.bool "method_used is a planner label" true
        (List.mem stats.Pipeline.method_used
           (List.map Planner.method_name Planner.all_methods))
    | Error e -> Alcotest.fail e
  done;
  let s = sorted_rows src and w = sorted_rows (Warehouse.db wh) in
  check Alcotest.int "row counts converge" (List.length s) (List.length w);
  check Alcotest.bool "contents converge" true (List.for_all2 Tuple.equal s w);
  (match Pipeline.planner pipe with
   | None -> Alcotest.fail "Planned pipeline exposes no planner"
   | Some p ->
     check Alcotest.int "one decision per round" 7 (List.length (Planner.decisions p)));
  check Alcotest.int "audit log covers every round" 7
    (List.length (Planner.read_log wh ~table:Workload.parts_table))

(* one Planned pipeline over the parts table with a captured day of
   inserts, a range update and a range delete, before its first round *)
let planned_first_round () =
  let src = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  ignore (Workload.create_parts_table src : Table.t);
  let wh = mk_warehouse () in
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table:Workload.parts_table
      ~method_:Pipeline.Planned ~transport:Pipeline.Direct ()
  in
  let cap = Option.get (Pipeline.capture pipe) in
  let exec stmts =
    match Dw_core.Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  Db.advance_day src;
  exec (Workload.insert_parts_txn ~first_id:1 ~size:30 ~day:(Db.current_day src) ());
  exec [ Workload.update_parts_stmt ~first_id:5 ~size:6 ];
  exec [ Workload.delete_parts_stmt ~first_id:20 ~size:3 ];
  (src, wh, pipe, cap)

let first_inputs pipe =
  match Pipeline.run_round pipe with
  | Error e -> Alcotest.fail e
  | Ok _ -> (
      match Planner.decisions (Option.get (Pipeline.planner pipe)) with
      | d :: _ -> d.Planner.inputs
      | [] -> Alcotest.fail "no decision recorded")

(* the first round's inputs are that round's own, unblended *)
let planned_log_records_are_records () =
  let src, wh, pipe, _ = planned_first_round () in
  let since_lsn = (Warehouse.mark wh Workload.parts_table).Warehouse.lsn in
  let _, stats = Dw_core.Log_extract.extract ~since_lsn src ~table:Workload.parts_table () in
  let inputs = first_inputs pipe in
  check (Alcotest.float 0.0) "log_records counts WAL records"
    (float_of_int stats.Dw_core.Log_extract.records_scanned)
    inputs.Planner.log_records

let planned_round_measures_wire_sizes () =
  let _, _, pipe, cap = planned_first_round () in
  let ods = Dw_core.Opdelta_capture.captured cap in
  let statements =
    List.fold_left (fun acc od -> acc + List.length od.Dw_core.Op_delta.ops) 0 ods
  in
  let inputs = first_inputs pipe in
  check (Alcotest.float 0.0) "image_bytes is the parts record size"
    (float_of_int (Dw_relation.Schema.record_size Workload.parts_schema))
    inputs.Planner.image_bytes;
  check (Alcotest.float 1e-9) "stmt_bytes is Op-Delta bytes per statement"
    (float_of_int (Dw_core.Opdelta_capture.captured_bytes cap) /. float_of_int statements)
    inputs.Planner.stmt_bytes

(* ---------------- load generator ---------------- *)

let small_lg_config =
  {
    Load_gen.default_config with
    Load_gen.phases =
      [
        { Load_gen.kind = Load_gen.Insert_heavy; rate = 30; seconds = 5 };
        { Load_gen.kind = Load_gen.Update_heavy; rate = 30; seconds = 5 };
        { Load_gen.kind = Load_gen.Scan_heavy; rate = 30; seconds = 5 };
      ];
  }

let drive cfg ~seed =
  let lg =
    Load_gen.create ~config:cfg ~seed ~clock:(Sim_clock.create ()) ~existing_ids:100 ()
  in
  let stats = ref [] in
  while not (Load_gen.finished lg) do
    stats := Load_gen.tick lg :: !stats
  done;
  (List.rev !stats, Load_gen.summary lg)

let load_gen_deterministic () =
  let s1, sum1 = drive small_lg_config ~seed:7 in
  let s2, sum2 = drive small_lg_config ~seed:7 in
  check Alcotest.bool "identical tick streams for one seed" true (s1 = s2);
  check Alcotest.bool "identical summaries for one seed" true (sum1 = sum2);
  let _, sum3 = drive small_lg_config ~seed:8 in
  check Alcotest.bool "different seed shifts the schedule" true (sum3 <> sum1)

let load_gen_conservation () =
  let stats, sum = drive small_lg_config ~seed:7 in
  check Alcotest.int "ticks cover every configured second" 15 sum.Load_gen.ticks;
  check Alcotest.int "offered = rate x seconds" (30 * 15) sum.Load_gen.total_offered;
  check Alcotest.int "offered = admitted + shed" sum.Load_gen.total_offered
    (sum.Load_gen.total_admitted + sum.Load_gen.total_shed);
  List.iter
    (fun (s : Load_gen.tick_stats) ->
      check Alcotest.int "per-tick conservation" s.Load_gen.offered
        (s.Load_gen.admitted + s.Load_gen.shed);
      check Alcotest.int "ops list matches admitted" s.Load_gen.admitted
        (List.length s.Load_gen.ops))
    stats

let load_gen_sheds_under_overload () =
  (* 30 op/s of 160-row scans is far past one server's capacity: the SLO
     must break and the AIMD valve must shed *)
  let _, sum = drive small_lg_config ~seed:7 in
  check Alcotest.bool "slo breached" true (sum.Load_gen.slo_breaches > 0);
  check Alcotest.bool "valve shed load" true (sum.Load_gen.total_shed > 0);
  check Alcotest.bool "worst p95 above slo" true
    (sum.Load_gen.worst_p95_ms > small_lg_config.Load_gen.slo_ms);
  check Alcotest.bool "attainment in (0,1)" true
    (sum.Load_gen.slo_attainment > 0.0 && sum.Load_gen.slo_attainment < 1.0)

let load_gen_insert_only_meets_slo () =
  let cfg =
    {
      small_lg_config with
      Load_gen.phases = [ { Load_gen.kind = Load_gen.Insert_heavy; rate = 20; seconds = 6 } ];
    }
  in
  let _, sum = drive cfg ~seed:3 in
  check Alcotest.int "nothing shed at a light offered rate" 0 sum.Load_gen.total_shed;
  check Alcotest.int "no breaches" 0 sum.Load_gen.slo_breaches;
  check (Alcotest.float 1e-9) "full attainment" 1.0 sum.Load_gen.slo_attainment

let load_gen_valve_resets_per_phase () =
  (* scan-heavy first so the valve collapses, then a phase change: the
     first tick of the next phase must re-admit the full target rate *)
  let cfg =
    {
      small_lg_config with
      Load_gen.phases =
        [
          { Load_gen.kind = Load_gen.Scan_heavy; rate = 30; seconds = 5 };
          { Load_gen.kind = Load_gen.Insert_heavy; rate = 30; seconds = 5 };
        ];
    }
  in
  let stats, _ = drive cfg ~seed:7 in
  let t5 = List.nth stats 4 and t6 = List.nth stats 5 in
  check Alcotest.bool "valve collapsed under scans" true (t5.Load_gen.admitted < 30);
  check Alcotest.int "phase start re-admits the target rate" 30 t6.Load_gen.admitted;
  let lg =
    Load_gen.create ~config:cfg ~seed:7 ~clock:(Sim_clock.create ()) ~existing_ids:100 ()
  in
  check Alcotest.int "total_seconds sums the phases" 10 (Load_gen.total_seconds lg)

let load_gen_rejects_bad_config () =
  let expect_invalid f =
    try
      f ();
      Alcotest.fail "config accepted"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () ->
      Load_gen.validate_config { small_lg_config with Load_gen.phases = [] });
  expect_invalid (fun () ->
      Load_gen.validate_config { small_lg_config with Load_gen.slo_ms = 0.0 });
  expect_invalid (fun () ->
      Load_gen.validate_config { small_lg_config with Load_gen.aimd_decrease = 1.0 })

(* ---------------- bench gate ---------------- *)

(* the committed quick baseline: a complete document that must pass its
   own gate table *)
let baseline =
  lazy (match Json.of_string Baseline_doc.text with Ok doc -> doc | Error e -> failwith e)

let map_field name f = function
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) fields)
  | j -> j

let map_experiments f =
  map_field "experiments" (function Json.List es -> Json.List (List.filter_map f es) | j -> j)

(* [doc] with every gauge rewritten by [f key value]; [None] drops it *)
let map_gauges f =
  map_experiments (fun e ->
      Some
        (map_field "gauges"
           (function
             | Json.Obj gs ->
               Json.Obj
                 (List.filter_map
                    (fun (k, v) ->
                      Option.map (fun x -> (k, Json.Float x)) (f k (Option.get (Json.to_number v))))
                    gs)
             | j -> j)
           e))

let with_gauges overrides =
  map_gauges (fun k v -> Some (Option.value (List.assoc_opt k overrides) ~default:v))

let scale_gauges factor keys =
  map_gauges (fun k v -> Some (if List.mem k keys then v *. factor else v))

let without key = map_gauges (fun k v -> if k = key then None else Some v)
let with_quick q = map_field "quick" (fun _ -> Json.Bool q)

let gate ?baseline doc =
  match Bench_gate.check ?baseline doc with Ok r -> r | Error e -> Alcotest.fail e

let failed (r : Bench_gate.report) key =
  List.exists
    (fun (o : Bench_gate.outcome) -> o.row.key = key && o.failure <> None)
    r.outcomes

let value doc key =
  match Json.to_list (Option.get (Json.member "experiments" doc)) with
  | Some es ->
    List.find_map
      (fun e -> Option.bind (Json.member "gauges" e) (Json.member key))
      es
    |> Option.get |> Json.to_number |> Option.get
  | None -> Alcotest.fail "no experiments"

let keys_with p =
  List.filter_map
    (fun (row : Bench_gate.row) -> if p row then Some row.key else None)
    Bench_gate.table

let bench_compare_verdicts () =
  let base = Lazy.force baseline in
  check Alcotest.int "baseline passes the table" 0 (gate base).failures;
  let self = gate ~baseline:base base in
  check Alcotest.int "self-compare passes" 0 self.failures;
  check Alcotest.int "self-compare evaluates every row" (List.length Bench_gate.table)
    (List.length self.outcomes);
  (* any drift of an Exact key fails, relation or not *)
  List.iter
    (fun key ->
      let cand = with_gauges [ (key, value base key +. 1.0) ] base in
      check Alcotest.bool ("exact drift fails: " ^ key) true (failed (gate ~baseline:base cand) key))
    (keys_with (fun row -> row.drift = Some Bench_gate.Exact));
  let lower = keys_with (fun row -> match row.drift with Some (Lower_better _) -> true | _ -> false)
  and higher =
    keys_with (fun row -> match row.drift with Some (Higher_better _) -> true | _ -> false)
  in
  (* wall-clock improvements never fail *)
  let faster = base |> scale_gauges 0.1 lower |> scale_gauges 10.0 higher in
  check Alcotest.int "improvements never fail" 0 (gate ~baseline:base faster).failures;
  (* a collapse fails every band, with no multiplier to widen it *)
  let collapsed = scale_gauges 0.2 higher base in
  List.iter
    (fun key ->
      check Alcotest.bool ("throughput collapse fails: " ^ key) true
        (failed (gate ~baseline:base collapsed) key))
    higher;
  check Alcotest.bool "w5.olap_qps_d1 at 0.2x fails" true
    (failed (gate ~baseline:base collapsed) "w5.olap_qps_d1");
  let slower = scale_gauges 5.0 lower base in
  List.iter
    (fun key ->
      check Alcotest.bool ("window regression fails: " ^ key) true
        (failed (gate ~baseline:base slower) key))
    lower

let bench_compare_missing_and_modes () =
  let base = Lazy.force baseline in
  check Alcotest.bool "missing candidate key fails" true
    (failed (gate ~baseline:base (without "t7.vs_best" base)) "t7.vs_best");
  check Alcotest.bool "missing baseline key fails" true
    (failed (gate ~baseline:(without "t7.vs_best" base) base) "t7.vs_best");
  check Alcotest.bool "missing baseline key without a drift rule fails" true
    (failed (gate ~baseline:(without "w6.trips" base) base) "w6.trips");
  let no_w6 =
    map_experiments (fun e -> if Json.member "id" e = Some (Json.String "w6") then None else Some e)
  in
  check Alcotest.bool "a document without a gated experiment fails" true
    ((gate (no_w6 base)).failures > 0);
  check Alcotest.int "shape-only check ignores the table" 0
    (match Bench_gate.check ~strict:false (no_w6 base) with
     | Ok r -> r.failures
     | Error e -> Alcotest.fail e);
  let rejected what = function Error _ -> () | Ok _ -> Alcotest.fail (what ^ " accepted") in
  rejected "quick/full mismatch" (Bench_gate.check ~baseline:base (with_quick false base));
  rejected "malformed document" (Bench_gate.check (Json.Obj []));
  rejected "malformed baseline" (Bench_gate.check ~baseline:(Json.Obj []) base)

let bench_gate_relations () =
  let base = Lazy.force baseline in
  let fails ?(doc = base) overrides key = failed (gate (with_gauges overrides doc)) key in
  let g4 = value base "t5.fsync_per_txn_g4" in
  check Alcotest.bool "t5 g1/g4 = 2 fails" true
    (fails [ ("t5.fsync_per_txn_g1", 2.0 *. g4) ] "t5.fsync_per_txn_g1");
  check Alcotest.bool "snapshot lock wait fails" true
    (fails [ ("w3.lock_wait_count_snapshot", 1.0) ] "w3.lock_wait_count_snapshot");
  check Alcotest.bool "t7.vs_best = 1.2 fails" true (fails [ ("t7.vs_best", 1.2) ] "t7.vs_best");
  check Alcotest.bool "w5 speedup 1.5 passes a quick run" false
    (fails [ ("w5.speedup_d4", 1.5) ] "w5.speedup_d4");
  check Alcotest.bool "w5 speedup 1.5 fails a full run" true
    (fails ~doc:(with_quick false base) [ ("w5.speedup_d4", 1.5) ] "w5.speedup_d4");
  check Alcotest.bool "w1 update without fewer Op-Delta statements fails" true
    (fails
       [ ("w1.statements_op_update", value base "w1.statements_value_update") ]
       "w1.statements_op_update");
  (* every relation in the table rejects a value that violates it *)
  let full = with_quick false base in
  List.iter
    (fun (row : Bench_gate.row) ->
      List.iter
        (fun (r : Bench_gate.relation) ->
          let x =
            match r.rhs with Const x -> x | Times (f, key) -> f *. value base key
          in
          let bad = match r.cmp with Eq | Le -> x +. 1.0 | Lt | Gt -> x | Ge -> x -. 1.0 in
          check Alcotest.bool ("violated relation fails: " ^ row.key) true
            (fails ~doc:full [ (row.key, bad) ] row.key))
        row.relations)
    Bench_gate.table;
  (* one row per key, and every operand is itself a gated gauge *)
  let keys = List.map (fun (row : Bench_gate.row) -> row.key) Bench_gate.table in
  check Alcotest.int "each key once" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  List.iter
    (fun (row : Bench_gate.row) ->
      List.iter
        (fun (r : Bench_gate.relation) ->
          match r.rhs with
          | Times (_, key) ->
            check Alcotest.bool ("operand is a gauge row: " ^ key) true
              (List.mem key (keys_with (fun row -> row.kind = Gauge)))
          | Const _ -> ())
        row.relations)
    Bench_gate.table

(* ---------- experiment registry ---------- *)

module Registry = Dw_experiments.Registry

let registry_ids_unique_and_gated () =
  let ids = Registry.ids in
  check Alcotest.int "ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  check (Alcotest.list Alcotest.string) "every gated id is a registry id" []
    (Registry.unknown_ids Bench_gate.gated_ids);
  check (Alcotest.list Alcotest.string) "all selects every experiment" ids
    (List.map (fun x -> x.Registry.id) (Registry.select [ "all" ]));
  check (Alcotest.list Alcotest.string) "unknown ids are reported" [ "w2" ]
    (Registry.unknown_ids [ "t3"; "w2"; "all" ])

let suite =
  [
    test "timestamp cost monotone in table size" timestamp_monotone_in_table_rows;
    test "snapshot cost monotone in table size" snapshot_monotone_in_table_rows;
    test "trigger cost monotone in changed rows" trigger_monotone_in_changed_rows;
    test "trigger cost monotone in lock-wait p95" trigger_monotone_in_lock_wait;
    test "log cost monotone in log records" log_monotone_in_log_records;
    test "op-delta cost monotone in statements" op_delta_monotone_in_stmts;
    test "ship latency amplifies wire volume" ship_latency_amplifies_wire_volume;
    test "eligibility encodes correctness" eligibility;
    QCheck_alcotest.to_alcotest prop_stationary_converges;
    QCheck_alcotest.to_alcotest prop_one_switch_per_shift;
    test "__planner_log roundtrip" planner_log_roundtrip;
    test "planned pipeline converges end-to-end" planned_pipeline_converges;
    test "planned round counts WAL records, not bytes" planned_log_records_are_records;
    test "planned round measures image and statement bytes" planned_round_measures_wire_sizes;
    test "load gen is deterministic per seed" load_gen_deterministic;
    test "load gen conserves offered ops" load_gen_conservation;
    test "load gen sheds under overload" load_gen_sheds_under_overload;
    test "load gen meets slo at light load" load_gen_insert_only_meets_slo;
    test "load gen valve resets per phase" load_gen_valve_resets_per_phase;
    test "load gen rejects bad configs" load_gen_rejects_bad_config;
    test "bench compare verdicts" bench_compare_verdicts;
    test "bench compare missing keys and modes" bench_compare_missing_and_modes;
    test "bench gate relations" bench_gate_relations;
    test "registry ids unique, gated ids registered" registry_ids_unique_and_gated;
  ]
