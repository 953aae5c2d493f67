(* W6 — fleet under a flapping shard: circuit breakers, degraded reads,
   online rebuild.

   The partitioned fleet (3 range shards over the PARTS workload) is
   refreshed round by round from a live source through Op-Delta capture
   while one shard's device runs a sustained crash-flap schedule
   (Vfs.Fault.Crash_flap).  The scenario walks the whole health state
   machine deterministically:

   - phase 1 (baseline): fault-free rounds, every shard applies;
   - phase 2 (flap + self-heal): the shard fail-stops once, consecutive
     failures trip its breaker, the fleet keeps refreshing the healthy
     shards and answering `Degraded reads; after the dwell (on the
     fleet's Sim_clock) a half-open probe revives + reopens the shard,
     its cumulative bucket catches it up, the breaker closes;
   - phase 3 (terminal flap): the schedule turns permanently ON, the
     shard re-trips and every probe fails — degraded reads keep
     answering with an explicit coverage gap and growing staleness,
     `Fail_closed raises Unhealthy;
   - phase 4 (rebuild): Dw_etl.Rebuild bootstraps the quarantined
     shard's partition slice from the live source (source keeps
     committing mid-rebuild via the bootstrap hook) and re-admits it at
     a caught-up watermark;
   - phase 5 (converged): one more round brings every shard to the same
     watermark and the merged state must be byte-identical to a
     monolithic warehouse fed the same captured stream — and to the
     live source itself.

   Emitted metrics (the w6.* keys gated by Bench_gate):
   - gauges  w6.identical, w6.converged_with_source, w6.trips,
             w6.probes, w6.probe_failures, w6.recovered, w6.rebuilds,
             w6.readmitted, w6.degraded_reads, w6.fleet_stalls,
             w6.fail_closed_raised, w6.staleness_txns, w6.recovery_s,
             w6.delta_txns, w6.rebuild_rows *)

module Vfs = Dw_storage.Vfs
module Fault = Vfs.Fault
module Db = Dw_engine.Db
module Metrics = Dw_util.Metrics
module Sim_clock = Dw_util.Sim_clock
module Breaker = Dw_util.Breaker
module Domain_pool = Dw_util.Domain_pool
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Opdelta_capture = Dw_core.Opdelta_capture
module Warehouse = Dw_warehouse.Warehouse
module Partitioned = Dw_warehouse.Partitioned
module Stage = Dw_etl.Stage
module Bootstrap = Dw_etl.Bootstrap
module Rebuild = Dw_etl.Rebuild
module P = Exp_partition

let update_size = 4

(* shard [s]'s key slice under Exp_partition.range_spec's ceil-spaced
   bounds: [lo, hi) *)
let slice_bounds ~id_space ~parts s =
  let bound i = 1 + ((id_space * i) + parts - 1) / parts in
  let lo = if s = 0 then 1 else bound s in
  let hi = if s = parts - 1 then id_space + 1 else bound (s + 1) in
  (lo, hi)

type env = {
  src : Db.t;
  cap : Opdelta_capture.t;
  fleet : Partitioned.t;
  hm : Metrics.t;  (* fleet health registry, on [sim] *)
  sim : Sim_clock.t;
  spec : Dw_warehouse.Partition.t;
  parts : int;
  rows : int;
  id_space : int;
  seed : int;
  mutable round : int;  (* committed source rounds so far *)
}

(* one source round: an in-slice contiguous-range update per shard (so
   every shard's bucket is non-empty every round) plus a periodic small
   delete — all fact-table traffic, as the rebuild path requires *)
let commit_round env =
  let r = env.round in
  env.round <- r + 1;
  let exec stmts =
    match Opdelta_capture.exec_txn env.cap stmts with
    | Ok _ -> ()
    | Error e -> failwith ("w6: source commit failed: " ^ e)
  in
  for s = 0 to env.parts - 1 do
    let lo, hi = slice_bounds ~id_space:env.id_space ~parts:env.parts s in
    let span = max 1 (hi - lo - update_size) in
    let first_id = lo + (((r * 7) + (s * 13)) mod span) in
    exec [ Workload.update_parts_stmt ~first_id ~size:update_size ]
  done;
  if r mod 3 = 2 then begin
    let s = r / 3 mod env.parts in
    let lo, hi = slice_bounds ~id_space:env.id_space ~parts:env.parts s in
    let first_id = lo + ((r * 11) mod (max 1 (hi - lo - 2))) in
    exec [ Workload.delete_parts_stmt ~first_id ~size:2 ]
  end

let captured_ods env =
  match Opdelta_capture.read_sink env.cap with
  | Ok ods -> ods
  | Error e -> failwith ("w6: op-delta sink decode failed: " ^ e)

(* cumulative staged buckets: the per-shard watermark filter keeps
   redelivery exactly-once, and a shard coming back from quarantine or
   rebuild catches up from the same array *)
let staged env = fst (Stage.split ~spec:env.spec (captured_ods env))

let refresh env =
  let buckets = staged env in
  Domain_pool.with_pool ~domains:env.parts (fun pool ->
      ignore (Partitioned.refresh ~pool env.fleet buckets : Warehouse.stats))

let refresh_round env =
  refresh env;
  Sim_clock.advance env.sim 10

let counter reg name =
  match List.assoc_opt name (Metrics.snapshot reg) with Some v -> v | None -> 0

let mk_env ?(health = Partitioned.default_health_config) ~rows ~parts ~seed () =
  let id_space = rows in
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"w6_src" () in
  let _ = Workload.create_parts_table src in
  (* pin the source calendar to day 0 so the loaded rows match the
     replica/reference load (parts_rows generates at day 0) and the run
     does not depend on the wall clock *)
  Db.set_day src 0;
  Workload.load_parts ~seed src ~rows ();
  let cap =
    Opdelta_capture.create ~capture_images:true src ~sink:(Opdelta_capture.To_file "w6.oplog")
  in
  let hm = Metrics.create () in
  let sim = Sim_clock.create () in
  Metrics.use_sim_clock hm sim;
  let spec = P.range_spec ~id_space ~parts in
  let fleet =
    Partitioned.create ~pool_pages:64 ~health ~metrics:hm ~spec ~name:"w6" ()
  in
  Partitioned.add_replica fleet ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica fleet ~table:"parts" (Bench_support.parts_rows ~seed rows);
  Partitioned.define_view fleet P.spj_view;
  Partitioned.define_agg_view fleet P.agg_view;
  (* the initial load is bulk-unlogged: checkpoint before any fault plan
     is armed, or a crash would lose pages recovery has no records for *)
  P.checkpoint_shards fleet;
  { src; cap; fleet; hm; sim; spec; parts; rows; id_space; seed; round = 0 }

(* a flap schedule that fires exactly once: the first durability event
   after arming crashes the shard, and the next ON phase is [period_off]
   events away — far beyond anything the scenario writes *)
let one_shot_flap =
  Fault.Crash_flap
    {
      window = { Fault.from_event = 0; until_event = max_int };
      period_on = 1;
      period_off = 100_000;
    }

(* permanently dead: every event is an ON phase, so revive-and-reopen
   probes crash again on their first recovery write *)
let terminal_flap =
  Fault.Crash_flap
    { window = { Fault.from_event = 0; until_event = max_int }; period_on = 1; period_off = 0 }

(* degraded-policy read of everything the fleet serves; returns
   (answered, skipped shard count, staleness in source txns) *)
let degraded_read env =
  match Partitioned.replica_rows_checked ~policy:`Degraded env.fleet "parts" with
  | exception Partitioned.Unhealthy _ -> (false, 0, 0)
  | rows, cov ->
    let _ = Partitioned.view_rows_checked ~policy:`Degraded env.fleet "big_qty" in
    let _ = Partitioned.agg_view_rows_checked ~policy:`Degraded env.fleet "qty_band_stats" in
    if rows = [] then failwith "w6: degraded read returned no rows";
    let stale =
      List.fold_left
        (fun acc (i, _) -> max acc (cov.Partitioned.max_watermark - cov.Partitioned.watermarks.(i)))
        0 cov.Partitioned.skipped
    in
    (true, List.length cov.Partitioned.skipped, stale)

let run_bench ~scale =
  Bench_support.section "W6: fleet under a flapping shard (breakers, degraded reads, rebuild)";
  let rows = Bench_support.scaled 600 ~scale in
  let parts = 3 in
  let flappy = 1 in
  let seed = 4242 in
  let health =
    {
      Partitioned.breaker =
        {
          Breaker.failure_threshold = 2;
          reset_timeout_s = 4.0;
          probe_successes = 1;
          max_reset_timeout_s = 64.0;
          seed = 29;
        };
      max_retries = 1;
      refresh_timeout_s = infinity;
    }
  in
  let env = mk_env ~health ~rows ~parts ~seed () in
  let vfss = Partitioned.vfss env.fleet in
  let degraded_rounds = ref 0 in
  let stalls = ref 0 in
  let staleness_max = ref 0 in
  let observe_reads () =
    let answered, skipped, stale = degraded_read env in
    if not answered then incr stalls;
    if skipped > 0 then incr degraded_rounds;
    staleness_max := max !staleness_max stale
  in
  let one_round () =
    commit_round env;
    refresh_round env;
    observe_reads ()
  in
  (* phase 1: two fault-free rounds *)
  one_round ();
  one_round ();
  if Partitioned.healths env.fleet <> Array.make parts Partitioned.Healthy then
    failwith "w6: fleet not healthy after fault-free rounds";
  (* phase 2: one-shot flap — trip, dwell, half-open probe, self-heal *)
  Vfs.set_fault vfss.(flappy) (Some (Fault.make ~sustained:[ one_shot_flap ] ~seed ()));
  let deadline = ref 10 in
  while
    not
      (Partitioned.shard_health env.fleet flappy = Partitioned.Healthy
      && counter env.hm "breaker.trips" >= 1)
    && !deadline > 0
  do
    decr deadline;
    one_round ()
  done;
  if !deadline = 0 then failwith "w6: flapped shard did not self-heal through a probe";
  let healed_trips = counter env.hm "breaker.trips" in
  if counter env.hm "health.recovered" < 1 then
    failwith "w6: probe heal not counted under health.recovered";
  (* phase 3: terminal flap — re-trip, probes keep failing *)
  Vfs.set_fault vfss.(flappy) (Some (Fault.make ~sustained:[ terminal_flap ] ~seed ()));
  let quarantined_at = ref (-1.0) in
  let deadline = ref 12 in
  while
    not
      (Partitioned.shard_health env.fleet flappy = Partitioned.Quarantined
      && counter env.hm "breaker.probe_failures" >= 1)
    && !deadline > 0
  do
    decr deadline;
    one_round ();
    if !quarantined_at < 0.0 && Partitioned.shard_health env.fleet flappy = Partitioned.Quarantined
    then quarantined_at := Metrics.now env.hm
  done;
  if !deadline = 0 then failwith "w6: terminal flap did not quarantine the shard";
  let fail_closed_raised =
    match Partitioned.replica_rows_checked ~policy:`Fail_closed env.fleet "parts" with
    | _ -> false
    | exception Partitioned.Unhealthy _ -> true
  in
  if not fail_closed_raised then failwith "w6: `Fail_closed read served around a quarantined shard";
  if !degraded_rounds < 1 then failwith "w6: no degraded read round observed";
  if !stalls > 0 then failwith "w6: a degraded read stalled (raised Unhealthy)";
  (* phase 4: rebuild the quarantined shard online from the live source *)
  let hook = function
    | Bootstrap.Window_open 0 -> commit_round env (* live writes mid-rebuild *)
    | _ -> ()
  in
  let outcome =
    match
      Rebuild.rebuild_shard
        ~config:{ Bootstrap.default_config with chunk_max = 64; chunk_min = 8; seed }
        ~hook ~owner:"w6" ~source:env.src ~capture:env.cap ~fleet:env.fleet
        ~shard:flappy ()
    with
    | Ok o -> o
    | Error (Bootstrap.Lease_held _) -> failwith "w6: rebuild lease refused"
    | Error (Bootstrap.Failed e) -> failwith ("w6: rebuild failed: " ^ e)
  in
  if not outcome.Rebuild.progress.Bootstrap.complete then
    failwith "w6: rebuild bootstrap did not reach its consistent snapshot";
  if Partitioned.shard_health env.fleet flappy <> Partitioned.Healthy then
    failwith "w6: rebuilt shard not re-admitted as healthy";
  let recovery_s =
    if !quarantined_at < 0.0 then 0.0 else Metrics.now env.hm -. !quarantined_at
  in
  (* phase 5: one more round; every shard converges to the same watermark
     and the merged state matches the sequential integrator + the source *)
  commit_round env;
  refresh_round env;
  observe_reads ();
  if Partitioned.healths env.fleet <> Array.make parts Partitioned.Healthy then
    failwith "w6: fleet not fully healthy after rebuild";
  (* every shard must have applied through its own bucket's last
     transaction (the rebuilt shard may sit ahead: readmission pinned it
     at the fleet-wide capture watermark) *)
  let wms = Partitioned.watermarks env.fleet in
  let buckets = staged env in
  Array.iteri
    (fun i bucket ->
      let want = List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 bucket in
      if wms.(i) < want then
        failwith
          (Printf.sprintf "w6: shard %d watermark %d short of its bucket's last txn %d" i
             wms.(i) want))
    buckets;
  let ods = captured_ods env in
  let reference = P.mk_reference ~rows ~seed in
  ignore (Warehouse.integrate_op_deltas reference ods : Warehouse.stats);
  let identical = P.matches_reference (P.reference_state reference) env.fleet in
  let converged =
    Bench_support.sorted_rows env.src Workload.parts_table
    = Partitioned.replica_rows env.fleet "parts"
  in
  let m = Metrics.create () in
  let flag b = if b then 1.0 else 0.0 in
  let ctr name = float_of_int (counter env.hm name) in
  Metrics.set_gauge m "w6.identical" (flag identical);
  Metrics.set_gauge m "w6.converged_with_source" (flag converged);
  Metrics.set_gauge m "w6.trips" (ctr "breaker.trips");
  Metrics.set_gauge m "w6.probes" (ctr "breaker.probes");
  Metrics.set_gauge m "w6.probe_failures" (ctr "breaker.probe_failures");
  Metrics.set_gauge m "w6.recovered" (ctr "health.recovered");
  Metrics.set_gauge m "w6.rebuilds" (ctr "health.rebuilds");
  Metrics.set_gauge m "w6.readmitted" (ctr "health.readmitted");
  Metrics.set_gauge m "w6.degraded_reads" (float_of_int !degraded_rounds);
  Metrics.set_gauge m "w6.fleet_stalls" (float_of_int !stalls);
  Metrics.set_gauge m "w6.fail_closed_raised" (flag fail_closed_raised);
  Metrics.set_gauge m "w6.staleness_txns" (float_of_int !staleness_max);
  Metrics.set_gauge m "w6.recovery_s" recovery_s;
  Metrics.set_gauge m "w6.delta_txns" (float_of_int (List.length ods));
  Metrics.set_gauge m "w6.rebuild_rows"
    (float_of_int outcome.Rebuild.progress.Bootstrap.rows_loaded);
  Bench_support.print_table
    ~title:
      (Printf.sprintf
         "%d rows over %d range shards, shard %d flapping (breaker: trip at 2, dwell 4 s on \
          the fleet sim-clock)"
         rows parts flappy)
    ~header:
      [ "delta txns"; "trips"; "probes"; "probe fails"; "degraded reads"; "stalls";
        "max staleness"; "rebuild rows"; "recovery" ]
    ~rows:
      [
        [
          string_of_int (List.length ods);
          string_of_int (counter env.hm "breaker.trips");
          string_of_int (counter env.hm "breaker.probes");
          string_of_int (counter env.hm "breaker.probe_failures");
          string_of_int !degraded_rounds;
          string_of_int !stalls;
          string_of_int !staleness_max;
          string_of_int outcome.Rebuild.progress.Bootstrap.rows_loaded;
          Printf.sprintf "%.0f s (sim)" recovery_s;
        ];
      ];
  Printf.printf
    "flap -> trip #%d -> probe heal; terminal flap -> quarantine -> online slice rebuild \
     (%d rows, %d deduped) -> readmitted at txn %d\n\
     degraded reads answered every round (%d with a coverage gap, 0 stalls); healed fleet \
     %s the sequential integrator and %s the live source\n"
    healed_trips outcome.Rebuild.progress.Bootstrap.rows_loaded
    outcome.Rebuild.progress.Bootstrap.rows_deduped outcome.Rebuild.watermark !degraded_rounds
    (if identical then "is byte-identical to" else "DIVERGES from")
    (if converged then "converged with" else "DIVERGED from");
  if not (identical && converged) then failwith "w6: healed fleet diverged"

(* ---------- kill-during-rebuild explorer (the @crash alias's rebuild
   coverage) ---------- *)

type crash_spec = {
  r_rows : int;
  r_parts : int;
  r_seed : int;
}

let default_crash_spec = { r_rows = 48; r_parts = 3; r_seed = 23 }

(* deterministically drive shard [flappy] to Quarantined: arm a dead
   device and let two refresh rounds trip its breaker (threshold 2; the
   sim clock never advances, so the dwell never elapses and no probe
   races the rebuild) *)
let quarantined_scene spec =
  let { r_rows = rows; r_parts = parts; r_seed = seed } = spec in
  let health =
    {
      Partitioned.breaker =
        {
          Breaker.failure_threshold = 2;
          reset_timeout_s = 1000.0;
          probe_successes = 1;
          max_reset_timeout_s = 10_000.0;
          seed = 31;
        };
      max_retries = 0;
      refresh_timeout_s = infinity;
    }
  in
  let env = mk_env ~health ~rows ~parts ~seed () in
  let flappy = 1 in
  commit_round env;
  refresh env;
  commit_round env;
  refresh env;
  Vfs.set_fault (Partitioned.vfss env.fleet).(flappy)
    (Some (Fault.make ~sustained:[ terminal_flap ] ~seed ()));
  commit_round env;
  refresh env;
  refresh env;
  if Partitioned.shard_health env.fleet flappy <> Partitioned.Quarantined then
    failwith "rebuild explorer: scene did not quarantine the shard";
  (* one more committed round the quarantined shard has never seen, so
     the rebuild replays real foreign-and-owned delta traffic *)
  commit_round env;
  (env, flappy)

let rebuild_of ?hook env flappy =
  Rebuild.rebuild_shard
    ~config:{ Bootstrap.default_config with chunk_max = 8; chunk_min = 4; seed = env.seed }
    ?hook ~owner:"explorer" ~source:env.src ~capture:env.cap ~fleet:env.fleet
    ~shard:flappy ()

let resume_of env flappy =
  Rebuild.resume_shard
    ~config:{ Bootstrap.default_config with chunk_max = 8; chunk_min = 4; seed = env.seed }
    ~owner:"explorer" ~source:env.src ~capture:env.cap ~fleet:env.fleet
    ~shard:flappy ()

(* after readmission the fleet must converge: one more round, every
   shard caught up with its bucket, merged state = sequential reference *)
let verify_converged env =
  refresh env;
  let buckets = staged env in
  if Partitioned.healths env.fleet <> Array.make env.parts Partitioned.Healthy then
    Error "fleet not healthy after readmission"
  else begin
    let wms = Partitioned.watermarks env.fleet in
    let short =
      Array.exists
        (fun i ->
          let want =
            List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 buckets.(i)
          in
          wms.(i) < want)
        (Array.init env.parts Fun.id)
    in
    if short then Error "a shard's watermark is short of its bucket after readmission"
    else begin
      let reference = P.mk_reference ~rows:env.rows ~seed:env.seed in
      ignore (Warehouse.integrate_op_deltas reference (captured_ods env) : Warehouse.stats);
      if P.matches_reference (P.reference_state reference) env.fleet then Ok ()
      else Error "merged state diverges from the sequential integrator"
    end
  end

(* The kill-during-rebuild flow: the plan goes on the fresh shard's
   device at the first chunk; the check resumes the crashed rebuild from
   the surviving bytes and verifies convergence. *)
let rebuild_flow spec =
  let check (env, flappy) outcome =
    match outcome with
    | Some (Ok _) -> Error "rebuild survived its fail-stop"
    | Some (Error (Bootstrap.Lease_held _)) -> Error "first rebuild refused its own lease"
    | Some (Error (Bootstrap.Failed e)) ->
      Error ("first rebuild aborted instead of crashing: " ^ e)
    | None -> (
      if Partitioned.shard_health env.fleet flappy <> Partitioned.Rebuilding then
        Error "crashed rebuild did not leave the shard Rebuilding"
      else
        match resume_of env flappy with
        | Ok o when o.Rebuild.progress.Bootstrap.complete -> verify_converged env
        | Ok _ -> Error "resumed rebuild did not reach its consistent snapshot"
        | Error (Bootstrap.Lease_held _) -> Error "resume refused its own expired lease"
        | Error (Bootstrap.Failed e) -> Error ("resume failed: " ^ e))
  in
  {
    Crash_sim.seed = spec.r_seed;
    setup = (fun () -> quarantined_scene spec);
    (* the rebuild swaps a fresh device in before its first chunk *)
    devices = (fun (env, flappy) -> [ (Partitioned.vfss env.fleet).(flappy) ]);
    workload =
      (fun (env, flappy) ~arm ->
        let armed = ref false in
        let hook = function
          | Bootstrap.Before_chunk 0 when not !armed ->
            armed := true;
            arm ()
          | _ -> ()
        in
        rebuild_of ~hook env flappy);
    check;
  }

let explore_rebuild ?(spec = default_crash_spec) ?stride () =
  Crash_sim.sweep ?stride (rebuild_flow spec)
