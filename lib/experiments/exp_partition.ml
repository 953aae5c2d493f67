(* T6 — partitioned warehouse refresh window vs partition count.

   ROADMAP item 1's measurement: the same op-delta stream staged into
   per-partition buckets (Dw_etl.Stage) and applied by
   Dw_warehouse.Partitioned on a Domain_pool, at 1/2/4/8 partitions
   (quick mode: 1/4).  Each shard is its own engine over its own Vfs, so
   the arms differ only in how many ways the identical delta volume is
   split and how many domains apply it.

   Like W5, the warehouse is made deliberately I/O-bound: every shard
   Vfs carries a per-operation delay and a small buffer pool, so the
   refresh window is dominated by simulated I/O that overlapping domains
   can actually hide.  Range partitioning is used because the PARTS
   workload's updates/deletes are contiguous key ranges — the staging
   tier routes almost all of them to a single partition, which is the
   regime partitioning is for (hash placement would broadcast every
   range predicate).

   After every arm, the merged logical state (sorted replica rows,
   SPJ-view rows, aggregate-view rows) is compared against a monolithic
   warehouse refreshed by the sequential integrator — the partitioned
   path must be byte-identical, which is also pinned as a qcheck
   property in test_partition.ml.

   Emitted metrics (the t6.* keys gated by Bench_gate):
   - histogram  stage.bucket_ops (statements per staged bucket)
   - gauges     t6.window_p{n}_s, t6.stage_p{n}_s, t6.speedup_p4,
                t6.identical, t6.partitions, t6.delta_txns,
                t6.stage_routed, t6.stage_broadcast, t6.stage_split_rows *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Metrics = Dw_util.Metrics
module Domain_pool = Dw_util.Domain_pool
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Warehouse = Dw_warehouse.Warehouse
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Stage = Dw_etl.Stage
open Bench_support

let pool_pages = 24
let op_delay = 120e-6
let txn_size = 8

(* the views every arm (and the monolithic reference) maintains: one
   select-project slice and one all-integer aggregate view, so merged
   results are exact under any partitioning *)
let proj col = { Spj_view.out_name = col; from_side = Spj_view.L; from_col = col }

let spj_view =
  Spj_view.Select_project
    {
      name = "big_qty";
      table = "parts";
      schema = Workload.parts_schema;
      filter = Some (Expr.Cmp (Expr.Ge, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj "part_id"; proj "qty" ];
    }

let agg_view =
  {
    Agg_view.name = "qty_band_stats";
    table = "parts";
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates =
      [ ("n", Agg_view.Count); ("min_id", Agg_view.Min "part_id");
        ("max_id", Agg_view.Max "part_id") ];
  }

(* a deterministic 10x-delta-volume stream over id space [1, rows +
   inserts]: contiguous-range updates (the op-delta sweet spot), a
   steady trickle of inserts past the loaded range, and small deletes *)
let build_deltas ~rows ~txns ~seed =
  let next_id = ref (rows + 1) in
  List.init txns (fun i ->
      let txn_id = i + 1 in
      let stmts =
        if i mod 5 = 4 then begin
          let first_id = !next_id in
          next_id := !next_id + 4;
          Workload.insert_parts_txn ~seed ~first_id ~size:4 ~day:0 ()
        end
        else if i mod 11 = 10 then
          [ Workload.delete_parts_stmt ~first_id:(1 + (i * 13 mod (rows - 2))) ~size:2 ]
        else
          [
            Workload.update_parts_stmt
              ~first_id:(1 + (i * 37 mod (rows - txn_size)))
              ~size:txn_size;
          ]
      in
      Op_delta.make ~txn_id stmts)

(* ceil-spaced range bounds so the id space spreads evenly over p parts *)
let range_spec ~id_space ~parts =
  let bounds =
    List.init (parts - 1) (fun i -> 1 + (id_space * (i + 1) + parts - 1) / parts)
  in
  Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range bounds)

let mk_partitioned ?(pages = pool_pages) ?(op_delay = op_delay) ~rows ~seed ~parts ~id_space () =
  let spec = range_spec ~id_space ~parts in
  let pw = Partitioned.create ~pool_pages:pages ~op_delay ~spec ~name:"t6" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica pw ~table:"parts" (parts_rows ~seed rows);
  Partitioned.define_view pw spj_view;
  Partitioned.define_agg_view pw agg_view;
  pw

let mk_reference ~rows ~seed =
  let wh = parts_warehouse ~seed ~views:[ spj_view ] ~rows () in
  Warehouse.define_agg_view wh agg_view;
  wh

type reference_state = {
  ref_rows : Tuple.t list;
  ref_view : (Tuple.t * int) list;
  ref_agg : (Tuple.t * int) list;
}

let reference_state wh =
  {
    ref_rows = List.sort Tuple.compare (Warehouse.replica_rows wh "parts");
    ref_view = Warehouse.view_rows wh "big_qty";
    ref_agg = Warehouse.agg_view_rows wh "qty_band_stats";
  }

let matches_reference expected pw =
  Partitioned.replica_rows pw "parts" = expected.ref_rows
  && Partitioned.view_rows pw "big_qty" = expected.ref_view
  && Partitioned.agg_view_rows pw "qty_band_stats" = expected.ref_agg

type arm = {
  parts : int;
  stage_s : float;
  window_s : float;
  stats : Warehouse.stats;
  stage_stats : Stage.stats;
  identical : bool;
}

let run_arm metrics ~rows ~seed ~id_space ~expected ~ods parts =
  let pw = mk_partitioned ~rows ~seed ~parts ~id_space () in
  let spec = Partitioned.spec pw in
  let t0 = Unix.gettimeofday () in
  let buckets, stage_stats = Stage.split ~spec ods in
  let stage_s = Unix.gettimeofday () -. t0 in
  Array.iter
    (fun bucket ->
      Metrics.observe metrics "stage.bucket_ops"
        (float_of_int
           (List.fold_left (fun acc od -> acc + List.length od.Op_delta.ops) 0 bucket)))
    buckets;
  Domain_pool.with_pool ~domains:parts @@ fun pool ->
  let t1 = Unix.gettimeofday () in
  let stats = Partitioned.refresh ~pool pw buckets in
  let window_s = Unix.gettimeofday () -. t1 in
  let identical = matches_reference expected pw in
  Metrics.set_gauge metrics (Printf.sprintf "t6.window_p%d_s" parts) window_s;
  Metrics.set_gauge metrics (Printf.sprintf "t6.stage_p%d_s" parts) stage_s;
  { parts; stage_s; window_s; stats; stage_stats; identical }

let run_t6 ~scale =
  section "T6: partitioned refresh window vs partition count";
  let rows = scaled 2_000 ~scale in
  let txns = scaled 400 ~scale in
  let seed = 1906 in
  let part_counts = if is_quick () then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let ods = build_deltas ~rows ~txns ~seed in
  let id_space = rows + txns in
  let reference = mk_reference ~rows ~seed in
  ignore (Warehouse.integrate_op_deltas reference ods : Warehouse.stats);
  let expected = reference_state reference in
  let metrics = Metrics.create () in
  let arms =
    List.map (fun p -> run_arm metrics ~rows ~seed ~id_space ~expected ~ods p) part_counts
  in
  let arm p = List.find (fun a -> a.parts = p) arms in
  let speedup = (arm 1).window_s /. (arm 4).window_s in
  let identical = List.for_all (fun a -> a.identical) arms in
  let last = List.nth arms (List.length arms - 1) in
  Metrics.set_gauge metrics "t6.speedup_p4" speedup;
  Metrics.set_gauge metrics "t6.identical" (if identical then 1.0 else 0.0);
  Metrics.set_gauge metrics "t6.partitions" (float_of_int last.parts);
  Metrics.set_gauge metrics "t6.delta_txns" (float_of_int txns);
  Metrics.set_gauge metrics "t6.stage_routed" (float_of_int last.stage_stats.Stage.routed);
  Metrics.set_gauge metrics "t6.stage_broadcast"
    (float_of_int last.stage_stats.Stage.broadcast);
  Metrics.set_gauge metrics "t6.stage_split_rows"
    (float_of_int last.stage_stats.Stage.split_rows);
  print_table
    ~title:
      (Printf.sprintf
         "%d delta txns over %d rows (range-partitioned, pool %d pages/shard, %.0f us/op \
          vfs delay), one domain per partition"
         txns rows pool_pages (op_delay *. 1e6))
    ~header:[ "partitions"; "staging"; "refresh window"; "wh txns"; "speedup vs p1" ]
    ~rows:
      (List.map
         (fun a ->
           [
             string_of_int a.parts;
             dur a.stage_s;
             dur a.window_s;
             string_of_int a.stats.Warehouse.txns;
             Printf.sprintf "%.2fx" ((arm 1).window_s /. a.window_s);
           ])
         arms);
  Printf.printf
    "staged %d statements: %d routed to one partition, %d broadcast, %d insert rows split\n\
     speedup at 4 partitions vs 1: %.2fx; partitioned refresh %s the sequential integrator\n\
     shape check: the same delta volume split p ways refreshes in ~1/p the window — each \
     shard's WAL, pool and simulated I/O are private, so domains overlap sleeps instead of \
     serialising on one engine\n"
    last.stage_stats.Stage.statements last.stage_stats.Stage.routed
    last.stage_stats.Stage.broadcast last.stage_stats.Stage.split_rows speedup
    (if identical then "is byte-identical to" else "DIVERGES from")

(* ---------- crash-point explorer (the @crash alias's partitioned
   refresh coverage) ---------- *)

type crash_spec = {
  c_rows : int;
  c_txns : int;
  c_parts : int;
  c_seed : int;
}

let default_crash_spec = { c_rows = 64; c_txns = 12; c_parts = 3; c_seed = 11 }

(* make setup durable before arming fault plans: the initial load is
   bulk-unlogged, so without a checkpoint a crash during the refresh
   could lose loaded pages that WAL recovery has no records for *)
let checkpoint_shards pw =
  for i = 0 to Partitioned.partitions pw - 1 do
    Db.checkpoint (Warehouse.db (Partitioned.shard pw i))
  done

type crash_scene = { pw : Partitioned.t; ods : Op_delta.t list; buckets : Op_delta.t list array }

(* One shard crashes mid-refresh (its Vfs fail-stops), the process
   restarts: every shard is re-adopted from its surviving bytes and the
   SAME staged buckets are re-applied.  Invariants: the crash never
   raises out of the fleet refresh (the shard's breaker absorbs it), the
   merged final state equals the sequential integrator's, and every
   shard's watermark reached its bucket's last transaction — i.e.
   redelivered runs applied exactly once per shard.  The plans go on
   after the setup checkpoint; each shard is one device, swept in
   turn. *)
let partitioned_flow spec =
  let { c_rows = rows; c_txns = txns; c_parts = parts; c_seed = seed } = spec in
  let setup () =
    let ods = build_deltas ~rows ~txns ~seed in
    let pw =
      mk_partitioned ~pages:64 ~op_delay:0.0 ~rows ~seed ~parts ~id_space:(rows + txns) ()
    in
    checkpoint_shards pw;
    let buckets, (_ : Stage.stats) = Stage.split ~spec:(Partitioned.spec pw) ods in
    { pw; ods; buckets }
  in
  let refresh pw buckets =
    Domain_pool.with_pool ~domains:parts (fun pool ->
        ignore (Partitioned.refresh ~pool pw buckets : Warehouse.stats))
  in
  let check { pw; ods; buckets } outcome =
    match outcome with
    | None -> Error "a shard's fail-stop raised out of the fleet refresh"
    | Some () ->
      let reference = mk_reference ~rows ~seed in
      ignore (Warehouse.integrate_op_deltas reference ods : Warehouse.stats);
      let pw2 =
        Partitioned.reopen
          ~replicas:[ ("parts", Workload.parts_schema) ]
          ~views:[ spj_view ] ~agg_views:[ agg_view ] ~spec:(Partitioned.spec pw) ~name:"t6"
          ~vfss:(Partitioned.vfss pw) ()
      in
      refresh pw2 buckets;
      if not (matches_reference (reference_state reference) pw2) then
        Error "partitioned refresh diverged from the sequential integrator after recovery"
      else begin
        let wms = Partitioned.watermarks pw2 in
        let bad = ref None in
        Array.iteri
          (fun i bucket ->
            let want =
              List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 bucket
            in
            if wms.(i) <> want && !bad = None then bad := Some (i, wms.(i), want))
          buckets;
        match !bad with
        | Some (i, got, want) ->
          Error (Printf.sprintf "shard %d watermark %d after recovery, expected %d" i got want)
        | None -> Ok ()
      end
  in
  {
    Crash_sim.seed;
    setup;
    devices = (fun { pw; _ } -> Array.to_list (Partitioned.vfss pw));
    workload =
      (fun { pw; buckets; _ } ~arm ->
        arm ();
        refresh pw buckets);
    check;
  }

let explore_partitioned ?(spec = default_crash_spec) ?stride () =
  Crash_sim.sweep ?stride (partitioned_flow spec)
