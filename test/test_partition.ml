(* Partitioned warehouse: spec roundtrip/persistence, staging-tier
   routing totality, partitioned-vs-sequential byte identity (qcheck),
   crash-mid-refresh recovery, and per-partition valve independence. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Db = Dw_engine.Db
module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Domain_pool = Dw_util.Domain_pool
module Prng = Dw_util.Prng
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Warehouse = Dw_warehouse.Warehouse
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Stage = Dw_etl.Stage
module Exp_partition = Dw_experiments.Exp_partition

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- spec construction, serialization, persistence ---------- *)

let spec_validation () =
  let mk m = ignore (Partition.make ~table:"parts" ~key_column:"part_id" m : Partition.t) in
  let rejects m =
    match mk m with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  mk (Partition.Hash 1);
  mk (Partition.Range []);
  mk (Partition.Range [ 10; 20; 30 ]);
  rejects (Partition.Hash 0);
  rejects (Partition.Range [ 20; 10 ]);
  rejects (Partition.Range [ 10; 10 ]);
  (match Partition.make ~table:"a:b" ~key_column:"k" (Partition.Hash 2) with
   | (_ : Partition.t) -> Alcotest.fail "expected delimiter rejection"
   | exception Invalid_argument _ -> ());
  let s = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range [ 100 ]) in
  check Alcotest.int "range partitions" 2 (Partition.partitions s);
  check Alcotest.int "below bound" 0 (Partition.route_key s 99);
  check Alcotest.int "at bound" 1 (Partition.route_key s 100)

let gen_method =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Partition.Hash n) (int_range 1 8);
        map
          (fun steps ->
            (* strictly ascending bounds from positive step sums *)
            let _, bounds =
              List.fold_left
                (fun (at, acc) step ->
                  let at = at + 1 + step in
                  (at, at :: acc))
                (0, []) steps
            in
            Partition.Range (List.rev bounds))
          (list_size (int_range 0 6) (int_range 0 500));
      ])

let prop_spec_roundtrip =
  QCheck2.Test.make ~name:"spec survives to_string/of_string" ~count:200 gen_method
    (fun m ->
      let s = Partition.make ~table:"parts" ~key_column:"part_id" m in
      match Partition.of_string (Partition.to_string s) with
      | Ok s' -> Partition.equal s s'
      | Error msg -> QCheck2.Test.fail_reportf "parse failed: %s" msg)

let prop_routing_total =
  QCheck2.Test.make ~name:"every key routes to exactly one partition" ~count:200
    QCheck2.Gen.(pair gen_method (int_range (-10_000) 10_000))
    (fun (m, k) ->
      let s = Partition.make ~table:"parts" ~key_column:"part_id" m in
      let p = Partition.route_key s k in
      0 <= p && p < Partition.partitions s && p = Partition.route_key s k)

let spec_persistence () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~vfs ~name:"spec_persist" () in
  let s = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range [ 64; 128 ]) in
  check Alcotest.bool "empty before save" true (Partition.load db = None);
  Partition.save db ~shard:2 s;
  (match Partition.load db with
   | Some (shard, s') ->
     check Alcotest.int "shard index" 2 shard;
     check Alcotest.bool "spec equal" true (Partition.equal s s')
   | None -> Alcotest.fail "no spec after save");
  (* overwrite with a different spec; the latest one wins *)
  let s2 = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Hash 4) in
  Partition.save db ~shard:0 s2;
  match Partition.load db with
  | Some (0, s') -> check Alcotest.bool "overwritten" true (Partition.equal s2 s')
  | _ -> Alcotest.fail "bad spec after overwrite"

(* ---------- staging-tier routing ---------- *)

let mix_deltas ~seed ~rows ~txns =
  let rng = Prng.create ~seed in
  let ops = Workload.gen_mix rng ~existing_ids:rows ~txns ~max_txn_size:6 in
  List.mapi
    (fun i op -> Op_delta.make ~txn_id:(i + 1) (Workload.op_to_stmts ~seed ~day:0 op))
    ops

let split_conserves_statements () =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range [ 30; 60 ]) in
  let ods = mix_deltas ~seed:5 ~rows:80 ~txns:40 in
  let buckets, stats = Stage.split ~spec ods in
  check Alcotest.int "bucket per partition" (Partition.partitions spec) (Array.length buckets);
  check Alcotest.int "every statement routed or broadcast" stats.Stage.statements
    (stats.Stage.routed + stats.Stage.broadcast);
  (* each bucket's txn_ids are a strictly increasing subsequence of the
     source history, so per-shard watermarks stay exactly-once *)
  Array.iter
    (fun bucket ->
      ignore
        (List.fold_left
           (fun prev od ->
             check Alcotest.bool "txn ids ascend" true (od.Op_delta.txn_id > prev);
             od.Op_delta.txn_id)
           0 bucket
          : int))
    buckets;
  (* ops conservation: routed statements appear once across buckets,
     broadcast ones once per bucket, insert rows exactly once *)
  let total_ops =
    Array.fold_left
      (fun acc bucket ->
        acc + List.fold_left (fun a od -> a + List.length od.Op_delta.ops) 0 bucket)
      0 buckets
  in
  check Alcotest.bool "bucketed op count bounded" true
    (total_ops <= stats.Stage.routed + (stats.Stage.broadcast * Array.length buckets)
    && total_ops >= stats.Stage.routed + stats.Stage.broadcast)

let split_rejects_key_update () =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Hash 2) in
  let stmt =
    match Dw_sql.Parser.parse "UPDATE parts SET part_id = 99 WHERE part_id = 1" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let ods = [ Op_delta.make ~txn_id:1 [ stmt ] ] in
  match Stage.split ~spec ods with
  | _ -> Alcotest.fail "expected key-update rejection"
  | exception Invalid_argument _ -> ()

(* ---------- partitioned == sequential (qcheck-pinned) ---------- *)

let view =
  {
    Agg_view.name = "band_stats";
    table = "parts";
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates = [ ("n", Agg_view.Count); ("max_id", Agg_view.Max "part_id") ];
  }

let proj col = { Spj_view.out_name = col; from_side = Spj_view.L; from_col = col }

let spj =
  Spj_view.Select_project
    {
      name = "cheap";
      table = "parts";
      schema = Workload.parts_schema;
      filter =
        Some
          (Dw_relation.Expr.Cmp
             (Dw_relation.Expr.Lt, Dw_relation.Expr.Col "qty",
              Dw_relation.Expr.Lit (Value.Int 500)));
      project = [ proj "part_id"; proj "qty" ];
    }

let load_rows ~rows ~seed =
  let rng = Prng.create ~seed in
  List.init rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0)

let sequential_state ~rows ~seed ods =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"seq_ref" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  Warehouse.load_replica wh ~table:"parts" (load_rows ~rows ~seed);
  Warehouse.define_view wh spj;
  Warehouse.define_agg_view wh view;
  ignore (Warehouse.integrate_op_deltas wh ods : Warehouse.stats);
  ( List.sort Tuple.compare (Warehouse.replica_rows wh "parts"),
    Warehouse.view_rows wh "cheap",
    Warehouse.agg_view_rows wh "band_stats" )

let partitioned_state ~spec ~rows ~seed ods =
  let pw = Partitioned.create ~spec ~name:"eqv" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica pw ~table:"parts" (load_rows ~rows ~seed);
  Partitioned.define_view pw spj;
  Partitioned.define_agg_view pw view;
  let buckets, (_ : Stage.stats) = Stage.split ~spec ods in
  Domain_pool.with_pool ~domains:2 (fun pool ->
      ignore (Partitioned.refresh ~pool pw buckets : Warehouse.stats));
  ( Partitioned.replica_rows pw "parts",
    Partitioned.view_rows pw "cheap",
    Partitioned.agg_view_rows pw "band_stats" )

let gen_equiv_case =
  QCheck2.Gen.(
    tup3 (int_range 0 1_000_000)
      (oneof
         [
           map (fun n -> `Hash n) (int_range 1 5);
           map (fun n -> `Range n) (int_range 1 5);
         ])
      (int_range 10 40))

let prop_partitioned_equals_sequential =
  QCheck2.Test.make ~name:"partitioned refresh == sequential integrator" ~count:12
    gen_equiv_case (fun (seed, placement, txns) ->
      let rows = 60 in
      let spec =
        Partition.make ~table:"parts" ~key_column:"part_id"
          (match placement with
           | `Hash n -> Partition.Hash n
           | `Range n ->
             Partition.Range (List.init (n - 1) (fun i -> (rows + txns) * (i + 1) / n)))
      in
      let ods = mix_deltas ~seed ~rows ~txns in
      partitioned_state ~spec ~rows ~seed ods = sequential_state ~rows ~seed ods)

(* ---------- crash mid-refresh recovery ---------- *)

let crash_recovery () =
  let report =
    Exp_partition.explore_partitioned
      ~spec:{ Exp_partition.c_rows = 48; c_txns = 10; c_parts = 3; c_seed = 11 }
      ~stride:7 ()
  in
  check Alcotest.bool "explored crash points" true
    (report.Dw_experiments.Crash_sim.explored > 0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "no recovery failures" [] report.Dw_experiments.Crash_sim.failures

(* ---------- per-partition valve independence ---------- *)

let valve_independence () =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range [ 50 ]) in
  let pw = Partitioned.create ~spec ~name:"valve" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica pw ~table:"parts" (load_rows ~rows:100 ~seed:3);
  (* congest shard 0 only: pre-observe lock waits far above the policy
     threshold so its valve must shrink while shard 1's stays open *)
  let congested = Db.metrics (Warehouse.db (Partitioned.shard pw 0)) in
  for _ = 1 to 200 do
    Metrics.observe congested "lock.wait" 0.5
  done;
  let ods =
    List.init 40 (fun i ->
        Op_delta.make ~txn_id:(i + 1)
          [ Workload.update_parts_stmt ~first_id:(1 + (i * 29 mod 90)) ~size:2 ])
  in
  let buckets, (_ : Stage.stats) = Stage.split ~spec ods in
  let policy = { Warehouse.max_batch = 8; min_batch = 1; lock_wait_p95_s = 0.010 } in
  Domain_pool.with_pool ~domains:2 (fun pool ->
      ignore (Partitioned.refresh ~policy ~pool pw buckets : Warehouse.stats));
  let target i =
    Metrics.gauge (Db.metrics (Warehouse.db (Partitioned.shard pw i))) "warehouse.batch_size_target"
  in
  check Alcotest.bool "congested shard throttled" true (target 0 < float_of_int policy.Warehouse.max_batch);
  check Alcotest.bool "healthy shard unthrottled" true
    (target 1 = float_of_int policy.Warehouse.max_batch);
  (* watermarks advanced to each bucket's last txn despite the throttle *)
  let wms = Partitioned.watermarks pw in
  Array.iteri
    (fun i bucket ->
      let last = List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 bucket in
      check Alcotest.int (Printf.sprintf "shard %d watermark" i) last wms.(i))
    buckets

(* ---------- breaker timeout on the fleet clock ---------- *)

(* A fleet clock that is a Sim_clock advanced by one tick per byte the
   shards write, so a shard's refresh time is the work it did — the same
   on any machine.  Bytes, not writes: a refresh transaction's log goes
   out in one write however many rows it changed.  A one-domain pool runs
   the shard tasks one at a time, so each task's reading covers its own
   shard's bytes only. *)
let work_clock pw =
  let clk = Dw_util.Sim_clock.create () in
  let seen = ref 0 in
  fun () ->
    let writes =
      Array.fold_left
        (fun acc vfs -> acc + Metrics.get (Vfs.metrics vfs) "vfs.write_bytes")
        0 (Partitioned.vfss pw)
    in
    Dw_util.Sim_clock.advance clk (writes - !seen);
    seen := writes;
    float_of_int (Dw_util.Sim_clock.now clk)

(* shard 0 (ids below 50) receives ten times the updates shard 1 does *)
let skewed_deltas =
  List.init 11 (fun i ->
      let first_id = if i = 10 then 60 else 1 + (i * 4) in
      Op_delta.make ~txn_id:(i + 1) [ Workload.update_parts_stmt ~first_id ~size:4 ])

(* one refresh of the skewed deltas; returns each shard's written bytes,
   the breach count and the healths after it *)
let skewed_refresh ~op_delay ~timeout =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Range [ 50 ]) in
  let health =
    {
      Partitioned.breaker = { Dw_util.Breaker.default_config with failure_threshold = 1 };
      max_retries = 0;
      refresh_timeout_s = timeout;
    }
  in
  let hm = Metrics.create () in
  let pw = Partitioned.create ~op_delay ~health ~metrics:hm ~spec ~name:"clk" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  Partitioned.load_replica pw ~table:"parts" (load_rows ~rows:100 ~seed:3);
  Metrics.set_clock hm (work_clock pw);
  let writes () =
    Array.map (fun v -> Metrics.get (Vfs.metrics v) "vfs.write_bytes") (Partitioned.vfss pw)
  in
  let before = writes () in
  let buckets, (_ : Stage.stats) = Stage.split ~spec skewed_deltas in
  Domain_pool.with_pool ~domains:1 (fun pool ->
      ignore (Partitioned.refresh ~pool pw buckets : Warehouse.stats));
  let work = Array.map2 ( - ) (writes ()) before in
  (work, Metrics.get hm "health.timeout_breaches", Partitioned.healths pw)

let breaker_timeout_on_fleet_clock () =
  let work, breaches, _ = skewed_refresh ~op_delay:0.0 ~timeout:infinity in
  check Alcotest.int "no breach without a timeout" 0 breaches;
  check Alcotest.bool "shard 0 is the slow one" true (work.(0) > 2 * work.(1));
  let between = float_of_int (work.(0) + work.(1)) /. 2.0 in
  let above = float_of_int (work.(0) + 1) in
  (* the slower device stands in for a slower machine: the outcome must
     not change with it *)
  let same_on_any_device timeout =
    match List.map (fun op_delay -> skewed_refresh ~op_delay ~timeout) [ 0.0; 0.0002 ] with
    | [ (w, b, h); (w', b', h') ] ->
      check (Alcotest.array Alcotest.int) "same work" w w';
      check Alcotest.int "same breaches" b b';
      check Alcotest.bool "same healths" true (h = h');
      (b, h)
    | _ -> assert false
  in
  let breaches, healths = same_on_any_device between in
  check Alcotest.int "slow shard breaches" 1 breaches;
  check Alcotest.bool "slow shard tripped, fast one healthy" true
    (healths = [| Partitioned.Quarantined; Partitioned.Healthy |]);
  let breaches, healths = same_on_any_device above in
  check Alcotest.int "no breach above the slow shard's time" 0 breaches;
  check Alcotest.bool "both healthy" true (healths = [| Partitioned.Healthy; Partitioned.Healthy |])

(* ---------- degraded reads around a faulting shard ---------- *)

(* shard 0's device dies with pages of every table out of its pool: an
   aggregate-view read and a replicated-table read must each count the
   fault against the shard and answer from shard 1 *)
let degraded_reads_skip_faulting_shard () =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Hash 2) in
  let hm = Metrics.create () in
  let pw = Partitioned.create ~pool_pages:8 ~metrics:hm ~spec ~name:"faulty" () in
  let rows = load_rows ~rows:600 ~seed:5 in
  List.iter
    (fun table ->
      Partitioned.add_replica pw ~table ~schema:Workload.parts_schema;
      Partitioned.load_replica pw ~table rows)
    [ "parts"; "dim" ];
  Partitioned.define_agg_view pw view;
  let shard i = Partitioned.shard pw i in
  let shard1_groups = Warehouse.agg_view_rows (shard 1) "band_stats" in
  (* a full scan of [dim] leaves only its tail pages cached *)
  ignore (Warehouse.replica_rows (shard 0) "dim" : Tuple.t list);
  Vfs.set_fault (Partitioned.vfss pw).(0) (Some (Vfs.Fault.make ~fail_stop_after:0 ~seed:1 ()));
  (try Db.checkpoint (Warehouse.db (shard 0)) with Vfs.Fault.Crash _ -> ());
  let failures () = Metrics.get hm "degraded.read_failures" in
  let groups, cov = Partitioned.agg_view_rows_checked ~policy:`Degraded pw "band_stats" in
  check Alcotest.int "aggregate read fault counted" 1 (failures ());
  check Alcotest.(list int) "aggregate read served by shard 1" [ 1 ] cov.Partitioned.served;
  check Alcotest.bool "shard 1's groups" true (groups = shard1_groups);
  let dim, cov = Partitioned.replica_rows_checked ~policy:`Degraded pw "dim" in
  check Alcotest.int "replicated read fault counted" 2 (failures ());
  check Alcotest.(list int) "replicated read served by shard 1" [ 1 ] cov.Partitioned.served;
  check Alcotest.bool "the whole replicated table" true (dim = List.sort Tuple.compare rows)

(* ---------- guard rails ---------- *)

let rejects_join_view () =
  let spec = Partition.make ~table:"parts" ~key_column:"part_id" (Partition.Hash 2) in
  let pw = Partitioned.create ~spec ~name:"guard" () in
  Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema;
  let join =
    Spj_view.Join
      {
        name = "j";
        left_table = "parts";
        left_schema = Workload.parts_schema;
        right_table = "parts";
        right_schema = Workload.parts_schema;
        on = [ ("part_id", "part_id") ];
        left_filter = None;
        right_filter = None;
        project = [ proj "part_id" ];
      }
  in
  match Partitioned.define_view pw join with
  | () -> Alcotest.fail "expected join-view rejection"
  | exception Invalid_argument _ -> ()

let rejects_wrong_leading_key () =
  let spec = Partition.make ~table:"parts" ~key_column:"qty" (Partition.Hash 2) in
  let pw = Partitioned.create ~spec ~name:"guard2" () in
  match Partitioned.add_replica pw ~table:"parts" ~schema:Workload.parts_schema with
  | () -> Alcotest.fail "expected leading-key rejection"
  | exception Invalid_argument _ -> ()

let suite =
  [
    test "spec validation and range routing" spec_validation;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    QCheck_alcotest.to_alcotest prop_routing_total;
    test "spec save/load persistence" spec_persistence;
    test "split conserves statements" split_conserves_statements;
    test "split rejects partition-key update" split_rejects_key_update;
    QCheck_alcotest.to_alcotest prop_partitioned_equals_sequential;
    test "crash mid-refresh recovers" crash_recovery;
    test "per-partition valve independence" valve_independence;
    test "breaker timeout reads the fleet clock" breaker_timeout_on_fleet_clock;
    test "degraded reads skip a shard faulting mid-read" degraded_reads_skip_faulting_shard;
    test "rejects join views" rejects_join_view;
    test "rejects mismatched leading key" rejects_wrong_leading_key;
  ]
