type experiment = { id : string; description : string; run : scale:int -> unit }

let e id description run = { id; description; run }

let all =
  [
    e "t1" "Table 1: Export / Import / DBMS Loader vs delta size" (fun ~scale ->
        Exp_dump_load.run ~scale);
    e "t2" "Table 2: timestamp extraction (file / table / table+Export)" (fun ~scale ->
        ignore (Exp_timestamp.run_t2 ~scale));
    e "t3" "Table 3: end-to-end extract + transport + load" (fun ~scale ->
        Exp_timestamp.run_t3 ~scale);
    e "f2" "Figure 2: trigger overhead vs transaction size" (fun ~scale ->
        Exp_trigger.run ~scale);
    e "f2r" "Section 3.1.3: trigger capture to local vs external staging" (fun ~scale ->
        Exp_trigger.run_remote ~scale);
    e "f3" "Figure 3: Op-Delta capture overhead vs transaction size" (fun ~scale ->
        Exp_opdelta.run_f3 ~scale);
    e "t4" "Table 4: Op-Delta response time, DB log vs file log" (fun ~scale ->
        Exp_opdelta.run_t4 ~scale);
    e "v1" "Section 4.1: delta volume, Op-Delta vs value delta" (fun ~scale ->
        Exp_opdelta.run_v1 ~scale);
    e "w1" "Section 4.1: warehouse maintenance window" (fun ~scale ->
        Exp_warehouse.run_w1 ~scale);
    e "w2r" "availability with real 2PL (effect-handler scheduler)" (fun ~scale ->
        Exp_warehouse.run_w2_real ~scale);
    e "w1agg" "extension: maintenance window with an aggregate view" (fun ~scale ->
        Exp_warehouse.run_w1_agg ~scale);
    e "w3" "snapshot-isolation reads: OLAP latency and refresh window vs locking reads"
      (fun ~scale -> Exp_mvcc.run_w3 ~scale);
    e "t5" "batching ablation: group commit, transport coalescing, micro-batched refresh"
      (fun ~scale -> Exp_batching.run_t5 ~scale);
    e "w4" "resumable bootstrap: crash sweep with resume, restart cost, lease exclusion"
      (fun ~scale -> Exp_bootstrap.run_bench ~scale);
    e "w5" "domain-parallel snapshot OLAP: throughput/p95 vs domain count under refresh"
      (fun ~scale -> Exp_parallel.run_w5 ~scale);
    e "t6" "partitioned warehouse: refresh window vs partition count, staged parallel apply"
      (fun ~scale -> Exp_partition.run_t6 ~scale);
    e "w6" "chaos: flapping shard, circuit breakers, degraded reads, online shard rebuild"
      (fun ~scale -> Exp_chaos.run_bench ~scale);
    e "t7" "cost-based planner vs static extraction methods under sustained shifting load"
      (fun ~scale -> Exp_planner.run_t7 ~scale);
    e "s1" "Section 3.1.2: snapshot differential vs other methods" (fun ~scale ->
        Exp_snapshot.run ~scale);
    e "r1" "Sections 2.2/4.1: replicated sources and reconciliation" (fun ~scale ->
        Exp_reconcile.run ~scale);
    e "ablate" "ablations: plan mode, group commit, pool size, snapshot algorithms"
      (fun ~scale -> Exp_ablation.run_all ~scale);
    e "crash" "robustness: crash-point sweep, faulty shipping, fault/retry counters"
      (fun ~scale -> Crash_sim.run_bench ~scale);
  ]

let ids = List.map (fun x -> x.id) all

let unknown_ids requested =
  List.filter (fun id -> id <> "all" && not (List.mem id ids)) requested

let unknown_ids_message u =
  Printf.sprintf "unknown experiment id%s %s (valid: %s, or 'all')"
    (if List.length u = 1 then "" else "s")
    (String.concat ", " u) (String.concat ", " ids)

let select requested =
  List.filter (fun x -> List.mem "all" requested || List.mem x.id requested) all
