(* Systematic crash-point sweep (dune alias: @crash).

   Exhaustively enumerates every write/fsync event of small source-DB,
   queue, bootstrap, partitioned and extraction-pipeline workloads, then sweeps the standard
   ones at stride <= 8.  Each flow prints one deterministic
   `name events points failures` line on stdout, which the alias diffs
   against crash_sweep.expected.  Any violated recovery invariant
   prints the reproducing event index on stderr and fails the run; the
   domain-pool and file-shipping checks report on stderr too and count
   only through the exit status. *)

module Cs = Dw_experiments.Crash_sim
module Domain_pool = Dw_util.Domain_pool

let failed = ref false

let check name report =
  Printf.printf "%-22s %5d events  %4d crash points  %d failures\n%!" name
    report.Cs.total_events report.Cs.explored
    (List.length report.Cs.failures);
  List.iter
    (fun (k, msg) ->
      failed := true;
      Printf.eprintf "    FAIL at event %d: %s\n%!" k msg)
    report.Cs.failures

let () =
  check "db (exhaustive)" (Cs.explore ~spec:Cs.small_db_spec ~stride:1 ());
  check "db (standard)" (Cs.explore ~spec:Cs.default_db_spec ~stride:8 ());
  check "db group-commit (exhaustive)"
    (Cs.explore ~spec:{ Cs.small_db_spec with Cs.group = 3 } ~stride:1 ());
  check "db group-commit (standard)" (Cs.explore ~spec:Cs.grouped_db_spec ~stride:8 ());
  check "queue (exhaustive)" (Cs.explore_queue ~spec:Cs.default_queue_spec ~stride:1 ());
  check "queue batched (exhaustive)"
    (Cs.explore_batched_queue ~spec:Cs.default_batched_queue_spec ~stride:1 ());
  check "bootstrap (exhaustive)"
    (Dw_experiments.Exp_bootstrap.explore_bootstrap
       ~spec:{ Dw_experiments.Exp_bootstrap.rows = 48; commits = 6; chunk = 8; seed = 5 }
       ~stride:1 ());
  check "bootstrap (standard)"
    (Dw_experiments.Exp_bootstrap.explore_bootstrap ~stride:4 ());
  (* partitioned refresh: one shard fail-stops mid-refresh, the whole
     fleet is re-adopted from bytes and the staged buckets re-applied —
     merged state must match the sequential integrator and every shard's
     watermark must reach its bucket's last transaction *)
  check "partitioned (exhaustive)"
    (Dw_experiments.Exp_partition.explore_partitioned
       ~spec:{ Dw_experiments.Exp_partition.c_rows = 48; c_txns = 10; c_parts = 3; c_seed = 11 }
       ~stride:1 ());
  check "partitioned (standard)"
    (Dw_experiments.Exp_partition.explore_partitioned ~stride:3 ());
  (* one shard is one warehouse: the single-integrator refresh path *)
  check "partitioned 1-shard (exhaustive)"
    (Dw_experiments.Exp_partition.explore_partitioned
       ~spec:{ Dw_experiments.Exp_partition.c_rows = 48; c_txns = 10; c_parts = 1; c_seed = 11 }
       ~stride:1 ());
  (* online shard rebuild: the quarantined shard's slice bootstrap is
     killed at every device event, resumed from the surviving bytes
     (queue + __bootstrap_state live on the rebuilt shard's own Vfs),
     and the re-admitted fleet must converge with the sequential
     integrator at one watermark *)
  check "rebuild (stride 2)" (Dw_experiments.Exp_chaos.explore_rebuild ~stride:2 ());
  (* extraction pipelines on queued transport, one per method: one round
     killed at every source and warehouse event, restarted from the bytes
     (the mark row re-adopted with the warehouse, the capture tables with
     the source), then run to quiescence — replica = source, view = its
     recomputation *)
  check "pipeline timestamp (exhaustive)" (Cs.explore_pipeline Dw_etl.Pipeline.Timestamp);
  check "pipeline log (exhaustive)" (Cs.explore_pipeline Dw_etl.Pipeline.Log);
  check "pipeline snapshot (exhaustive)"
    (Cs.explore_pipeline (Dw_etl.Pipeline.Snapshot Dw_core.Snapshot_extract.Sort_merge));
  check "pipeline trigger (exhaustive)" (Cs.explore_pipeline Dw_etl.Pipeline.Trigger);
  check "pipeline op-delta (exhaustive)" (Cs.explore_pipeline Dw_etl.Pipeline.Op_delta_wrapper);
  check "pipeline planned (exhaustive)" (Cs.explore_pipeline Dw_etl.Pipeline.Planned);
  (* domain-pool clean shutdown with a sweep mid-flight: a batch is
     draining (some tasks still queued, some raising) while another domain
     issues the shutdown — the batch must complete, the error must
     propagate deterministically, and every worker must join *)
  (try
     let pool = Domain_pool.create ~domains:3 in
     let batch =
       Domain.spawn (fun () ->
           match
             Domain_pool.run_all pool
               (List.init 64 (fun i () ->
                    Unix.sleepf 0.001;
                    if i = 40 then failwith "injected mid-sweep fault";
                    i))
           with
           | _ -> `No_error
           | exception Failure msg when msg = "injected mid-sweep fault" -> `Fault
           | exception Invalid_argument _ -> `Not_started (* lost the race: fine *)
           | exception e -> raise e)
     in
     Unix.sleepf 0.01;
     Domain_pool.shutdown pool;
     (match Domain.join batch with
      | `Fault -> Printf.eprintf "domain pool: mid-sweep fault propagated, clean shutdown\n%!"
      | `Not_started ->
        Printf.eprintf "domain pool: shutdown won the race, batch refused cleanly\n%!"
      | `No_error ->
        failed := true;
        Printf.eprintf "domain pool: FAIL — injected fault was swallowed\n%!");
     (* after the joined shutdown, the pool must refuse further work
        rather than hang *)
     match Domain_pool.run pool (fun () -> ()) with
     | () ->
       failed := true;
       Printf.eprintf "domain pool: FAIL — accepted work after shutdown\n%!"
     | exception Invalid_argument _ -> ()
   with e ->
     failed := true;
     Printf.eprintf "domain pool: FAIL — %s\n%!" (Printexc.to_string e));
  (match Cs.ship_under_faults ~bytes:(256 * 1024) ~fault_p:0.25 ~seed:123 () with
   | Ok (stats, true) when stats.Dw_transport.File_ship.retries > 0 ->
     Printf.eprintf "ship under faults: %d bytes, %d retries, byte-identical\n%!"
       stats.Dw_transport.File_ship.bytes stats.Dw_transport.File_ship.retries
   | Ok (stats, true) ->
     Printf.eprintf "ship under faults: no fault fired (%d chunks) — seed too lucky\n%!"
       stats.Dw_transport.File_ship.chunks
   | Ok (_, false) ->
     failed := true;
     Printf.eprintf "ship under faults: FAIL — copy not byte-identical\n%!"
   | Error e ->
     failed := true;
     Printf.eprintf "ship under faults: FAIL — %s\n%!" e);
  if !failed then exit 1
