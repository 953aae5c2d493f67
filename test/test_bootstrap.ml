(* Tests for Dw_etl.Bootstrap (resumable chunked online load) and its
   Pipeline integration: convergence with and without live writes,
   window dedup, lease mutual exclusion, crash/resume at systematic
   fault points, clean abort on exhausted retries, the AIMD chunk valve,
   the run-transition counters, and a qcheck property randomizing the
   crash point under concurrent commits. *)

module Vfs = Dw_storage.Vfs
module Fault = Vfs.Fault
module Metrics = Dw_util.Metrics
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Workload = Dw_workload.Workload
module Warehouse = Dw_warehouse.Warehouse
module Opdelta_capture = Dw_core.Opdelta_capture
module Bootstrap = Dw_etl.Bootstrap
module Pipeline = Dw_etl.Pipeline
module EB = Dw_experiments.Exp_bootstrap
module Cs = Dw_experiments.Crash_sim

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let has_prefix p s = String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

let spec ?(rows = 40) ?(commits = 0) ?(chunk = 8) ?(seed = 1) () =
  { EB.rows; commits; chunk; seed }

let start_exn ?owner env =
  match EB.start_bootstrap ?owner env with
  | Ok b -> b
  | Error (Bootstrap.Lease_held { owner; _ }) -> Alcotest.fail ("lease held by " ^ owner)
  | Error (Bootstrap.Failed e) -> Alcotest.fail e

let run_exn b =
  match Bootstrap.run b with
  | Ok p -> p
  | Error (Bootstrap.Lease_held { owner; _ }) -> Alcotest.fail ("lease held by " ^ owner)
  | Error (Bootstrap.Failed e) -> Alcotest.fail e

let start_hooked env ~hook ~owner =
  match
    Bootstrap.start ~config:(EB.config env.EB.spec) ~hook ~owner ~source:env.EB.src
      ~capture:env.EB.cap ~table:"parts" ~queue:env.EB.queue ~warehouse:env.EB.wh
      ()
  with
  | Ok b -> b
  | Error _ -> Alcotest.fail "start refused"

(* ---------- plain convergence, durable state, run counters ---------- *)

let basic_convergence () =
  let env = EB.mk_env (spec ()) in
  let p = run_exn (start_exn env) in
  check Alcotest.bool "complete" true p.Bootstrap.complete;
  check Alcotest.bool "not resumed" false p.Bootstrap.resumed;
  check Alcotest.int "all rows loaded" 40 p.Bootstrap.rows_loaded;
  check Alcotest.bool "converged" true (EB.converged env);
  (* durable state row: Complete, lease released *)
  (match Warehouse.bootstrap env.EB.wh "parts" with
   | Some row ->
     check Alcotest.bool "state complete" true (row.Warehouse.state = Warehouse.Complete);
     check Alcotest.string "lease released" "" row.Warehouse.lease_owner
   | None -> Alcotest.fail "no state row");
  (* the registry counts the run's transitions; its chunks are samples *)
  let metrics = Db.metrics (Warehouse.db env.EB.wh) in
  List.iter
    (fun (key, want) -> check Alcotest.int key want (Metrics.get metrics key))
    [ ("bootstrap.started", 1); ("bootstrap.resumed", 0); ("bootstrap.completed", 1);
      ("bootstrap.aborted", 0) ];
  check Alcotest.int "a chunk_rows sample per chunk" p.Bootstrap.chunks_this_run
    (Metrics.observed_count metrics "bootstrap.chunk_rows")

let live_writes_converge () =
  let env = EB.mk_env (spec ~rows:48 ~commits:9 ~seed:3 ()) in
  let p = run_exn (start_exn env) in
  check Alcotest.bool "complete" true p.Bootstrap.complete;
  check Alcotest.bool "deltas applied" true (p.Bootstrap.delta_txns_applied > 0);
  check Alcotest.bool "converged under live writes" true (EB.converged env)

(* a delta inside the watermark window supersedes the whole overlapping
   chunk: every key it touches is dropped from the chunk upsert *)
let window_dedup () =
  let env = EB.mk_env (spec ()) in
  let fired = ref false in
  let hook = function
    | Bootstrap.Window_open _ when not !fired ->
      fired := true;
      (match
         Opdelta_capture.exec_txn env.EB.cap
           [ Workload.update_parts_stmt ~first_id:1 ~size:40 ]
       with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e)
    | _ -> ()
  in
  let p = run_exn (start_hooked env ~hook ~owner:"dedup") in
  (* the update touched all 40 keys inside chunk 0's window, so the whole
     first chunk (8 rows) arrives via the delta path, not the chunk *)
  check Alcotest.int "first chunk fully deduped" 8 p.Bootstrap.rows_deduped;
  check Alcotest.bool "converged" true (EB.converged env)

(* an UPDATE that changes a row's key inside a watermark window must
   delete the old key too: the chunk may already have loaded it (i >= 1)
   or may still carry it (i = 0).  The qty control changes no key. *)
let window_update_converges ~set ~chunk () =
  let env = EB.mk_env (spec ()) in
  let stmt =
    match Dw_sql.Parser.parse (Printf.sprintf "UPDATE parts SET %s WHERE part_id = 3" set) with
    | Ok stmt -> stmt
    | Error e -> Alcotest.fail e
  in
  let hook = function
    | Bootstrap.After_select i when i = chunk -> (
        match Opdelta_capture.exec_txn env.EB.cap [ stmt ] with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
    | _ -> ()
  in
  let p = run_exn (start_hooked env ~hook ~owner:"rekey") in
  check Alcotest.bool "complete" true p.Bootstrap.complete;
  check Alcotest.bool (Printf.sprintf "converged (%s at chunk %d)" set chunk) true
    (EB.converged env)

let window_key_change () =
  List.iter
    (fun chunk ->
      window_update_converges ~set:"part_id = part_id + 1000" ~chunk ();
      window_update_converges ~set:"qty = qty + 1" ~chunk ())
    [ 0; 1; 3 ]

(* ---------- lease mutual exclusion ---------- *)

let lease_refused () =
  let env = EB.mk_env (spec ()) in
  let b = start_exn ~owner:"primary" env in
  (match EB.start_bootstrap ~owner:"intruder" env with
   | Error (Bootstrap.Lease_held { owner; _ }) -> check Alcotest.string "holder" "primary" owner
   | Ok _ -> Alcotest.fail "second start not refused"
   | Error (Bootstrap.Failed e) -> Alcotest.fail e);
  let p = run_exn b in
  check Alcotest.bool "primary completed" true p.Bootstrap.complete;
  (* after completion the lease is gone; a new start is a no-op re-run *)
  match EB.start_bootstrap ~owner:"intruder" env with
  | Ok b2 ->
    let p2 = run_exn b2 in
    check Alcotest.bool "re-run is complete no-op" true p2.Bootstrap.complete;
    check Alcotest.int "no chunks re-done" 0 p2.Bootstrap.chunks_this_run
  | Error _ -> Alcotest.fail "start after completion refused"

(* ---------- lease contention on a simulated clock ---------- *)

let with_sim_clock env =
  let sim = Dw_util.Sim_clock.create () in
  Metrics.use_sim_clock (Db.metrics (Warehouse.db env.EB.wh)) sim;
  sim

let lease_expiry_steal () =
  (* an abandoned run's lease lapses on the registry clock; a new owner
     steals it, and the stale handle aborts cleanly on its next renewal
     instead of corrupting the winner's run *)
  let env = EB.mk_env (spec ()) in
  let sim = with_sim_clock env in
  let stale = start_exn ~owner:"primary" env in
  Dw_util.Sim_clock.advance sim (int_of_float Bootstrap.default_config.Bootstrap.lease_ttl_s + 1);
  let winner =
    match EB.start_bootstrap ~owner:"thief" env with
    | Ok b -> b
    | Error _ -> Alcotest.fail "expired lease not stolen"
  in
  (match Bootstrap.run stale with
   | Error (Bootstrap.Failed msg) ->
     check Alcotest.bool "stale run aborts on the lost lease" true
       (has_prefix "lease lost" msg)
   | Ok _ -> Alcotest.fail "stale handle ran to completion over a stolen lease"
   | Error (Bootstrap.Lease_held _) -> Alcotest.fail "stale run refused at start, not renewal");
  let p = run_exn winner in
  check Alcotest.bool "thief completes" true p.Bootstrap.complete;
  check Alcotest.bool "converged" true (EB.converged env)

let lease_same_owner_reacquires () =
  (* the same owner re-acquiring a live lease is a resume, not contention
     — crash recovery must not have to wait out its own TTL *)
  let env = EB.mk_env (spec ()) in
  let (_ : Dw_util.Sim_clock.t) = with_sim_clock env in
  let (_ : Bootstrap.t) = start_exn ~owner:"primary" env in
  let b2 =
    match EB.start_bootstrap ~owner:"primary" env with
    | Ok b -> b
    | Error _ -> Alcotest.fail "same owner refused its own live lease"
  in
  let p = run_exn b2 in
  check Alcotest.bool "re-acquired handle completes" true p.Bootstrap.complete

let lease_expired_single_winner () =
  (* two acquirers arriving after the expiry: the first steal commits a
     fresh lease, so the second must be refused *)
  let env = EB.mk_env (spec ()) in
  let sim = with_sim_clock env in
  let (_ : Bootstrap.t) = start_exn ~owner:"primary" env in
  Dw_util.Sim_clock.advance sim (int_of_float Bootstrap.default_config.Bootstrap.lease_ttl_s + 1);
  (match EB.start_bootstrap ~owner:"a" env with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first acquirer refused an expired lease");
  match EB.start_bootstrap ~owner:"b" env with
  | Error (Bootstrap.Lease_held { owner; _ }) -> check Alcotest.string "winner holds" "a" owner
  | Ok _ -> Alcotest.fail "both acquirers won the expired lease"
  | Error (Bootstrap.Failed e) -> Alcotest.fail e

(* ---------- crash / resume ---------- *)

let crash_mid_load_resumes () =
  let s = spec ~rows:48 ~commits:6 ~seed:5 () in
  let flow =
    EB.flow s ~redone:(fun extra ->
        check Alcotest.bool "resume re-does <= 1 chunk" true (extra <= 1))
  in
  let total = List.hd (Cs.count flow) in
  check Alcotest.bool "events counted" true (total > 0);
  let totals = Metrics.create () in
  List.iter
    (fun k ->
      match Cs.point flow ~totals ~device:0 k with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "crash point %d: %s" k msg))
    [ 1; total / 3; total / 2; total - 2 ]

let abort_then_resume () =
  let env = EB.mk_env (spec ~rows:32 ~seed:9 ()) in
  let config = { (EB.config env.EB.spec) with Bootstrap.max_retries = 2 } in
  let b =
    match
      Bootstrap.start ~config ~owner:"o1" ~source:env.EB.src ~capture:env.EB.cap
        ~table:"parts" ~queue:env.EB.queue ~warehouse:env.EB.wh ()
    with
    | Ok b -> b
    | Error _ -> Alcotest.fail "start refused"
  in
  (* every warehouse write now fails transiently: the retry budget runs
     out and the run aborts cleanly instead of crashing *)
  Vfs.set_fault env.EB.whvfs
    (Some (Fault.make ~write_fail_p:1.0 ~fsync_fail_p:1.0 ~seed:1 ()));
  (match Bootstrap.run b with
   | Error (Bootstrap.Failed _) -> ()
   | Ok _ -> Alcotest.fail "run succeeded under a total-failure fault"
   | Error (Bootstrap.Lease_held _) -> Alcotest.fail "unexpected lease error");
  Vfs.set_fault env.EB.whvfs None;
  (* the table is visibly still bootstrapping *)
  (match Warehouse.bootstrap env.EB.wh "parts" with
   | Some row ->
     check Alcotest.bool "still bootstrapping" true
       (row.Warehouse.state = Warehouse.Bootstrapping)
   | None -> Alcotest.fail "no state row");
  (* the same owner resumes straight through *)
  let b2 =
    match
      Bootstrap.start ~config ~owner:"o1" ~source:env.EB.src ~capture:env.EB.cap
        ~table:"parts" ~queue:env.EB.queue ~warehouse:env.EB.wh ()
    with
    | Ok b -> b
    | Error _ -> Alcotest.fail "resume refused"
  in
  let p = run_exn b2 in
  check Alcotest.bool "resumed" true p.Bootstrap.resumed;
  check Alcotest.bool "complete" true p.Bootstrap.complete;
  check Alcotest.bool "converged" true (EB.converged env);
  let metrics = Db.metrics (Warehouse.db env.EB.wh) in
  List.iter
    (fun (key, want) -> check Alcotest.int key want (Metrics.get metrics key))
    [ ("bootstrap.started", 1); ("bootstrap.aborted", 1); ("bootstrap.resumed", 1);
      ("bootstrap.completed", 1) ]

(* ---------- AIMD chunk valve ---------- *)

let aimd_shrinks_under_lock_pressure () =
  let env = EB.mk_env (spec ~rows:64 ~seed:11 ()) in
  let m = Db.metrics (Warehouse.db env.EB.wh) in
  (* simulate reader lock pressure: a fat lock.wait tail on the warehouse
     registry, well above the configured p95 threshold *)
  for _ = 1 to 50 do
    Metrics.observe m "lock.wait" 0.5
  done;
  let config = { (EB.config env.EB.spec) with Bootstrap.chunk_min = 2 } in
  let b =
    match
      Bootstrap.start ~config ~owner:"aimd" ~source:env.EB.src ~capture:env.EB.cap
        ~table:"parts" ~queue:env.EB.queue ~warehouse:env.EB.wh ()
    with
    | Ok b -> b
    | Error _ -> Alcotest.fail "start refused"
  in
  let p = run_exn b in
  check Alcotest.bool "complete" true p.Bootstrap.complete;
  check (Alcotest.float 0.001) "target shrunk to the floor" 2.0
    (List.assoc "bootstrap.chunk_target" (Metrics.gauges m));
  (* halving 8 -> 4 -> 2 -> 2 ... needs strictly more chunks than 64/8 *)
  check Alcotest.bool "more, smaller chunks" true (p.Bootstrap.chunks_done > 8);
  check Alcotest.bool "converged" true (EB.converged env)

(* ---------- pipeline integration ---------- *)

let pipeline_bootstrap_then_rounds () =
  let src = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let (_ : Table.t) = Workload.create_parts_table src in
  Workload.load_parts src ~rows:40 ();
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let pipe =
    Pipeline.create ~capture_images:true ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Pipeline.Op_delta_wrapper ~transport:(Pipeline.Queued "bq") ()
  in
  let cap = Option.get (Pipeline.capture pipe) in
  let exec stmts =
    match Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* live writes land mid-bootstrap through the pipeline's own capture *)
  let hook = function
    | Bootstrap.Window_open 1 -> exec [ Workload.update_parts_stmt ~first_id:5 ~size:10 ]
    | Bootstrap.After_select 2 ->
      exec (Workload.insert_parts_txn ~first_id:500 ~size:4 ~day:(Db.current_day src) ())
    | _ -> ()
  in
  (match Pipeline.bootstrap ~hook pipe ~owner:"pipe" with
   | Ok p -> check Alcotest.bool "bootstrap complete" true p.Bootstrap.complete
   | Error (Bootstrap.Failed e) -> Alcotest.fail e
   | Error (Bootstrap.Lease_held _) -> Alcotest.fail "lease held");
  let rows db =
    let acc = ref [] in
    Table.scan (Db.table db "parts") (fun _ t -> acc := t :: !acc);
    List.sort Tuple.compare !acc
  in
  check Alcotest.bool "converged after bootstrap" true (rows src = rows (Warehouse.db wh));
  (* steady state: the same pipeline keeps maintaining incrementally and
     does not re-apply what the bootstrap already integrated *)
  exec [ Workload.update_parts_stmt ~first_id:1 ~size:7 ];
  exec [ Workload.delete_parts_stmt ~first_id:20 ~size:2 ];
  (match Pipeline.run_round pipe with
   | Ok stats -> check Alcotest.int "round sees only fresh txns" 2 stats.Pipeline.extracted_changes
   | Error e -> Alcotest.fail e);
  check Alcotest.bool "converged after round" true (rows src = rows (Warehouse.db wh))

let pipeline_bootstrap_guards () =
  let src = Db.create ~archive_log:true ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let (_ : Table.t) = Workload.create_parts_table src in
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  (* wrong method *)
  let p1 =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_:Pipeline.Trigger
      ~transport:(Pipeline.Queued "g1") ()
  in
  check Alcotest.bool "non-op-delta refused" true
    (Result.is_error (Pipeline.bootstrap p1 ~owner:"g"));
  (* no image capture *)
  let p2 =
    Pipeline.create ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Pipeline.Op_delta_wrapper ~transport:(Pipeline.Queued "g2") ()
  in
  check Alcotest.bool "no-images refused" true
    (Result.is_error (Pipeline.bootstrap p2 ~owner:"g"));
  (* direct transport *)
  let p3 =
    Pipeline.create ~capture_images:true ~source:src ~warehouse:wh ~table:"parts"
      ~method_:Pipeline.Op_delta_wrapper ~transport:Pipeline.Direct ()
  in
  check Alcotest.bool "direct transport refused" true
    (Result.is_error (Pipeline.bootstrap p3 ~owner:"g"))

(* ---------- property: any crash point converges ---------- *)

let prop_random_crash_converges =
  QCheck2.Test.make ~name:"bootstrap resumes and converges from any crash point" ~count:8
    QCheck2.Gen.(triple (int_range 0 400) (int_range 0 8) (int_range 0 999))
    (fun (k, commits, seed) ->
      let s = spec ~rows:48 ~commits ~seed () in
      let extra = ref 0 in
      let flow = EB.flow s ~redone:(fun e -> extra := e) in
      match Cs.point flow ~totals:(Metrics.create ()) ~device:0 k with
      | Ok () -> !extra <= 1
      | Error msg -> QCheck2.Test.fail_report msg)

(* ---------- one transient fault on a warehouse commit ---------- *)

(* a transient fault on any single fsync of the warehouse database is
   retried and the load still converges.  A fault on a commit's fsync
   leaves that commit standing, so the retry must find its progress mark
   and not re-apply the delta transaction (a re-executed [qty = qty + 1]
   would diverge): the hook below commits such updates between windows,
   where deltas re-execute as statements.  The queue shares the faulted
   Vfs: a retried enqueue or ack does its work once. *)
let single_fsync_fault_converges () =
  let start fault =
    let env = EB.mk_env (spec ~rows:24 ~chunk:6 ()) in
    Vfs.set_fault env.EB.whvfs (Some fault);
    let hook = function
      | Bootstrap.Chunk_done _ | Bootstrap.Catch_up -> (
          match
            Opdelta_capture.exec_txn env.EB.cap [ Workload.update_parts_stmt ~first_id:1 ~size:4 ]
          with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
      | Bootstrap.Window_open _ | Bootstrap.After_select _ | Bootstrap.Before_chunk _
      | Bootstrap.Before_swap -> ()
    in
    (env, start_hooked env ~hook ~owner:"o1")
  in
  (* [start] takes the lease without a retry: fault only what [run] does *)
  let first, events =
    let plan = Fault.make ~seed:1 () in
    let _, b = start plan in
    let first = Fault.events plan in
    ignore (run_exn b : Bootstrap.progress);
    (first, Fault.events plan)
  in
  for k = first to events - 1 do
    let window = { Fault.from_event = k; until_event = k + 1 } in
    let env, b =
      start
        (Fault.make ~sustained:[ Fault.Error_rate { window; write_p = 0.0; fsync_p = 1.0 } ]
           ~seed:1 ())
    in
    ignore (run_exn b : Bootstrap.progress);
    check Alcotest.bool (Printf.sprintf "converged with fsync fault at event %d" k) true
      (EB.converged env)
  done

let suite =
  [
    test "basic convergence + durable state + run counters" basic_convergence;
    test "live writes converge" live_writes_converge;
    test "window dedup drops superseded chunk rows" window_dedup;
    test "lease refused while held, free after completion" lease_refused;
    test "expired lease stolen, stale run aborts at renewal" lease_expiry_steal;
    test "same owner re-acquires its own live lease" lease_same_owner_reacquires;
    test "expired lease: exactly one acquirer wins" lease_expired_single_winner;
    test "crash mid-load resumes (<= 1 chunk re-done)" crash_mid_load_resumes;
    test "retry exhaustion aborts cleanly, then resumes" abort_then_resume;
    test "AIMD valve shrinks chunks under lock pressure" aimd_shrinks_under_lock_pressure;
    test "pipeline bootstrap then incremental rounds" pipeline_bootstrap_then_rounds;
    test "pipeline bootstrap guards" pipeline_bootstrap_guards;
    QCheck_alcotest.to_alcotest prop_random_crash_converges;
    test "key-changing update inside a window converges" window_key_change;
    test "one transient warehouse fsync fault converges" single_fsync_fault_converges;
  ]
