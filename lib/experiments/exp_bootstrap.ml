(* Experiment W4: resumable watermark-based bootstrap under live writes.

   A fresh warehouse replica is bootstrapped from a live source while
   hooks inject concurrent committed transactions into the watermark
   windows.  The crash arm kills the run (fail-stop fault VFS) at
   systematic write/fsync events covering every phase — mid-chunk apply,
   between chunk and progress commit, during lease renewal, during the
   final watermark swap — restarts from bytes, resumes, and checks:

   - convergence: warehouse rows equal a quiesced read of the source;
   - resume cost: the resumed run re-does at most one chunk of work
     (vs. [restart_chunks] for a from-scratch load);
   - mutual exclusion: a second start while the lease is live is
     refused.

   [flow] is the crash flow {!Crash_sim.sweep} runs: [explore_bootstrap]
   for the @crash alias; [run_bench] is the dwbench "w4" entry, whose
   sweep also tracks the worst-case re-done chunks. *)

module Vfs = Dw_storage.Vfs
module Fault = Vfs.Fault
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Workload = Dw_workload.Workload
module Warehouse = Dw_warehouse.Warehouse
module Pq = Dw_transport.Persistent_queue
module Opdelta_capture = Dw_core.Opdelta_capture
module Bootstrap = Dw_etl.Bootstrap
module Metrics = Dw_util.Metrics
module Cs = Crash_sim

type spec = {
  rows : int;     (* initial source rows *)
  commits : int;  (* concurrent source txns injected into windows *)
  chunk : int;    (* fixed chunk size (chunk_min = chunk_max: deterministic count) *)
  seed : int;
}

let default_spec = { rows = 96; commits = 10; chunk = 16; seed = 42 }

type env = {
  spec : spec;
  src : Db.t;
  cap : Opdelta_capture.t;
  whvfs : Vfs.t;
  mutable wh : Warehouse.t;
  mutable queue : Pq.t;
  mutable commits_left : int;
  mutable commit_idx : int;
}

(* live writes land at fixed hook points (one txn per window phase), so
   every run with the same spec sees the same schedule — the determinism
   the crash sweep's event counting depends on *)
let live_write env =
  if env.commits_left > 0 then begin
    env.commits_left <- env.commits_left - 1;
    let i = env.commit_idx in
    env.commit_idx <- i + 1;
    let stmts =
      match i mod 3 with
      | 0 ->
        Workload.insert_parts_txn
          ~first_id:(100_000 + (i * 10))
          ~size:2 ~day:(Db.current_day env.src) ()
      | 1 -> [ Workload.update_parts_stmt ~first_id:(1 + (i * 7 mod env.spec.rows)) ~size:3 ]
      | _ -> [ Workload.delete_parts_stmt ~first_id:(1 + (i * 11 mod env.spec.rows)) ~size:1 ]
    in
    match Opdelta_capture.exec_txn env.cap stmts with
    | Ok _ -> ()
    | Error e -> failwith ("w4 live write failed: " ^ e)
  end

let hook env = function
  | Bootstrap.Window_open _ | Bootstrap.After_select _ -> live_write env
  | Bootstrap.Before_chunk _ | Bootstrap.Chunk_done _ | Bootstrap.Catch_up
  | Bootstrap.Before_swap -> ()

let mk_env spec =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let (_ : Table.t) = Workload.create_parts_table src in
  Workload.load_parts src ~rows:spec.rows ();
  let cap =
    Opdelta_capture.create ~capture_images:true src ~sink:(Opdelta_capture.To_file "boot.oplog")
  in
  let whvfs = Vfs.in_memory () in
  let wh = Warehouse.create ~vfs:whvfs ~name:"dw" () in
  Warehouse.add_replica wh ~table:Workload.parts_table ~schema:Workload.parts_schema;
  let queue = Pq.open_ whvfs ~name:"boot.q" in
  { spec; src; cap; whvfs; wh; queue; commits_left = spec.commits; commit_idx = 0 }

let config spec =
  {
    Bootstrap.default_config with
    Bootstrap.chunk_max = spec.chunk;
    chunk_min = spec.chunk;
    seed = spec.seed;
  }

let start_bootstrap ?(owner = "w4-primary") env =
  Bootstrap.start ~config:(config env.spec) ~hook:(hook env) ~owner ~source:env.src
    ~capture:env.cap ~table:Workload.parts_table ~queue:env.queue ~warehouse:env.wh ()

(* one bootstrap attempt; a fail-stop fault surfaces as `Crashed with the
   chunk transactions the attempt managed to apply durably *)
let run_attempt ?owner env =
  match start_bootstrap ?owner env with
  | Error (Bootstrap.Lease_held _) -> `Refused
  | Error (Bootstrap.Failed e) -> `Failed e
  | exception Fault.Crash _ -> `Crashed 0
  | Ok b -> (
    match Bootstrap.run b with
    | Ok p -> `Done p
    | Error (Bootstrap.Lease_held _) -> `Failed "lease refused mid-run"
    | Error (Bootstrap.Failed e) -> `Failed e
    | exception Fault.Crash _ -> `Crashed (Bootstrap.progress b).Bootstrap.chunks_this_run)

(* restart from bytes: reopen the warehouse and queue off the crashed
   VFS (no table creation) *)
let restart env =
  Vfs.crash_reset env.whvfs;
  env.wh <-
    Warehouse.reopen ~pool_pages:64 ~vfs:env.whvfs ~name:"dw"
      ~replicas:[ (Workload.parts_table, Workload.parts_schema) ]
      ~views:[] ~agg_views:[] ();
  env.queue <- Pq.open_ env.whvfs ~name:"boot.q"

let converged env =
  let s = Bench_support.sorted_rows env.src Workload.parts_table in
  let w = Bench_support.sorted_rows (Warehouse.db env.wh) Workload.parts_table in
  List.length s = List.length w && List.for_all2 Tuple.equal s w

(* restart from bytes after the first attempt, resume, verify.  Returns
   the chunk transactions re-done beyond the durable total on success. *)
let resume env first =
  match first with
  | `Failed e -> Error ("first attempt failed: " ^ e)
  | `Refused -> Error "first attempt refused"
  | `Done p ->
    (* the fault fired after the bootstrap's last warehouse write (or
       not at all); nothing to resume *)
    if converged env then Ok (max 0 (p.Bootstrap.chunks_this_run - p.Bootstrap.chunks_done))
    else Error "completed run did not converge"
  | `Crashed chunks_run1 -> (
    restart env;
    match run_attempt env with
    | `Done p ->
      if not p.Bootstrap.complete then Error "resumed run did not complete"
      else if not (converged env) then Error "resumed run did not converge"
      else begin
        let redone = chunks_run1 + p.Bootstrap.chunks_this_run - p.Bootstrap.chunks_done in
        if redone > 1 then
          Error (Printf.sprintf "resume re-did %d chunks (> 1)" redone)
        else if chunks_run1 > 0 && not p.Bootstrap.resumed && p.Bootstrap.chunks_this_run > 0
        then
          (* a durable chunk txn implies a durable state row, so a second
             attempt that re-does chunk work must have picked it up; a
             crash before anything durable legitimately restarts fresh,
             and one after the durable Complete swap legitimately
             reopens as a non-resumed no-op *)
          Error "second attempt did not resume"
        else Ok (max 0 redone)
      end
    | `Crashed _ -> Error "resumed run crashed again (fault plan not inert)"
    | `Refused -> Error "resume refused its own expired lease"
    | `Failed e -> Error ("resume failed: " ^ e))

(* The bootstrap crash flow: the plan goes on after setup, and the check
   resumes from the surviving bytes, handing [redone] each recovered
   point's re-done chunk count.  [run_attempt] catches the crash itself. *)
let flow ~redone spec =
  {
    Cs.seed = spec.seed;
    setup = (fun () -> mk_env spec);
    devices = (fun env -> [ env.whvfs ]);
    workload =
      (fun env ~arm ->
        arm ();
        run_attempt env);
    check = (fun env first -> Result.map redone (resume env (Option.get first)));
  }

let explore_bootstrap ?(spec = default_spec) ?stride () =
  Cs.sweep ?stride (flow ~redone:ignore spec)

let run_bench ~scale =
  Bench_support.section "W4: resumable bootstrap (chunked load + watermark windows)";
  let rows = Bench_support.scaled 2400 ~scale in
  let spec = { default_spec with rows; chunk = max 8 (rows / 12) } in
  let m = Metrics.create () in
  (* arm 1: fault-free baseline, with a lease-refusal probe while the
     primary's lease is live *)
  let env = mk_env spec in
  Vfs.set_fault env.whvfs (Some (Fault.make ~seed:spec.seed ()));
  let primary =
    match start_bootstrap env with
    | Ok b -> b
    | Error _ -> failwith "w4: primary start refused"
  in
  let refused =
    match start_bootstrap ~owner:"w4-intruder" env with
    | Error (Bootstrap.Lease_held _) -> true
    | Ok _ | Error (Bootstrap.Failed _) -> false
  in
  let p =
    match Bootstrap.run primary with
    | Ok p -> p
    | Error (Bootstrap.Failed e) -> failwith ("w4: baseline failed: " ^ e)
    | Error (Bootstrap.Lease_held _) -> failwith "w4: baseline lost its lease"
  in
  if not (converged env) then failwith "w4: baseline did not converge";
  let total_events = match Vfs.fault env.whvfs with Some f -> Fault.events f | None -> 0 in
  (* arm 2: systematic crash sweep with resume, tracking the worst-case
     re-done work *)
  let max_extra = ref 0 in
  let report =
    Cs.sweep ~stride:(max 1 (total_events / 40))
      (flow ~redone:(fun extra -> max_extra := max !max_extra extra) spec)
  in
  List.iter (fun (k, msg) -> Printf.printf "  crash point %d FAILED: %s\n%!" k msg) report.Cs.failures;
  let failures = List.length report.Cs.failures in
  Metrics.set_gauge m "w4.restart_chunks" (float_of_int p.Bootstrap.chunks_done);
  Metrics.set_gauge m "w4.resume_extra_chunks" (float_of_int !max_extra);
  Metrics.set_gauge m "w4.lease_refused" (if refused then 1.0 else 0.0);
  Metrics.set_gauge m "w4.converged" (if failures = 0 then 1.0 else 0.0);
  Metrics.set_gauge m "w4.crash_points" (float_of_int report.Cs.explored);
  Metrics.set_gauge m "w4.rows_deduped" (float_of_int p.Bootstrap.rows_deduped);
  Bench_support.print_table ~title:"W4: bootstrap resume cost vs restart"
    ~header:[ "rows"; "chunks"; "crash points"; "failures"; "max re-done chunks"; "deduped" ]
    ~rows:
      [
        [
          string_of_int spec.rows;
          string_of_int p.Bootstrap.chunks_done;
          string_of_int report.Cs.explored;
          string_of_int failures;
          string_of_int !max_extra;
          string_of_int p.Bootstrap.rows_deduped;
        ];
      ];
  if failures > 0 then failwith "w4: crash sweep had failures"
