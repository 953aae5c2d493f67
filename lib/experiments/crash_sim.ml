(* Crash-point exploration: the robustness companion to the performance
   experiments.  A workload runs once against a fault plan that only
   counts write/fsync events; then, for each (or a strided subset of)
   event index k, the same workload re-runs with fail-stop armed at k —
   everything written before k survives, the crashing write may be torn,
   nothing after it happens.  The surviving bytes are re-opened in a
   fresh engine / queue / warehouse and the recovery invariants checked:

   - source DB: committed transactions' rows are present, losers' rows
     absent (the one in-flight transaction may land either way, but only
     atomically), and a post-recovery transaction survives a second
     restart (the torn WAL tail really was truncated, not skipped);
   - persistent queue: no enqueued-and-unacked message is ever lost
     (redelivery of acked ones is allowed — at-least-once), no phantom
     messages appear, and a post-recovery enqueue stays reachable.

   Warehouse refresh is swept on the real integrator, not here: the
   bootstrap sweep (Exp_bootstrap) applies queued op-deltas through
   [Warehouse.integrate_op_deltas ~mark] and acks after the commit, and
   the partitioned sweep (Exp_partition) re-applies valve-governed runs
   under a watermark [mark] — exactly-once on redelivery in both.

   Every flow runs through {!sweep}; a flow supplies only its
   fault-free event count and its one-point check.

   Everything is deterministic: the op mix, the payloads and the tear
   points all derive from seeded Dw_util.Prng streams, so a failing
   event index reproduces by itself. *)

module Vfs = Dw_storage.Vfs
module Fault = Vfs.Fault
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Workload = Dw_workload.Workload
module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng
module Pq = Dw_transport.Persistent_queue

type report = {
  total_events : int;  (* write/fsync events in the fault-free run *)
  explored : int;  (* crash points actually exercised *)
  failures : (int * string) list;  (* event index, invariant violated *)
  fault_metrics : (string * int) list;  (* fault.*/wal.*/queue.* totals *)
}

(* fold one run's injected-fault and recovery counters into the report
   totals; vfs.* traffic counters would swamp the table and are skipped *)
let accumulate totals vfs =
  List.iter
    (fun (name, v) ->
      let keep prefix =
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      in
      if keep "fault." || keep "wal." || keep "queue." || keep "retry." then
        Metrics.add totals name v)
    (Metrics.snapshot (Vfs.metrics vfs))

(* The one crash-point sweep.  [total] lists the fault-free event count
   of each device the flow faults (one entry for a single-device flow).
   Crash points are numbered across those devices' events in order, and
   each device is swept from its own first event at [stride].
   [point ~totals k] runs crash point [k] and folds its counters into the
   shared [totals]; failures come back in sweep order. *)
let sweep ?(stride = 1) ~total point =
  let rec strided base = function
    | [] -> []
    | n :: rest ->
      List.init ((n + stride - 1) / stride) (fun i -> base + (i * stride)) @ strided (base + n) rest
  in
  let points = strided 0 total in
  let totals = Metrics.create () in
  let failures =
    List.filter_map
      (fun k -> match point ~totals k with Ok () -> None | Error msg -> Some (k, msg))
      points
  in
  {
    total_events = List.fold_left ( + ) 0 total;
    explored = List.length points;
    failures;
    fault_metrics = Metrics.snapshot totals;
  }

(* ---------- source-database explorer ---------- *)

type db_spec = {
  txns : int;
  txn_size : int;  (* rows touched per transaction *)
  seed : int;
  checkpoint_every : int;  (* 0 = never *)
  group : int;  (* group-commit size; 1 = fsync every commit *)
}

let small_db_spec = { txns = 6; txn_size = 3; seed = 42; checkpoint_every = 4; group = 1 }
let default_db_spec = { txns = 12; txn_size = 8; seed = 42; checkpoint_every = 5; group = 1 }

(* group commit widens the window between a commit's append and its
   fsync; the sweep over this spec covers crashes inside that window —
   including fail-stop AT the group's one fsync event (the paper-level
   "between leader fsync and follower wakeup" point) *)
let grouped_db_spec = { default_db_spec with group = 3 }

type op =
  | Insert of { first_id : int; size : int }
  | Update of { first_id : int; size : int }
  | Delete of { first_id : int; size : int }

(* a deterministic insert/update/delete mix; updates and deletes aim at
   the id range populated so far *)
let ops_of_spec spec =
  let rng = Prng.create ~seed:spec.seed in
  let next_id = ref 1 in
  List.init spec.txns (fun i ->
      let kind = if !next_id = 1 then 0 else i mod 3 in
      match kind with
      | 0 ->
        let first_id = !next_id in
        next_id := !next_id + spec.txn_size;
        Insert { first_id; size = spec.txn_size }
      | 1 -> Update { first_id = 1 + Prng.int rng (!next_id - 1); size = spec.txn_size }
      | _ ->
        Delete { first_id = 1 + Prng.int rng (!next_id - 1); size = max 1 (spec.txn_size / 4) })

let stmts_of spec = function
  | Insert { first_id; size } ->
    Workload.insert_parts_txn ~seed:spec.seed ~first_id ~size ~day:0 ()
  | Update { first_id; size } -> [ Workload.update_parts_stmt ~first_id ~size ]
  | Delete { first_id; size } -> [ Workload.delete_parts_stmt ~first_id ~size ]

(* reference model: id -> expected tuple, mirroring the statement
   semantics (inserts use the same prng stream as insert_parts_txn; the
   engine stamps last_modified with the current day, held at 0) *)
let apply_op spec model = function
  | Insert { first_id; size } ->
    let rng = Prng.create ~seed:(spec.seed + first_id) in
    for i = 0 to size - 1 do
      let id = first_id + i in
      Hashtbl.replace model id (Workload.gen_part rng ~id ~day:0)
    done
  | Update { first_id; size } ->
    for id = first_id to first_id + size - 1 do
      match Hashtbl.find_opt model id with
      | None -> ()
      | Some t ->
        let t = Array.copy t in
        (match t.(2) with Value.Int q -> t.(2) <- Value.Int (q + 1) | _ -> assert false);
        t.(4) <- Value.Date 0;
        Hashtbl.replace model id t
    done
  | Delete { first_id; size } ->
    for id = first_id to first_id + size - 1 do
      Hashtbl.remove model id
    done

let model_rows spec ops =
  let model = Hashtbl.create 256 in
  List.iter (apply_op spec model) ops;
  List.sort Tuple.compare (Hashtbl.fold (fun _ t acc -> t :: acc) model [])

let actual_rows db =
  let rows = ref [] in
  Table.scan (Db.table db Workload.parts_table) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let rows_equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b

type db_progress = { mutable committed : op list (* newest first *); mutable in_flight : op option }

let snapshot_rows db txn =
  List.sort Tuple.compare (Db.select db txn Workload.parts_table ())

(* explicit begin/commit (not with_txn): after a crash the process is
   dead, so no abort should be attempted on the way out.

   A long-lived snapshot reader is opened after the first commit and
   re-checked after every later commit: the crash sweep thus lands fault
   points inside every version-store code path (note/publish on the
   write side, chain resolution and reader-pinned GC on the read side)
   and proves a stale reader never perturbs what recovery rebuilds. *)
let run_db_workload spec vfs ops progress =
  let db = Db.create ~pool_pages:64 ~vfs ~name:"src" () in
  Db.set_day db 0;
  if spec.group > 1 then Db.set_sync_mode db (`Group spec.group);
  let (_ : Table.t) = Workload.create_parts_table db in
  let snap = ref None in
  List.iteri
    (fun i op ->
      progress.in_flight <- Some op;
      let txn = Db.begin_txn db in
      List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) (stmts_of spec op);
      Db.commit db txn;
      progress.committed <- op :: progress.committed;
      progress.in_flight <- None;
      (match !snap with
       | Some (s, frozen) ->
         if snapshot_rows db s <> frozen then failwith "crash-sim: snapshot reader drifted"
       | None ->
         let s = Db.begin_txn ~mode:`Snapshot db in
         snap := Some (s, snapshot_rows db s));
      if spec.checkpoint_every > 0 && (i + 1) mod spec.checkpoint_every = 0 then
        Db.checkpoint db)
    ops;
  (match !snap with Some (s, _) -> Db.commit db s | None -> ());
  db

let parts_catalog = [ (Workload.parts_table, Workload.parts_schema, Some "last_modified") ]

let reopen_src vfs =
  Vfs.crash_reset vfs;
  let db, (_ : Dw_txn.Recovery.stats) =
    Db.reopen ~pool_pages:64 ~vfs ~name:"src" ~tables:parts_catalog ()
  in
  Db.set_day db 0;
  db

let count_db_events spec ops =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~seed:spec.seed ()));
  let progress = { committed = []; in_flight = None } in
  let (_ : Db.t) = run_db_workload spec vfs ops progress in
  match Vfs.fault vfs with Some f -> Fault.events f | None -> assert false

(* one crash point: run with fail-stop at [index], restart over the
   surviving bytes, check the visible rows are exactly the committed
   model (the in-flight transaction may additionally be visible as a
   whole), then prove the db is usable: commit one more row and make it
   survive a second restart. *)
let run_db_crash_point spec ops ~totals index =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~fail_stop_after:index ~seed:(spec.seed + index) ()));
  let progress = { committed = []; in_flight = None } in
  (match run_db_workload spec vfs ops progress with
   | (_ : Db.t) -> ()
   | exception Fault.Crash _ -> ());
  let db = reopen_src vfs in
  let committed = List.rev progress.committed in
  let act = actual_rows db in
  let visible =
    if rows_equal act (model_rows spec committed) then Some committed
    else
      match progress.in_flight with
      | Some op when rows_equal act (model_rows spec (committed @ [ op ])) ->
        Some (committed @ [ op ])
      | Some _ | None -> None
  in
  let result =
    match visible with
    | None ->
      Error
        (Printf.sprintf
           "recovered state matches neither committed (%d txns) nor committed+in-flight: %d rows"
           (List.length committed) (List.length act))
    | Some visible_ops ->
      if Dw_txn.Version_store.entries (Db.version_store db) <> 0 then
        Error "recovery left entries in the version store"
      else begin
        (* snapshot isolation must hold on the recovered instance: a
           reader opened before the probe commit never sees it *)
        let snap = Db.begin_txn ~mode:`Snapshot db in
        let frozen = snapshot_rows db snap in
        let probe = Insert { first_id = 1_000_000 + index; size = 1 } in
        let txn = Db.begin_txn db in
        List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) (stmts_of spec probe);
        Db.commit db txn;
        let snap_ok = snapshot_rows db snap = frozen in
        Db.commit db snap;
        if not snap_ok then Error "post-recovery snapshot saw the probe commit"
        else begin
          let db2 = reopen_src vfs in
          if rows_equal (actual_rows db2) (model_rows spec (visible_ops @ [ probe ])) then Ok ()
          else Error "post-recovery commit did not survive a second restart"
        end
      end
  in
  accumulate totals vfs;
  result

let explore ?(spec = default_db_spec) ?stride () =
  let ops = ops_of_spec spec in
  sweep ?stride ~total:[ count_db_events spec ops ] (run_db_crash_point spec ops)

(* ---------- persistent-queue explorer ---------- *)

type queue_spec = {
  messages : int;
  ack_every : int;  (* drain the queue after every n-th enqueue; 0 = never *)
  qseed : int;
}

let default_queue_spec = { messages = 12; ack_every = 4; qseed = 9 }

type queue_progress = {
  mutable enqueued : string list;  (* completed enqueues, newest first *)
  mutable enq_in_flight : string option;
  mutable acked : string list;
  mutable ack_in_flight : string option;
}

let run_queue_workload spec vfs p =
  let rng = Prng.create ~seed:spec.qseed in
  let q = Pq.open_ vfs ~name:"deltas" in
  for i = 1 to spec.messages do
    let m = Printf.sprintf "msg-%04d-%s" i (Prng.alpha_string rng 8) in
    p.enq_in_flight <- Some m;
    Pq.enqueue q m;
    p.enqueued <- m :: p.enqueued;
    p.enq_in_flight <- None;
    if spec.ack_every > 0 && i mod spec.ack_every = 0 then begin
      let continue = ref true in
      while !continue do
        match Pq.peek q with
        | None -> continue := false
        | Some m ->
          p.ack_in_flight <- Some m;
          Pq.ack q;
          p.acked <- m :: p.acked;
          p.ack_in_flight <- None
      done
    end
  done;
  q

let drain q =
  let rec go acc =
    match Pq.peek q with
    | None -> List.rev acc
    | Some m ->
      Pq.ack q;
      go (m :: acc)
  in
  go []

let count_queue_events spec =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~seed:spec.qseed ()));
  let p = { enqueued = []; enq_in_flight = None; acked = []; ack_in_flight = None } in
  let (_ : Pq.t) = run_queue_workload spec vfs p in
  match Vfs.fault vfs with Some f -> Fault.events f | None -> assert false

(* at-least-once invariant: after a crash at any point, every completed
   enqueue that was not (possibly) consumed must be redelivered; nothing
   that was never enqueued may appear; and the re-opened queue must
   still accept and retain new messages across another restart. *)
let run_queue_crash_point spec ~totals index =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~fail_stop_after:index ~seed:(spec.qseed + index) ()));
  let p = { enqueued = []; enq_in_flight = None; acked = []; ack_in_flight = None } in
  (match run_queue_workload spec vfs p with
   | (_ : Pq.t) -> ()
   | exception Fault.Crash _ -> ());
  Vfs.crash_reset vfs;
  let q = Pq.open_ vfs ~name:"deltas" in
  let delivered = drain q in
  let required =
    List.filter
      (fun m -> not (List.mem m p.acked) && p.ack_in_flight <> Some m)
      (List.rev p.enqueued)
  in
  let lost = List.filter (fun m -> not (List.mem m delivered)) required in
  let phantom =
    List.filter
      (fun m -> not (List.mem m p.enqueued) && p.enq_in_flight <> Some m)
      delivered
  in
  let result =
    if lost <> [] then
      Error (Printf.sprintf "lost %d unacked message(s), e.g. %s" (List.length lost)
               (List.hd lost))
    else if phantom <> [] then
      Error (Printf.sprintf "delivered %d phantom message(s), e.g. %s" (List.length phantom)
               (List.hd phantom))
    else begin
      (* the repaired log must keep accepting messages durably *)
      Pq.enqueue q "probe-after-recovery";
      Vfs.crash_reset vfs;
      let q2 = Pq.open_ vfs ~name:"deltas" in
      if List.mem "probe-after-recovery" (drain q2) then Ok ()
      else Error "post-recovery enqueue lost after a second restart"
    end
  in
  accumulate totals vfs;
  result

let explore_queue ?(spec = default_queue_spec) ?stride () =
  sweep ?stride ~total:[ count_queue_events spec ] (run_queue_crash_point spec)

(* ---------- batched-queue explorer ---------- *)

(* The coalesced transport path: enqueue_batch appends a whole batch of
   frames under one fsync, ack_run consumes whole runs under one sidecar
   write.  New crash windows vs the per-message path:

   - mid-batch append: the torn write may persist a frame-boundary
     PREFIX of the batch (the tail-repair truncates the rest) — allowed,
     because none of the batch was acknowledged, but the surviving
     subset must be a prefix (no holes, no reordering);
   - mid-ack_run: the sidecar write is one event, so the whole run is
     either consumed or redelivered — never split. *)

type batched_queue_spec = {
  b_messages : int;
  batch : int;  (* messages per enqueue_batch *)
  run : int;    (* max messages per peek_run/ack_run *)
  bseed : int;
}

let default_batched_queue_spec = { b_messages = 18; batch = 3; run = 4; bseed = 13 }

type batched_queue_progress = {
  mutable b_enqueued : string list;  (* completed batches' messages, newest first *)
  mutable b_enq_in_flight : string list;  (* batch being appended, in order *)
  mutable b_acked : string list;
  mutable b_ack_in_flight : string list;  (* run being acked, in order *)
}

let batched_queue_batches spec =
  let rng = Prng.create ~seed:spec.bseed in
  let msgs =
    List.init spec.b_messages (fun i ->
        Printf.sprintf "msg-%04d-%s" (i + 1) (Prng.alpha_string rng 8))
  in
  let rec split acc = function
    | [] -> List.rev acc
    | rest ->
      let b = List.filteri (fun i _ -> i < spec.batch) rest in
      let rest = List.filteri (fun i _ -> i >= spec.batch) rest in
      split (b :: acc) rest
  in
  split [] msgs

let drain_runs spec p q =
  let continue = ref true in
  while !continue do
    match Pq.peek_run q ~max:spec.run with
    | [] -> continue := false
    | run ->
      p.b_ack_in_flight <- run;
      Pq.ack_run q (List.length run);
      p.b_acked <- List.rev_append run p.b_acked;
      p.b_ack_in_flight <- []
  done

let run_batched_queue_workload spec vfs p =
  let q = Pq.open_ vfs ~name:"deltas" in
  List.iteri
    (fun i batch ->
      p.b_enq_in_flight <- batch;
      Pq.enqueue_batch q batch;
      p.b_enqueued <- List.rev_append batch p.b_enqueued;
      p.b_enq_in_flight <- [];
      if (i + 1) mod 2 = 0 then drain_runs spec p q)
    (batched_queue_batches spec);
  q

let count_batched_queue_events spec =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~seed:spec.bseed ()));
  let p = { b_enqueued = []; b_enq_in_flight = []; b_acked = []; b_ack_in_flight = [] } in
  let (_ : Pq.t) = run_batched_queue_workload spec vfs p in
  match Vfs.fault vfs with Some f -> Fault.events f | None -> assert false

(* [sub] must be a prefix of [full] — the only shape a torn batch append
   may survive in *)
let rec is_prefix sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_prefix xs ys

let run_batched_queue_crash_point spec ~totals index =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some (Fault.make ~fail_stop_after:index ~seed:(spec.bseed + index) ()));
  let p = { b_enqueued = []; b_enq_in_flight = []; b_acked = []; b_ack_in_flight = [] } in
  (match run_batched_queue_workload spec vfs p with
   | (_ : Pq.t) -> ()
   | exception Fault.Crash _ -> ());
  Vfs.crash_reset vfs;
  let q = Pq.open_ vfs ~name:"deltas" in
  let delivered =
    let rec go acc =
      match Pq.peek_run q ~max:spec.run with
      | [] -> List.rev acc
      | run ->
        Pq.ack_run q (List.length run);
        go (List.rev_append run acc)
    in
    go []
  in
  let required =
    List.filter
      (fun m -> not (List.mem m p.b_acked) && not (List.mem m p.b_ack_in_flight))
      (List.rev p.b_enqueued)
  in
  let lost = List.filter (fun m -> not (List.mem m delivered)) required in
  let phantom =
    List.filter
      (fun m -> not (List.mem m p.b_enqueued) && not (List.mem m p.b_enq_in_flight))
      delivered
  in
  let torn_survivors = List.filter (fun m -> List.mem m delivered) p.b_enq_in_flight in
  let result =
    if lost <> [] then
      Error
        (Printf.sprintf "lost %d unacked message(s), e.g. %s" (List.length lost) (List.hd lost))
    else if phantom <> [] then
      Error
        (Printf.sprintf "delivered %d phantom message(s), e.g. %s" (List.length phantom)
           (List.hd phantom))
    else if not (is_prefix torn_survivors p.b_enq_in_flight) then
      Error "torn batch survived as a non-prefix subset (hole or reorder inside the batch)"
    else begin
      (* the repaired log must keep accepting batches durably *)
      Pq.enqueue_batch q [ "probe-1"; "probe-2" ];
      Vfs.crash_reset vfs;
      let q2 = Pq.open_ vfs ~name:"deltas" in
      let redelivered = drain q2 in
      if List.mem "probe-1" redelivered && List.mem "probe-2" redelivered then Ok ()
      else Error "post-recovery batch enqueue lost after a second restart"
    end
  in
  accumulate totals vfs;
  result

let explore_batched_queue ?(spec = default_batched_queue_spec) ?stride () =
  sweep ?stride ~total:[ count_batched_queue_events spec ] (run_batched_queue_crash_point spec)

(* ---------- transient-fault file shipping ---------- *)

(* ship a file onto a destination where 20%+ of writes and fsyncs fail
   transiently; retries must absorb every fault and the copy must be
   byte-identical.  Returns (stats, bytes_match). *)
let ship_under_faults ?(bytes = 128 * 1024) ?(fault_p = 0.25) ~seed () =
  let src = Vfs.in_memory () in
  let rng = Prng.create ~seed in
  let payload = Bytes.init bytes (fun _ -> Char.chr (Prng.int rng 256)) in
  let f = Vfs.create src "delta.bin" in
  Vfs.write_at f ~off:0 payload;
  Vfs.close f;
  let dst = Vfs.in_memory () in
  Vfs.set_fault dst
    (Some (Fault.make ~write_fail_p:fault_p ~fsync_fail_p:fault_p ~seed:(seed + 1) ()));
  let result =
    Dw_transport.File_ship.ship ~chunk_size:4096 ~max_retries:64 ~src ~src_name:"delta.bin"
      ~dst ~dst_name:"delta.bin" ()
  in
  match result with
  | Error e -> Error e
  | Ok stats ->
    let g = Vfs.open_existing dst "delta.bin" in
    let copied = Vfs.read_at g ~off:0 ~len:(Vfs.size g) in
    Vfs.close g;
    Ok (stats, Bytes.equal payload copied)

(* ---------- bench entry point (dwbench "crash") ---------- *)

let print_report name r =
  Printf.printf "%-10s %5d events  %4d crash points  %d failures\n" name r.total_events
    r.explored (List.length r.failures);
  List.iter (fun (k, msg) -> Printf.printf "    FAIL at event %d: %s\n" k msg) r.failures

let run_bench ~scale =
  Bench_support.section "crash-point exploration (fault-injection VFS)";
  let stride = 8 in
  let db_spec = { default_db_spec with txns = default_db_spec.txns * scale } in
  let q_spec = { default_queue_spec with messages = default_queue_spec.messages * scale } in
  let bq_spec =
    { default_batched_queue_spec with b_messages = default_batched_queue_spec.b_messages * scale }
  in
  let flows =
    [
      ("db", fun () -> explore ~spec:db_spec ~stride ());
      ("db-group", fun () -> explore ~spec:{ db_spec with group = grouped_db_spec.group } ~stride ());
      ("queue", fun () -> explore_queue ~spec:q_spec ~stride ());
      ("queue-bat", fun () -> explore_batched_queue ~spec:bq_spec ~stride ());
    ]
  in
  let timed = List.map (fun (name, run) -> (name, Bench_support.time run)) flows in
  List.iter (fun (name, (r, _)) -> print_report name r) timed;
  Printf.printf "sweep times: %s\n"
    (String.concat ", " (List.map (fun (name, (_, t)) -> name ^ " " ^ Bench_support.dur t) timed));
  (match ship_under_faults ~seed:(77 + scale) () with
   | Error e -> Printf.printf "ship under 25%% transient faults: FAILED (%s)\n" e
   | Ok (stats, identical) ->
     Printf.printf "ship under 25%% transient faults: %d bytes, %d chunks, %d retries, %s\n"
       stats.Dw_transport.File_ship.bytes stats.Dw_transport.File_ship.chunks
       stats.Dw_transport.File_ship.retries
       (if identical then "byte-identical" else "CORRUPTED"));
  let totals = Metrics.create () in
  List.iter
    (fun (_, (r, _)) -> List.iter (fun (n, v) -> Metrics.add totals n v) r.fault_metrics)
    timed;
  Bench_support.print_table ~title:"injected faults and recovery work (totals)"
    ~header:[ "counter"; "total" ]
    ~rows:
      (List.map
         (fun (name, v) -> [ name; string_of_int v ])
         (Metrics.diff ~before:[] ~after:(Metrics.snapshot totals)))
