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
     messages appear, and a post-recovery enqueue stays reachable;
   - extraction pipeline: a round of any method commits its mark with
     its data, so the restarted pipeline converges without re-applying
     or skipping the round.

   Op-Delta refresh is also swept elsewhere on the real integrator: the
   bootstrap sweep (Exp_bootstrap) applies queued op-deltas through
   [Warehouse.integrate_op_deltas ~mark] and acks after the commit, and
   the partitioned sweep (Exp_partition) re-applies valve-governed runs
   under a watermark [mark] — exactly-once on redelivery in both.

   Every flow runs through {!sweep}, which arms the fault plans itself:
   a flow supplies its workload once, plus a recovery check.

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
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline

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

(* A crash flow.  [setup] builds a fresh scene, and [devices] names the
   devices the sweep faults on it, in numbering order (read when the
   plans go on, so a device the workload swaps in counts).  [workload]
   runs on the scene and calls [arm] once, where the plans go on.
   [check] restarts from the surviving bytes and verifies recovery; it
   gets the workload's result, or [None] when the workload died of the
   injected crash. *)
type ('s, 'o) flow = {
  seed : int;
  setup : unit -> 's;
  devices : 's -> Vfs.t list;
  workload : 's -> arm:(unit -> unit) -> 'o;
  check : 's -> 'o option -> (unit, string) result;
}

(* the fault-free event count of each device: the workload runs once
   with a counting-only plan (seed [seed]) armed on every device *)
let count flow =
  let s = flow.setup () in
  let arm () =
    List.iter
      (fun vfs -> Vfs.set_fault vfs (Some (Fault.make ~seed:flow.seed ())))
      (flow.devices s)
  in
  ignore (flow.workload s ~arm);
  List.map
    (fun vfs -> match Vfs.fault vfs with Some f -> Fault.events f | None -> 0)
    (flow.devices s)

(* one crash point: device [device] fail-stops at its event [k] (seed
   [seed + k]; the other devices run unplanned), then [check] runs and
   every device's counters fold into [totals].  Any other exception out
   of the workload or the check is this point's failure, not the
   sweep's end. *)
let point flow ~totals ~device k =
  let s = flow.setup () in
  let arm () =
    Vfs.set_fault (List.nth (flow.devices s) device)
      (Some (Fault.make ~fail_stop_after:k ~seed:(flow.seed + k) ()))
  in
  let check outcome =
    try flow.check s outcome with e -> Error ("check raised " ^ Printexc.to_string e)
  in
  let result =
    match flow.workload s ~arm with
    | o -> check (Some o)
    | exception Fault.Crash _ -> check None
    | exception e -> Error ("workload raised " ^ Printexc.to_string e)
  in
  List.iter (accumulate totals) (flow.devices s);
  result

(* The one crash-point sweep.  Crash points are numbered across the
   devices' events in order, and each device is swept from its own first
   event at [stride]; failures come back in sweep order, a multi-device
   flow's messages naming the device and its event. *)
let sweep ?(stride = 1) flow =
  let total = count flow in
  let multi = List.length total > 1 in
  let totals = Metrics.create () in
  let rec go device base = function
    | [] -> []
    | n :: rest ->
      let here =
        List.filter_map
          (fun i ->
            let k = i * stride in
            match point flow ~totals ~device k with
            | Ok () -> None
            | Error msg when multi ->
              Some (base + k, Printf.sprintf "device %d event %d: %s" device k msg)
            | Error msg -> Some (base + k, msg))
          (List.init ((n + stride - 1) / stride) Fun.id)
      in
      here @ go (device + 1) (base + n) rest
  in
  let failures = go 0 0 total in
  {
    total_events = List.fold_left ( + ) 0 total;
    explored = List.fold_left (fun acc n -> acc + ((n + stride - 1) / stride)) 0 total;
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

let actual_rows db = Bench_support.sorted_rows db Workload.parts_table

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

(* The source-db flow.  The check: restart over the surviving bytes,
   demand that the visible rows be exactly the committed model (the
   in-flight transaction may additionally be visible as a whole), then
   prove the db is usable: commit one more row and make it survive a
   second restart. *)
let db_flow spec =
  let ops = ops_of_spec spec in
  let check (vfs, progress) _ =
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
        let probe = Insert { first_id = 1_000_000; size = 1 } in
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
  {
    seed = spec.seed;
    setup = (fun () -> (Vfs.in_memory (), { committed = []; in_flight = None }));
    devices = (fun (vfs, _) -> [ vfs ]);
    workload =
      (fun (vfs, progress) ~arm ->
        arm ();
        ignore (run_db_workload spec vfs ops progress : Db.t));
    check;
  }

let explore ?(spec = default_db_spec) ?stride () = sweep ?stride (db_flow spec)

(* ---------- persistent-queue explorers ---------- *)

type queue_spec = {
  messages : int;
  ack_every : int;  (* drain the queue after every n-th enqueue; 0 = never *)
  qseed : int;
}

let default_queue_spec = { messages = 12; ack_every = 4; qseed = 9 }

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

(* how messages go into and come out of the queue: one at a time, or in
   batches and runs *)
type queue_path = {
  put : Pq.t -> string list -> unit;
  next : Pq.t -> string list;
  take : Pq.t -> string list -> unit;
}

let per_message =
  {
    put = (fun q ms -> List.iter (Pq.enqueue q) ms);
    next = (fun q -> Option.to_list (Pq.peek q));
    take = (fun q _ -> Pq.ack q);
  }

let batched spec =
  {
    put = Pq.enqueue_batch;
    next = Pq.peek_run ~max:spec.run;
    take = (fun q run -> Pq.ack_run q (List.length run));
  }

type queue_progress = {
  mutable enqueued : string list;  (* completed enqueues' messages, newest first *)
  mutable enq_in_flight : string list;  (* message or batch being appended, in order *)
  mutable acked : string list;
  mutable ack_in_flight : string list;  (* message or run being acked, in order *)
}

let tracked_put path p q batch =
  p.enq_in_flight <- batch;
  path.put q batch;
  p.enqueued <- List.rev_append batch p.enqueued;
  p.enq_in_flight <- []

let rec tracked_drain path p q =
  match path.next q with
  | [] -> ()
  | run ->
    p.ack_in_flight <- run;
    path.take q run;
    p.acked <- List.rev_append run p.acked;
    p.ack_in_flight <- [];
    tracked_drain path p q

let drain path q =
  let rec go acc =
    match path.next q with
    | [] -> List.rev acc
    | run ->
      path.take q run;
      go (List.rev_append run acc)
  in
  go []

(* [sub] must be a prefix of [full] — the only shape a torn batch append
   may survive in *)
let rec is_prefix sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_prefix xs ys

(* at-least-once invariant: after a crash at any point, every completed
   enqueue that was not (possibly) consumed must be redelivered; nothing
   that was never enqueued may appear; a torn batch survives only as a
   prefix; and the re-opened queue must still accept and retain new
   messages across another restart. *)
let queue_check path (vfs, p) _ =
  Vfs.crash_reset vfs;
  let q = Pq.open_ vfs ~name:"deltas" in
  let delivered = drain path q in
  let required =
    List.filter
      (fun m -> not (List.mem m p.acked) && not (List.mem m p.ack_in_flight))
      (List.rev p.enqueued)
  in
  let lost = List.filter (fun m -> not (List.mem m delivered)) required in
  let phantom =
    List.filter
      (fun m -> not (List.mem m p.enqueued) && not (List.mem m p.enq_in_flight))
      delivered
  in
  let torn_survivors = List.filter (fun m -> List.mem m delivered) p.enq_in_flight in
  if lost <> [] then
    Error
      (Printf.sprintf "lost %d unacked message(s), e.g. %s" (List.length lost) (List.hd lost))
  else if phantom <> [] then
    Error
      (Printf.sprintf "delivered %d phantom message(s), e.g. %s" (List.length phantom)
         (List.hd phantom))
  else if not (is_prefix torn_survivors p.enq_in_flight) then
    Error "torn batch survived as a non-prefix subset (hole or reorder inside the batch)"
  else begin
    (* the repaired log must keep accepting messages durably *)
    let probes = [ "probe-1"; "probe-2" ] in
    path.put q probes;
    Vfs.crash_reset vfs;
    let redelivered = drain per_message (Pq.open_ vfs ~name:"deltas") in
    if List.for_all (fun m -> List.mem m redelivered) probes then Ok ()
    else Error "post-recovery enqueue lost after a second restart"
  end

let queue_flow_of path ~seed workload =
  {
    seed;
    setup =
      (fun () ->
        (Vfs.in_memory (), { enqueued = []; enq_in_flight = []; acked = []; ack_in_flight = [] }));
    devices = (fun (vfs, _) -> [ vfs ]);
    workload =
      (fun (vfs, p) ~arm ->
        arm ();
        workload p (Pq.open_ vfs ~name:"deltas"));
    check = queue_check path;
  }

let queue_flow spec =
  queue_flow_of per_message ~seed:spec.qseed (fun p q ->
      let rng = Prng.create ~seed:spec.qseed in
      for i = 1 to spec.messages do
        tracked_put per_message p q [ Printf.sprintf "msg-%04d-%s" i (Prng.alpha_string rng 8) ];
        if spec.ack_every > 0 && i mod spec.ack_every = 0 then tracked_drain per_message p q
      done)

let explore_queue ?(spec = default_queue_spec) ?stride () = sweep ?stride (queue_flow spec)

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

let batched_queue_flow spec =
  let path = batched spec in
  queue_flow_of path ~seed:spec.bseed (fun p q ->
      List.iteri
        (fun i batch ->
          tracked_put path p q batch;
          if (i + 1) mod 2 = 0 then tracked_drain path p q)
        (batched_queue_batches spec))

let explore_batched_queue ?(spec = default_batched_queue_spec) ?stride () =
  sweep ?stride (batched_queue_flow spec)

(* ---------- extraction-pipeline explorer ---------- *)

(* A pipeline of one method on queued transport, killed at every write
   and fsync of one round on the source and the warehouse device (and,
   for a capture method, of the source activity before it).
   Recovery restarts both from their bytes (the source with its capture
   tables, the warehouse, which adopts its marks, with its planner log)
   and re-creates
   the pipeline, which resumes from the mark its last committed round
   wrote; rounds then run until one extracts nothing, and the replica
   must equal the source and the view its recomputation.  A mark that
   committed apart from its round's data re-applies or skips that
   round. *)

type pipeline_scene = {
  method_ : Pipeline.method_;
  srcvfs : Vfs.t;
  whvfs : Vfs.t;
  src : Db.t;  (* its day and catalog survive the restart *)
  wh : Db.t;  (* whether it had a planner log survives the restart *)
  pipe : Pipeline.t;
}

let pipe_view =
  let column c = { Dw_core.Spj_view.out_name = c; from_side = Dw_core.Spj_view.L; from_col = c } in
  Dw_core.Spj_view.Select_project
    {
      name = "parts_qty";
      table = Workload.parts_table;
      schema = Workload.parts_schema;
      filter = None;
      project = [ column "part_id"; column "qty" ];
    }

let pipe_create method_ src wh =
  Pipeline.create ~source:src ~warehouse:wh ~table:Workload.parts_table ~method_
    ~transport:(Pipeline.Queued "pipe.q") ()

(* one source transaction, through the pipeline's capture wrapper when
   it has one *)
let exec_txn pipe db stmts =
  match Pipeline.capture pipe with
  | Some cap -> (
      match Dw_core.Opdelta_capture.exec_txn cap stmts with
      | Ok (_ : Db.exec_result list) -> ()
      | Error e -> failwith ("crash-sim capture: " ^ e))
  | None ->
    Db.with_txn db (fun txn ->
        List.iter (fun st -> ignore (Db.exec db txn st : Db.exec_result)) stmts)

(* one day of source activity; the timestamp method cannot see deletes.
   The update and delete of the value methods' flows aim at ids no day
   loads, so those flows sweep inserts only; the capture methods' flows
   update and delete rows of the initial load, so update pairs and
   deletes are captured and swept too. *)
let pipe_activity method_ pipe src ~first_id =
  let update, delete =
    match method_ with
    | Pipeline.Trigger | Pipeline.Op_delta_wrapper | Pipeline.Planned -> (first_id / 20, first_id / 10)
    | Pipeline.Timestamp | Pipeline.Log | Pipeline.Snapshot _ -> (first_id - 20, first_id - 12)
  in
  Db.advance_day src;
  exec_txn pipe src (Workload.insert_parts_txn ~first_id ~size:3 ~day:(Db.current_day src) ());
  exec_txn pipe src [ Workload.update_parts_stmt ~first_id:update ~size:4 ];
  if method_ <> Pipeline.Timestamp then
    exec_txn pipe src [ Workload.delete_parts_stmt ~first_id:delete ~size:2 ]

let pipe_round pipe =
  match Pipeline.run_round pipe with
  | Ok stats -> stats.Pipeline.extracted_changes
  | Error e -> failwith ("crash-sim pipeline round: " ^ e)

(* the methods whose capture writes inside the source's transactions *)
let captures = function
  | Pipeline.Trigger | Pipeline.Op_delta_wrapper | Pipeline.Planned -> true
  | Pipeline.Timestamp | Pipeline.Log | Pipeline.Snapshot _ -> false

(* two committed rounds, then the activity the swept round extracts; a
   capture method's activity is swept too, so crashes land inside its
   capturing transactions *)
let pipe_setup method_ () =
  let srcvfs = Vfs.in_memory () and whvfs = Vfs.in_memory () in
  let src = Db.create ~pool_pages:64 ~archive_log:true ~vfs:srcvfs ~name:"src" () in
  let (_ : Table.t) = Workload.create_parts_table src in
  let wh = Warehouse.create ~pool_pages:64 ~vfs:whvfs ~name:"dw" () in
  Warehouse.add_replica wh ~table:Workload.parts_table ~schema:Workload.parts_schema;
  Warehouse.define_view wh pipe_view;
  (* the capture methods see only what commits after their install *)
  let pipe = pipe_create method_ src wh in
  exec_txn pipe src (Workload.insert_parts_txn ~first_id:1 ~size:24 ~day:(Db.current_day src) ());
  ignore (pipe_round pipe : int);
  pipe_activity method_ pipe src ~first_id:100;
  ignore (pipe_round pipe : int);
  if not (captures method_) then pipe_activity method_ pipe src ~first_id:200;
  { method_; srcvfs; whvfs; src; wh = Warehouse.db wh; pipe }

(* the source's restart catalog: every table it had before the crash,
   the capture tables included *)
let catalog db = List.map (fun t -> (Table.name t, Table.schema t, Table.ts_column t)) (Db.tables db)

let pipe_check s _ =
  Vfs.crash_reset s.srcvfs;
  Vfs.crash_reset s.whvfs;
  let src, (_ : Dw_txn.Recovery.stats) =
    Db.reopen ~pool_pages:64 ~archive_log:true ~vfs:s.srcvfs ~name:"src" ~tables:(catalog s.src) ()
  in
  Db.set_day src (Db.current_day s.src);
  let extra =
    match Db.table_opt s.wh Dw_etl.Planner.log_table with
    | Some t -> [ (Dw_etl.Planner.log_table, Table.schema t) ]
    | None -> []
  in
  let wh =
    Warehouse.reopen ~pool_pages:64 ~extra ~vfs:s.whvfs ~name:"dw"
      ~replicas:[ (Workload.parts_table, Workload.parts_schema) ]
      ~views:[ pipe_view ] ~agg_views:[] ()
  in
  let view = Dw_core.Spj_view.name pipe_view in
  let rec settle pipe n =
    if n = 0 then Error "rounds kept extracting changes after recovery"
    else if pipe_round pipe > 0 then settle pipe (n - 1)
    else if not (rows_equal (actual_rows src) (actual_rows (Warehouse.db wh))) then
      Error "replica diverges from the source"
    else if Warehouse.view_rows wh view <> Warehouse.recompute_view wh view then
      Error "view diverges from its recomputation"
    else Ok ()
  in
  match settle (pipe_create s.method_ src wh) 3 with
  | result -> result
  | exception (Failure e | Invalid_argument e) -> Error e

let pipeline_flow method_ =
  {
    seed = 31;
    setup = pipe_setup method_;
    devices = (fun s -> [ s.srcvfs; s.whvfs ]);
    workload =
      (fun s ~arm ->
        arm ();
        if captures s.method_ then pipe_activity s.method_ s.pipe s.src ~first_id:200;
        pipe_round s.pipe);
    check = pipe_check;
  }

let explore_pipeline ?stride method_ = sweep ?stride (pipeline_flow method_)

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
