module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Wal = Dw_txn.Wal
module Vfs = Dw_storage.Vfs
module Warehouse = Dw_warehouse.Warehouse
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Transform = Dw_core.Transform
module Timestamp_extract = Dw_core.Timestamp_extract
module Trigger_extract = Dw_core.Trigger_extract
module Log_extract = Dw_core.Log_extract
module Snapshot_extract = Dw_core.Snapshot_extract
module Opdelta_capture = Dw_core.Opdelta_capture
module Persistent_queue = Dw_transport.Persistent_queue
module Metrics = Dw_util.Metrics

type method_ =
  | Timestamp
  | Trigger
  | Log
  | Snapshot of Snapshot_extract.algorithm
  | Op_delta_wrapper
  | Planned

type transport = Direct | Queued of string

type signals = { lock_wait_p95_s : float; ship_p95_s : float }

let no_signals () = { lock_wait_p95_s = 0.0; ship_p95_s = 0.0 }

(* Where the next round starts: the timestamp day and the first log
   position it has not extracted, and the snapshot round whose file it
   diffs against (0 = none yet).  One warehouse row per source table,
   written by the round's own integrating transaction. *)
type mark = { day : int; lsn : Wal.lsn; snap : int }

let no_mark = { day = -1; lsn = 0; snap = 0 }

let marks =
  ( "__extract_marks",
    Schema.make
      [
        { Schema.name = "table_name"; ty = Value.Tstring 40; nullable = false };
        { Schema.name = "day"; ty = Value.Tint; nullable = false };
        { Schema.name = "lsn"; ty = Value.Tint; nullable = false };
        { Schema.name = "snap"; ty = Value.Tint; nullable = false };
      ] )

let keeps_mark = function
  | Timestamp | Log | Snapshot _ | Planned -> true
  | Trigger | Op_delta_wrapper -> false

(* the table's durable mark, creating the marks table on first use *)
let load_mark wh ~table =
  let db = Warehouse.db wh in
  let name, schema = marks in
  if Db.table_opt db name = None then begin
    if Db.has_table_file ~vfs:(Db.vfs db) ~name:(Db.name db) name then
      invalid_arg
        (Printf.sprintf
           "Pipeline.create: %s is on the device but not in the catalog (reopen with \
            ~extra:[Pipeline.marks])"
           name);
    ignore (Db.create_table db ~name schema : Table.t)
  end;
  Db.with_txn db (fun txn ->
      match Db.find_by_key db txn name [| Value.Str table |] with
      | Some (_, [| _; Value.Int day; Value.Int lsn; Value.Int snap |]) -> { day; lsn; snap }
      | Some _ -> invalid_arg "Pipeline.create: malformed mark row"
      | None -> no_mark)

type t = {
  source : Db.t;
  warehouse : Warehouse.t;
  table : string;
  dst_table : string;
  method_ : method_;
  transport : transport;
  transform : Transform.rule option;
  compact : bool;
  mutable mark : mark;  (* mirror of the committed mark row *)
  trigger_handle : Trigger_extract.handle option;
  cap : Opdelta_capture.t option;
  queue : Persistent_queue.t option;
  planner : Planner.t option;
  signals : unit -> signals;
  mutable op_consumed : int;
  mutable rounds_run : int;
  mutable ewma : Planner.observed option;
  mutable last_used : Planner.method_ option;
  mutable fallbacks : int;
}

let method_name t =
  match t.method_ with
  | Timestamp -> "timestamp"
  | Trigger -> "trigger"
  | Log -> "log"
  | Snapshot _ -> "snapshot"
  | Op_delta_wrapper -> "op-delta"
  | Planned -> "planned"

let create ?transform ?(compact = false) ?(capture_images = false) ?planner
    ?(signals = no_signals) ~source ~warehouse ~table ~method_ ~transport () =
  let dst_table =
    match transform with Some rule -> rule.Transform.dst_table | None -> table
  in
  (match Db.table_opt (Warehouse.db warehouse) dst_table with
   | Some _ -> ()
   | None ->
     invalid_arg
       (Printf.sprintf "Pipeline.create: warehouse has no replica table %s" dst_table));
  (match transform with
   | Some rule ->
     let src_schema = Table.schema (Db.table source table) in
     let dst_schema = Table.schema (Db.table (Warehouse.db warehouse) dst_table) in
     (match Transform.validate rule ~src:src_schema ~dst:dst_schema with
      | Ok () -> ()
      | Error e -> invalid_arg ("Pipeline.create: " ^ e))
   | None -> ());
  let trigger_handle =
    match method_ with
    | Trigger | Planned -> Some (Trigger_extract.install source ~table)
    | Timestamp | Log | Snapshot _ | Op_delta_wrapper -> None
  in
  let cap =
    match method_ with
    | Op_delta_wrapper | Planned ->
      Some
        (Opdelta_capture.create ~capture_images source
           ~sink:(Opdelta_capture.To_file (Printf.sprintf "pipeline.%s.oplog" table)))
    | Timestamp | Trigger | Log | Snapshot _ -> None
  in
  let planner =
    match method_ with
    | Planned -> Some (match planner with Some p -> p | None -> Planner.create ())
    | Timestamp | Trigger | Log | Snapshot _ | Op_delta_wrapper -> None
  in
  let queue =
    match transport with
    | Direct -> None
    | Queued name -> Some (Persistent_queue.open_ (Db.vfs (Warehouse.db warehouse)) ~name)
  in
  {
    source;
    warehouse;
    table;
    dst_table;
    method_;
    transport;
    transform;
    compact;
    mark = (if keeps_mark method_ then load_mark warehouse ~table else no_mark);
    trigger_handle;
    cap;
    queue;
    planner;
    signals;
    op_consumed = 0;
    rounds_run = 0;
    ewma = None;
    last_used = None;
    fallbacks = 0;
  }

let capture t = t.cap
let planner t = t.planner
let fallbacks t = t.fallbacks

type round_stats = {
  round : int;
  extracted_changes : int;
  shipped_bytes : int;
  extract_units : float;
  method_used : string;
  integration : Warehouse.stats;
  total_seconds : float;
}

let src_schema t = Table.schema (Db.table t.source t.table)
let dst_schema t = Table.schema (Db.table (Warehouse.db t.warehouse) t.dst_table)

(* ship a payload through the transport and hand it back at the other
   side, counting wire bytes; queued transport round-trips the encoded
   form through the persistent queue, so its bytes and fsyncs are the
   wire path's.  Every message is acked here, before anything is
   integrated.  A pipeline that keeps a mark regenerates a crashed
   round's delta from it, so it first drops whatever that round left
   unacked; a Trigger or Op-Delta pipeline has no such mark. *)
let ship t payloads =
  match t.queue with
  | None -> (payloads, List.fold_left (fun acc p -> acc + String.length p) 0 payloads)
  | Some q ->
    if keeps_mark t.method_ then Persistent_queue.ack_run q (Persistent_queue.pending q);
    (* coalesced: one fsync covers the whole batch of payloads, and the
       consumer side acks whole runs under one sidecar update *)
    Persistent_queue.enqueue_batch q payloads;
    let rec drain acc bytes =
      match Persistent_queue.peek_run q ~max:64 with
      | [] -> (List.rev acc, bytes)
      | run ->
        Persistent_queue.ack_run q (List.length run);
        let bytes =
          List.fold_left (fun acc p -> acc + String.length p) bytes run
        in
        drain (List.rev_append run acc) bytes
    in
    drain [] 0

let snap_name t round = Printf.sprintf "pipeline.%s.snap.%d" t.table round

(* one snapshot dump+diff against the snapshot the mark names, into the
   next round's file *)
let snapshot_step t ~algorithm =
  let prev = if t.mark.snap = 0 then None else Some (snap_name t t.mark.snap) in
  Snapshot_extract.extract t.source ~table:t.table ~prev_snapshot:prev
    ~snapshot_dest:(snap_name t (t.mark.snap + 1)) ~algorithm

(* the snapshot round a value round of [method_] leaves behind *)
let snapshot_after t = function
  | Snapshot _ -> Some (t.mark.snap + 1)
  | Timestamp | Trigger | Log | Op_delta_wrapper | Planned -> None

let extract_value_delta t method_ =
  match method_ with
  | Timestamp ->
    let delta, stats =
      Timestamp_extract.extract t.source ~table:t.table ~since:t.mark.day
        ~output:(Timestamp_extract.To_file (Printf.sprintf "pipeline.%s.ts.asc" t.table))
    in
    Ok
      ( delta,
        Timestamp_extract.work_units ~table_rows:stats.Timestamp_extract.scanned_rows
          ~delta_rows:stats.Timestamp_extract.rows )
  | Trigger -> (
      match t.trigger_handle with
      | Some handle ->
        let delta = Trigger_extract.collect ~drain:true t.source handle in
        Ok (delta, Trigger_extract.work_units ~images:(Delta.image_count delta))
      | None -> Error "trigger pipeline without handle")
  | Log ->
    let delta, stats =
      Log_extract.extract ~since_lsn:t.mark.lsn t.source ~table:t.table ()
    in
    Ok
      ( delta,
        Log_extract.work_units ~log_records:stats.Log_extract.records_scanned
          ~delta_rows:(Delta.row_count delta) )
  | Snapshot algorithm -> (
      match snapshot_step t ~algorithm with
      | Ok (delta, stats) ->
        (* prev-snapshot re-read ≈ current dump size: the 2x factor of
           Snapshot_extract.work_units *)
        Ok
          ( delta,
            Snapshot_extract.work_units ~table_rows:stats.Snapshot_extract.dumped_rows
              ~delta_rows:(Delta.row_count delta) )
      | Error e -> Error e)
  | Op_delta_wrapper | Planned ->
    Error "op-delta/planned pipelines extract transactions, not value deltas"

(* The mark the next round starts from, read when this round
   integrates; [snap] is the snapshot round this one leaves behind. *)
let next_mark t ~snap =
  { day = Db.current_day t.source; lsn = Wal.next_lsn (Db.wal t.source); snap }

let put_mark t txn m =
  let db = Warehouse.db t.warehouse in
  let name, _ = marks in
  let row = [| Value.Str t.table; Value.Int m.day; Value.Int m.lsn; Value.Int m.snap |] in
  match Db.find_by_key db txn name [| Value.Str t.table |] with
  | Some (rid, _) -> Db.update_rid db txn name rid row
  | None -> ignore (Db.insert_row db txn name row : Dw_storage.Heap_file.rid)

(* Run one round's integration, handing it the mark writer to call
   inside its transactions; [snap] is the snapshot round the round leaves
   behind.  A round that committed no transaction commits its mark in one
   of its own.  Once the mark is durable, the pre-previous snapshot is
   retired: no committed mark names it any more. *)
let integrating ?snap t integrate =
  if not (keeps_mark t.method_) then integrate (fun (_ : Db.txn) -> ())
  else begin
    let m = next_mark t ~snap:(Option.value snap ~default:t.mark.snap) in
    let put txn = put_mark t txn m in
    let stats = integrate put in
    if stats.Warehouse.txns = 0 then Db.with_txn (Warehouse.db t.warehouse) put;
    if m.snap > t.mark.snap && m.snap > 2 then
      Vfs.delete (Db.vfs t.source) (snap_name t (m.snap - 2));
    t.mark <- m;
    stats
  end

let integrate_value ?snap t delta =
  (* optional compaction and transform, then wire round-trip, then batch
     integration, with the mark in the same transaction *)
  let delta = if t.compact then Delta.compact delta else delta in
  let delta =
    match t.transform with
    | None -> delta
    | Some rule -> Transform.apply_delta rule ~src:(src_schema t) ~dst:(dst_schema t) delta
  in
  let lines = Delta.to_lines delta in
  let shipped, bytes = ship t lines in
  match Delta.of_lines ~table:t.dst_table ~schema:(dst_schema t) shipped with
  | Error e -> Error e
  | Ok received ->
    Ok
      ( bytes,
        integrating ?snap t (fun mark ->
            Warehouse.integrate_value_delta ~mark t.warehouse received) )

(* drain the capture wrapper's fresh transactions since the last round *)
let drain_ops t cap =
  let fresh = Opdelta_capture.captured ~since:t.op_consumed cap in
  t.op_consumed <- Opdelta_capture.captured_count cap;
  fresh

let integrate_ods t fresh =
    let rec transform acc = function
      | [] -> Ok (List.rev acc)
      | od :: rest -> (
          match t.transform with
          | None -> transform (od :: acc) rest
          | Some rule -> (
              match Transform.apply_op_delta rule ~src:(src_schema t) od with
              | Ok od' -> transform (od' :: acc) rest
              | Error e -> Error e))
    in
    (match transform [] fresh with
     | Error e -> Error e
     | Ok ods ->
       let wh_db = Warehouse.db t.warehouse in
       let schema_of name = Option.map Table.schema (Db.table_opt wh_db name) in
       let lines = List.map (Op_delta.encode_line ~schema_of) ods in
       let shipped, bytes = ship t lines in
       let rec decode acc = function
         | [] -> Ok (List.rev acc)
         | line :: rest -> (
             match Op_delta.decode_line ~schema_of line with
             | Ok od -> decode (od :: acc) rest
             | Error e -> Error e)
       in
       (match decode [] shipped with
        | Error e -> Error e
        | Ok received ->
          let count =
            List.fold_left (fun acc od -> acc + List.length od.Op_delta.ops) 0 received
          in
          Ok
            ( count,
              bytes,
              integrating t (fun mark ->
                  Warehouse.integrate_op_deltas ~mark:(fun txn _ -> mark txn) t.warehouse
                    received) )))

let integrate_ops t =
  match t.cap with
  | None -> Error "not an op-delta pipeline"
  | Some cap -> integrate_ods t (drain_ops t cap)

(* blend one round's actual statistics into the exponentially-weighted
   averages the planner scores against (alpha = 0.5: reactive enough to
   track a phase shift within a couple of rounds, damped enough that one
   odd round cannot flip the choice past the hysteresis margin) *)
let blend_observed prev (now : Planner.observed) : Planner.observed =
  match prev with
  | None -> now
  | Some (p : Planner.observed) ->
    let mix a b = (0.5 *. a) +. (0.5 *. b) in
    {
      now with
      rows = mix now.rows p.rows;
      stmts = mix now.stmts p.stmts;
      insert_rows = mix now.insert_rows p.insert_rows;
      update_rows = mix now.update_rows p.update_rows;
      delete_rows = mix now.delete_rows p.delete_rows;
      log_records = mix now.log_records p.log_records;
      lock_wait_p95_s = mix now.lock_wait_p95_s p.lock_wait_p95_s;
      ship_p95_s = mix now.ship_p95_s p.ship_p95_s;
    }

let observe_round t trig_delta stmt_count =
  let count kind =
    List.fold_left
      (fun acc c ->
        acc
        +
        match (kind, c) with
        | `Ins, Delta.Insert _ | `Del, Delta.Delete _ | `Upd, Delta.Update _ -> 1
        | `Upd, Delta.Upsert _ -> 1
        | _ -> 0)
      0 trig_delta.Delta.changes
  in
  let now : Planner.observed =
    {
      table_rows = Table.row_count (Db.table t.source t.table);
      rows = float_of_int (Delta.row_count trig_delta);
      stmts = float_of_int stmt_count;
      insert_rows = float_of_int (count `Ins);
      update_rows = float_of_int (count `Upd);
      delete_rows = float_of_int (count `Del);
      log_records = float_of_int (Wal.next_lsn (Db.wal t.source) - t.mark.lsn);
      lock_wait_p95_s = (t.signals ()).lock_wait_p95_s;
      ship_p95_s = (t.signals ()).ship_p95_s;
      log_available = Wal.archive_enabled (Db.wal t.source);
    }
  in
  let obs = blend_observed t.ewma now in
  t.ewma <- Some obs;
  obs

(* One planned round: drain every capture channel (they are all always
   on), score the methods against the blended observations, then
   integrate through the chosen channel only — with two correctness
   overrides: timestamp extraction cannot see the deletes this round
   carried (fall back to the trigger delta), and a snapshot round whose
   baseline is stale integrates the trigger delta while dumping a fresh
   baseline for the next round (warm-up). *)
let run_planned_round t planner =
  let handle = Option.get t.trigger_handle in
  let cap = Option.get t.cap in
  let trig_delta = Trigger_extract.collect ~drain:true t.source handle in
  let fresh_ods = drain_ops t cap in
  let stmt_count =
    List.fold_left (fun acc od -> acc + List.length od.Op_delta.ops) 0 fresh_ods
  in
  let obs = observe_round t trig_delta stmt_count in
  let round = t.rounds_run + 1 in
  let decision = Planner.plan planner ~round obs in
  Planner.log_decision t.warehouse ~table:t.table decision;
  let has_deletes =
    List.exists (function Delta.Delete _ -> true | _ -> false) trig_delta.Delta.changes
  in
  let chosen =
    match decision.Planner.chosen with
    | Planner.Timestamp when has_deletes ->
      (* the planner scored on averaged delete rates; this round's actual
         delta carries deletes a timestamp scan cannot see *)
      t.fallbacks <- t.fallbacks + 1;
      Planner.force planner ~round Planner.Trigger;
      Planner.Trigger
    | c -> c
  in
  let trigger_units () = Trigger_extract.work_units ~images:(Delta.image_count trig_delta) in
  (* every value-shaped choice integrates one way *)
  let value ?snap delta units =
    match integrate_value ?snap t delta with
    | Error e -> Error e
    | Ok (bytes, stats) -> Ok (Delta.row_count delta, bytes, units, stats)
  in
  let extracted method_ =
    match extract_value_delta t method_ with
    | Error e -> Error e
    | Ok (delta, units) -> value ?snap:(snapshot_after t method_) delta units
  in
  let result =
    match chosen with
    | Planner.Trigger -> value trig_delta (trigger_units ())
    | Planner.Op_delta -> (
        match integrate_ods t fresh_ods with
        | Error e -> Error e
        | Ok (count, bytes, stats) ->
          Ok (count, bytes, Opdelta_capture.work_units ~statements:count, stats))
    | Planner.Log -> extracted Log
    | Planner.Timestamp -> extracted Timestamp
    | Planner.Snapshot when t.last_used = Some Planner.Snapshot ->
      extracted (Snapshot Snapshot_extract.Sort_merge)
    | Planner.Snapshot -> (
        (* warm-up: the previous round used another method, so the last
           snapshot (if any) predates changes already integrated — diffing
           against it would re-apply them.  Dump a fresh baseline and
           integrate this round's trigger delta instead. *)
        match
          Snapshot_extract.extract t.source ~table:t.table ~prev_snapshot:None
            ~snapshot_dest:(snap_name t (t.mark.snap + 1))
            ~algorithm:Snapshot_extract.Sort_merge
        with
        | Error e -> Error e
        | Ok (_, sstats) ->
          value ~snap:(t.mark.snap + 1) trig_delta
            (float_of_int sstats.Snapshot_extract.dumped_rows +. trigger_units ()))
  in
  match result with
  | Error e -> Error e
  | Ok (count, bytes, units, stats) ->
    t.last_used <- Some chosen;
    Ok (count, bytes, units, Planner.method_name chosen, stats)

let run_round t =
  let clock = Db.metrics (Warehouse.db t.warehouse) in
  let start = Metrics.now clock in
  let finish extracted_changes shipped_bytes extract_units method_used integration =
    t.rounds_run <- t.rounds_run + 1;
    Ok
      {
        round = t.rounds_run;
        extracted_changes;
        shipped_bytes;
        extract_units;
        method_used;
        integration;
        total_seconds = Metrics.now clock -. start;
      }
  in
  match t.method_ with
  | Planned -> (
      match run_planned_round t (Option.get t.planner) with
      | Error e -> Error e
      | Ok (count, bytes, units, used, stats) -> finish count bytes units used stats)
  | Op_delta_wrapper -> (
      match integrate_ops t with
      | Error e -> Error e
      | Ok (count, bytes, stats) ->
        finish count bytes (Opdelta_capture.work_units ~statements:count) "op-delta" stats)
  | Timestamp | Trigger | Log | Snapshot _ -> (
      match extract_value_delta t t.method_ with
      | Error e -> Error e
      | Ok (delta, units) -> (
          match integrate_value ?snap:(snapshot_after t t.method_) t delta with
          | Error e -> Error e
          | Ok (bytes, stats) ->
            finish (Delta.row_count delta) bytes units (method_name t) stats))

let rounds t = t.rounds_run

(* Online initial load through the pipeline's own capture and queue:
   once [bootstrap] returns [complete = true], ordinary [run_round]s
   continue incremental maintenance from the capture position the
   bootstrap reached. *)
let bootstrap ?config ?hook t ~owner =
  let failed msg = Bootstrap.Failed ("Pipeline.bootstrap: " ^ msg) in
  match (t.method_, t.cap, t.queue, t.transform) with
  | Op_delta_wrapper, Some capture, Some queue, None ->
    if not (Opdelta_capture.captures_images capture) then
      Error (failed "pipeline was created without ~capture_images:true")
    else (
      match
        Bootstrap.start ?config ?hook ~owner ~source:t.source ~capture ~table:t.table ~queue
          ~warehouse:t.warehouse ()
      with
      | Error e -> Error e
      | Ok b -> (
        match Bootstrap.run b with
        | Ok p ->
          (* the steady-state consumer must not re-apply transactions the
             bootstrap already integrated *)
          t.op_consumed <- Opdelta_capture.captured_count capture;
          Ok p
        | Error e -> Error e))
  | Op_delta_wrapper, _, None, _ -> Error (failed "bootstrap requires queued transport")
  | Op_delta_wrapper, None, Some _, _ -> Error (failed "pipeline has no capture wrapper")
  | Op_delta_wrapper, _, _, Some _ ->
    Error (failed "bootstrap does not support transformed pipelines")
  | (Timestamp | Trigger | Log | Snapshot _ | Planned), _, _, _ ->
    Error (failed "bootstrap requires the op-delta wrapper method")
