module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Wal = Dw_txn.Wal
module Vfs = Dw_storage.Vfs
module Schema = Dw_relation.Schema
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
   position it has not extracted, the snapshot round whose file it diffs
   against (0 = none yet), and the last trigger-delta and Op-Delta
   capture positions integrated.  The warehouse's mark row for the source
   table, written by the round's own integrating transaction. *)
type mark = Warehouse.mark = { day : int; lsn : Wal.lsn; snap : int; trig : int; ops : int }

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
  let mark = Warehouse.mark warehouse table in
  (* finish a purge the last run did not reach, and continue the trigger
     delta positions past the mark *)
  Option.iter (fun h -> Trigger_extract.purge source h ~through:mark.trig) trigger_handle;
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
    mark;
    trigger_handle;
    cap;
    queue;
    planner;
    signals;
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
   integrated: the round regenerates a crashed round's delta from its
   mark, so it first drops whatever that round left unacked. *)
let ship t payloads =
  match t.queue with
  | None -> (payloads, List.fold_left (fun acc p -> acc + String.length p) 0 payloads)
  | Some q ->
    Persistent_queue.ack_run q (Persistent_queue.pending q);
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

(* The mark the next round starts from, read once this round has
   extracted: the day and log position now, the rest carried over. *)
let next_mark t =
  { t.mark with day = Db.current_day t.source; lsn = Wal.next_lsn (Db.wal t.source) }

(* one value-delta extraction, with the mark past it *)
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
          ~delta_rows:stats.Timestamp_extract.rows,
        next_mark t )
  | Trigger -> (
      match t.trigger_handle with
      | Some handle ->
        let delta, trig = Trigger_extract.read t.source handle ~after:t.mark.trig in
        Ok
          ( delta,
            Trigger_extract.work_units ~images:(Delta.image_count delta),
            { (next_mark t) with trig } )
      | None -> Error "trigger pipeline without handle")
  | Log ->
    let delta, stats =
      Log_extract.extract ~since_lsn:t.mark.lsn t.source ~table:t.table ()
    in
    Ok
      ( delta,
        Log_extract.work_units ~log_records:stats.Log_extract.records_scanned
          ~delta_rows:(Delta.row_count delta),
        next_mark t )
  | Snapshot algorithm -> (
      match snapshot_step t ~algorithm with
      | Ok (delta, stats) ->
        (* prev-snapshot re-read ≈ current dump size: the 2x factor of
           Snapshot_extract.work_units *)
        Ok
          ( delta,
            Snapshot_extract.work_units ~table_rows:stats.Snapshot_extract.dumped_rows
              ~delta_rows:(Delta.row_count delta),
            { (next_mark t) with snap = t.mark.snap + 1 } )
      | Error e -> Error e)
  | Op_delta_wrapper | Planned ->
    Error "op-delta/planned pipelines extract transactions, not value deltas"

(* Run one round's integration up to mark [m], handing it the mark
   writer to call inside each of its transactions.  A round that
   committed no transaction commits [m] in one of its own.  If the round
   fails, the mark is re-read: transactions it committed before failing
   carry their own.  Once [m] is durable, what it moved past is retired:
   the pre-previous snapshot file, and the trigger delta rows through its
   position (a purge that fails leaves rows the next one deletes).  The
   Op-Delta file log is append-only. *)
let integrating t m integrate =
  let put m txn = Warehouse.put_mark t.warehouse txn t.table m in
  let stats =
    match integrate put with
    | stats -> stats
    | exception (Vfs.Fault.Crash _ as e) -> raise e
    | exception e ->
      t.mark <- Warehouse.mark t.warehouse t.table;
      raise e
  in
  if stats.Warehouse.txns = 0 then Db.with_txn (Warehouse.db t.warehouse) (put m);
  let old = t.mark in
  t.mark <- m;
  if m.snap > old.snap && m.snap > 2 then Vfs.delete (Db.vfs t.source) (snap_name t (m.snap - 2));
  if m.trig > old.trig then
    Option.iter (fun h -> Trigger_extract.purge t.source h ~through:m.trig) t.trigger_handle;
  stats

let integrate_value t m delta =
  (* optional compaction and transform, then the differential file's
     round trip as one message, then batch integration, with the mark in
     the same transaction *)
  let delta = if t.compact then Delta.compact delta else delta in
  let delta =
    match t.transform with
    | None -> delta
    | Some rule -> Transform.apply_delta rule ~src:(src_schema t) ~dst:(dst_schema t) delta
  in
  let file = Delta.to_file delta in
  let shipped, bytes = ship t (if file = "" then [] else [ file ]) in
  let received = match shipped with [ file ] -> file | files -> String.concat "" files in
  match Delta.of_file ~table:t.dst_table ~schema:(dst_schema t) received with
  | Error e -> Error e
  | Ok received ->
    Ok
      ( bytes,
        integrating t m (fun put ->
            Warehouse.integrate_value_delta ~mark:(put m) t.warehouse received) )

(* the capture lines past the mark's Op-Delta position, and the last
   one's position *)
let fresh_lines t cap =
  let lines = Opdelta_capture.lines cap ~after:t.mark.ops in
  (lines, List.fold_left (fun _ (pos, _) -> pos) t.mark.ops lines)

(* decode Op-Delta lines against the source catalog they were captured
   under, and apply the transform rule *)
let decode_ods t lines =
  let schema_of name = Option.map Table.schema (Db.table_opt t.source name) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Op_delta.decode_line ~schema_of line with
        | Error e -> Error e
        | Ok od -> (
            match t.transform with
            | None -> go (od :: acc) rest
            | Some rule -> (
                match Transform.apply_op_delta rule ~src:(src_schema t) od with
                | Ok od' -> go (od' :: acc) rest
                | Error e -> Error e)))
  in
  go [] lines

let statement_count ods =
  List.fold_left (fun acc od -> acc + List.length od.Op_delta.ops) 0 ods

(* Ship the captured lines as they are, then integrate them: one
   warehouse transaction per source transaction, marking the position of
   its line.  A [Planned] round applies its transactions' statements as
   one run, so its mark, with both capture positions, commits once.
   [decoded] is the lines already decoded: [Direct] shipping hands on the
   very payloads it was given, so they are not decoded again; a queue's
   are decoded as received. *)
let integrate_ods ?decoded t m lines =
  let shipped, bytes = ship t (List.map snd lines) in
  let received =
    match (decoded, t.queue) with
    | Some decoded, None -> decoded
    | _ -> decode_ods t shipped
  in
  match received with
  | Error e -> Error e
  | Ok received ->
    let integrate put =
      match t.method_ with
      | Planned ->
        let run =
          match List.rev received with
          | [] -> []
          | last :: _ ->
            [ { last with Op_delta.ops = List.concat_map (fun od -> od.Op_delta.ops) received } ]
        in
        Warehouse.integrate_op_deltas ~mark:(fun txn _ -> put m txn) t.warehouse run
      | Timestamp | Trigger | Log | Snapshot _ | Op_delta_wrapper ->
        (* one source transaction per run, in line order *)
        let positions = ref (List.map fst lines) in
        let mark txn _ =
          match !positions with
          | pos :: rest ->
            positions := rest;
            put { m with ops = pos } txn
          | [] -> invalid_arg "Pipeline: more transactions than captured lines"
        in
        Warehouse.integrate_op_deltas ~mark t.warehouse received
    in
    Ok (statement_count received, bytes, integrating t m integrate)

(* blend one round's actual statistics into the exponentially-weighted
   averages the planner scores against (alpha = 0.5: reactive enough to
   track a phase shift within a couple of rounds, damped enough that one
   odd round cannot flip the choice past the hysteresis margin).  A
   round without statements has no statement size to blend in. *)
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
      stmt_bytes =
        (if now.stmts = 0.0 then p.stmt_bytes
         else if p.stmt_bytes = 0.0 then now.stmt_bytes
         else mix now.stmt_bytes p.stmt_bytes);
      lock_wait_p95_s = mix now.lock_wait_p95_s p.lock_wait_p95_s;
      ship_p95_s = mix now.ship_p95_s p.ship_p95_s;
    }

(* the WAL records past the mark: what a log extraction would scan *)
let log_records_since t =
  let n = ref 0 in
  Wal.iter_from (Db.wal t.source) t.mark.lsn (fun _ _ -> incr n);
  !n

let observe_round t trig_delta ods =
  let stmt_count = statement_count ods in
  let stmt_bytes =
    if stmt_count = 0 then 0.0
    else
      let schema_of name = Option.map Table.schema (Db.table_opt t.source name) in
      float_of_int (List.fold_left (fun acc od -> acc + Op_delta.size_bytes ~schema_of od) 0 ods)
      /. float_of_int stmt_count
  in
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
      log_records = float_of_int (log_records_since t);
      lock_wait_p95_s = (t.signals ()).lock_wait_p95_s;
      ship_p95_s = (t.signals ()).ship_p95_s;
      log_available = Wal.archive_enabled (Db.wal t.source);
      image_bytes = float_of_int (Schema.record_size (dst_schema t));
      stmt_bytes;
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
  let trig_delta, trig = Trigger_extract.read t.source handle ~after:t.mark.trig in
  let lines, ops = fresh_lines t cap in
  (* whichever channel integrates, the round consumes both captures *)
  let past m = { m with trig; ops } in
  (* a line that does not decode counts no statements here; the Op-Delta
     channel reports it if chosen *)
  let decoded = decode_ods t (List.map snd lines) in
  let obs = observe_round t trig_delta (Result.value decoded ~default:[]) in
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
  let value m delta units =
    match integrate_value t (past m) delta with
    | Error e -> Error e
    | Ok (bytes, stats) -> Ok (Delta.row_count delta, bytes, units, stats)
  in
  let extracted method_ =
    match extract_value_delta t method_ with
    | Error e -> Error e
    | Ok (delta, units, m) -> value m delta units
  in
  let result =
    match chosen with
    | Planner.Trigger -> value (next_mark t) trig_delta (trigger_units ())
    | Planner.Op_delta -> (
        match integrate_ods ~decoded t (past (next_mark t)) lines with
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
          value
            { (next_mark t) with snap = t.mark.snap + 1 }
            trig_delta
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
      let lines, ops = fresh_lines t (Option.get t.cap) in
      match integrate_ods t { (next_mark t) with ops } lines with
      | Error e -> Error e
      | Ok (count, bytes, stats) ->
        finish count bytes (Opdelta_capture.work_units ~statements:count) "op-delta" stats)
  | Timestamp | Trigger | Log | Snapshot _ -> (
      match extract_value_delta t t.method_ with
      | Error e -> Error e
      | Ok (delta, units, m) -> (
          match integrate_value t m delta with
          | Error e -> Error e
          | Ok (bytes, stats) ->
            finish (Delta.row_count delta) bytes units (method_name t) stats))

let rounds t = t.rounds_run

(* The capture position a completed bootstrap reached: the lines past
   the mark up to the last one of a transaction it applied.  Derived from
   its durable state row, so a repeated call moves nothing. *)
let handoff t cap =
  let applied =
    match Warehouse.bootstrap t.warehouse t.table with
    | Some row -> row.Warehouse.last_txn
    | None -> 0
  in
  let schema_of name = Option.map Table.schema (Db.table_opt t.source name) in
  let rec reached pos = function
    | (p, line) :: rest -> (
        match Op_delta.decode_line ~schema_of line with
        | Ok od when od.Op_delta.txn_id <= applied -> reached p rest
        | Ok _ | Error _ -> pos)
    | [] -> pos
  in
  let ops = reached t.mark.ops (Opdelta_capture.lines cap ~after:t.mark.ops) in
  if ops > t.mark.ops then
    ignore
      (integrating t { (next_mark t) with ops } (fun _ -> Warehouse.zero_stats) : Warehouse.stats)

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
          if p.Bootstrap.complete then handoff t capture;
          Ok p
        | Error e -> Error e))
  | Op_delta_wrapper, _, None, _ -> Error (failed "bootstrap requires queued transport")
  | Op_delta_wrapper, None, Some _, _ -> Error (failed "pipeline has no capture wrapper")
  | Op_delta_wrapper, _, _, Some _ ->
    Error (failed "bootstrap does not support transformed pipelines")
  | (Timestamp | Trigger | Log | Snapshot _ | Planned), _, _, _ ->
    Error (failed "bootstrap requires the op-delta wrapper method")
