module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Vfs = Dw_storage.Vfs
module Schema = Dw_relation.Schema
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng
module Backoff = Dw_util.Backoff
module Ast = Dw_sql.Ast
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Opdelta_capture = Dw_core.Opdelta_capture
module Warehouse = Dw_warehouse.Warehouse
module Pq = Dw_transport.Persistent_queue
module Frame = Dw_transport.Frame

type config = {
  chunk_max : int;
  chunk_min : int;
  lock_wait_p95_s : float;
  lease_ttl_s : float;
  max_retries : int;
  backoff_s : float;
  seed : int;
}

let default_config =
  {
    chunk_max = 256;
    chunk_min = 16;
    lock_wait_p95_s = 0.010;
    lease_ttl_s = 30.0;
    max_retries = 8;
    backoff_s = 0.0;
    seed = 7;
  }

let validate_config c =
  if c.chunk_min < 1 then invalid_arg "Bootstrap: chunk_min < 1";
  if c.chunk_max < c.chunk_min then invalid_arg "Bootstrap: chunk_max < chunk_min";
  if not (c.lease_ttl_s > 0.0) then invalid_arg "Bootstrap: lease_ttl_s <= 0";
  if c.max_retries < 0 then invalid_arg "Bootstrap: max_retries < 0"

type phase =
  | Before_chunk of int
  | Window_open of int
  | After_select of int
  | Chunk_done of int
  | Catch_up
  | Before_swap

type progress = {
  chunks_done : int;
  chunks_this_run : int;
  rows_loaded : int;
  rows_deduped : int;
  delta_txns_applied : int;
  resumed : bool;
  complete : bool;
}

type error = Lease_held of { owner : string; expiry : float } | Failed of string

exception Lease_lost

type t = {
  cfg : config;
  hook : phase -> unit;
  owner : string;
  source : Db.t;
  capture : Opdelta_capture.t;
  table : string;
  schema : Schema.t;
  queue : Pq.t;
  wh : Warehouse.t;
  wh_db : Db.t;
  metrics : Metrics.t;
  backoff : Backoff.t;
  restrict : Op_delta.t -> Op_delta.t;  (* delta slice filter (shard rebuild) *)
  owns : int -> bool;  (* chunk-row key ownership (shard rebuild) *)
  resumed : bool;
  mutable row : Warehouse.bootstrap;  (* in-memory mirror of the durable state row *)
  mutable target : int;         (* AIMD chunk-size target *)
  mutable last_pumped : int;    (* highest source txn id enqueued *)
  mutable nonce : int;          (* this attempt's watermark-bracket nonce *)
  mutable window_touched : (int, unit) Hashtbl.t option;  (* Some = window open *)
  mutable chunk_rows : Dw_relation.Tuple.t list;
  mutable chunks_exhausted : bool;
  mutable chunks_this_run : int;
  mutable rows_deduped : int;
  mutable delta_txns_applied : int;
}

let schema_of_wh wh_db name = Option.map Table.schema (Db.table_opt wh_db name)

(* bounded retry with equal-jitter exponential backoff
   (Dw_util.Backoff) on transient VFS faults; [Fault.Crash] is never
   caught — that is the fail-stop the crash harness watches for.  The
   retried unit is always a whole warehouse transaction or queue
   operation.  A warehouse transaction that faults before its commit
   record is logged rolls back ([Db.commit]); one that faults after —
   on the commit's fsync — stays committed, so before re-running,
   [settled] may report the unit done (the progress mark it committed
   with is already there) and its result is returned instead.  A queue
   operation is safe to re-run: a faulted enqueue truncates its frames
   back, and a faulted ack leaves the queue's position unmoved, so the
   re-run writes the same offset. *)
let with_retry ?(settled = fun () -> None) t f =
  let rec attempt n =
    try f ()
    with Vfs.Fault.Transient _ when n < t.cfg.max_retries -> (
      Metrics.incr t.metrics "bootstrap.retry";
      let pause = Backoff.wait t.backoff ~attempt:n in
      if pause > 0.0 then Metrics.observe t.metrics "bootstrap.backoff" pause;
      match settled () with Some result -> result | None -> attempt (n + 1))
  in
  attempt 0

(* highest txn id already sitting in the queue: redelivered or
   not-yet-drained frames from before a crash must not be re-enqueued *)
let pending_max_txn ~wh_db queue =
  let n = Pq.pending queue in
  if n = 0 then 0
  else
    List.fold_left
      (fun acc payload ->
        match Frame.decode payload with
        | Ok (Frame.Data line) -> (
          match Op_delta.decode_line ~schema_of:(schema_of_wh wh_db) line with
          | Ok od -> max acc od.Op_delta.txn_id
          | Error _ -> acc)
        | Ok (Frame.Wm_low _ | Frame.Wm_high _) | Error _ -> acc)
      0 (Pq.peek_run queue ~max:n)

let start ?(config = default_config) ?(hook = fun (_ : phase) -> ())
    ?(restrict = fun (od : Op_delta.t) -> od) ?(owns = fun (_ : int) -> true) ~owner ~source
    ~capture ~table ~queue ~warehouse () =
  validate_config config;
  if String.equal owner "" then invalid_arg "Bootstrap.start: empty owner";
  let wh_db = Warehouse.db warehouse in
  let metrics = Db.metrics wh_db in
  let schema =
    match Db.table_opt wh_db table with
    | Some tbl -> Table.schema tbl
    | None -> invalid_arg (Printf.sprintf "Bootstrap.start: warehouse has no replica %s" table)
  in
  if Schema.key_arity schema <> 1 || (Schema.column schema 0).Schema.ty <> Value.Tint then
    invalid_arg "Bootstrap.start: a single-column INT primary key is required";
  if not (Opdelta_capture.captures_images capture) then
    invalid_arg "Bootstrap.start: capture must force hybrid images (~capture_images:true)";
  let rng = Prng.create ~seed:config.seed in
  let now = Metrics.now metrics in
  let decision =
    Db.with_txn wh_db (fun txn ->
        match Warehouse.lock_bootstrap warehouse txn table with
        | Some row
          when (not (String.equal row.Warehouse.lease_owner ""))
               && (not (String.equal row.Warehouse.lease_owner owner))
               && row.Warehouse.lease_expiry > now
               && row.Warehouse.state = Warehouse.Bootstrapping ->
          `Held (row.Warehouse.lease_owner, row.Warehouse.lease_expiry)
        | Some row when row.Warehouse.state = Warehouse.Complete -> `Go (row, false)
        | Some row ->
          let lease_expiry = now +. config.lease_ttl_s in
          let row = { row with Warehouse.lease_owner = owner; lease_expiry } in
          Warehouse.put_bootstrap warehouse txn row;
          `Go (row, true)
        | None ->
          let row =
            {
              Warehouse.table;
              run_id = Prng.alpha_string rng 8;
              state = Warehouse.Bootstrapping;
              next_key = 0;
              chunks_done = 0;
              rows_loaded = 0;
              last_txn = 0;
              lease_owner = owner;
              lease_expiry = now +. config.lease_ttl_s;
            }
          in
          Warehouse.put_bootstrap warehouse txn row;
          `Go (row, false))
  in
  match decision with
  | `Held (owner, expiry) -> Error (Lease_held { owner; expiry })
  | `Go (row, resumed) ->
    let t =
      {
        cfg = config;
        hook;
        owner;
        source;
        capture;
        table;
        schema;
        queue;
        wh = warehouse;
        wh_db;
        metrics;
        backoff = Backoff.create ~base_s:config.backoff_s ~seed:config.seed ();
        restrict;
        owns;
        resumed;
        row;
        target = config.chunk_max;
        last_pumped = max row.Warehouse.last_txn (pending_max_txn ~wh_db queue);
        nonce = -1;
        window_touched = None;
        chunk_rows = [];
        chunks_exhausted = false;
        chunks_this_run = 0;
        rows_deduped = 0;
        delta_txns_applied = 0;
      }
    in
    if resumed then Metrics.incr metrics "bootstrap.resumed"
    else if row.Warehouse.state = Warehouse.Bootstrapping then
      Metrics.incr metrics "bootstrap.started";
    Ok t

let progress t =
  {
    chunks_done = t.row.Warehouse.chunks_done;
    chunks_this_run = t.chunks_this_run;
    rows_loaded = t.row.Warehouse.rows_loaded;
    rows_deduped = t.rows_deduped;
    delta_txns_applied = t.delta_txns_applied;
    resumed = t.resumed;
    complete = t.row.Warehouse.state = Warehouse.Complete;
  }

let renew_lease t =
  let now = Metrics.now t.metrics in
  let row =
    with_retry t (fun () ->
        Db.with_txn t.wh_db (fun txn ->
            match Warehouse.lock_bootstrap t.wh txn t.table with
            | Some row
              when String.equal row.Warehouse.run_id t.row.Warehouse.run_id
                   && String.equal row.Warehouse.lease_owner t.owner ->
              let row = { row with Warehouse.lease_expiry = now +. t.cfg.lease_ttl_s } in
              Warehouse.put_bootstrap t.wh txn row;
              row
            | Some _ | None -> raise Lease_lost))
  in
  t.row <- row

let pump t =
  match Opdelta_capture.read_sink t.capture with
  | Error e -> failwith ("bootstrap: cannot read capture sink: " ^ e)
  | Ok ods ->
    let fresh = List.filter (fun od -> od.Op_delta.txn_id > t.last_pumped) ods in
    if fresh <> [] then begin
      let payloads =
        List.map
          (fun od ->
            Frame.encode (Frame.Data (Op_delta.encode_line ~schema_of:(schema_of_wh t.wh_db) od)))
          fresh
      in
      with_retry t (fun () -> Pq.enqueue_batch t.queue payloads);
      t.last_pumped <-
        List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) t.last_pumped fresh
    end

(* consistent keyset chunk: a snapshot read of the next [target] keys at
   or above the cursor, in key order (the select runs between the low and
   high watermark enqueues, which is what makes the window dedup sound) *)
let select_chunk t =
  let key_col = (Schema.column t.schema 0).Schema.name in
  let txn = Db.begin_txn ~mode:`Snapshot t.source in
  let rows =
    Db.select t.source txn t.table
      ~where:(Expr.Cmp (Expr.Ge, Expr.Col key_col, Expr.Lit (Value.Int t.row.Warehouse.next_key)))
      ()
  in
  Db.commit t.source txn;
  let sorted = List.sort (fun a b -> Value.compare a.(0) b.(0)) rows in
  List.filteri (fun i _ -> i < t.target) sorted

let key_of tuple = match tuple.(0) with Value.Int k -> k | _ -> assert false

(* apply one delta transaction, marking [last_txn] in the same warehouse
   transaction (exactly-once under queue redelivery).  Inside an open
   window the transaction's row images apply last-write-wins and their
   keys are recorded for the chunk dedup; outside, plain statement
   re-execution. *)
let apply_delta t od =
  (* slice first (a shard rebuild keeps only the ops routed to its
     partition — the restriction preserves txn ids, so [last_txn] still
     advances over transactions whose every op belongs elsewhere) *)
  let od = t.restrict od in
  let od = { od with Op_delta.ops =
               List.filter
                 (fun (op : Op_delta.op) ->
                   String.equal (Ast.table_of op.Op_delta.stmt) t.table)
                 od.Op_delta.ops }
  in
  let txid = od.Op_delta.txn_id in
  let marked = ref t.row in
  let mark txn =
    let row = { t.row with Warehouse.last_txn = txid } in
    Warehouse.put_bootstrap t.wh txn row;
    marked := row
  in
  (* a fault on the commit's fsync leaves the transaction, mark included,
     committed: the retry must not re-execute it *)
  let settled () =
    match Warehouse.bootstrap t.wh t.table with
    | Some row when row.Warehouse.last_txn >= txid -> Some Warehouse.zero_stats
    | Some _ | None -> None
  in
  (match t.window_touched with
   | Some touched ->
     (* last-write-wins: the replica may or may not hold a row yet (its
        chunk may not have loaded), so every after image upserts and a
        key-changing update also deletes the old key *)
     let lww =
       List.concat_map
         (function
           | Delta.Insert after | Delta.Upsert after -> [ Delta.Upsert after ]
           | Delta.Update (before, after) when key_of before = key_of after ->
             [ Delta.Upsert after ]
           | Delta.Update (before, after) -> [ Delta.Delete before; Delta.Upsert after ]
           | Delta.Delete before -> [ Delta.Delete before ])
         (Op_delta.value_delta ~table:t.table ~schema:t.schema od).Delta.changes
     in
     ignore
       (with_retry ~settled t (fun () ->
            Warehouse.integrate_value_delta ~mark t.wh
              (Delta.make ~table:t.table ~schema:t.schema lww))
         : Warehouse.stats);
     List.iter (fun c -> Hashtbl.replace touched (key_of (Delta.change_key t.schema c)) ()) lww
   | None ->
     ignore
       (with_retry ~settled t (fun () ->
            Warehouse.integrate_op_deltas ~mark:(fun txn _ -> mark txn) t.wh [ od ])
         : Warehouse.stats));
  t.row <- !marked;
  t.delta_txns_applied <- t.delta_txns_applied + 1

(* close the window: upsert the chunk minus keys the window's deltas
   already wrote (their versions are newer than the chunk select's), and
   commit the advanced cursor in the same warehouse transaction *)
let apply_chunk t touched =
  let rows = t.chunk_rows in
  t.chunk_rows <- [];
  match rows with
  | [] -> t.chunks_exhausted <- true
  | rows ->
    let chunk_idx = t.row.Warehouse.chunks_done in
    (* the cursor advances over every selected key — including keys a
       shard rebuild does not own, which must still be stepped past or
       the keyset scan would loop on them forever *)
    let max_key = List.fold_left (fun acc r -> max acc (key_of r)) min_int rows in
    let owned = List.filter (fun r -> t.owns (key_of r)) rows in
    let fresh = List.filter (fun r -> not (Hashtbl.mem touched (key_of r))) owned in
    let n_rows = List.length owned in
    let n_loaded = List.length fresh in
    let marked = ref t.row in
    let mark txn =
      let row =
        { t.row with Warehouse.next_key = max_key + 1;
                     chunks_done = t.row.Warehouse.chunks_done + 1;
                     rows_loaded = t.row.Warehouse.rows_loaded + n_loaded }
      in
      Warehouse.put_bootstrap t.wh txn row;
      marked := row
    in
    ignore
      (with_retry t (fun () ->
           Warehouse.integrate_value_delta ~mark t.wh
             (Delta.make ~table:t.table ~schema:t.schema
                (List.map (fun r -> Delta.Upsert r) fresh)))
        : Warehouse.stats);
    t.row <- !marked;
    t.chunks_this_run <- t.chunks_this_run + 1;
    t.rows_deduped <- t.rows_deduped + (n_rows - n_loaded);
    Metrics.observe t.metrics "bootstrap.chunk_rows" (float_of_int n_loaded);
    Metrics.add t.metrics "bootstrap.rows_deduped" (n_rows - n_loaded);
    (* AIMD valve, same policy shape as the warehouse batch integrator:
       halve under reader lock pressure, creep back up otherwise *)
    let p95 = Metrics.percentile t.metrics "lock.wait" 0.95 in
    if p95 > t.cfg.lock_wait_p95_s then t.target <- max t.cfg.chunk_min (t.target / 2)
    else t.target <- min t.cfg.chunk_max (t.target + 1);
    Metrics.set_gauge t.metrics "bootstrap.chunk_target" (float_of_int t.target);
    t.hook (Chunk_done chunk_idx)

(* process the oldest queue frame; the ack only happens after the frame's
   effect (delta + mark, or chunk + cursor) has committed, so a crash
   between commit and ack redelivers a frame the [last_txn] filter or the
   nonce check then discards *)
let process_frame t payload =
  match Frame.decode payload with
  | Error _ ->
    Metrics.incr t.metrics "bootstrap.bad_frame";
    `Continue
  | Ok (Frame.Data line) -> (
    match Op_delta.decode_line ~schema_of:(schema_of_wh t.wh_db) line with
    | Error e -> failwith ("bootstrap: undecodable delta frame: " ^ e)
    | Ok od ->
      if od.Op_delta.txn_id > t.row.Warehouse.last_txn then apply_delta t od;
      `Continue)
  | Ok (Frame.Wm_low { nonce; _ }) ->
    if nonce = t.nonce then t.window_touched <- Some (Hashtbl.create 32);
    `Continue
  | Ok (Frame.Wm_high { nonce; _ }) ->
    if nonce <> t.nonce then `Continue
    else begin
      let touched =
        match t.window_touched with Some h -> h | None -> (Hashtbl.create 0 : (int, unit) Hashtbl.t)
      in
      t.window_touched <- None;
      apply_chunk t touched;
      `Hw_done
    end

let drain_until_hw t =
  let rec go () =
    match Pq.peek t.queue with
    | None -> failwith "bootstrap: queue drained without reaching the high watermark"
    | Some payload -> (
      let verdict = process_frame t payload in
      with_retry t (fun () -> Pq.ack t.queue);
      match verdict with `Hw_done -> () | `Continue -> go ())
  in
  go ()

let drain_all t =
  let rec go () =
    match Pq.peek t.queue with
    | None -> ()
    | Some payload ->
      (match process_frame t payload with `Hw_done | `Continue -> ());
      with_retry t (fun () -> Pq.ack t.queue);
      go ()
  in
  go ()

let enqueue_bracket t frame = with_retry t (fun () -> Pq.enqueue t.queue (Frame.encode frame))

let chunk_cycle t =
  renew_lease t;
  pump t;
  let chunk = t.row.Warehouse.chunks_done in
  t.hook (Before_chunk chunk);
  let nonce = Pq.enqueued_total t.queue in
  t.nonce <- nonce;
  let run = t.row.Warehouse.run_id in
  enqueue_bracket t (Frame.Wm_low { run; chunk; nonce });
  t.hook (Window_open chunk);
  pump t;
  t.chunk_rows <- select_chunk t;
  t.hook (After_select chunk);
  pump t;
  enqueue_bracket t (Frame.Wm_high { run; chunk; nonce });
  drain_until_hw t

(* steady-state handoff: mark Complete + release the lease, in one
   warehouse transaction *)
let final_swap t =
  t.hook Before_swap;
  let row =
    { t.row with Warehouse.state = Warehouse.Complete; lease_owner = ""; lease_expiry = 0.0 }
  in
  with_retry t (fun () -> Db.with_txn t.wh_db (fun txn -> Warehouse.put_bootstrap t.wh txn row));
  t.row <- row;
  Metrics.incr t.metrics "bootstrap.completed"

let abort t reason =
  Metrics.incr t.metrics "bootstrap.aborted";
  (* best-effort lease release; the state row stays Bootstrapping so the
     table is visibly half-loaded and a later run resumes, never double
     runs.  Re-read under the transaction and release only a lease we
     still hold: an abort caused by losing the lease must not clobber
     the new owner's row (its cursor has moved past our stale copy) *)
  (try
     Db.with_txn t.wh_db (fun txn ->
         match Warehouse.lock_bootstrap t.wh txn t.table with
         | Some row when String.equal row.Warehouse.lease_owner t.owner ->
           let row = { row with Warehouse.lease_owner = ""; lease_expiry = 0.0 } in
           Warehouse.put_bootstrap t.wh txn row;
           t.row <- row
         | Some _ | None -> ())
   with Vfs.Fault.Transient _ -> ());
  Error (Failed reason)

let catch_up t =
  t.hook Catch_up;
  let rec go () =
    renew_lease t;
    pump t;
    if Pq.pending t.queue > 0 then begin
      drain_all t;
      go ()
    end
  in
  go ()

let run t =
  if t.row.Warehouse.state = Warehouse.Complete then Ok (progress t)
  else begin
    match
      while not t.chunks_exhausted do
        chunk_cycle t
      done;
      catch_up t;
      final_swap t
    with
    | () -> Ok (progress t)
    | exception Vfs.Fault.Transient op ->
      abort t (Printf.sprintf "transient fault on %s persisted after %d retries" op
                 t.cfg.max_retries)
    | exception Lease_lost -> abort t "lease lost to a competing run"
    | exception Failure msg -> abort t msg
  end
