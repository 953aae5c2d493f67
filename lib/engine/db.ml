module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Codec = Dw_relation.Codec
module Vfs = Dw_storage.Vfs
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Wal = Dw_txn.Wal
module Group_commit = Dw_txn.Group_commit
module Log_record = Dw_txn.Log_record
module Lock_manager = Dw_txn.Lock_manager
module Version_store = Dw_txn.Version_store
module Recovery = Dw_txn.Recovery
module Ast = Dw_sql.Ast

exception Would_block of { tx : int; blockers : int list }
exception Deadlock_abort of { tx : int; blockers : int list }

type undo =
  | U_insert of string * Heap_file.rid * Tuple.t
  | U_delete of string * Heap_file.rid * Tuple.t
  | U_update of string * Heap_file.rid * Tuple.t * Tuple.t  (* before, after *)

type txn = {
  id : int;
  mode : [ `Read_write | `Snapshot ];
  snapshot_csn : int;  (* last committed CSN at begin; reads resolve against it *)
  mutable undo_log : undo list;
  mutable in_trigger : bool;
  mutable finished : bool;
  mutable committed : bool;  (* set once the commit stands *)
}

type trigger_ctx = { ctx_db : t; ctx_txn : txn }

(* a table as the row paths use it: looked up once per statement (or
   row-API call), it carries everything a row write needs without
   another lookup by name *)
and rel = {
  table : Table.t;
  rname : string;
  chains : Version_store.table;  (* its version-store chains *)
  mutable triggers : trigger_ctx Trigger.t list;
  (* the transaction that last took the table in X.  Txids are never
     reused and 2PL releases nothing before the end, so [x_holder =
     txn.id] holds exactly while [txn] has the table in X *)
  mutable x_holder : int;
}

and t = {
  db_name : string;
  vfs : Vfs.t;
  pool : Buffer_pool.t;
  wal : Wal.t;
  locks : Lock_manager.t;
  vstore : Dw_txn.Version_store.t;
  mutable last_csn : int;  (* CSN of the newest commit record in the WAL *)
  tables : (string, rel) Hashtbl.t;
  mutable next_txid : int;
  mutable active : (int, txn) Hashtbl.t;
  mutable day : int;
  mutable plan_mode : [ `Scan_only | `Index_preferred ];
  mutable sync_mode : [ `Every_commit | `Group of int | `Group_policy of Group_commit.policy ];
  group : Group_commit.t;
  mutable yield_hook : (unit -> unit) option;
  mutable block_hook : (txid:int -> blockers:int list -> unit) option;
  (* serialises txid allocation, the active-transaction table, and the
     commit CSN-bump + version publish pair, so snapshot transactions
     can begin/end on reader domains while a writer domain commits; a
     reader must never observe the new last_csn before the writer's
     version entries are published under it *)
  txn_lock : Mutex.t;
}

let create ?(pool_pages = 256) ?(pool_stripes = 1) ?(archive_log = false) ~vfs ~name () =
  let wal = Wal.create vfs ~name:(name ^ ".wal") ~archive:archive_log in
  let pool = Buffer_pool.create ~stripes:pool_stripes ~vfs ~capacity:pool_pages () in
  (* the write-ahead rule under steal: a page the pool writes back may
     hold changes whose log frames are still in the log buffer *)
  Buffer_pool.set_write_back_hook pool (fun () -> Wal.write_out wal);
  {
    db_name = name;
    vfs;
    pool;
    wal;
    locks = Lock_manager.create ~metrics:(Vfs.metrics vfs) ();
    vstore = Version_store.create ();
    last_csn = 0;
    tables = Hashtbl.create 16;
    next_txid = 1;
    active = Hashtbl.create 8;
    day = Value.(match date_of_ymd ~year:1999 ~month:12 ~day:5 with Date d -> d | _ -> 0);
    plan_mode = `Scan_only;
    sync_mode = `Every_commit;
    group = Group_commit.create wal;
    yield_hook = None;
    block_hook = None;
    txn_lock = Mutex.create ();
  }

let name t = t.db_name
let vfs t = t.vfs
let metrics t = Vfs.metrics t.vfs
let wal t = t.wal
let locks t = t.locks

let set_plan_mode t mode = t.plan_mode <- mode

let set_sync_mode t mode =
  (match mode with
   | `Group n when n < 1 -> invalid_arg "Db.set_sync_mode: group size < 1"
   | `Group_policy p -> Group_commit.validate_policy p
   | `Group _ | `Every_commit -> ());
  (* commits acknowledged under the old policy must not wait on the new
     one (set_policy flushes, but Every_commit bypasses it) *)
  Group_commit.sync t.group;
  (match mode with
   | `Every_commit -> ()
   | `Group n -> Group_commit.set_policy t.group { Group_commit.max_group = n; max_wait_s = infinity }
   | `Group_policy p -> Group_commit.set_policy t.group p);
  t.sync_mode <- mode

let sync t = Group_commit.sync t.group
let pending_group_commits t = Group_commit.pending t.group

let set_yield_hook t hook = t.yield_hook <- hook
let set_block_hook t hook = t.block_hook <- hook

let statement_boundary t =
  (* a commit lull must not starve a waiting group leader: the max-wait
     deadline is re-checked whenever any session reaches a statement
     boundary (free when no group is open) *)
  Group_commit.poll t.group;
  match t.yield_hook with Some f -> f () | None -> ()

let current_day t = t.day
let set_day t d = t.day <- d
let advance_day t = t.day <- t.day + 1

(* schema *)

let heap_file_name db_name table_name = Printf.sprintf "%s.%s.heap" db_name table_name

let has_table_file ~vfs ~name table = Vfs.exists vfs (heap_file_name name table)

(* txid 0 is never allocated *)
let add_rel t table =
  let rname = Table.name table in
  Hashtbl.add t.tables rname
    { table; rname; chains = Version_store.table t.vstore rname; triggers = []; x_holder = 0 }

let create_table t ~name ?ts_column schema =
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Db.create_table: table %s exists" name);
  let file = Vfs.create t.vfs (heap_file_name t.db_name name) in
  let table = Table.create ~pool:t.pool ~file ~name ~schema ~ts_column in
  add_rel t table;
  table

let rel t name =
  match Hashtbl.find_opt t.tables name with
  | Some rel -> rel
  | None -> raise Not_found

let table t name = (rel t name).table
let table_opt t name = Option.map (fun rel -> rel.table) (Hashtbl.find_opt t.tables name)

let tables t =
  Hashtbl.fold (fun _ rel acc -> rel.table :: acc) t.tables []
  |> List.sort (fun a b -> String.compare (Table.name a) (Table.name b))

let drop_table t name =
  match Hashtbl.find_opt t.tables name with
  | None -> raise Not_found
  | Some { table; _ } ->
    Hashtbl.remove t.tables name;
    Version_store.drop_table t.vstore ~table:name;
    let file = Heap_file.file (Table.heap table) in
    Buffer_pool.invalidate_file t.pool file;
    Vfs.close file;
    Vfs.delete t.vfs (heap_file_name t.db_name name)

(* transactions *)

let version_store t = t.vstore

(* the oldest snapshot any active reader holds; with no readers the
   newest committed CSN — entries superseded at or below it are dead *)
let locked_txn t f = Mutex.protect t.txn_lock f

let gc_horizon t =
  locked_txn t (fun () ->
      Hashtbl.fold
        (fun _ txn acc -> if txn.mode = `Snapshot then min txn.snapshot_csn acc else acc)
        t.active t.last_csn)

let vstore_gc t =
  if Version_store.entries t.vstore > 0 then
    ignore (Version_store.gc t.vstore ~horizon:(gc_horizon t) : int)

let begin_txn ?(mode = `Read_write) t =
  let id =
    locked_txn t (fun () ->
        let id = t.next_txid in
        t.next_txid <- id + 1;
        id)
  in
  (* snapshot transactions log nothing: they cannot write, so neither
     recovery nor the group-commit barrier ever needs to see them.  A
     Begin goes to the log buffer, and is logged before the transaction
     is registered, so a fault writing out other sessions' frames to
     make room for it leaves no transaction behind *)
  if mode = `Read_write then
    ignore (Wal.append t.wal { Log_record.tx = id; body = Log_record.Begin } : Wal.lsn);
  locked_txn t (fun () ->
      let txn =
        { id; mode; snapshot_csn = t.last_csn; undo_log = []; in_trigger = false; finished = false;
          committed = false }
      in
      Hashtbl.add t.active id txn;
      txn)

let txid txn = txn.id
let txn_mode txn = txn.mode
let committed txn = txn.committed

let check_live txn =
  if txn.finished then invalid_arg "Db: transaction already finished"

let check_writable txn =
  check_live txn;
  if txn.mode = `Snapshot then invalid_arg "Db: snapshot transaction is read-only"

let finish t txn =
  txn.finished <- true;
  locked_txn t (fun () -> Hashtbl.remove t.active txn.id);
  Lock_manager.release_all t.locks txn.id

let abort_rw t txn =
  (* reverse-apply undo entries; raw ops keep indexes consistent *)
  List.iter
    (fun entry ->
      match entry with
      | U_insert (tname, rid, tuple) ->
        (match table_opt t tname with
         | Some table -> ignore (Table.raw_delete table rid ~old_tuple:tuple : bytes)
         | None -> ())
      | U_delete (tname, rid, tuple) ->
        (* restore at the exact original rid: version chains are keyed by
           rid, so the row must not migrate slots while snapshots are live *)
        (match table_opt t tname with
         | Some table -> Table.raw_insert_at table rid tuple
         | None -> ())
      | U_update (tname, rid, before, after) ->
        (match table_opt t tname with
         | Some table ->
           ignore (Table.raw_update table rid ~old_tuple:after before : bytes * bytes)
         | None -> ()))
    txn.undo_log;
  txn.undo_log <- [];
  (* the abort record must always reach the device; the same fsync covers
     any commits still pending in an open group.  It is advisory all the
     same — recovery treats a transaction without a Commit record as a
     loser — so a transient fault writing it must not leave the rolled-
     back transaction open, holding its locks *)
  (try
     ignore (Wal.append t.wal { Log_record.tx = txn.id; body = Log_record.Abort } : Wal.lsn);
     Group_commit.flush_now t.group
   with Vfs.Fault.Transient _ -> ());
  (* the undo pass restored the heap, so the noted before-images now
     describe nothing: drop them before readers could resolve through them *)
  Version_store.discard t.vstore ~tx:txn.id;
  finish t txn

let commit t txn =
  check_live txn;
  match txn.mode with
  | `Snapshot ->
    (* read-only: nothing to log or flush; its exit may unpin versions *)
    finish t txn;
    vstore_gc t
  | `Read_write ->
    (* the Commit frame and every frame buffered before it go to the
       device in one write.  When that write fails the frames are still
       buffered: drop the Commit first, or the log would hold a Commit
       and then the rollback's Abort for the transaction *)
    (match
       let lsn = Wal.append t.wal { Log_record.tx = txn.id; body = Log_record.Commit } in
       try Wal.write_out t.wal
       with Vfs.Fault.Transient _ as e ->
         Wal.retract t.wal lsn;
         raise e
     with
     | () -> ()
     | exception (Vfs.Fault.Transient _ as e) ->
       (* no Commit record reached the log, so the transaction lost, as
          recovery would find: roll it back rather than leave it open *)
       abort_rw t txn;
       raise e);
    (* the CSN is assigned in WAL commit-record order; under group commit
       the fsync is deferred but in-process visibility is immediate, so
       publication happens here either way *)
    locked_txn t (fun () ->
        let csn = t.last_csn + 1 in
        t.last_csn <- csn;
        (* publish under the same critical section as the CSN bump: a
           snapshot beginning between the two would read the new CSN but
           resolve through still-pending entries to the old images *)
        Version_store.publish t.vstore ~tx:txn.id ~csn);
    txn.committed <- true;
    (* the CSN is published, so the commit stands: a transient fault on
       its fsync (or on the group flush it triggers) still finishes the
       transaction before it is re-raised *)
    let flushed =
      match
        match t.sync_mode with
        | `Every_commit -> Wal.flush t.wal
        | `Group _ | `Group_policy _ -> Group_commit.note_commit t.group
      with
      | () -> Ok ()
      | exception (Vfs.Fault.Transient _ as e) -> Error e
    in
    finish t txn;
    vstore_gc t;
    Result.iter_error raise flushed

let abort t txn =
  check_live txn;
  if txn.mode = `Snapshot then begin
    finish t txn;
    vstore_gc t
  end
  else abort_rw t txn

let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | result ->
    commit t txn;
    result
  | exception e ->
    (* a fail-stop fault means the simulated process is dead: skip the
       in-memory undo pass.  The crash can land between a physical apply
       and its undo note (e.g. inside a trigger's WAL append), so the
       undo log no longer matches the heap — and recovery rebuilds from
       the WAL on reopen anyway *)
    (match e with
     | Dw_storage.Vfs.Fault.Crash _ -> ()
     | _ -> if not txn.finished then abort t txn);
    raise e

let active_txns t =
  locked_txn t (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) t.active [])
  |> List.sort compare

(* locking *)

let rec request t txn resource mode =
  match Lock_manager.acquire t.locks txn.id resource mode with
  | Lock_manager.Granted -> ()
  | Lock_manager.Blocked blockers -> (
      match t.block_hook with
      | Some wait ->
        (* one observed sample per wait episode; a txn blocked repeatedly
           on the same resource contributes one sample per suspension *)
        Dw_util.Metrics.time (metrics t) "lock.wait" (fun () -> wait ~txid:txn.id ~blockers);
        request t txn resource mode
      | None -> raise (Would_block { tx = txn.id; blockers }))
  | Lock_manager.Deadlock blockers -> raise (Deadlock_abort { tx = txn.id; blockers })

let holds_x txn rel = rel.x_holder = txn.id

(* A table [txn] holds in X implies every lock on the table and its rows
   until the transaction ends (2PL releases nothing earlier), so such a
   request never reaches the lock manager. *)
let lock_rel t txn rel mode =
  if not (holds_x txn rel) then begin
    request t txn (Lock_manager.Table rel.rname) mode;
    if mode = Lock_manager.X then rel.x_holder <- txn.id
  end

let lock_row t txn rel rid mode =
  if not (holds_x txn rel) then request t txn (Lock_manager.Row (rel.rname, rid)) mode

(* triggers *)

let trigger_name (tr : trigger_ctx Trigger.t) = tr.Trigger.name

let add_trigger t ~table trigger =
  let rel = rel t table in
  if List.exists (fun tr -> trigger_name tr = trigger_name trigger) rel.triggers then
    invalid_arg (Printf.sprintf "Db.add_trigger: trigger %s exists" (trigger_name trigger));
  rel.triggers <- rel.triggers @ [ trigger ]

let remove_trigger t ~table name =
  Option.iter
    (fun rel -> rel.triggers <- List.filter (fun tr -> trigger_name tr <> name) rel.triggers)
    (Hashtbl.find_opt t.tables table)

let triggers_on t tname =
  Option.fold ~none:[] ~some:(fun rel -> List.map trigger_name rel.triggers)
    (Hashtbl.find_opt t.tables tname)

let fire t txn rel event =
  if not txn.in_trigger then begin
    let relevant = List.filter (fun tr -> Trigger.fires_on tr event) rel.triggers in
    if relevant <> [] then begin
      txn.in_trigger <- true;
      Fun.protect
        ~finally:(fun () -> txn.in_trigger <- false)
        (fun () -> List.iter (fun tr -> tr.Trigger.action { ctx_db = t; ctx_txn = txn } event) relevant)
    end
  end

(* timestamp maintenance *)

(* [tuple] with the table's timestamp column set to today: a copy, or
   [tuple] itself when the table has no timestamp column *)
let stamp t table tuple =
  match Table.ts_col_idx table with
  | None -> tuple
  | Some i ->
    let tuple = Array.copy tuple in
    tuple.(i) <- Value.Date t.day;
    tuple

(* DML *)

let log_dml t body = ignore (Wal.append t.wal body : Wal.lsn)

(* Each DML step pushes its undo entry as soon as the heap has changed,
   before the WAL append: the append can write the log buffer out, and a
   transient fault there must leave an abort that puts the row back.
   Undo is physical, with no compensation records, so an entry whose
   record never reached the log is still the right undo. *)

(* Each row write's before image is in the version store before the
   heap changes: the caller notes an update's or delete's victims
   ([note]: one store lock per statement), and [insert_new] inserts
   inside [Version_store.note_insert]. *)
let note t txn rel rows = Version_store.note_rows t.vstore rel.chains ~tx:txn.id rows

(* the logged update of a noted row whose decoded [before] image the
   caller holds: the WAL carries the records the heap slot held and now
   holds *)
let logged_update t txn rel rid ~before after =
  let before_rec, after_rec = Table.raw_update rel.table rid ~old_tuple:before after in
  txn.undo_log <- U_update (rel.rname, rid, before, after) :: txn.undo_log;
  log_dml t
    {
      Log_record.tx = txn.id;
      body = Log_record.Update { table = rel.rname; rid; before = before_rec; after = after_rec };
    };
  fire t txn rel (Trigger.Updated (rid, before, after))

(* the logged delete of a noted row whose decoded [before] image the
   caller holds, [free] taking it out of the table: the WAL carries the
   record the heap slot held, as it was *)
let logged_free t txn rel rid ~before free =
  let before_rec = free () in
  txn.undo_log <- U_delete (rel.rname, rid, before) :: txn.undo_log;
  log_dml t
    {
      Log_record.tx = txn.id;
      body = Log_record.Delete { table = rel.rname; rid; before = before_rec };
    };
  fire t txn rel (Trigger.Deleted (rid, before))

let logged_delete t txn rel rid ~before =
  logged_free t txn rel rid ~before (fun () -> Table.raw_delete rel.table rid ~old_tuple:before)

(* the row under [key], read under [txn]'s [mode] lock on it.  Under a
   table X lock that is one probe.  Otherwise the row is locked first and
   then found again: a row image read before a wait may be another
   transaction's uncommitted write, and the key may have moved to
   another rid meanwhile, which is then locked in turn *)
let rec locked_find t txn rel key mode =
  match Table.find_key rel.table key with
  | Some _ as hit when holds_x txn rel -> hit
  | None -> None
  | Some (rid, _) -> (
      lock_row t txn rel rid mode;
      match Table.find_key rel.table key with
      | Some (rid', _) as hit when Heap_file.rid_compare rid rid' = 0 -> hit
      | Some _ -> locked_find t txn rel key mode
      | None -> None)

(* the row an upsert of [tuple] overwrites, if any; no stored key holds
   NULL ([Tuple.validate]), so a NULL key finds none, as [k = NULL]
   matches none *)
let upsert_target ~upsert t txn rel tuple =
  if upsert then locked_find t txn rel (Tuple.key (Table.schema rel.table) tuple) Lock_manager.X
  else None

(* the upsert of [tuple] over [found], the row [upsert_target] returned *)
let overwrite t txn rel ((rid, before) as found) tuple =
  note t txn rel [ found ];
  logged_update t txn rel rid ~before (stamp t rel.table tuple);
  rid

(* a new row: stamped, stored and noted in one store lock ([row_lock]:
   X-locked) and logged; [after] is the record the heap holds, logged as
   it is *)
let insert_new t txn rel ~row_lock tuple =
  let tuple = stamp t rel.table tuple in
  let rid, after =
    Version_store.note_insert t.vstore rel.chains ~tx:txn.id (fun () ->
        Table.raw_insert rel.table tuple)
  in
  txn.undo_log <- U_insert (rel.rname, rid, tuple) :: txn.undo_log;
  if row_lock then lock_row t txn rel rid Lock_manager.X;
  log_dml t { Log_record.tx = txn.id; body = Log_record.Insert { table = rel.rname; rid; after } };
  fire t txn rel (Trigger.Inserted (rid, tuple));
  rid

let insert ?(upsert = false) t txn tname tuple =
  check_writable txn;
  statement_boundary t;
  let rel = rel t tname in
  lock_rel t txn rel Lock_manager.X;
  match upsert_target ~upsert t txn rel tuple with
  | Some found -> overwrite t txn rel found tuple
  | None -> insert_new t txn rel ~row_lock:false tuple

let column_index schema col =
  match Schema.index_of_opt schema col with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "unknown column %s" col)

let insert_values t txn tname ~columns values =
  let tbl = table t tname in
  let schema = Table.schema tbl in
  let tuple =
    match columns with
    | None ->
      if List.length values <> Schema.arity schema then
        invalid_arg "Db.insert_values: arity mismatch";
      Array.of_list values
    | Some cols ->
      if List.length cols <> List.length values then
        invalid_arg "Db.insert_values: columns/values length mismatch";
      let tuple = Array.make (Schema.arity schema) Value.Null in
      List.iter2 (fun col v -> tuple.(column_index schema col) <- v) cols values;
      tuple
  in
  insert t txn tname tuple

let check_columns schema expr =
  List.iter (fun col -> ignore (column_index schema col : int)) (Expr.columns expr)

(* conservative bound extraction: conjunctions of comparisons between the
   leading key column and literals imply an index range; anything else
   contributes no bound (still sound: bounds only narrow the scan and the
   full predicate re-filters) *)
let key_bounds schema where =
  let key_col = (Schema.column schema 0).Schema.name in
  let max_v a b = if Value.compare a b >= 0 then a else b in
  let min_v a b = if Value.compare a b <= 0 then a else b in
  let lo = ref None and hi = ref None in
  let set_lo v = lo := (match !lo with None -> Some v | Some x -> Some (max_v x v)) in
  let set_hi v = hi := (match !hi with None -> Some v | Some x -> Some (min_v x v)) in
  let succ_v = function Value.Int n -> Some (Value.Int (n + 1)) | Value.Date n -> Some (Value.Date (n + 1)) | _ -> None in
  let pred_v = function Value.Int n -> Some (Value.Int (n - 1)) | Value.Date n -> Some (Value.Date (n - 1)) | _ -> None in
  let rec go e =
    match e with
    | Expr.And (a, b) -> go a; go b
    | Expr.Cmp (op, Expr.Col c, Expr.Lit v) when c = key_col && not (Value.is_null v) ->
      (match op with
       | Expr.Eq -> set_lo v; set_hi v
       | Expr.Ge -> set_lo v
       | Expr.Gt -> (match succ_v v with Some v' -> set_lo v' | None -> ())
       | Expr.Le -> set_hi v
       | Expr.Lt -> (match pred_v v with Some v' -> set_hi v' | None -> ())
       | Expr.Neq -> ())
    | Expr.Cmp (op, Expr.Lit v, Expr.Col c) when c = key_col && not (Value.is_null v) ->
      (match op with
       | Expr.Eq -> set_lo v; set_hi v
       | Expr.Le -> set_lo v
       | Expr.Lt -> (match succ_v v with Some v' -> set_lo v' | None -> ())
       | Expr.Ge -> set_hi v
       | Expr.Gt -> (match pred_v v with Some v' -> set_hi v' | None -> ())
       | Expr.Neq -> ())
    | Expr.Cmp _ | Expr.Or _ | Expr.Not _ | Expr.Is_null _ | Expr.Is_not_null _
    | Expr.Col _ | Expr.Lit _ | Expr.Binop _ ->
      ()
  in
  go where;
  (!lo, !hi)

let matching ?(mode = `Scan_only) table where =
  let schema = Table.schema table in
  let acc = ref [] in
  let visit =
    match where with
    | None -> fun rid tuple -> acc := (rid, tuple) :: !acc
    | Some e ->
      check_columns schema e;
      let keep = Expr.compile_pred schema e in
      fun rid tuple -> if keep tuple then acc := (rid, tuple) :: !acc
  in
  (match mode, where with
   | `Index_preferred, Some e -> (
       match key_bounds schema e with
       | (None, None) -> Table.scan table visit
       | (lo, hi) -> Table.key_range table ~lo ~hi visit)
   | (`Scan_only | `Index_preferred), _ -> Table.scan table visit);
  List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) (List.rev !acc)

let update_where t txn tname ~set ~where =
  check_writable txn;
  statement_boundary t;
  let rel = rel t tname in
  lock_rel t txn rel Lock_manager.X;
  let schema = Table.schema rel.table in
  (* each SET column's index and compiled expression, resolved once *)
  let set =
    List.map
      (fun (col, e) ->
        let i = column_index schema col in
        check_columns schema e;
        (i, Expr.compile schema e))
      set
  in
  let stamp_idx = Table.ts_col_idx rel.table in
  let victims = matching ~mode:t.plan_mode rel.table where in
  note t txn rel victims;
  List.iter
    (fun (rid, before) ->
      (* one copy of the before image; every expression reads [before],
         later SETs of one column win, and the stamp wins over all *)
      let after = Array.copy before in
      List.iter (fun (i, f) -> after.(i) <- f before) set;
      Option.iter (fun i -> after.(i) <- Value.Date t.day) stamp_idx;
      logged_update t txn rel rid ~before after)
    victims;
  List.length victims

(* a DELETE statement on [tname], under its table X lock *)
let delete_statement t txn tname delete =
  check_writable txn;
  statement_boundary t;
  let rel = rel t tname in
  lock_rel t txn rel Lock_manager.X;
  delete rel

(* a DELETE statement of the rows [find] returns *)
let delete_found t txn tname find =
  delete_statement t txn tname (fun rel ->
      let victims = find rel.table in
      note t txn rel victims;
      List.iter (fun (rid, before) -> logged_delete t txn rel rid ~before) victims;
      List.length victims)

let delete_where t txn tname ~where =
  delete_found t txn tname (fun table -> matching ~mode:t.plan_mode table where)

let delete_key t txn tname key =
  delete_found t txn tname (fun table -> Option.to_list (Table.find_key table key))

let delete_through t txn tname v =
  delete_statement t txn tname (fun rel ->
      Table.raw_delete_through rel.table v ~victims:(note t txn rel) (fun rid before free ->
          logged_free t txn rel rid ~before free))

(* snapshot read path: resolve each candidate rid through the version
   store; readers take no locks and are never blocked.  A reader takes
   the table's version-store epoch before its heap pass, so a row image
   it read there that an abort has since undone is read again *)

(* The rows of [rel] visible at [txn]'s snapshot that satisfy [where],
   in rid order: a heap (or key-index) pass, then a version-chain pass.
   [pages] limits both passes to the rows in heap pages [[from, to)]:
   a partitioned scan runs one such range per domain, so this takes no
   lock and reaches no statement boundary. *)
let snapshot_matching ?pages t txn rel where =
  let table = rel.table in
  let schema = Table.schema table in
  let heap = Table.heap table in
  let keep =
    match where with
    | None -> fun _ -> true
    | Some e ->
      check_columns schema e;
      Expr.compile_pred schema e
  in
  let csn = txn.snapshot_csn in
  let epoch = Version_store.epoch t.vstore rel.chains in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let consider rid current =
    if not (Hashtbl.mem seen rid) then begin
      Hashtbl.add seen rid ();
      match Version_store.read t.vstore rel.chains ~csn ~epoch heap rid current with
      | Some tuple when keep tuple -> acc := (rid, tuple) :: !acc
      | Some _ | None -> ()
    end
  in
  let visit rid tuple = consider rid (Some tuple) in
  (* the heap pass reads cold: a scan larger than the pool must not push
     out the pages the refresh and other readers keep using *)
  let heap_pass ~from_page ~to_page =
    Heap_file.iter_pages ~cold:true heap ~from_page ~to_page visit
  in
  let in_range =
    match pages with
    | None ->
      let scan () = heap_pass ~from_page:0 ~to_page:(Heap_file.page_count heap) in
      (match t.plan_mode, where with
       | `Index_preferred, Some e -> (
           match key_bounds schema e with
           | (None, None) -> scan ()
           | (lo, hi) -> Table.key_range table ~lo ~hi visit)
       | (`Scan_only | `Index_preferred), _ -> scan ());
      fun _ -> true
    | Some (from_page, to_page) ->
      heap_pass ~from_page ~to_page;
      fun rid -> rid.Heap_file.page >= from_page && rid.Heap_file.page < to_page
  in
  (* rows the heap/index pass cannot surface — deleted since the snapshot,
     or re-keyed out of the index bounds — still have version chains *)
  Version_store.iter_rids t.vstore rel.chains (fun rid ->
      if in_range rid && not (Hashtbl.mem seen rid) then consider rid (Heap_file.get_opt heap rid));
  List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) !acc

let snapshot_find_by_key t txn rel key =
  let table = rel.table in
  let schema = Table.schema table in
  let heap = Table.heap table in
  let csn = txn.snapshot_csn in
  let epoch = Version_store.epoch t.vstore rel.chains in
  let visible rid current = Version_store.read t.vstore rel.chains ~csn ~epoch heap rid current in
  let key_of tuple = Tuple.key schema tuple in
  let hit = ref None in
  (match Table.find_key table key with
   | Some (rid, tuple) -> (
       match visible rid (Some tuple) with
       | Some img when Tuple.compare (key_of img) key = 0 -> hit := Some (rid, img)
       | Some _ | None -> ())
   | None -> ());
  (* the key's snapshot-time row may have been deleted or re-keyed since;
     its version chain still holds the image *)
  if !hit = None then
    Version_store.iter_rids t.vstore rel.chains (fun rid ->
        if !hit = None then
          match visible rid (Heap_file.get_opt heap rid) with
          | Some img when Tuple.compare (key_of img) key = 0 -> hit := Some (rid, img)
          | Some _ | None -> ());
  !hit

(* row-level DML *)

let find_by_key t txn tname key =
  check_live txn;
  let rel = rel t tname in
  match txn.mode with
  | `Snapshot -> snapshot_find_by_key t txn rel key
  | `Read_write -> locked_find t txn rel key Lock_manager.S

let lock_table t txn tname =
  check_writable txn;
  lock_rel t txn (rel t tname) Lock_manager.X

let insert_row ?(upsert = false) t txn tname tuple =
  check_writable txn;
  let rel = rel t tname in
  match upsert_target ~upsert t txn rel tuple with
  | Some found -> overwrite t txn rel found tuple
  | None -> insert_new t txn rel ~row_lock:true tuple

let append_row t txn tname tuple =
  check_writable txn;
  ignore (insert_new t txn (rel t tname) ~row_lock:false tuple : Heap_file.rid)

(* a row [find_by_key] returned: the S lock it took (or the table X
   lock that implied it) kept its image current, so the X lock is an
   upgrade and the heap is not read again *)
let update_row t txn tname ((rid, before) as found) tuple =
  check_writable txn;
  let rel = rel t tname in
  lock_row t txn rel rid Lock_manager.X;
  note t txn rel [ found ];
  logged_update t txn rel rid ~before (stamp t rel.table tuple)

let delete_row t txn tname ((rid, before) as found) =
  check_writable txn;
  let rel = rel t tname in
  lock_row t txn rel rid Lock_manager.X;
  note t txn rel [ found ];
  logged_delete t txn rel rid ~before

let select t txn tname ?where () =
  check_live txn;
  statement_boundary t;
  let rel = rel t tname in
  match txn.mode with
  | `Snapshot ->
    (* lock-free: visibility comes from the snapshot CSN, not from S locks *)
    List.map snd (snapshot_matching t txn rel where)
  | `Read_write ->
    lock_rel t txn rel Lock_manager.S;
    List.map snd (matching ~mode:t.plan_mode rel.table where)

let select_pages t txn table ?where ~from_page ~to_page () =
  check_live txn;
  if txn.mode <> `Snapshot then invalid_arg "Db.select_pages: requires a `Snapshot transaction";
  let rel = rel t (Table.name table) in
  List.map snd (snapshot_matching ~pages:(from_page, to_page) t txn rel where)

(* SQL execution *)

type exec_result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Created

let schema_of_defs defs =
  (* key columns first (relative order preserved), then the rest *)
  let keys, others = List.partition (fun d -> d.Ast.col_key) defs in
  if keys = [] then invalid_arg "CREATE TABLE: at least one KEY column required";
  let to_col d =
    { Schema.name = d.Ast.col_name; ty = d.Ast.col_ty; nullable = d.Ast.col_nullable }
  in
  Schema.make ~key_arity:(List.length keys) (List.map to_col (keys @ others))

(* [e] compiled against [schema], an unknown column named as such *)
let compile schema e =
  check_columns schema e;
  Expr.compile schema e

(* stable sort on the values at [idxs], in order *)
let sort_on idxs rows =
  if idxs = [] then rows
  else
    List.sort
      (fun (a : Value.t array) b ->
        let rec go = function
          | [] -> 0
          | i :: rest ->
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then c else go rest
        in
        go idxs)
      rows

let output_name i = function
  | Ast.Star -> "*"
  | Ast.Item (_, Some alias) | Ast.Agg (_, _, Some alias) -> alias
  | Ast.Item (Expr.Col c, None) -> c
  | Ast.Item (_, None) | Ast.Agg (_, _, None) -> Printf.sprintf "col%d" i

(* one aggregate over a group's rows; [eval] reads its operand *)
let aggregate fn eval rows =
  let values () =
    List.filter_map
      (fun row ->
        let v = eval row in
        if Value.is_null v then None else Some v)
      rows
  in
  match fn with
  | Ast.Count_star -> Value.Int (List.length rows)
  | Ast.Count -> Value.Int (List.length (values ()))
  | Ast.Sum -> List.fold_left Value.add (Value.Int 0) (values ())
  | Ast.Avg -> (
      match values () with
      | [] -> Value.Null
      | vs ->
        let total = List.fold_left Value.add (Value.Int 0) vs in
        Value.div
          (match total with Value.Int n -> Value.Float (float_of_int n) | v -> v)
          (Value.Float (float_of_int (List.length vs))))
  | Ast.Min -> (
      match values () with
      | [] -> Value.Null
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
  | Ast.Max -> (
      match values () with
      | [] -> Value.Null
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)

(* GROUP BY / aggregate SELECT evaluation *)
let eval_aggregate schema ~items ~group_by ~order_by tuples =
  let group_idxs =
    List.map
      (fun col ->
        match Schema.index_of_opt schema col with
        | Some i -> i
        | None -> invalid_arg (Printf.sprintf "GROUP BY: unknown column %s" col))
      group_by
  in
  let module RowMap = Map.Make (struct
    type t = Value.t array

    let compare a b = Tuple.compare a b
  end) in
  let groups =
    if group_by = [] then
      (* one global group, present even over an empty input *)
      RowMap.singleton [||] tuples
    else
      List.fold_left
        (fun acc tuple ->
          let key = Array.of_list (List.map (fun i -> tuple.(i)) group_idxs) in
          RowMap.update key
            (function None -> Some [ tuple ] | Some l -> Some (tuple :: l))
            acc)
        RowMap.empty tuples
  in
  let names =
    List.mapi
      (fun i item ->
        match item with
        | Ast.Star -> invalid_arg "SELECT: * not allowed with aggregates/GROUP BY"
        | Ast.Item _ | Ast.Agg _ -> output_name i item)
      items
  in
  (* each item as a function of its group's rows, checked before any
     group is seen; non-aggregate items must be functionally determined
     by the group: plain group-column references *)
  let item_fns =
    List.map
      (fun item ->
        match item with
        | Ast.Star -> assert false
        | Ast.Agg (Ast.Count_star, _, _) -> aggregate Ast.Count_star (fun _ -> Value.Null)
        | Ast.Agg (fn, Some e, _) -> aggregate fn (compile schema e)
        | Ast.Agg (_, None, _) -> invalid_arg "aggregate without argument"
        | Ast.Item (Expr.Col c, _) when List.mem c group_by -> (
            let i = Schema.index_of schema c in
            function row :: _ -> row.(i) | [] -> Value.Null)
        | Ast.Item _ ->
          invalid_arg "SELECT with GROUP BY: non-aggregate items must be grouping columns")
      items
  in
  let eval_group rows = Array.of_list (List.map (fun f -> f rows) item_fns) in
  let out_rows = List.rev (RowMap.fold (fun _key rows acc -> eval_group rows :: acc) groups []) in
  let idx_of name =
    match List.find_index (fun n -> n = name) names with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "ORDER BY: unknown output column %s" name)
  in
  Rows { columns = names; rows = sort_on (List.map idx_of order_by) out_rows }

let eval_select schema ~items ~group_by ~order_by tuples =
  let has_agg = List.exists (function Ast.Agg _ -> true | Ast.Star | Ast.Item _ -> false) items in
  if has_agg || group_by <> [] then eval_aggregate schema ~items ~group_by ~order_by tuples
  else begin
    let tuples = sort_on (List.map (column_index schema) order_by) tuples in
    let columns, project =
      match items with
      | [ Ast.Star ] ->
        ( List.map (fun c -> c.Schema.name) (Schema.columns schema),
          fun (tuple : Tuple.t) -> Array.copy tuple )
      | items ->
        let evals =
          List.map
            (fun item ->
              match item with
              | Ast.Star -> invalid_arg "SELECT: * must be the only item"
              | Ast.Agg _ -> assert false
              | Ast.Item (e, _) -> compile schema e)
            items
        in
        ( List.mapi output_name items,
          fun tuple -> Array.of_list (List.map (fun eval -> eval tuple) evals) )
    in
    Rows { columns; rows = List.map project tuples }
  end

let exec t txn stmt =
  match stmt with
  | Ast.Create_table { table = tname; columns } ->
    check_writable txn;
    let schema = schema_of_defs columns in
    ignore (create_table t ~name:tname schema : Table.t);
    Created
  | Ast.Insert { table = tname; columns; rows } ->
    List.iter
      (fun row -> ignore (insert_values t txn tname ~columns row : Heap_file.rid))
      rows;
    Affected (List.length rows)
  | Ast.Update { table = tname; sets; where } -> Affected (update_where t txn tname ~set:sets ~where)
  | Ast.Delete { table = tname; where } -> Affected (delete_where t txn tname ~where)
  | Ast.Select { items; table = tname; where; group_by; order_by } ->
    let schema = Table.schema (table t tname) in
    eval_select schema ~items ~group_by ~order_by (select t txn tname ?where ())

let exec_sql t txn input =
  match Dw_sql.Parser.parse input with
  | Error e -> Error e
  | Ok stmt -> (
      match exec t txn stmt with
      | result -> Ok result
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error (Printf.sprintf "unknown table %s" (Ast.table_of stmt)))

(* maintenance *)

let flush_all t = Buffer_pool.flush_all t.pool

let checkpoint t =
  flush_all t;
  (* the checkpoint's own flush (inside Wal.checkpoint) covers any open
     group; account it without a second fsync *)
  Group_commit.absorb t.group;
  ignore (Wal.checkpoint t.wal ~active:(active_txns t) : Wal.lsn)

let recover t =
  let resolve tname = Option.map Table.heap (table_opt t tname) in
  let stats = Recovery.run ~wal:t.wal ~resolve in
  Hashtbl.iter (fun _ rel -> Table.rebuild_indexes rel.table) t.tables;
  (* recovery rebuilds committed state in the heaps; an empty store makes
     every rid resolve to `Current, which is exactly right *)
  Version_store.clear t.vstore;
  stats

let reopen ?(pool_pages = 256) ?(pool_stripes = 1) ?(archive_log = false) ~vfs ~name
    ~tables:table_specs () =
  (* Wal.create adopts the surviving segments (truncating torn tails) *)
  let t = create ~pool_pages ~pool_stripes ~archive_log ~vfs ~name () in
  List.iter
    (fun (tname, schema, ts_column) ->
      let fname = heap_file_name name tname in
      (* a crash can predate the table's first page — attach still works
         on an empty file.  The index rebuild is deferred to [recover]: a
         crash mid-checkpoint can leave heap pages that together show one
         key at two rids (new page flushed, old page's delete not), which
         only WAL redo/undo resolves *)
      let file = Vfs.open_or_create vfs fname in
      add_rel t
        (Table.attach ~rebuild_index:false ~pool:t.pool ~file ~name:tname ~schema ~ts_column))
    table_specs;
  let stats = recover t in
  (* transaction ids must keep growing across the crash, or post-recovery
     commits would collide with logged history *)
  let max_tx = ref 0 in
  Wal.iter_all t.wal (fun _ r -> if r.Log_record.tx > !max_tx then max_tx := r.Log_record.tx);
  t.next_txid <- !max_tx + 1;
  (t, stats)
