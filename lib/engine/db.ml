module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Codec = Dw_relation.Codec
module Vfs = Dw_storage.Vfs
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Page = Dw_storage.Page
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

let statement_boundary t txn =
  (* a commit lull must not starve a waiting group leader: the max-wait
     deadline is re-checked whenever a read-write statement begins (free
     when no group is open).  A snapshot statement leaves the group to
     the writer, but still yields: the scheduler interleaves readers here *)
  if txn.mode = `Read_write then Group_commit.poll t.group;
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

(* a snapshot transaction took no lock, so it leaves the lock manager
   alone *)
let finish t txn =
  txn.finished <- true;
  locked_txn t (fun () -> Hashtbl.remove t.active txn.id);
  if txn.mode = `Read_write then Lock_manager.release_all t.locks txn.id

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
   caller holds: the WAL carries the record the heap slot held, as it
   was *)
let logged_delete t txn rel rid ~before =
  let before_rec = Table.raw_delete rel.table rid ~old_tuple:before in
  txn.undo_log <- U_delete (rel.rname, rid, before) :: txn.undo_log;
  log_dml t
    {
      Log_record.tx = txn.id;
      body = Log_record.Delete { table = rel.rname; rid; before = before_rec };
    };
  fire t txn rel (Trigger.Deleted (rid, before))

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
  statement_boundary t txn;
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
  statement_boundary t txn;
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
  statement_boundary t txn;
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

(* one Purge record of the victims' rids, logged before the first slot
   is freed: no before images, since recovery never undoes a purge *)
let purge t txn tname v =
  delete_statement t txn tname (fun rel ->
      let log victims =
        note t txn rel victims;
        let body = Log_record.Purge { table = rel.rname; rids = List.map fst victims } in
        if victims <> [] then log_dml t { Log_record.tx = txn.id; body }
      in
      Table.raw_purge rel.table v ~victims:log (fun rid before ->
          txn.undo_log <- U_delete (rel.rname, rid, before) :: txn.undo_log))

(* snapshot read path: resolve each candidate rid through the version
   store; readers take no locks and are never blocked.

   A full scan goes a page at a time: copy the page (a cold read, so
   the scan takes no frame), then resolve all of its slots under one
   version-store lock, then visit the visible records in slot order.
   That is exact for the page, for three reasons.
   - A row in the copy whose slot has no chain entry covering the
     snapshot is committed at or before it: every write notes its
     before image before the heap changes (an insert stores its row and
     notes its rid under one store lock), and an entry that covers the
     snapshot outlives the reader (gc keeps it).  So a row freed or
     changed before the copy was noted before that, and the resolution
     after the copy finds its image.  Free slots are resolved too, so a
     row deleted since the snapshot comes back from its chain.
   - The one way an entry leaves a chain other than by gc is an abort's
     discard, after its undo pass has put the heap back, and it moves
     the table's epoch.  The epoch is read before the copy (for each
     page, under the previous page's resolution lock); if it moved, the
     resolution reads every slot of the page that has no covering entry
     again from the heap through the pool, under the store lock.
   - A page appended after the scan began holds nothing the snapshot
     can see, so the page count is read once at the start.
   Pages and slots go in order, so the records come in rid order. *)

(* every record of [rel] in heap pages [[from_page, to_page)] visible at
   [txn]'s snapshot, in rid order: [visit buf off] sees one where it
   lies, in the page copy, or in a scratch record for a chain image *)
let snapshot_records t txn rel ~from_page ~to_page visit =
  let heap = Table.heap rel.table in
  let schema = Table.schema rel.table in
  let csn = txn.snapshot_csn in
  let page = Bytes.create Page.size in
  let scratch = Bytes.create (Schema.record_size schema) in
  let versions =
    Array.make (Page.max_records_per_page ~record_width:(Schema.record_size schema)) None
  in
  let slots = Array.length versions in
  let epoch = ref (Version_store.epoch t.vstore rel.chains) in
  for pno = max 0 from_page to min to_page (Heap_file.page_count heap) - 1 do
    Heap_file.copy_page heap pno page;
    epoch := Version_store.read_page t.vstore rel.chains ~csn ~epoch:!epoch heap ~page:pno versions;
    (* a page being appended reads as zeros from the device: no slot *)
    let formatted = Page.capacity page = slots in
    for slot = 0 to slots - 1 do
      match versions.(slot) with
      | None ->
        if formatted && Page.is_used page slot then visit page (Page.slot_off page slot)
      | Some None -> ()
      | Some (Some tuple) ->
        Codec.encode_binary_into schema tuple scratch 0;
        visit scratch 0
    done
  done

(* The rows of [rel] visible at [txn]'s snapshot in the key range
   [lo, hi] that satisfy [where], in rid order: a key-index pass, then
   a version-chain pass *)
let snapshot_key_range t txn rel ~lo ~hi where =
  let table = rel.table in
  let heap = Table.heap table in
  let keep = Expr.compile_pred (Table.schema table) where in
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
  Table.key_range table ~lo ~hi (fun rid tuple -> consider rid (Some tuple));
  (* rows the index pass cannot surface — deleted since the snapshot,
     or re-keyed out of the index bounds — still have version chains *)
  Version_store.iter_rids t.vstore rel.chains (fun rid ->
      if not (Hashtbl.mem seen rid) then consider rid (Heap_file.get_opt heap rid));
  List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) !acc
  |> List.map snd

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

(* ---- records as the scan hands them over ---- *)

(* a record being read: where its bytes lie, and its tuple once
   something that does not read the bytes in place needed it (decoded
   at most once per record) *)
type cursor = {
  schema : Schema.t;
  mutable buf : bytes;
  mutable off : int;
  mutable tuple : Tuple.t;  (* [no_tuple] until decoded *)
}

(* a schema has a column, so no decoded tuple is this one *)
let no_tuple : Tuple.t = [||]

let cursor schema = { schema; buf = Bytes.empty; off = 0; tuple = no_tuple }

let at c buf off =
  c.buf <- buf;
  c.off <- off;
  c.tuple <- no_tuple

let tuple_of c =
  if c.tuple == no_tuple then c.tuple <- Codec.decode_binary c.schema c.buf c.off;
  c.tuple

(* a column read where it lies: its null bit and its field's offset *)
type field = { col : int; pos : int }

let field schema col = { col; pos = Codec.column_offset schema col }

(* small enough to inline, so a float read stays unboxed *)
let[@inline] null_in c f =
  Char.code (Bytes.get c.buf (c.off + (f.col lsr 3))) land (1 lsl (f.col land 7)) <> 0

let[@inline] int_in c f = Int64.to_int (Bytes.get_int64_le c.buf (c.off + f.pos))
let[@inline] float_in c f = Int64.float_of_bits (Bytes.get_int64_le c.buf (c.off + f.pos))

let cmp_holds (op : Expr.cmp) c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let flip (op : Expr.cmp) : Expr.cmp =
  match op with Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | (Eq | Neq) as op -> op

(* [col op lit] read in place, as [Expr]'s comparison evaluates it: false
   on a NULL, else [Value.compare] of the column's value and [lit] *)
let typed_cmp schema col op lit =
  Option.bind (Schema.index_of_opt schema col) @@ fun i ->
  let f = field schema i in
  let test cmp = Some (fun c -> (not (null_in c f)) && cmp_holds op (cmp c)) in
  match (Schema.column schema i).Schema.ty, lit with
  | _, Value.Null -> Some (fun _ -> false)
  | Value.Tint, Value.Int y | Value.Tdate, Value.Date y -> test (fun c -> Int.compare (int_in c f) y)
  | Value.Tint, Value.Float y -> test (fun c -> Float.compare (float_of_int (int_in c f)) y)
  | Value.Tfloat, Value.Float y -> test (fun c -> Float.compare (float_in c f) y)
  | Value.Tfloat, Value.Int n ->
    let y = float_of_int n in
    test (fun c -> Float.compare (float_in c f) y)
  | ((Value.Tint | Value.Tdate | Value.Tfloat) as ty), _ ->
    (* a literal of another kind compares by kind alone *)
    let sample = match ty with Value.Tdate -> Value.Date 0 | _ -> Value.Int 0 in
    let by_kind = Value.compare sample lit in
    test (fun _ -> by_kind)
  | (Value.Tbool | Value.Tstring _), _ -> None

(* a predicate read in place when it is built only of comparisons of an
   INT, DATE or FLOAT column with a literal, NULL tests of a column, AND,
   OR and NOT; none of these raises, so short cuts change nothing *)
let rec typed_pred schema (e : Expr.t) =
  let both a b k = match typed_pred schema a, typed_pred schema b with
    | Some fa, Some fb -> Some (k fa fb)
    | _ -> None
  in
  match e with
  | Cmp (op, Col col, Lit v) -> typed_cmp schema col op v
  | Cmp (op, Lit v, Col col) -> typed_cmp schema col (flip op) v
  | And (a, b) -> both a b (fun fa fb c -> fa c && fb c)
  | Or (a, b) -> both a b (fun fa fb c -> fa c || fb c)
  | Not a -> Option.map (fun fa c -> not (fa c)) (typed_pred schema a)
  | Is_null (Col col) | Is_not_null (Col col) ->
    Option.map
      (fun i ->
        let f = field schema i and want = match e with Is_null _ -> true | _ -> false in
        fun c -> null_in c f = want)
      (Schema.index_of_opt schema col)
  | Cmp _ | Is_null _ | Is_not_null _ | Col _ | Lit _ | Binop _ -> None

(* WHERE over records: in place where it can be, else on the decoded
   row.  Raises naming an unknown column, before any record is read *)
let record_pred schema = function
  | None -> fun _ -> true
  | Some e -> (
      check_columns schema e;
      match typed_pred schema e with
      | Some f -> f
      | None ->
        let keep = Expr.compile_pred schema e in
        fun c -> keep (tuple_of c))

(* the key range a snapshot select reads through the index, if any *)
let index_range t schema where =
  match t.plan_mode, where with
  | `Index_preferred, Some e -> (
      match key_bounds schema e with (None, None) -> None | (lo, hi) -> Some (lo, hi))
  | (`Scan_only | `Index_preferred), _ -> None

(* [select] on a snapshot as a list: the page-at-a-time scan decoding
   the records that pass [where], or the key range *)
let snapshot_rows ?pages t txn rel where =
  let schema = Table.schema rel.table in
  match pages, where, index_range t schema where with
  | None, Some e, Some (lo, hi) ->
    check_columns schema e;
    snapshot_key_range t txn rel ~lo ~hi e
  | _ ->
    let keep = record_pred schema where in
    let from_page, to_page = Option.value pages ~default:(0, max_int) in
    let c = cursor schema and acc = ref [] in
    snapshot_records t txn rel ~from_page ~to_page (fun buf off ->
        at c buf off;
        if keep c then acc := tuple_of c :: !acc);
    List.rev !acc

let select t txn tname ?where () =
  check_live txn;
  statement_boundary t txn;
  let rel = rel t tname in
  match txn.mode with
  | `Snapshot ->
    (* lock-free: visibility comes from the snapshot CSN, not from S locks *)
    snapshot_rows t txn rel where
  | `Read_write ->
    lock_rel t txn rel Lock_manager.S;
    List.map snd (matching ~mode:t.plan_mode rel.table where)

let select_pages t txn table ?where ~from_page ~to_page () =
  check_live txn;
  if txn.mode <> `Snapshot then invalid_arg "Db.select_pages: requires a `Snapshot transaction";
  let rel = rel t (Table.name table) in
  snapshot_rows ~pages:(from_page, to_page) t txn rel where

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

(* ---- the folding aggregate evaluator ----

   One accumulator per item per group, fed one record at a time in rid
   order.  An INT, DATE or FLOAT column is read in place into unboxed
   cells; any other operand decodes the record once and folds [Value]s.
   Results and errors are those of each item evaluated over its group's
   rows as a list, in rid order: SUM starts at [Int 0] and adds with
   [Value.add] (an INT sum wraps, a FLOAT sum is [0.0 +. x1 +. ...]),
   MIN and MAX keep the first of equal values by [Value.compare], and an
   error is raised after the scan, for the first group in key order and
   the first item in it that failed, an operand's error before an
   accumulation's (the operands of a group were all evaluated before
   its sum). *)

(* an aggregate's operand or a grouping column *)
type operand =
  | Ints of field * bool  (* an INT column, or a DATE one ([true]) *)
  | Floats of field  (* a FLOAT column *)
  | Values of (Tuple.t -> Value.t)  (* anything else, on the decoded row *)

type item =
  | Count_all
  | Agg of Ast.agg_fn * operand
  | Key of int  (* a grouping column: its position in GROUP BY *)

type group = {
  key : Value.t array;  (* the grouping columns of its first record *)
  n : int array;  (* per item: the non-NULL values folded *)
  ints : int array;
  floats : float array;  (* 0.0 at the start: a FLOAT sum's first term *)
  values : Value.t array;  (* [Int 0] at the start *)
  (* the item's error: an accumulation's, until an operand raises; an
     operand's error ends the item's fold, and [n] goes to -1 *)
  errors : exn option array;
}

module Buckets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type plan = {
  names : string list;
  items : item array;
  keys : operand array;  (* the grouping columns *)
  single : group option;  (* the one group of a query without GROUP BY *)
  buckets : group list Buckets.t;
  mutable groups : group list;
}

let new_group items key =
  let n = Array.length items in
  {
    key;
    n = Array.make n 0;
    ints = Array.make n 0;
    floats = Array.make n 0.0;
    values = Array.make n (Value.Int 0);
    errors = Array.make n None;
  }

let column schema i =
  match (Schema.column schema i).Schema.ty with
  | Value.Tint -> Ints (field schema i, false)
  | Value.Tdate -> Ints (field schema i, true)
  | Value.Tfloat -> Floats (field schema i)
  | Value.Tbool | Value.Tstring _ -> Values (fun tuple -> tuple.(i))

let operand schema (fn : Ast.agg_fn) e =
  let eval = compile schema e in
  match e with
  | Expr.Col col -> (
      match column schema (Schema.index_of schema col), fn with
      (* a DATE sum is [Value.add]'s error: the Value path raises it *)
      | Ints (_, true), (Sum | Avg) -> Values eval
      | operand, _ -> operand)
  | _ -> Values eval

(* the query's shape checks, in the order they raise, before any record *)
let compile_aggregate schema ~items ~group_by =
  let group_idxs =
    List.map
      (fun col ->
        match Schema.index_of_opt schema col with
        | Some i -> i
        | None -> invalid_arg (Printf.sprintf "GROUP BY: unknown column %s" col))
      group_by
  in
  let names =
    List.mapi
      (fun i item ->
        match item with
        | Ast.Star -> invalid_arg "SELECT: * not allowed with aggregates/GROUP BY"
        | Ast.Item _ | Ast.Agg _ -> output_name i item)
      items
  in
  (* non-aggregate items must be functionally determined by the group:
     plain group-column references *)
  let items =
    Array.of_list
      (List.map
         (fun item ->
           match item with
           | Ast.Star -> assert false
           | Ast.Agg (Ast.Count_star, _, _) -> Count_all
           | Ast.Agg (fn, Some e, _) -> Agg (fn, operand schema fn e)
           | Ast.Agg (_, None, _) -> invalid_arg "aggregate without argument"
           | Ast.Item (Expr.Col c, _) when List.mem c group_by ->
             Key (Option.get (List.find_index (String.equal c) group_by))
           | Ast.Item _ ->
             invalid_arg "SELECT with GROUP BY: non-aggregate items must be grouping columns")
         items)
  in
  let keys = Array.of_list (List.map (column schema) group_idxs) in
  (* one global group, present even over an empty input *)
  let single = if group_by = [] then Some (new_group items [||]) else None in
  { names; items; keys; single; buckets = Buckets.create 64; groups = [] }

(* a hash of the record's grouping columns from the [j]th, equal for
   values [Value.compare] finds equal (-0.0 and 0.0, every NaN) *)
let rec key_hash keys c j h =
  if j = Array.length keys then h
  else
    let v =
      match keys.(j) with
      | Ints (f, _) -> if null_in c f then 0x2545f491 else int_in c f
      | Floats f ->
        if null_in c f then 0x2545f491
        else
          let x = float_in c f in
          if x = 0.0 then 0
          else if Float.is_nan x then 1
          else Int64.to_int (Int64.bits_of_float x)
      | Values eval -> Hashtbl.hash (eval (tuple_of c))
    in
    key_hash keys c (j + 1) ((h * 31) + v)

let rec key_matches keys c (key : Value.t array) j =
  j = Array.length keys
  || (match keys.(j), key.(j) with
      | (Ints (f, _) | Floats f), Value.Null -> null_in c f
      | Ints (f, _), (Value.Int y | Value.Date y) -> (not (null_in c f)) && int_in c f = y
      | Floats f, Value.Float y -> (not (null_in c f)) && Float.compare (float_in c f) y = 0
      | Values eval, v -> Value.compare (eval (tuple_of c)) v = 0
      | (Ints _ | Floats _), _ -> false)
     && key_matches keys c key (j + 1)

let value_in c = function
  | Ints (f, date) ->
    if null_in c f then Value.Null
    else if date then Value.Date (int_in c f)
    else Value.Int (int_in c f)
  | Floats f -> if null_in c f then Value.Null else Value.Float (float_in c f)
  | Values eval -> eval (tuple_of c)

let rec find_group keys c = function
  | [] -> raise Not_found
  | g :: rest -> if key_matches keys c g.key 0 then g else find_group keys c rest

let group_of plan c =
  match plan.single with
  | Some g -> g
  | None -> (
      let h = key_hash plan.keys c 0 0 in
      let bucket = match Buckets.find plan.buckets h with l -> l | exception Not_found -> [] in
      match find_group plan.keys c bucket with
      | g -> g
      | exception Not_found ->
        let g = new_group plan.items (Array.map (value_in c) plan.keys) in
        Buckets.replace plan.buckets h (g :: bucket);
        plan.groups <- g :: plan.groups;
        g)

let fold_value g k (fn : Ast.agg_fn) n v =
  match fn with
  | Sum | Avg -> (
      match Value.add g.values.(k) v with
      | sum -> g.values.(k) <- sum
      | exception e -> g.errors.(k) <- Some e)
  | Min -> if n = 0 || Value.compare v g.values.(k) < 0 then g.values.(k) <- v
  | Max -> if n = 0 || Value.compare v g.values.(k) > 0 then g.values.(k) <- v
  | Count | Count_star -> ()

let step g c k = function
  | Count_all -> g.n.(k) <- g.n.(k) + 1
  | Key _ -> ()
  | Agg (fn, Ints (f, _)) ->
    if not (null_in c f) then begin
      let x = int_in c f and n = g.n.(k) in
      g.n.(k) <- n + 1;
      match fn with
      | Sum | Avg -> g.ints.(k) <- g.ints.(k) + x
      | Min -> if n = 0 || x < g.ints.(k) then g.ints.(k) <- x
      | Max -> if n = 0 || x > g.ints.(k) then g.ints.(k) <- x
      | Count | Count_star -> ()
    end
  | Agg (fn, Floats f) ->
    if not (null_in c f) then begin
      let x = float_in c f and n = g.n.(k) in
      g.n.(k) <- n + 1;
      match fn with
      | Sum | Avg -> g.floats.(k) <- g.floats.(k) +. x
      | Min -> if n = 0 || Float.compare x g.floats.(k) < 0 then g.floats.(k) <- x
      | Max -> if n = 0 || Float.compare x g.floats.(k) > 0 then g.floats.(k) <- x
      | Count | Count_star -> ()
    end
  | Agg (fn, Values eval) ->
    let n = g.n.(k) in
    if n >= 0 then (
      match eval (tuple_of c) with
      | exception e ->
        g.errors.(k) <- Some e;
        g.n.(k) <- -1
      | v when Value.is_null v -> ()
      | v ->
        g.n.(k) <- n + 1;
        if Option.is_none g.errors.(k) then fold_value g k fn n v)

let fold plan c =
  let g = group_of plan c in
  for k = 0 to Array.length plan.items - 1 do
    step g c k plan.items.(k)
  done

let result g k item =
  match item with
  | Count_all -> Value.Int g.n.(k)
  | Key j -> g.key.(j)
  | Agg (fn, operand) -> (
      Option.iter raise g.errors.(k);
      let n = g.n.(k) in
      match fn, operand with
      | (Count | Count_star), _ -> Value.Int n
      | Sum, Ints _ -> Value.Int g.ints.(k)
      | Sum, Floats _ -> if n = 0 then Value.Int 0 else Value.Float g.floats.(k)
      | Sum, Values _ -> g.values.(k)
      | (Avg | Min | Max), _ when n = 0 -> Value.Null
      | Avg, Ints _ -> Value.Float (float_of_int g.ints.(k) /. float_of_int n)
      | Avg, Floats _ -> Value.Float (g.floats.(k) /. float_of_int n)
      | Avg, Values _ ->
        Value.div
          (match g.values.(k) with Value.Int s -> Value.Float (float_of_int s) | v -> v)
          (Value.Float (float_of_int n))
      | (Min | Max), Ints (_, true) -> Value.Date g.ints.(k)
      | (Min | Max), Ints (_, false) -> Value.Int g.ints.(k)
      | (Min | Max), Floats _ -> Value.Float g.floats.(k)
      | (Min | Max), Values _ -> g.values.(k))

(* the result rows, groups in key order, each item in order *)
let finish plan ~order_by =
  let groups =
    match plan.single with
    | Some g -> [| g |]
    | None ->
      let groups = Array.of_list plan.groups in
      (* keys are distinct: an in-place sort gives their one order *)
      Array.sort (fun a b -> Tuple.compare a.key b.key) groups;
      groups
  in
  (* groups in order, each item in order: the first error is raised *)
  let out_rows = Array.to_list (Array.map (fun g -> Array.mapi (result g) plan.items) groups) in
  let idx_of name =
    match List.find_index (fun n -> n = name) plan.names with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "ORDER BY: unknown output column %s" name)
  in
  Rows { columns = plan.names; rows = sort_on (List.map idx_of order_by) out_rows }

let is_aggregate ~items ~group_by =
  group_by <> [] || List.exists (function Ast.Agg _ -> true | Ast.Star | Ast.Item _ -> false) items

let eval_select schema ~items ~group_by ~order_by tuples =
  if is_aggregate ~items ~group_by then begin
    (* decoded rows go through the same fold, encoded into one scratch
       record (their tuple is the cursor's decoded row) *)
    let plan = compile_aggregate schema ~items ~group_by in
    let c = cursor schema and scratch = Bytes.create (Schema.record_size schema) in
    List.iter
      (fun tuple ->
        Codec.encode_binary_into schema tuple scratch 0;
        at c scratch 0;
        c.tuple <- tuple;
        fold plan c)
      tuples;
    finish plan ~order_by
  end
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

(* an aggregate SELECT on a snapshot's full scan folds the records where
   the scan hands them over; a query's errors keep their order: WHERE's
   unknown column, WHERE's errors during the scan, then the items' *)
let snapshot_aggregate t txn rel ~items ~group_by ~order_by where =
  let schema = Table.schema rel.table in
  let keep = record_pred schema where in
  let c = cursor schema in
  let pages = Heap_file.page_count (Table.heap rel.table) in
  match compile_aggregate schema ~items ~group_by with
  | plan ->
    snapshot_records t txn rel ~from_page:0 ~to_page:pages (fun buf off ->
        at c buf off;
        if keep c then fold plan c);
    finish plan ~order_by
  | exception e ->
    snapshot_records t txn rel ~from_page:0 ~to_page:pages (fun buf off ->
        at c buf off;
        ignore (keep c : bool));
    raise e

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
    if
      txn.mode = `Snapshot && (not txn.finished)
      && is_aggregate ~items ~group_by
      && index_range t schema where = None
    then begin
      statement_boundary t txn;
      snapshot_aggregate t txn (rel t tname) ~items ~group_by ~order_by where
    end
    else eval_select schema ~items ~group_by ~order_by (select t txn tname ?where ())

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
  (* transaction ids must keep growing across the crash, or post-recovery
     commits would collide with logged history *)
  locked_txn t (fun () -> t.next_txid <- max t.next_txid (stats.Recovery.max_txid + 1));
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
  (t, recover t)
