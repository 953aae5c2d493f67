(** The source-system DBMS: transactions (2PL + WAL), DML, row-level
    triggers, timestamp-column maintenance, SQL execution, checkpointing
    and crash recovery.

    One [Db.t] models one operational database in the paper's reference
    architecture.  Everything the delta-extraction methods need is here:

    - a {b timestamp column} per table (maintained on insert/update) for
      the timestamp-based method;
    - {b row-level AFTER triggers} running inside the user transaction for
      the trigger-based method;
    - a {b redo log with archive mode} for the log-based method;
    - plain scans/dumps for the differential-snapshot method. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Heap_file = Dw_storage.Heap_file

type t
type txn

exception Would_block of { tx : int; blockers : int list }
exception Deadlock_abort of { tx : int; blockers : int list }
(** Raised by DML when 2PL cannot grant a lock.  In single-user flows
    (all of Section 3/4 source-side experiments) they never occur; the
    warehouse scheduler manages locks itself and does not use these. *)

val create :
  ?pool_pages:int ->  (* buffer-pool frames, default 256 *)
  ?pool_stripes:int ->  (* buffer-pool lock stripes, default 1 *)
  ?archive_log:bool ->  (* the paper's "archiving turned on", default false *)
  vfs:Dw_storage.Vfs.t ->
  name:string ->
  unit ->
  t

val name : t -> string
val vfs : t -> Dw_storage.Vfs.t

(** {2 Plan mode} — how statement-level DML/SELECT resolve their WHERE
    clause.  [`Scan_only] (default) always scans, which is the behaviour
    of the paper's source DBMS ("each update transaction performs a table
    scan").  [`Index_preferred] uses the primary-key index whenever the
    predicate implies bounds on the leading key column — the warehouse
    runs in this mode. *)

val set_plan_mode : t -> [ `Scan_only | `Index_preferred ] -> unit

(** {2 Commit durability} — [`Every_commit] (default) fsyncs the log at
    each commit.  [`Group n] is group commit with a size-only bound: the
    leader holds the group open until [n] commits are pending, then one
    fsync covers them all.  [`Group_policy p] exposes the full
    {!Dw_txn.Group_commit.policy} object: a [max_group] size bound {e and}
    a [max_wait_s] deadline on the registry clock (deterministic under
    {!Dw_util.Sim_clock}), re-checked at every commit and statement
    boundary.  Both group modes trade a bounded durability window for
    throughput; the amortization shows up in the [wal.fsync] /
    [wal.group_size] histograms.  Aborts and checkpoints always flush
    (covering any open group).  In every mode a commit writes its
    Commit frame to the device at once, together with every frame the
    log buffer holds ({!Dw_txn.Wal}); only the fsync waits for the
    group.  Wall-clock impact is only observable on
    the on-disk Vfs backend. *)

val set_sync_mode :
  t -> [ `Every_commit | `Group of int | `Group_policy of Dw_txn.Group_commit.policy ] -> unit
(** Flushes any open group before switching, so commits acknowledged
    under the old policy never wait on the new one.  Raises
    [Invalid_argument] on [`Group n] with [n < 1] or an invalid policy. *)

val sync : t -> unit
(** Durability barrier: flush the open commit group, if any.  No-op under
    [`Every_commit]. *)

val pending_group_commits : t -> int
(** Commits acknowledged but not yet covered by an fsync (0 under
    [`Every_commit]). *)

val metrics : t -> Dw_util.Metrics.t
val wal : t -> Dw_txn.Wal.t
val locks : t -> Dw_txn.Lock_manager.t

(** {2 Logical date} — drives timestamp columns ("last_modified"). *)

val current_day : t -> int
val set_day : t -> int -> unit
val advance_day : t -> unit

(** {2 Schema} *)

val create_table :
  t -> name:string -> ?ts_column:string -> Schema.t -> Table.t
val table : t -> string -> Table.t
(** Raises [Not_found]. *)

val table_opt : t -> string -> Table.t option
val tables : t -> Table.t list
val drop_table : t -> string -> unit

(** {2 Transactions}

    Two modes.  [`Read_write] (default) is classic 2PL: locks, WAL
    logging, undo on abort.  [`Snapshot] is a read-only transaction that
    takes {e no} locks at all — its reads resolve against the version
    store ({!Dw_txn.Version_store}) at the commit sequence number (CSN)
    current when it began, so it sees a transaction-consistent frozen
    state and is never blocked by (and never blocks) writers.  Snapshot
    transactions log nothing; DML through one raises
    [Invalid_argument].

    {b Readers leave writer state alone.}  A snapshot transaction never
    calls the lock manager (not even to release at its end) and runs no
    group-commit poll at its statement boundaries, which only run the
    yield hook ({!set_yield_hook}).  So reader domains touch neither the
    lock manager nor the WAL, and an open commit group past its
    deadline waits for the writer's next commit, abort or read-write
    statement (or {!sync}).

    {b Noted before visible.}  A snapshot never reads an uncommitted
    row.  Every row write has its before image in the version store
    before a reader can see the heap change: a statement notes all its
    victims under one store lock before its first heap write, and an
    insert stores its row and notes its rid under one store lock
    ({!Dw_txn.Version_store.note_insert}).  A reader whose heap image an
    abort has undone since it read it reads the heap again.

    {b Lock order.}  [Db]'s transaction-table lock (a commit's CSN bump
    and publication), then the version-store lock, then a buffer-pool
    stripe mutex (the page latch) or a key index's latch, then a file's
    I/O lock ({!Dw_storage.Vfs}).  No path takes the version-store lock
    while it holds one of the latter: a snapshot scan copies a page out
    under its latch (or reads it from the device under no pool lock) and
    resolves after. *)

val begin_txn : ?mode:[ `Read_write | `Snapshot ] -> t -> txn
(** [`Read_write] logs a Begin; [`Snapshot] logs nothing and takes no
    lock, now or later. *)

val txid : txn -> int
val txn_mode : txn -> [ `Read_write | `Snapshot ]

val version_store : t -> Dw_txn.Version_store.t
(** The before-image version store backing snapshot reads.  Exposed for
    observability (entry counts, GC behaviour in tests). *)

val committed : txn -> bool
(** Whether the transaction's commit stands — also after a {!commit}
    that raised (see there). *)

val commit : t -> txn -> unit
(** Writes the commit record, with the frames buffered before it, in one
    log write and flushes the log (durability point),
    assigns the CSN and publishes the transaction's before-images
    atomically, then releases its locks.  For [`Snapshot] transactions:
    just ends the transaction (possibly unpinning versions for GC); no
    log, lock-manager or group-commit call.

    A {!Dw_storage.Vfs.Fault.Transient} fault is re-raised, and the
    transaction is finished either way.  Before the commit record is
    written, it is rolled back (as {!abort}, the abort record
    best-effort; a Commit frame whose write failed is dropped from the
    log buffer first, so the log never holds a Commit and then an Abort
    for it): recovery would find it a loser too.  After — on the commit's fsync or
    the group flush it triggers — the commit stands: it is visible, and
    durable once a later flush succeeds. *)

val abort : t -> txn -> unit
(** Rolls back all of the transaction's changes.  The abort record is
    advisory (recovery treats a transaction without a commit record as a
    loser), so a transient fault writing it is swallowed. *)

val with_txn : t -> (txn -> 'a) -> 'a
(** Commit on return, abort on exception (re-raised). *)

val active_txns : t -> int list

(** {2 DML} — each call acquires statement locks, logs images, maintains
    the timestamp column, and fires AFTER triggers per affected row. *)

val insert : ?upsert:bool -> t -> txn -> string -> Tuple.t -> Heap_file.rid
(** With [~upsert:true], a row already under the tuple's primary key is
    overwritten in place (an update, its rid returned) instead of
    failing the duplicate-key check: one statement either way. *)

val update_where : t -> txn -> string -> set:(string * Expr.t) list -> where:Expr.t option -> int
(** Returns number of rows updated.  SET right-hand sides are evaluated
    against the before image. *)

val delete_where : t -> txn -> string -> where:Expr.t option -> int

val delete_key : t -> txn -> string -> Tuple.t -> int
(** [DELETE] of the row whose primary key is this key tuple, found
    through the key index instead of a predicate: 1, or 0 when there is
    none. *)

val delete_through : t -> txn -> string -> Value.t -> int
(** [DELETE] of every row whose leading key column is [<= v] (a
    position log's purged prefix), found through the key index with no
    predicate, in either plan mode.  Each row is logged, noted in the
    version store and undone on abort as {!delete_where} does, in rid
    order, so the log is the same as [delete_where]'s with [key <= v];
    the key index drops the rows in one range removal at the end of the
    statement.  Raises [Invalid_argument] where no key range ends at
    [v] (see {!Table.raw_delete_through}). *)

val select : t -> txn -> string -> ?where:Expr.t -> unit -> Tuple.t list
(** Full tuples of matching rows, in rid order.  [`Read_write]: shared
    table lock.  [`Snapshot]: no lock; rows as of the transaction's
    snapshot CSN.

    A [`Snapshot] select that is not a key range (a full scan) reads the
    heap a page at a time, cold ({!Dw_storage.Heap_file.copy_page}): a
    cached page is copied and keeps its place in the LRU order, and one
    that is not cached is read from the device into the scan's own
    buffer, taking no frame.  So an OLAP scan of a table larger than the
    pool evicts nothing and writes nothing back, and the pages a refresh
    keeps using stay cached.  Each page's slots are resolved against the
    version store under one lock, and WHERE reads an INT, DATE or FLOAT
    column in place, so only the rows it keeps are decoded.  Every other
    read, a [`Read_write] scan and a key range included, goes through the
    pool's frames. *)

val select_pages :
  t -> txn -> Table.t -> ?where:Expr.t -> from_page:int -> to_page:int -> unit -> Tuple.t list
(** {!select}'s full scan on a [`Snapshot] transaction, limited to heap
    pages [[from_page, to_page)], read cold as {!select}'s.
    Concatenating the results of contiguous ranges covering the table's
    pages at the time of the call gives {!select}'s list, since a row in
    a later page is invisible to the snapshot.  It reaches no statement
    boundary, so it is safe on a reader domain.  Raises
    [Invalid_argument] on a finished or [`Read_write] transaction and on
    an unknown column in [where]. *)

val lock_table : t -> txn -> string -> unit
(** X-lock a table until the transaction ends, as a DML statement on it
    does.  A table a transaction holds in X implies every later lock on
    it and its rows, which then never reaches {!Dw_txn.Lock_manager}:
    [lock.acquires] counts one per written table per transaction.
    Raises [Not_found] for an unknown table and [Invalid_argument] on a
    snapshot transaction. *)

(** {2 Row-level DML} — key/rid addressed, row-granularity locks.  Used by
    the warehouse integrators so that short maintenance transactions can
    interleave with readers.  Same logging / trigger / undo behaviour as
    the statement-level DML. *)

val find_by_key : t -> txn -> string -> Tuple.t -> (Heap_file.rid * Tuple.t) option
(** Primary-key lookup.  [`Read_write]: the row is S-locked before the
    returned image is read, so a lookup that waited for a writer never
    returns its uncommitted image; under a table X lock, one probe.
    [`Snapshot]: lock-free resolution at the transaction's snapshot. *)

val insert_row : ?upsert:bool -> t -> txn -> string -> Tuple.t -> Heap_file.rid
(** Like {!insert} but takes only a row lock, on the written rid, not a
    table lock; an upsert X-locks the row it overwrites before reading
    its before image. *)

val append_row : t -> txn -> string -> Tuple.t -> unit
(** Like {!insert_row} but takes no lock at all: for an append-only log
    (the capture tables) whose rows no other transaction writes, or reads
    under a lock, before they commit.  Logged and undone on abort like
    any insert; a snapshot reader sees the row once it commits. *)

val update_row : t -> txn -> string -> Heap_file.rid * Tuple.t -> Tuple.t -> unit
(** [update_row t txn table found after] overwrites [found], the
    [(rid, image)] {!find_by_key} returned in [txn] with no write to the
    row since, under an X row lock.  [image] is the before image undo
    and the version store keep, so the row is not read again. *)

val delete_row : t -> txn -> string -> Heap_file.rid * Tuple.t -> unit
(** {!update_row}'s delete: the same [found] pair, the same lock. *)

(** {2 Cooperative scheduling hooks} — used by {!Scheduler} to interleave
    logical sessions over the single-threaded engine.  [yield_hook] is
    invoked at every statement boundary; [block_hook] is invoked instead
    of raising {!Would_block} when a lock conflicts, and the acquisition
    is retried after it returns.  Not set = the default raising
    behaviour. *)

val set_yield_hook : t -> (unit -> unit) option -> unit
val set_block_hook : t -> (txid:int -> blockers:int list -> unit) option -> unit

(** {2 Triggers} *)

type trigger_ctx = { ctx_db : t; ctx_txn : txn }

val add_trigger : t -> table:string -> trigger_ctx Trigger.t -> unit
val remove_trigger : t -> table:string -> string -> unit
val triggers_on : t -> string -> string list

(** {2 SQL} *)

type exec_result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Created

val eval_select :
  Schema.t ->
  items:Dw_sql.Ast.select_item list ->
  group_by:string list ->
  order_by:string list ->
  Tuple.t list ->
  exec_result
(** The SELECT evaluator over the rows a scan returned, in the scan's
    (rid) order: projection, ORDER BY, GROUP BY, aggregates and column
    naming.  An aggregate query folds the rows one at a time into one
    accumulator per item per group, each row encoded into one scratch
    record, through the same fold {!exec} runs over a [`Snapshot] full
    scan's records where they lie: an INT, DATE or FLOAT column is read
    in place into unboxed cells, any other operand on the decoded row.
    A group folds its rows in rid order.  Raises [Invalid_argument]
    naming an unknown column, and on items that do not fit the query's
    shape. *)

val exec : t -> txn -> Dw_sql.Ast.stmt -> exec_result
val exec_sql : t -> txn -> string -> (exec_result, string) result
(** Parse then {!exec}. *)

(** {2 Maintenance} *)

val checkpoint : t -> unit
(** Flush dirty pages, checkpoint (and rotate) the log. *)

val recover : t -> Dw_txn.Recovery.stats
(** Replay the retained log into the current heap files (used by tests
    that simulate a crash by discarding in-memory state). Rebuilds
    indexes, and raises the next transaction id above every txid in the
    log (recovery's analysis pass finds the highest). *)

val reopen :
  ?pool_pages:int ->
  ?pool_stripes:int ->
  ?archive_log:bool ->
  vfs:Dw_storage.Vfs.t ->
  name:string ->
  tables:(string * Schema.t * string option) list ->
  unit ->
  t * Dw_txn.Recovery.stats
(** Post-crash restart from the bytes surviving in [vfs] (pair with
    {!Dw_storage.Vfs.crash_reset}): adopts the WAL segments (truncating
    torn tails), re-attaches each listed table's heap file
    ([(table name, schema, ts_column)] — the catalog is not persisted, so
    the caller supplies it) and runs {!recover}, which resumes
    transaction ids above everything in the log.  Heap files that never
    got created before the crash start empty. *)

val has_table_file : vfs:Dw_storage.Vfs.t -> name:string -> string -> bool
(** Whether database [name] on [vfs] ever created this table's heap file
    — a read-only check to make before {!reopen}, which starts a missing
    table empty. *)

val flush_all : t -> unit
