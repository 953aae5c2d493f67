(** The data warehouse: source-table replicas, materialized SPJ and
    aggregate views maintained incrementally from the replicas' row
    changes, and the two integration paths the paper compares
    (Section 4.1):

    - {!integrate_value_delta}: the differential file is applied as one
      {e indivisible batch} transaction; per the paper each value-delta
      record becomes its own SQL-level operation — an insert per Insert,
      a keyed delete per Delete, and a keyed delete {e plus} an insert
      per Update (before/after images);
    - {!integrate_op_deltas}: each source transaction's Op-Delta is
      applied as a short warehouse transaction by {e re-executing the
      original statements} against the replicas — one UPDATE statement
      updates its x rows in place, which is where the ~70 % shorter
      update maintenance window comes from.

    These two are the only writers of replica rows.  Every view is
    maintained from its replicas' row changes, so an Op-Delta integrates
    from its statements alone: before images captured with it (hybrid
    capture) are not read.  Row images of any origin — a differential
    file, a bootstrap chunk, or an Op-Delta's hybrid images
    ({!Dw_core.Op_delta.value_delta}) — are a value delta and go through
    {!integrate_value_delta}.

    Every integrator runs inside one [warehouse.refresh] span, and each
    of its statements fails with the error [Db.exec_sql] would report.
    An Op-Delta statement runs from its AST through the warehouse engine
    ({!Db.exec}), parsed once where it arrives as text: when its line is
    decoded ({!Dw_core.Op_delta.decode_line}).  A fleet's Op-Deltas are
    never text.  A value-delta record is never text at the warehouse: it
    is applied as the typed row it is, through the replica's key index,
    the way the paper's Loader writes rows.

    Views are maintained {e set-oriented}, once per {e run}: a run is a
    maximal sequence of consecutive integrator statements, in one
    refresh transaction, on one replica table.  The replica triggers
    buffer the run's row events, and when a statement on another table
    starts or the integrator's statements end (before its progress mark)
    the delta rules run over the whole set.  An SPJ view applies one net
    multiplicity change per view row (a join view scans its other side
    once); an aggregate view reads each touched group once, folds the row
    transitions into it in event order and writes it once.  A
    key-preserving view (below) makes one write per changed key: an
    in-place update when one image leaves the key and another enters it,
    as a value delta's DELETE and INSERT of one row do inside a run.  So a 50-row
    UPDATE whose rows stay in one group rewrites that group once, and so
    does a value delta of 50 such updates (100 one-row statements).  A
    replica write made directly on {!db}, outside an integrator, is
    maintained at once as a one-event set.

    Locks: a refresh transaction X-locks each table it writes once, the
    replica by its first statement and a view's backing table
    ({!Db.lock_table}) when a run first has changes for the view; every
    later lock there is implied and never reaches the lock manager.  A
    view row is read by one key probe and updated or deleted from the
    [(rid, image)] that probe returned.  A read-write reader of a view
    row therefore waits for the whole refresh transaction; a snapshot
    reader never waits.

    Views are bags materialized with multiplicity counts, with one
    exception.  A select-project view whose projection begins with its
    source's primary-key columns, in key order, is {e key-preserving}
    ({!Dw_core.Spj_view.output_schema}): its backing table is keyed by
    those columns and has no [__count] column, since every view row has
    multiplicity 1.  The layout follows from the definition alone, in
    {!define_view}, {!reopen} and every {!Partitioned} shard; nothing
    else selects it.  Its checks on the images leaving and entering a
    key guard the backing table against writes its replica did not make
    (a hand edit through {!db}).  Every view-backing
    write is counted by kind in the [warehouse.view_writes.insert],
    [.update] and [.delete] counters of [Db.metrics (db t)].  Projected
    view columns must be non-nullable (they form the backing table's
    key).
    View names are unique across SPJ and aggregate views: every
    [define_*] and {!reopen} raises [Invalid_argument] on a name already
    registered as either kind of view. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view

type t

val create :
  ?pool_pages:int -> ?pool_stripes:int -> vfs:Dw_storage.Vfs.t -> name:string -> unit -> t
(** An empty warehouse over its own engine instance: [`Index_preferred]
    plan mode, no replicas or views yet.  [pool_stripes] splits the
    buffer pool into that many independently-latched stripes (default 1)
    so parallel OLAP domains do not serialise on one pool lock. *)

val db : t -> Db.t
(** The warehouse-side engine (for metrics, scheduling and OLAP). *)

val add_replica : t -> table:string -> schema:Schema.t -> unit
(** Create the warehouse copy of a source table and attach the view-
    maintenance trigger.  Raises [Invalid_argument] if it exists. *)

val load_replica : t -> table:string -> Tuple.t list -> unit
(** Initial load (bulk, unlogged). *)

val define_view : t -> Spj_view.t -> unit
(** Validates the view, creates its backing table [<name>] and
    materializes it from current replica contents.  A key-preserving
    view's backing table holds the output columns keyed by the source
    key; every other view's holds the output columns as key plus a
    [__count] column.  Maintenance raises [Invalid_argument] when a
    change breaks the layout's invariant: a multiplicity below zero, or,
    for a key-preserving view, two images entering one key or a leaving
    image that differs from the stored row. *)

val view_rows : t -> string -> (Tuple.t * int) list
(** Current materialized rows of an SPJ view with multiplicities,
    sorted.  A key-preserving view's rows have multiplicity 1. *)

val recompute_view : t -> string -> (Tuple.t * int) list
(** Recompute from replicas (ground truth for tests/benches). *)

(** {2 Aggregate views} — GROUP BY views ({!Dw_core.Agg_view}), maintained
    from the same row changes.  COUNT/SUM fold each row's transition in
    place, in event order (exactly the adds and subtracts row-at-a-time
    maintenance would make); a statement that removes a MIN/MAX extremum
    re-derives that group once, from the replica after the statement. *)

val define_agg_view : t -> Dw_core.Agg_view.t -> unit
(** Validates, creates the backing table and materializes the aggregate
    view from current replica contents. *)

val agg_view_rows : t -> string -> (Tuple.t * int) list
(** Materialized (output row, group cardinality), sorted by group. *)

val recompute_agg_view : t -> string -> (Tuple.t * int) list
(** Recompute from replica detail rows (ground truth for tests). *)

val replica_rows : t -> string -> Tuple.t list
(** Current replica contents, in heap scan order. *)

type stats = {
  txns : int;        (** warehouse transactions used *)
  statements : int;  (** SQL-level operations executed *)
  row_ops : int;
      (** row-level modifications: each replica row event, plus each
          view row or aggregate group a run writes (once per run however
          many of its rows touch it) *)
  duration : float;
      (** seconds on the warehouse registry's clock ({!Dw_util.Metrics.now}
          of [Db.metrics (db t)]): wall-clock by default, simulated time
          under a sim clock *)
}

val zero_stats : stats
(** All-zero identity for {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** Component-wise sum (durations add). *)

val integrate_value_delta : ?mark:(Db.txn -> unit) -> t -> Delta.t -> stats
(** One batch transaction, each record a statement loaded by key from
    its tuple: [Insert] by {!Db.insert}, [Delete] by {!Db.delete_key} on
    the before image's key, [Update] as both (two statements and row
    events: the paper's 2n against n), and [Upsert] — the timestamp
    method's and {!Dw_etl.Bootstrap}'s path — as one keyed write
    ([Db.insert ~upsert:true]), one statement whether it hits or misses.
    [mark txn] runs inside the transaction after the changes, so a
    progress record commits or rolls back with them (as in
    {!integrate_op_deltas}). *)

(** {2 Op-Delta integration} — the one statement integrator.

    {!integrate_op_deltas} re-executes each source transaction's
    statements, in source commit order, against the replicas; table names
    in the statements must match replica names (apply a
    {!Dw_core.Transform} rule first if schemas differ).  It applies
    {e runs} of whole, consecutive source transactions, each run as one
    warehouse transaction.  A run boundary is always a source-transaction
    boundary, so a crash mid-run leaves the warehouse at a source-
    transaction boundary, and a concurrent snapshot reader sees each
    source transaction's effects (replicas {e and} derived views) in full
    or not at all — never a half-applied refresh.

    {b Without [policy]} every run is a single source transaction: one
    warehouse transaction per source transaction, the paper's online
    integration.  No valve runs and no [warehouse.batch_size*] metric is
    emitted.

    {b With [policy]} run lengths are governed by a {b backpressure
    valve} that amortizes commit cost over several source transactions:
    it opens at [max_batch], shrinks multiplicatively (halves, floored at
    [min_batch]) whenever the warehouse registry's [lock.wait] p95
    exceeds [lock_wait_p95_s] — long maintenance transactions are what
    make concurrent readers queue — and recovers additively (+1) while
    lock-waits stay low.  Each applied run's size is observed into the
    [warehouse.batch_size] histogram and the current target into the
    [warehouse.batch_size_target] gauge.  What is given up is only
    refresh granularity: readers observe up to a run at once.  The final
    warehouse state is the same for every policy.

    {b [mark txn run]} runs inside each run's warehouse transaction,
    after the run's statements, and receives the run.  Callers store a
    progress record there — the applied-through source transaction id of
    {!Partitioned.refresh} (which derives the committed watermark from
    the runs instead of reading it back) and {!Dw_etl.Bootstrap} — so
    the run and its progress commit or roll back together (exactly-once
    under re-delivery of the same delta stream after a crash). *)

type batch_policy = {
  max_batch : int;  (** run-length ceiling (>= min_batch) *)
  min_batch : int;  (** run-length floor under backpressure (>= 1) *)
  lock_wait_p95_s : float;
      (** shrink when [lock.wait] p95 exceeds this (seconds, >= 0) *)
}

val default_batch_policy : batch_policy
(** [{ max_batch = 16; min_batch = 1; lock_wait_p95_s = 0.010 }]. *)

val validate_batch_policy : batch_policy -> unit
(** Raises [Invalid_argument] on a non-positive floor, ceiling below
    floor, or negative/NaN threshold. *)

val integrate_op_deltas :
  ?policy:batch_policy ->
  ?mark:(Db.txn -> Op_delta.t list -> unit) ->
  t ->
  Op_delta.t list ->
  stats
(** Apply the stream (see above) and return the runs' summed stats
    ([txns] = runs applied = calls of [mark]).  Each statement runs from
    the AST the Op-Delta holds, not parsed again.  Raises
    [Invalid_argument] on an invalid [policy] or a statement the
    warehouse rejects, with the text [Db.exec_sql] gives it (e.g.
    ["Warehouse.integrate_op_deltas: Table parts: duplicate primary key
    (7)"]); the failing run rolls back, mark included, and earlier runs
    stay committed. *)

(** {2 Progress rows} — the warehouse owns every applied-through record.

    Two tables hold them, one row per key: [__extract_marks] holds the
    extraction marks, [__bootstrap_state] the bootstrap runs.  Writers
    call {!put_mark} or {!put_bootstrap} inside the integrating
    transaction, so the data and the progress past it commit or roll
    back together.  {!reopen} adopts each table whenever it is on the
    device.

    A mark's key is, for a {!Dw_etl.Pipeline}, the source table it
    maintains; for a {!Partitioned} shard, the fact table. *)

type mark = {
  day : int;  (** the timestamp method's next day ([-1] before any round) *)
  lsn : int;  (** the first source log position not yet extracted *)
  snap : int;  (** the snapshot round to diff against (0 = none yet) *)
  trig : int;  (** the last trigger-delta position integrated *)
  ops : int;
      (** the Op-Delta stream position this warehouse has applied
          through, numbered by the stream's producer: a capture-file
          byte offset for a pipeline, a source txn id for a fleet
          shard's staged buckets *)
}

val mark : t -> string -> mark
(** The committed mark of this key, read under a snapshot transaction;
    [{ day = -1; lsn = 0; snap = 0; trig = 0; ops = 0 }] when it has
    none.  Creates the empty marks table on first use.  Raises
    [Invalid_argument] on a malformed row. *)

val put_mark : t -> Db.txn -> string -> mark -> unit
(** Insert or overwrite this key's mark inside the caller's
    transaction. *)

(** A {!Dw_etl.Bootstrap} run's row, keyed by the table it loads.  The
    lease in it makes overlapping runs impossible. *)

type bootstrap_state =
  | Bootstrapping  (** chunks still loading, or catch-up not finished *)
  | Complete  (** consistent snapshot reached; lease released *)

type bootstrap = {
  table : string;  (** source/replica table being bootstrapped *)
  run_id : string;  (** identifies the owning run across resumes *)
  state : bootstrap_state;
  next_key : int;  (** first primary key not yet chunk-loaded *)
  chunks_done : int;  (** chunks durably applied *)
  rows_loaded : int;  (** chunk rows durably applied (post-dedup) *)
  last_txn : int;  (** highest source txn id applied (exactly-once mark) *)
  lease_owner : string;  (** [""] = no lease held *)
  lease_expiry : float;  (** registry-clock time the lease lapses *)
}

val bootstrap : t -> string -> bootstrap option
(** The committed run row of this table, read under a snapshot
    transaction; [None] when no bootstrap ever started.  Raises
    [Invalid_argument] on a malformed row. *)

val lock_bootstrap : t -> Db.txn -> string -> bootstrap option
(** The run row of this table, read inside the caller's read-write
    transaction under a row lock held to its end: the read that decides
    a write, such as a lease claim.  Creates the empty table on first
    use. *)

val put_bootstrap : t -> Db.txn -> bootstrap -> unit
(** Insert or overwrite the run row of its [table] inside the caller's
    transaction. *)

(** {2 Re-adopting a warehouse} — the resume path of {!Dw_etl.Bootstrap}
    and {!Partitioned} after a crash.  The bootstrap's writes themselves
    go through {!integrate_value_delta} (window deltas and chunks, as row
    images) and {!integrate_op_deltas} (deltas outside a window), each
    with a [mark]. *)

val reopen :
  ?pool_pages:int ->
  ?pool_stripes:int ->
  ?extra:(string * Schema.t) list ->
  vfs:Dw_storage.Vfs.t ->
  name:string ->
  replicas:(string * Schema.t) list ->
  views:Spj_view.t list ->
  agg_views:Dw_core.Agg_view.t list ->
  unit ->
  t
(** Restart warehouse [name] from the bytes surviving on [vfs] (after
    {!Dw_storage.Vfs.crash_reset}): {!Db.reopen} over the catalog of the
    replicas, the views' backing tables, the aggregate views' backing
    tables, each progress table the device holds, and [extra]
    (tables the warehouse does not maintain, such as a planner log), in
    that order; then re-register the replicas and
    views {e without} creating or re-materializing anything — the
    recovered contents are trusted.  Raises [Invalid_argument], before
    the device is touched, when a name appears twice, a view definition
    is invalid, or a replica or view was never created on [vfs]. *)
