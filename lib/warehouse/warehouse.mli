(** The data warehouse: source-table replicas, materialized SPJ views
    maintained incrementally by replica triggers, and the two integration
    paths the paper compares (Section 4.1):

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

    These two are the only writers of replica rows.  Row images of any
    origin — a differential file, a bootstrap chunk, or an Op-Delta's
    hybrid images ({!Dw_core.Op_delta.value_delta}) — are a value delta
    and go through {!integrate_value_delta}.

    Every integrator runs inside one [warehouse.refresh] span and
    executes its statements one way: printed to SQL text, re-parsed and
    run by the warehouse engine.

    Views are bags materialized with multiplicity counts.  Projected view
    columns must be non-nullable (they form the backing table's key).
    View names are unique across SPJ, aggregate and view-only views:
    every [define_*] / [attach_*] raises [Invalid_argument] on a name
    already registered as any kind of view. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view

type t

val create :
  ?pool_pages:int -> ?pool_stripes:int -> vfs:Dw_storage.Vfs.t -> name:string -> unit -> t
(** An empty warehouse over its own engine instance — {!attach} over a
    fresh [Db.create]: [`Index_preferred] plan mode, no replicas or
    views yet.  [pool_stripes] splits the
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
(** Validates the view, creates its backing table ([<name>] with the
    output columns as key plus a [__count] column) and materializes it
    from current replica contents. *)

val view_rows : t -> string -> (Tuple.t * int) list
(** Current materialized rows with multiplicities, sorted — of an SPJ
    view or a view-only view ({!define_viewonly_view}). *)

val recompute_view : t -> string -> (Tuple.t * int) list
(** Recompute from replicas (ground truth for tests/benches). *)

(** {2 Aggregate views} — GROUP BY views ({!Dw_core.Agg_view}), maintained
    incrementally by the same replica triggers.  COUNT/SUM adjust in
    place; a delete that removes a MIN/MAX extremum re-derives the group
    from the replica detail rows. *)

val define_agg_view : t -> Dw_core.Agg_view.t -> unit
(** Validates, creates the backing table and materializes the aggregate
    view from current replica contents. *)

val agg_view_rows : t -> string -> (Tuple.t * int) list
(** Materialized (output row, group cardinality), sorted by group. *)

val recompute_agg_view : t -> string -> (Tuple.t * int) list
(** Recompute from replica detail rows (ground truth for tests). *)

val agg_view_def : t -> string -> Dw_core.Agg_view.t option
(** The definition an aggregate view was registered with ([None] if no
    such view) — {!Partitioned} reads it back to know group arity and
    aggregate functions when merging per-shard view slices. *)

val replica_rows : t -> string -> Tuple.t list
(** Current replica contents, in heap scan order. *)

type stats = {
  txns : int;        (** warehouse transactions used *)
  statements : int;  (** SQL-level operations executed *)
  row_ops : int;     (** row-level modifications (replica + views) *)
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
(** One batch transaction.  [Upsert] entries integrate as keyed
    update-or-insert (the timestamp method's integration path) — the
    only row-image writer: {!Dw_etl.Bootstrap} applies its window deltas
    and chunks as value deltas through it.  [mark txn] runs inside the
    transaction after the changes, so a progress record commits or rolls
    back with them (as in {!integrate_op_deltas}). *)

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
    {!Partitioned.refresh} and {!Dw_etl.Bootstrap} — so the run and its
    progress commit or roll back together (exactly-once under
    re-delivery of the same delta stream after a crash). *)

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
    ([txns] = runs applied = calls of [mark]).  Raises
    [Invalid_argument] on an invalid [policy] or a statement the
    warehouse rejects; the failing run rolls back, mark included, and
    earlier runs stay committed. *)

(** {2 Replica-less (view-only) maintenance} — the paper's hybrid case:
    "for some cases, a hybrid between a partial value delta (the before
    image portion only) and the Op-Delta is necessary to refresh the data
    warehouse in a self-maintainable manner."

    A view-only warehouse stores {e no} detail data: select-project views
    are maintained straight from the Op-Delta's row images
    ({!Dw_core.Op_delta.value_delta}) — inserts from the INSERT
    statements' own tuples, deletes/updates from the before images the
    hybrid capture shipped ({!Dw_core.Opdelta_capture.create} with
    [~replicas:false]) and the after images computed from them. *)

val define_viewonly_view : t -> Spj_view.t -> unit
(** Select-project views only (join views are not self-maintainable
    without replicas — {!Dw_core.Self_maintain}); no replica needed, the
    view starts empty.  Raises [Invalid_argument] on a Join view. *)

val integrate_op_delta_viewonly : t -> Op_delta.t -> stats
(** Apply one hybrid Op-Delta to every view-only view: each before image
    removes its projection (−1), each after image adds it (+1);
    [statements] counts the Op-Delta's operations.  Deletes/updates
    are driven entirely by the ops' before images; a delete/update
    captured {e without} hybrid mode carries none and is treated as
    affecting zero rows (indistinguishable from a genuinely empty match),
    so the capture side must run with [~replicas:false] and a view set —
    {!Dw_core.Opdelta_capture.create}. *)

(** {2 Re-adopting a warehouse} — the resume path of {!Dw_etl.Bootstrap}
    and {!Partitioned} after a crash: re-register the tables a
    {!Db.reopen} recovered.  The bootstrap's writes themselves go through
    {!integrate_value_delta} (window deltas and chunks, as row images)
    and {!integrate_op_deltas} (deltas outside a window), each with a
    [mark]. *)

val attach : db:Db.t -> unit -> t
(** Wrap an existing (typically {!Db.reopen}ed) database as a warehouse
    without creating any tables — the resume path after a crash.  No
    replicas or views are registered; re-add them with
    {!attach_replica} / view definitions. *)

val attach_replica : t -> table:string -> unit
(** Register an already-existing table of [t]'s database as a source
    replica and re-install its view-maintenance trigger (the persistent
    half of {!add_replica}, which also creates the table).  Raises
    [Invalid_argument] if the table is missing or already attached. *)

val attach_view : t -> Spj_view.t -> unit
(** Register a view definition whose backing table already exists in
    [t]'s database (the persistent half of {!define_view}): validates
    the definition and hooks it back into trigger maintenance {e without}
    creating or re-materializing the backing table — its recovered
    contents are trusted.  Raises [Invalid_argument] if the backing
    table is missing, the definition is invalid, or the name is already
    registered as any kind of view. *)

val attach_agg_view : t -> Dw_core.Agg_view.t -> unit
(** {!attach_view} for aggregate views (the persistent half of
    {!define_agg_view}). *)

val view_backing_schema : Spj_view.t -> Schema.t
(** Schema of the backing table {!define_view} creates for this view
    (output columns as key plus the [__count] multiplicity column) —
    what a {!Db.reopen} catalog entry for the backing table needs. *)

val agg_view_backing_schema : Dw_core.Agg_view.t -> Schema.t
(** Backing-table schema for an aggregate view (group columns as key,
    aggregate columns, [__count] group cardinality). *)
