(** The partitioned warehouse: one engine shard per partition, refreshed
    in parallel.

    The engine ({!Dw_engine.Db}) is single-writer — its WAL, undo logs
    and trigger path assume one mutating domain — so partitioning is
    {e physical}: a partitioned warehouse is [partitions spec] complete
    {!Warehouse.t} shards, each over its own {!Dw_storage.Vfs} (own WAL,
    buffer pool, lock table and metrics registry), each owning exactly
    the fact-table rows the {!Partition} spec routes to it.  Replicated
    (dimension) tables are copied whole into every shard.  Because the
    shards share no mutable engine state, {!refresh} — the one fleet
    refresh — applies independent partitions' delta buckets
    concurrently, one {!Dw_util.Domain_pool} worker per shard, and each
    shard keeps the AIMD backpressure valve working against {e its own}
    [lock.wait] p95 — a hot partition throttles without slowing its
    siblings.  The same call runs every shard under a circuit breaker
    (see {e Shard health} below): a shard's fault never raises
    out of {!refresh}; the fleet keeps refreshing the others, and
    callers read {!shard_health} to learn what happened.

    {b Equivalence.}  The staged-and-partitioned refresh is logically
    equivalent to {!Warehouse.integrate_op_deltas} on a monolithic
    warehouse: every routed statement executes on the one shard owning
    its rows, broadcast statements execute everywhere but only match
    each shard's own rows, and per-partition delta order preserves
    source commit order.  Merged reads ({!replica_rows}, {!view_rows},
    {!agg_view_rows}) return sorted logical state, pinned equal to the
    sequential integrator by a qcheck property (heap order is the one
    thing scheduling may permute).  Aggregate merging combines COUNT and
    SUM additively and MIN/MAX by comparison; exactness therefore relies
    on associative addition — the pinned workloads aggregate integer
    columns, and float SUMs may differ in low-order bits from the
    monolithic accumulation order.

    {b Crash semantics.}  Each shard stores an applied-through source
    transaction id (the [ops] of its {!Warehouse.mark} row, keyed by the
    fact table) committed in the same shard transaction as every run it
    applies, so a crash mid-refresh leaves
    every shard at a source-transaction boundary of its own bucket
    stream, and re-running {!refresh} with the same buckets after
    {!reopen} applies only what is missing — exactly-once per shard. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Vfs = Dw_storage.Vfs
module Domain_pool = Dw_util.Domain_pool

type t
(** A partitioned warehouse: [Partition.partitions spec] shards. *)

(** {2 Shard health} — per-shard circuit state driving
    {!refresh} and the merged reads.

    Each shard carries a {!Dw_util.Breaker} and walks
    [Healthy -> Suspect -> Quarantined -> Rebuilding -> Healthy]:
    refresh/read failures (fail-stop crashes, transient faults past the
    retry budget, timeout breaches) count against the breaker;
    [failure_threshold] consecutive failures trip it and quarantine the
    shard.  A quarantined shard is excluded from refresh and from
    degraded reads until the breaker's dwell elapses, when the next
    {!refresh} admits one half-open {e probe}: the shard's
    simulated process is restarted over its surviving bytes
    ({!Vfs.revive} + reopen, keeping any sustained fault schedule armed)
    and its bucket attempted; success closes the breaker, failure
    re-trips it with a doubled (equal-jitter) dwell.  A shard that never
    stabilises is rebuilt from scratch ({!begin_rebuild} /
    {!readmit}). *)

type health = Healthy | Suspect | Quarantined | Rebuilding

type health_config = {
  breaker : Dw_util.Breaker.config;
      (** trip threshold, dwell, probe count, dwell cap, jitter seed
          (per-shard breakers use [seed + shard index]) *)
  max_retries : int;  (** immediate in-task transient-fault retries per shard refresh *)
  refresh_timeout_s : float;
      (** post-hoc breach threshold on one shard's refresh, in seconds
          of the fleet registry's clock (the clock that also drives the
          breakers' dwell): the work stays applied, but the shard is
          counted against its breaker *)
}

val default_health_config : health_config
(** [{ breaker = Dw_util.Breaker.default_config; max_retries = 2;
      refresh_timeout_s = infinity }]. *)

val create :
  ?pool_pages:int ->
  ?pool_stripes:int ->
  ?op_delay:float ->
  ?health:health_config ->
  ?metrics:Dw_util.Metrics.t ->
  spec:Partition.t ->
  name:string ->
  unit ->
  t
(** Build the shards, each over a fresh in-memory {!Vfs} (created with
    [op_delay] simulated seconds per I/O — the experiments' I/O-bound
    knob), persist [spec] into every shard's metadata, and write every
    shard's mark row with nothing applied.  [pool_pages] and
    [pool_stripes] are per shard.  [metrics] is the {e fleet} registry:
    it receives the [health.*], [breaker.*] and [degraded.*] series and
    its clock ({!Dw_util.Metrics.now}, {!Dw_util.Metrics.use_sim_clock})
    drives every breaker's dwell — deterministic under a
    {!Dw_util.Sim_clock}. *)

val spec : t -> Partition.t
(** The placement spec the warehouse was created (or reopened) with. *)

val partitions : t -> int
(** Shard count ([Partition.partitions (spec t)]). *)

val shard : t -> int -> Warehouse.t
(** Direct access to one shard (tests and metrics inspection; shard
    registries are [Db.metrics (Warehouse.db (shard t i))]). *)

val vfss : t -> Vfs.t array
(** The per-shard file systems, index-aligned with shards — what a
    crash explorer arms faults on and {!reopen} re-adopts. *)

val add_replica : t -> table:string -> schema:Schema.t -> unit
(** Create the replica on every shard.  For the partitioned fact table
    ([Partition.table (spec t)]) the schema's leading key column must be
    the spec's key column (raises [Invalid_argument] otherwise); any
    other table is treated as replicated — every shard holds a full
    copy. *)

val load_replica : t -> table:string -> Tuple.t list -> unit
(** Initial load: fact-table rows are routed each to its owning shard;
    replicated-table rows are copied to every shard. *)

val define_view : t -> Spj_view.t -> unit
(** Define a select-project view on every shard (each maintains it over
    its own row slice).  Join views raise [Invalid_argument]: their
    cross-partition row pairs would be invisible to every shard. *)

val define_agg_view : t -> Agg_view.t -> unit
(** Define an aggregate view on every shard; reads merge the per-shard
    groups ({!agg_view_rows}).  All of COUNT/SUM/MIN/MAX merge. *)

val replica_rows : t -> string -> Tuple.t list
(** Merged logical contents: the fact table is the concatenation of the
    shards' slices, a replicated table is the first shard's copy; both
    sorted (heap order is shard-local and scheduling-dependent).  This
    is {!replica_rows_checked} under [`Fail_closed] without the
    coverage probe: it raises {!Unhealthy} unless every shard serves. *)

val view_rows : t -> string -> (Tuple.t * int) list
(** Merged materialized view rows: per-shard multiplicities summed per
    output row (each base row lives on exactly one shard), sorted.
    Fail-closed, as {!replica_rows}. *)

val agg_view_rows : t -> string -> (Tuple.t * int) list
(** Merged aggregate view rows: group cardinalities and COUNT/SUM
    combine additively, MIN/MAX by comparison, sorted by group.
    Fail-closed, as {!replica_rows}. *)

val watermarks : t -> int array
(** Per-shard applied-through source transaction id (0 before any
    refresh), read from each shard's mark row under a snapshot — the
    exactly-once filter {!refresh} applies. *)

val refresh :
  ?policy:Warehouse.batch_policy ->
  pool:Domain_pool.t ->
  t ->
  Op_delta.t list array ->
  Warehouse.stats
(** Apply staged per-partition delta buckets (index-aligned with shards,
    as produced by [Dw_etl.Stage.split]) concurrently, one pool task per
    serving shard.  Each shard filters its bucket by its watermark, then
    applies valve-governed runs through {!Warehouse.integrate_op_deltas}
    [~policy ~mark]: each run is one shard transaction whose [mark]
    carries the watermark advance, its size observed into that shard's
    [warehouse.batch_size] histogram; the run-length target halves
    (floored at [policy.min_batch]) when the {e shard's own} [lock.wait]
    p95 exceeds [policy.lock_wait_p95_s] and recovers +1 otherwise — the
    per-partition valve.

    Healthy and suspect shards attempt their buckets; a transient fault
    is retried in-task, at once, up to [max_retries] times, and a
    fail-stop crash fails the shard at once.  A quarantined shard is
    skipped until its breaker dwell elapses, then given one
    revive-and-reopen probe; a rebuilding shard is always skipped (the
    rebuild owns it).  A shard's fault never raises out of this call:
    it is counted against the shard's breaker, and callers read
    {!shard_health} (or {!healths}) to learn what happened.  Deliver
    {e cumulative} buckets while any shard lags — the per-shard
    watermark filter keeps re-delivery exactly-once.  Breaker
    bookkeeping runs on the calling domain only, and no shard's
    watermark is read back after its runs commit.

    Returns the summed stats of the shards that applied (durations add
    across shards; wall-clock is the caller's to measure).  Raises
    [Invalid_argument] on a bucket array of the wrong length or an
    invalid policy.

    Metrics (fleet registry): [health.refresh_failures],
    [health.refresh_skipped], [health.retries],
    [health.timeout_breaches], [health.recovered], [breaker.trips],
    [breaker.probes], [breaker.probe_failures], gauges
    [health.shard<i>] (0 healthy / 1 suspect / 2 quarantined /
    3 rebuilding) and [health.healthy_shards]. *)

val reopen :
  ?pool_pages:int ->
  ?pool_stripes:int ->
  ?op_delay:float ->
  ?health:health_config ->
  ?metrics:Dw_util.Metrics.t ->
  replicas:(string * Schema.t) list ->
  views:Spj_view.t list ->
  agg_views:Agg_view.t list ->
  spec:Partition.t ->
  name:string ->
  vfss:Vfs.t array ->
  unit ->
  t
(** Re-adopt a crashed partitioned warehouse from its shards' surviving
    bytes: per shard, {!Vfs.crash_reset} + {!Warehouse.reopen} over
    [replicas], [views], [agg_views] and the shard's metadata tables,
    which re-registers them without re-materializing anything.  The
    persisted spec of every shard must match [spec] (raises
    [Invalid_argument] on mismatch or a missing spec row — the shard
    bytes belong to a different layout).  After
    reopen, re-running {!refresh} with the same buckets completes an
    interrupted refresh exactly-once.  Health state starts over: every
    shard [Healthy], breakers closed ([health], [metrics], [op_delay] as
    in {!create}). *)

(** {2 Health, checked reads, rebuild} *)

val shard_health : t -> int -> health
(** Shard [i]'s current state in the health machine. *)

val healths : t -> health array
(** Per-shard health, index-aligned with shards. *)

type read_policy = [ `Fail_closed | `Degraded ]

type coverage = {
  shards : int;  (** fleet size *)
  served : int list;  (** shard indices that answered *)
  skipped : (int * health) list;  (** unserved shards and why *)
  watermarks : int array;
      (** per-shard applied-through txn id; live for served shards
          (falling back to the last known value when the watermark probe
          itself faults), the last known value for skipped ones *)
  max_watermark : int;
      (** fleet-wide freshest watermark — [max_watermark -
          watermarks.(i)] is shard [i]'s staleness in source
          transactions *)
}

exception Unhealthy of (int * health) list
(** A read could not be answered within policy: under [`Fail_closed]
    any unserved shard; under [`Degraded] an empty serving set. *)

val replica_rows_checked :
  ?policy:read_policy -> t -> string -> Tuple.t list * coverage
(** {!replica_rows} with an explicit availability policy.
    [`Fail_closed] (default) raises {!Unhealthy} unless every shard
    serves.  [`Degraded] answers from the serving (healthy + suspect)
    shards only — for the fact table the merged rows are the union of
    the served slices; a replicated table is answered by the first
    serving shard — and reports the gap in the returned {!coverage}.  A
    shard that faults {e during} the read is recorded against its
    breaker and moved to the skipped set (under [`Fail_closed] the read
    then raises); a replicated table is then read from the next serving
    shard.  Metrics: [degraded.reads], [degraded.skipped_shards],
    [degraded.read_failures]. *)

val view_rows_checked :
  ?policy:read_policy -> t -> string -> (Tuple.t * int) list * coverage
(** {!view_rows} with an availability policy (see
    {!replica_rows_checked}). *)

val agg_view_rows_checked :
  ?policy:read_policy -> t -> string -> (Tuple.t * int) list * coverage
(** {!agg_view_rows} with an availability policy (see
    {!replica_rows_checked}). *)

val begin_rebuild : t -> int -> Warehouse.t
(** Abandon quarantined shard [i]'s bytes and swap in a fresh empty
    shard over a fresh {!Vfs}: the partition spec and mark row are
    recreated, every registered replica table is re-created (the
    fact table empty — {!Dw_etl.Bootstrap} with a shard slice reloads
    it online — and replicated tables copied from the first other
    serving shard, then checkpointed so the bulk copy survives a
    kill during the rebuild), and views re-defined.  The shard enters
    [Rebuilding]: refresh and reads skip it until {!readmit}.  Returns
    the fresh shard for the rebuild driver.  Raises [Invalid_argument]
    unless the shard is [Quarantined], or when replicated tables exist
    but no other shard serves.  Replicated tables must stay quiescent
    during the rebuild — the slice bootstrap replays fact-table deltas
    only.  Counted under [health.rebuilds]. *)

val reattach_rebuilding : t -> int -> unit
(** Resume a rebuild interrupted by a crash: {!Vfs.crash_reset} +
    reopen shard [i] over its surviving bytes (its warehouse adopts the
    rebuild's [__bootstrap_state] run row with the data) and swap the
    re-adopted warehouse in, leaving health [Rebuilding].
    Raises [Invalid_argument] if the shard is not rebuilding. *)

val readmit : t -> int -> watermark:int -> unit
(** Complete shard [i]'s rebuild: verify the persisted spec belongs to
    slot [i], require [watermark] (the rebuild's applied-through source
    txn id) to be at least the serving fleet's maximum (re-admitting a
    stale shard would roll merged reads backwards), persist it as the
    shard's refresh watermark, reset the breaker and mark the shard
    [Healthy].  Raises [Invalid_argument] on a non-rebuilding shard,
    spec mismatch, or watermark lag.  Counted under
    [health.readmitted]. *)
