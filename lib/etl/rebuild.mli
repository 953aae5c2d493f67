(** Online rebuild of one quarantined shard of a partitioned fleet — a
    {e slice} of the {!Bootstrap} machinery.

    When a shard of a {!Dw_warehouse.Partitioned} fleet is quarantined
    and will not stabilise through half-open probes, the fleet keeps
    serving degraded reads while this module rebuilds the shard from the
    live source: {!Dw_warehouse.Partitioned.begin_rebuild} swaps in a
    fresh empty shard (replicated tables copied from a healthy donor),
    then a {!Bootstrap} run restricted to the shard's partition reloads
    its fact-table slice online — chunk rows filtered to the keys
    {!Dw_warehouse.Partition.route_key} assigns the shard, replayed
    delta transactions sliced through {!Stage.split} so only the ops the
    shard owns re-execute (txn ids preserved, so the exactly-once mark
    still advances over fully-foreign transactions).  When the bootstrap
    reaches its consistent snapshot,
    {!Dw_warehouse.Partitioned.readmit} verifies the spec and the
    watermark catch-up and returns the shard to [Healthy].

    The rebuild's queue ([rebuild.q]) and its [__bootstrap_state] row
    live on the {e rebuilt shard's own} Vfs, so a crash at any point
    during the rebuild is resumable: {!resume_shard} re-adopts the
    surviving bytes ({!Dw_warehouse.Partitioned.reattach_rebuilding},
    whose warehouse adopts the run row with the data) and continues
    from the durable cursor.

    Replicated (non-fact) tables must stay quiescent during a rebuild —
    the slice replay applies fact-table deltas only. *)

module Db = Dw_engine.Db

type outcome = {
  progress : Bootstrap.progress;  (** the underlying bootstrap's counters *)
  watermark : int;
      (** applied-through source txn id the shard was re-admitted at *)
}

val rebuild_shard :
  ?config:Bootstrap.config ->
  ?hook:(Bootstrap.phase -> unit) ->
  owner:string ->
  source:Db.t ->
  capture:Dw_core.Opdelta_capture.t ->
  fleet:Dw_warehouse.Partitioned.t ->
  shard:int ->
  unit ->
  (outcome, Bootstrap.error) result
(** Swap in a fresh shard ({!Dw_warehouse.Partitioned.begin_rebuild}),
    bootstrap its partition slice from [source], and
    re-admit it.  [capture] must force hybrid images.  Raises
    [Invalid_argument] via [begin_rebuild]/[readmit] on state-machine
    misuse; lets {!Dw_storage.Vfs.Fault.Crash} propagate (resume with
    {!resume_shard}). *)

val resume_shard :
  ?config:Bootstrap.config ->
  ?hook:(Bootstrap.phase -> unit) ->
  owner:string ->
  source:Db.t ->
  capture:Dw_core.Opdelta_capture.t ->
  fleet:Dw_warehouse.Partitioned.t ->
  shard:int ->
  unit ->
  (outcome, Bootstrap.error) result
(** Resume a rebuild interrupted by a crash: re-adopt the shard's
    surviving bytes and continue the bootstrap from its durable chunk
    cursor (at most one chunk of work is redone), then re-admit. *)
