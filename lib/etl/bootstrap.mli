(** Resumable watermark-based CDC bootstrap (DBLog-style, PAPERS.md):
    brings a fresh warehouse replica to a consistent snapshot of a live
    source table {e while the source keeps committing}, then hands the
    table off to the steady-state extraction pipeline.

    The paper assumes an offline full load precedes any of its delta
    extraction methods; this module removes that assumption.  The load
    proceeds in keyset-paginated chunks over the primary index.  Each
    chunk select is bracketed by low/high watermark frames
    ({!Dw_transport.Frame}) injected into the op-delta queue:

    - deltas drained {e before} the low watermark are applied by
      statement re-execution (normal incremental maintenance);
    - deltas {e between} the brackets are applied as last-write-wins row
      images (from forced hybrid before-image capture, read as a value
      delta by {!Dw_core.Op_delta.value_delta}): inserts and same-key
      updates upsert, a key-changing update deletes the old key and
      upserts the new one, deletes delete; every key named is recorded;
    - at the high watermark the chunk is upserted {e minus} the recorded
      keys — those rows' delta versions are newer than the chunk
      select's — together with the advanced chunk cursor, in one
      warehouse transaction.  Window deltas and chunks both go through
      {!Dw_warehouse.Warehouse.integrate_value_delta} with a [mark].

    Crash safety: all progress (cursor, applied-through source txn id,
    lease) lives in the warehouse's [__bootstrap_state] table
    ({!Run_state}) and commits atomically with the data it describes, so
    after a kill at {e any} write/fsync event the run resumes from its
    last durable chunk, re-doing at most one chunk of work.  Watermark
    brackets carry a nonce drawn from the queue's persistent enqueue
    counter; brackets orphaned by a crash are recognized as stale and
    skipped.  An [is_running] lease (expiry on the metrics registry
    clock) makes overlapping runs impossible; a second {!start} while
    the lease is live returns [Lease_held].  Transient VFS faults are
    retried with jittered exponential backoff; past the budget the run
    aborts cleanly, leaving the table marked bootstrapping. *)

module Db = Dw_engine.Db

type config = {
  chunk_max : int;          (** AIMD chunk-size ceiling (and start value) *)
  chunk_min : int;          (** AIMD floor *)
  lock_wait_p95_s : float;  (** valve threshold on the warehouse [lock.wait] p95 *)
  lease_ttl_s : float;      (** lease lifetime on the registry clock *)
  max_retries : int;        (** transient-fault retry budget per operation *)
  backoff_s : float;        (** base backoff, doubled per retry with equal jitter *)
  seed : int;               (** PRNG seed (run ids, backoff jitter) *)
}

val default_config : config
(** [{ chunk_max = 256; chunk_min = 16; lock_wait_p95_s = 0.010;
      lease_ttl_s = 30.0; max_retries = 8; backoff_s = 0.0; seed = 7 }]. *)

type phase =
  | Before_chunk of int  (** chunk [i] is about to start *)
  | Window_open of int   (** low watermark enqueued; select not yet run *)
  | After_select of int  (** chunk rows selected; high watermark not yet enqueued *)
  | Chunk_done of int    (** chunk [i] durably applied *)
  | Catch_up             (** chunks exhausted; draining remaining deltas *)
  | Before_swap          (** about to mark Complete and hand off *)
(** Observation points surfaced to the [hook] callback — experiments use
    them to inject concurrent source commits at controlled positions
    relative to the watermark window. *)

type progress = {
  chunks_done : int;        (** cumulative, across resumes *)
  chunks_this_run : int;    (** chunk transactions applied by this run *)
  rows_loaded : int;        (** cumulative chunk rows applied (post-dedup) *)
  rows_deduped : int;       (** chunk rows dropped for window-touched keys, this run *)
  delta_txns_applied : int; (** delta transactions applied by this run *)
  resumed : bool;           (** this run continued an interrupted one *)
  complete : bool;          (** consistent snapshot reached and handed off *)
}

type error =
  | Lease_held of { owner : string; expiry : float }
      (** another run's lease is live; nothing was changed *)
  | Failed of string
      (** the run aborted (lease lost, retry budget exhausted, bad
          frame); state stays [Bootstrapping] and a later run resumes *)

type t

val start :
  ?config:config ->
  ?hook:(phase -> unit) ->
  ?restrict:(Dw_core.Op_delta.t -> Dw_core.Op_delta.t) ->
  ?owns:(int -> bool) ->
  owner:string ->
  source:Db.t ->
  capture:Dw_core.Opdelta_capture.t ->
  table:string ->
  queue:Dw_transport.Persistent_queue.t ->
  warehouse:Dw_warehouse.Warehouse.t ->
  watermark:Dw_core.Watermark.t ->
  unit ->
  (t, error) result
(** Acquire (or re-acquire after a crash) the bootstrap lease for
    [table] and return a runnable handle; [Lease_held] if a live lease
    belongs to a different [owner].  The capture must have been created
    with [~capture_images:true] ({!Dw_core.Opdelta_capture.create}), the
    replica table must already exist in the warehouse, and its primary
    key must be a single INT column.  A [Bootstrapping] state row from a
    crashed run resumes from its durable cursor; a [Complete] row makes
    the subsequent {!run} a no-op (plus the idempotent handoff).

    [restrict] and [owns] carve a {e slice} bootstrap out of the full
    one — how {!Rebuild} reloads a single partition of a partitioned
    fleet.  [restrict] maps every replayed delta transaction to the
    subset of its ops the target owns (it must preserve [txn_id], so
    the exactly-once mark still advances over fully-foreign
    transactions); [owns] filters chunk rows by primary key (the keyset
    cursor still steps over foreign keys, they are just never loaded).
    The defaults keep everything. *)

val run : t -> (progress, error) result
(** Drive the state machine to completion: chunk cycles until the keyset
    is exhausted, catch-up until the delta queue is dry, then the final
    swap (state row [Complete] + lease release, then source-side
    watermark advance + cursor clear).  Raises nothing on transient
    faults below the retry budget; returns [Failed] after a clean abort;
    lets {!Dw_storage.Vfs.Fault.Crash} propagate (that is the simulated
    process kill). *)

val progress : t -> progress
(** Current counters (meaningful mid-run from hooks, or after {!run}). *)

val state : Db.t -> table:string -> Run_state.row option
(** Read a table's durable bootstrap state row from a warehouse
    database, if any run ever started. *)
