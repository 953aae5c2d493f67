(** End-to-end incremental maintenance pipelines — the paper's Figure 1
    reference architecture as a library: {e extraction} (any of the five
    methods) → {e transport} (direct or through the persistent queue) →
    {e transformation} (optional schema mapping) → {e integration}
    (batch for value deltas, per-source-transaction for Op-Deltas).

    One pipeline maintains one source table into one warehouse replica
    (plus whatever views hang off it).  Call {!run_round} on whatever
    cadence the deployment needs; each round extracts exactly the changes
    since the previous round.

    Every round starts from a {e mark}: the timestamp day, the first log
    position not yet extracted, the snapshot round to diff against, and
    the last trigger-delta and Op-Delta capture positions integrated.  The
    mark is the source table's {!Dw_warehouse.Warehouse.mark} row,
    written by the round's own integrating transactions, so a
    round's data and the mark past it commit or roll back together.  A
    Trigger or Op-Delta round reads its capture by position — the trigger
    delta table's [__seq], the byte offset in the wrapper's file log —
    past the mark, committed transactions only: a trigger read stops
    short of any transaction still open, and the file log's lines of
    transactions that did not commit are withdrawn
    ({!Dw_core.Opdelta_capture}).  Only once the mark has committed does
    a Trigger round purge the delta table through it; the file log is
    append-only.  Every round applies exactly once across a source or
    warehouse crash or a pipeline restart: a restart reopens the source
    with the delta table in its catalog, then
    {!Dw_warehouse.Warehouse.reopen}s the warehouse (with the planner
    log in [~extra], for [Planned]), then calls {!create}, which creates
    the Op-Delta wrapper over the reopened source. *)

module Db = Dw_engine.Db
module Warehouse = Dw_warehouse.Warehouse
module Delta = Dw_core.Delta
module Transform = Dw_core.Transform
module Opdelta_capture = Dw_core.Opdelta_capture
module Snapshot_extract = Dw_core.Snapshot_extract

type method_ =
  | Timestamp
  | Trigger
  | Log
  | Snapshot of Snapshot_extract.algorithm
  | Op_delta_wrapper
  | Planned
      (** let {!Planner} pick the extraction method each round from
          observed statistics; the capture trigger {e and} the Op-Delta
          wrapper are both installed so every method's channel is
          available when the planner switches to it *)

type transport =
  | Direct              (** hand the delta over in memory *)
  | Queued of string
      (** through a persistent queue on the warehouse Vfs: the measured wire
          path (encoded bytes, batch fsyncs).  Each round acks its messages
          as it drains them, before integration commits: the queue is a
          wire, not a buffer.  A round first drops whatever a crashed round
          left unacked and regenerates that delta from its mark, which the
          source's captures still cover until the mark commits. *)

type signals = {
  lock_wait_p95_s : float;  (** source lock-wait p95 the planner scores *)
  ship_p95_s : float;       (** transport/queue latency p95 per message *)
}
(** Environment signals a [Planned] pipeline cannot measure from its own
    channels — sampled once per round from the [signals] callback. *)

type t

val create :
  ?transform:Transform.rule ->
  ?compact:bool ->
  (* net-change compaction of value deltas before shipping (default
     false); no effect on the Op-Delta method *)
  ?capture_images:bool ->
  (* force hybrid before-image capture in the Op-Delta wrapper (default
     false); required if the pipeline will {!bootstrap} *)
  ?planner:Planner.t ->
  (* the planner a [Planned] pipeline consults (default: a fresh one
     with no incumbent); ignored for static methods *)
  ?signals:(unit -> signals) ->
  (* per-round environment sample for [Planned] mode (default: zeros) *)
  source:Db.t ->
  warehouse:Warehouse.t ->
  table:string ->
  method_:method_ ->
  transport:transport ->
  unit ->
  t
(** Installs whatever the method needs at the source (the capture trigger,
    the Op-Delta wrapper — both for [Planned]).  Resumes from [table]'s
    mark when the warehouse holds one, finishing the purge a stopped run
    left; it raises [Invalid_argument] when the trigger's delta table's
    file is on the source device but the source's catalog left the table
    out.  The warehouse must already have the destination
    replica ([table], or the transform rule's destination).  [Log]
    requires the source to run with archive logging or an extraction
    cadence faster than checkpoints; a [Planned] pipeline checks this
    itself and marks the log method ineligible when archiving is off.

    A [Planned] pipeline expects the application to submit its
    transactions through {!capture} (like [Op_delta_wrapper]) and the
    driver to {!Db.advance_day} the source between rounds (the timestamp
    channel distinguishes rounds by day). *)

val capture : t -> Opdelta_capture.t option
(** For [Op_delta_wrapper] and [Planned] pipelines: the wrapper the
    application must submit its transactions through.  [None] for other
    methods. *)

val planner : t -> Planner.t option
(** The planner of a [Planned] pipeline (decision history, switch count);
    [None] for static methods. *)

val fallbacks : t -> int
(** How many planned rounds overrode the planner's choice for
    correctness (timestamp chosen while the round's delta carried
    deletes). *)

type round_stats = {
  round : int;
  extracted_changes : int;
  shipped_bytes : int;       (** wire volume that crossed the transport *)
  extract_units : float;
      (** extraction work in abstract row-visit units (the per-method
          [work_units] hooks) — the cost the planner predicts *)
  method_used : string;
      (** {!Planner.method_name} of the channel that actually ran this
          round (for static pipelines, the configured method) *)
  integration : Warehouse.stats;
  total_seconds : float;
      (** the round's duration on the warehouse registry's clock
          ({!Dw_util.Metrics.now} of [Db.metrics (Warehouse.db wh)]) *)
}

val run_round : t -> (round_stats, string) result
(** Extract-ship-transform-integrate everything since the last round, with
    the next round's mark in the integrating transaction (a round that
    integrates nothing commits its mark in a transaction of its own).  An
    Op-Delta round integrates one warehouse transaction per source
    transaction, each marking the position of its own; a round that
    fails part-way re-reads the mark the committed ones left.  Once the
    mark has committed, a snapshot round retires the pre-previous snapshot
    file and a trigger round purges the delta table through its
    position.  In [Planned] mode: read every channel past the mark, score
    the methods against blended per-round observations, integrate through
    the chosen channel (an Op-Delta choice applies the round's statements
    as one run, one warehouse transaction, so both capture positions
    advance together), and append the decision to
    the warehouse's
    [__planner_log] — with two correctness overrides (timestamp falls
    back to the trigger delta when the round carried deletes; a snapshot
    round with a stale baseline dumps a fresh one and integrates the
    trigger delta). *)

val rounds : t -> int
(** Rounds run so far. *)

val method_name : t -> string
(** Short method label for reports. *)

val bootstrap :
  ?config:Bootstrap.config ->
  ?hook:(Bootstrap.phase -> unit) ->
  t ->
  owner:string ->
  (Bootstrap.progress, Bootstrap.error) result
(** Online initial load ({!Bootstrap}) through this pipeline's capture
    and queue, for untransformed [Op_delta_wrapper] + [Queued] pipelines
    created with [~capture_images:true].  Once the bootstrap is complete
    its capture position — the last line of a transaction it applied —
    commits as the mark, and subsequent {!run_round}s continue
    incrementally from there. *)
