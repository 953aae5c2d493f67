(** Cost-based extraction-method planner (ROADMAP item 2; Tempura-style
    "method choice is an optimizer decision", PAPERS.md).

    The paper hand-compares its five delta-extraction methods and leaves
    the choice to the operator; this module makes it from observed
    statistics instead.  A {!t} carries one {e per-method cost model} in
    abstract {e work units} (one unit ≈ one row visit), built from the
    cost hooks the extraction modules expose
    ({!Dw_core.Timestamp_extract.work_units} and friends) and {e
    calibrated once per session} from micro-probes: tiny throwaway
    source/warehouse instances run a canonical transaction mix through
    every method and the measured stats (images per changed row, wire
    bytes per image and per statement, log records per changed row,
    integration row ops per row) become the model coefficients — the
    model is fitted to this engine, not hard-coded.

    {!plan} then scores each method against the {!observed} statistics
    of the maintained table (delta rate, table size, statement mix,
    lock-wait p95, ship latency) and picks the cheapest {e eligible}
    one.  Eligibility encodes correctness, not cost: timestamp
    extraction is ineligible while deletes are observed (it cannot see
    them), log extraction requires archive logging.  Two dampers keep a
    noisy signal from flapping methods:

    - {e re-plan interval}: scoring runs every [replan_interval]-th
      round; between scoring rounds the previous choice is kept;
    - {e hysteresis}: a scored challenger must beat the incumbent by the
      [hysteresis_margin] fraction, not merely tie it.

    Every decision (inputs, per-method predicted costs, choice) is
    recorded in memory, in [planner.*] metrics, and — via
    {!log_decision} — in a [__planner_log] table {e inside the
    warehouse}, so an operator can audit why the system extracts the way
    it does.  {!Pipeline} drives all of this when created in [`Planned]
    mode. *)

module Db = Dw_engine.Db
module Warehouse = Dw_warehouse.Warehouse
module Metrics = Dw_util.Metrics

type method_ =
  | Timestamp
  | Snapshot
  | Trigger
  | Log
  | Op_delta
      (** The five extraction methods of the paper's Section 3/4, as the
          planner ranks them.  ({!Pipeline.method_} carries per-method
          configuration; this type is the pure choice.) *)

val method_name : method_ -> string
(** Short stable label ("timestamp", "snapshot", "trigger", "log",
    "op-delta") used in reports, metrics and the [__planner_log]. *)

val all_methods : method_ list
(** The five methods in a fixed order (cost reports are keyed on it). *)

type observed = {
  table_rows : int;  (** current cardinality of the maintained table *)
  rows : float;  (** changed rows per round (the delta rate) *)
  stmts : float;  (** DML statements per round *)
  insert_rows : float;  (** rows inserted per round *)
  update_rows : float;  (** rows updated per round *)
  delete_rows : float;  (** rows deleted per round *)
  log_records : float;  (** retained log records written per round *)
  lock_wait_p95_s : float;  (** source [lock.wait] p95 (contention) *)
  ship_p95_s : float;  (** transport/queue latency p95 per message *)
  log_available : bool;  (** archive logging on at the source? *)
}
(** One round's worth of observed source statistics — what {!plan}
    scores the methods against.  [`Planned] pipelines maintain these as
    exponentially-weighted averages of per-round actuals. *)

type coeffs = {
  image_bytes : float;  (** wire bytes per shipped row image *)
  stmt_bytes : float;  (** wire bytes per shipped statement *)
  update_images : float;  (** delta-table images per updated row (~2) *)
  log_records_per_row : float;  (** retained log records per changed row *)
  ts_scan_per_row : float;  (** rows visited per table row, timestamp scan *)
  snap_scan_per_row : float;  (** rows visited per table row, snapshot round *)
  row_unit : float;  (** integration row ops per changed row *)
}
(** The calibrated per-method model coefficients (micro-probe output). *)

type config = {
  replan_interval : int;  (** rounds between scoring runs (>= 1) *)
  hysteresis_margin : float;
      (** a challenger must cost less than [(1 - margin)] of the
          incumbent to displace it (in [0, 1)) *)
  probe_rows : int;  (** micro-probe table size (>= 8) *)
  probe_txns : int;  (** micro-probe transactions per method (>= 3) *)
  byte_unit : float;  (** work units per wire byte (> 0) *)
  contention_weight : float;
      (** units charged per captured image per second of lock-wait p95
          (penalises in-transaction trigger capture under contention) *)
  ship_latency_weight : float;
      (** units charged per shipped image-equivalent per second of
          transport p95 (amplifies wire-volume differences when the
          queue is slow) *)
}
(** Planner knobs; see OPERATIONS.md for symptoms and defaults. *)

val default_config : config
(** [{ replan_interval = 1; hysteresis_margin = 0.2; probe_rows = 48;
      probe_txns = 9; byte_unit = 0.01; contention_weight = 50.0;
      ship_latency_weight = 10.0 }]. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on out-of-range knobs (interval < 1,
    margin outside [0, 1), non-positive probe sizes or byte unit,
    negative weights, NaN anywhere). *)

type decision = {
  round : int;  (** the refresh round this decision governs *)
  chosen : method_;
  previous : method_ option;  (** incumbent before this decision *)
  switched : bool;  (** [chosen <> previous] *)
  scored : bool;
      (** false when the re-plan interval kept the incumbent without
          scoring (costs are then the last scored ones) *)
  costs : (method_ * float) list;
      (** predicted cost per method, [infinity] for ineligible ones *)
  inputs : observed;  (** the statistics the decision saw *)
  reason : string;  (** human-readable audit line *)
}
(** One planning decision, exactly what lands in the [__planner_log]. *)

type t
(** A planner instance: config + calibrated coefficients + incumbent
    method + decision history.  Not domain-safe; one per pipeline. *)

val create : ?config:config -> ?metrics:Metrics.t -> unit -> t
(** A planner with no incumbent.  [metrics] receives the [planner.*]
    counters/gauges (default: a private registry).  Raises
    [Invalid_argument] via {!validate_config} on a bad config. *)

val calibrate : t -> unit
(** Run the micro-probes and install the coefficients.  Idempotent per
    process: the probe results are memoised for the session (they
    measure the engine, not the workload), so only the first planner
    pays the probe cost; {!plan} calls this lazily if needed.  Counts
    [planner.calibrations] when the probes actually ran. *)

val predict : t -> observed -> (method_ * float) list
(** Score every method against [observed] without planning: predicted
    cost in work units, [infinity] for ineligible methods, in
    {!all_methods} order.  Calibrates lazily.  Pure given the
    coefficients — the monotonicity property tests drive this. *)

val plan : t -> round:int -> observed -> decision
(** Make the decision for [round]: score (or keep, per the re-plan
    interval), apply hysteresis, update the incumbent, record the
    decision and the [planner.plans]/[planner.switches]/[planner.kept]
    counters and [planner.cost_*] gauges.  Rounds must be presented in
    increasing order. *)

val force : t -> round:int -> method_ -> unit
(** Install [method_] as the incumbent without scoring (recorded as a
    non-scored decision) — the [`Planned] pipeline uses it when a
    correctness fallback overrides the planned choice mid-round. *)

val decisions : t -> decision list
(** Every decision so far, oldest first. *)

val switches : t -> int
(** How many decisions changed the incumbent (the flap metric the
    hysteresis property tests bound). *)

val log_table : string
(** ["__planner_log"] — the warehouse-resident audit table. *)

val log_decision : Warehouse.t -> table:string -> decision -> unit
(** Append [decision] to the [__planner_log] table of this warehouse
    (created on first use), keyed by ([table], round): source table,
    round, chosen method, switched/scored flags, the five predicted
    costs, the headline inputs and the reason line, committed as one
    warehouse transaction. *)

type log_row = {
  lr_table : string;  (** source table the decision was for *)
  lr_round : int;
  lr_chosen : string;  (** {!method_name} of the choice *)
  lr_switched : bool;
  lr_scored : bool;
  lr_costs : (string * float) list;  (** method name -> predicted cost *)
  lr_rows : float;  (** observed delta rate the decision saw *)
  lr_table_rows : int;
  lr_reason : string;
}
(** One decoded [__planner_log] row. *)

val read_log : Warehouse.t -> table:string -> log_row list
(** Decode the audit rows for [table], in round order ([] when the log
    table does not exist yet). *)
