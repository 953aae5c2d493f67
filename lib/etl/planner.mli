(** Cost-based extraction-method planner (Tempura-style "method choice
    is an optimizer decision", PAPERS.md).

    The paper hand-compares its five delta-extraction methods and leaves
    the choice to the operator; this module makes it from observed
    statistics instead.  Each method's cost is priced in abstract {e work
    units} (one unit ≈ one row visit) by the cost hooks the extraction
    modules expose ({!Dw_core.Timestamp_extract.work_units} and friends)
    plus wire bytes at {!byte_unit} units per byte.  The per-image and
    per-statement byte counts are not modelled: a [`Planned] round
    measures them from its own trigger delta and Op-Delta lines (see
    {!observed}).

    {!plan} scores each method against the {!observed} statistics of
    the maintained table (delta rate, table size, statement mix, WAL
    records, lock-wait p95, ship latency) and picks the cheapest {e
    eligible} one.  Eligibility encodes correctness, not cost: timestamp
    extraction is ineligible while deletes are observed (it cannot see
    them), log extraction requires archive logging.  Every round is
    scored; {e hysteresis} keeps a noisy signal from flapping methods: a
    challenger must cost less than 0.8 of the incumbent to displace it.

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
  log_records : float;  (** WAL records written per round *)
  lock_wait_p95_s : float;  (** source [lock.wait] p95 (contention) *)
  ship_p95_s : float;  (** transport/queue latency p95 per message *)
  log_available : bool;  (** archive logging on at the source? *)
  image_bytes : float;
      (** wire bytes per row image: the maintained table's record size,
          which is what {!Dw_core.Delta.size_bytes} charges per image *)
  stmt_bytes : float;
      (** wire bytes per shipped statement: the round's Op-Delta
          [size_bytes] over its statement count *)
}
(** One round's worth of observed source statistics — what {!plan}
    scores the methods against.  [`Planned] pipelines maintain these as
    exponentially-weighted averages of per-round actuals. *)

val byte_unit : float
(** Work units charged per wire byte (0.01); T7 scores shipped bytes
    with it too. *)

type decision = {
  round : int;  (** the refresh round this decision governs *)
  chosen : method_;
  previous : method_ option;  (** incumbent before this decision *)
  switched : bool;  (** [chosen <> previous] *)
  scored : bool;
      (** false for a {!force}d decision (costs are then the last scored
          ones) *)
  costs : (method_ * float) list;
      (** predicted cost per method, [infinity] for ineligible ones *)
  inputs : observed;  (** the statistics the decision saw *)
  reason : string;  (** human-readable audit line *)
}
(** One planning decision, exactly what lands in the [__planner_log]. *)

type t
(** A planner instance: incumbent method + decision history.  Not
    domain-safe; one per pipeline. *)

val create : ?metrics:Metrics.t -> unit -> t
(** A planner with no incumbent.  [metrics] receives the [planner.*]
    counters/gauges (default: a private registry). *)

val predict : observed -> (method_ * float) list
(** Score every method against [observed] without planning: predicted
    cost in work units, [infinity] for ineligible methods, in
    {!all_methods} order.  Pure — the monotonicity tests drive this. *)

val plan : t -> round:int -> observed -> decision
(** Make the decision for [round]: score, apply hysteresis, update the
    incumbent, record the decision and the [planner.plans]/
    [planner.switches] counters and [planner.cost_*] gauges.  Rounds
    must be presented in increasing order. *)

val force : t -> round:int -> method_ -> unit
(** Install [method_] as the incumbent without scoring (recorded as a
    non-scored decision, counted in [planner.kept]) — the [`Planned]
    pipeline uses it when a correctness fallback overrides the planned
    choice mid-round. *)

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
