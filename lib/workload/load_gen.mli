(** Open-loop sustained-load generator for end-to-end planner scoring
    (experiment T7).

    Closed-loop drivers hide overload: a slow server slows the clients
    down, and the measured latency flattens.  This generator is {e
    open-loop}: each virtual second it {e offers} the phase's target
    op/s regardless of how the previous second went — arrival times are
    fixed by the rate, and an op's latency is [completion - arrival]
    through a single-server queue model (coordinated-omission-safe).
    Everything runs in virtual time ({!Dw_util.Sim_clock}) from a seeded
    {!Dw_util.Prng}, so a given config produces the identical op
    sequence, latencies and admission decisions on every run — the T7
    gates in [Bench_gate] depend on this.

    The offered mix moves through {e phases} (insert-heavy,
    update-heavy, scan-heavy) so the cheapest extraction method changes
    under the planner's feet mid-run.  A latency SLO is tracked per
    second; an {b AIMD admission valve} (multiplicative decrease on
    breach, additive recovery) sheds offered ops before they reach the
    source when the queue falls behind, like the warehouse side's
    {!Dw_warehouse.Warehouse.batch_policy} valve but at the workload's
    front door. *)

module Ast = Dw_sql.Ast
module Sim_clock = Dw_util.Sim_clock
module Metrics = Dw_util.Metrics

type phase_kind = Insert_heavy | Update_heavy | Scan_heavy
    (** Which statement mix dominates the offered load. *)

val phase_name : phase_kind -> string
(** "insert-heavy" / "update-heavy" / "scan-heavy". *)

type phase = {
  kind : phase_kind;
  rate : int;  (** offered ops per virtual second (> 0) *)
  seconds : int;  (** phase duration in virtual seconds (> 0) *)
}

type config = {
  phases : phase list;  (** played in order; must be non-empty *)
  slo_ms : float;  (** per-second latency p95 SLO (> 0) *)
  service_fixed_ms : float;  (** fixed service time per op (>= 0) *)
  service_per_row_ms : float;  (** service time per row touched (>= 0) *)
  update_size : int;  (** rows per range UPDATE/DELETE op (>= 1) *)
  scan_rows : int;  (** rows per scan op (>= 1) *)
  aimd_decrease : float;  (** valve multiplier on SLO breach (in (0, 1)) *)
  aimd_increase : int;  (** valve op/s recovery per met second (>= 1) *)
  min_rate : int;  (** valve floor in op/s (>= 1) *)
}
(** Generator knobs; see OPERATIONS.md for symptoms and defaults. *)

val default_config : config
(** Three phases of 30 virtual seconds at 40 op/s (insert-heavy →
    update-heavy → scan-heavy), 250 ms SLO, 1 ms + 0.4 ms/row service,
    8-row updates, 160-row scans, halve/+8 AIMD with a 4 op/s floor. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on out-of-range knobs. *)

type op =
  | Dml of Workload.op  (** one source transaction's worth of DML *)
  | Scan of int  (** read-only range scan over [n] rows (drives lock waits) *)

type tick_stats = {
  tick : int;  (** 1-based virtual second since the run started *)
  phase : phase_kind;
  phase_tick : int;  (** 1-based second within the current phase *)
  offered : int;
  admitted : int;
  shed : int;  (** [offered - admitted], dropped by the AIMD valve *)
  ops : op list;  (** the admitted ops, in arrival order *)
  p95_ms : float;  (** admitted-op latency p95 this second *)
  slo_met : bool;
  valve : int;  (** admission valve (op/s) after this second's AIMD step *)
  lock_wait_p95_s : float;
      (** queue-wait p95 this second — the contention signal a [Planned]
          pipeline feeds to its planner *)
}
(** What one virtual second produced.  The driver executes [ops] against
    the source, then calls {!tick} again. *)

type t

val create :
  ?config:config -> ?metrics:Metrics.t -> ?seed:int -> clock:Sim_clock.t ->
  existing_ids:int -> unit -> t
(** A generator positioned before the first phase.  [existing_ids] is
    the source table's current max id (updates/deletes range below it,
    inserts allocate above it).  [metrics] receives the [loadgen.*]
    counters and gauges.  The clock is advanced 1000 virtual ms per
    {!tick}. *)

val finished : t -> bool
(** All phases exhausted. *)

val total_seconds : t -> int
(** Sum of the configured phase durations. *)

val tick : t -> tick_stats
(** Generate the next virtual second: offer the phase rate, admit what
    the valve allows, lay the admitted ops on the arrival timeline,
    push them through the single-server queue model, score the SLO and
    step the valve.  Raises [Invalid_argument] once {!finished}. *)

val stmts_of_op : t -> day:int -> op -> Ast.stmt list
(** The source statements for an op — one transaction's worth for
    [Dml], [[]] for [Scan] (the driver runs scans through its own
    read path). *)

type summary = {
  ticks : int;
  total_offered : int;
  total_admitted : int;
  total_shed : int;
  slo_breaches : int;  (** seconds whose p95 exceeded the SLO *)
  slo_attainment : float;  (** fraction of seconds meeting the SLO *)
  worst_p95_ms : float;
}

val summary : t -> summary
(** Totals over every {!tick} so far. *)
