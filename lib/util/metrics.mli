(** Instrumentation registry: counters, gauges, latency histograms,
    scoped timers and trace spans.

    A {!t} is a registry of named metrics.  The storage layer counts page
    reads/writes and bytes moved; hot paths (Vfs I/O, buffer-pool misses,
    WAL fsyncs, lock waits, queue and transport operations, warehouse
    refreshes) additionally record latency distributions, and benches
    snapshot a registry before and after a measured region and report the
    difference, which explains the shape of the wall-clock results.

    {b Metric taxonomy} (see DESIGN.md §9 for naming conventions):
    - {e counters}: monotonically increasing ints ([incr]/[add]);
    - {e gauges}: last-write-wins floats ([set_gauge]);
    - {e histograms}: log-bucketed latency/size distributions ([observe],
      [time], percentile queries);
    - {e spans}: named, nested timed regions ([with_span]), for
      decomposing e.g. a warehouse refresh into extract → transport →
      load → apply segments.

    Timers and spans read a pluggable {!clock}; substitute a
    {!Sim_clock.t} ({!use_sim_clock}) for deterministic tests.

    A metric name denotes one kind; using it as another raises
    [Invalid_argument].

    {b Domain-safety}: concurrent domains may share one registry.
    Counters are atomic cells: two domains bumping one counter sum
    exactly, and a {!counter} handle that has resolved its cell bumps it
    without taking any lock.  Every other registry operation (histogram
    and gauge mutation, name lookup, percentile fold, reset, span
    bookkeeping) is serialised by a per-registry mutex; histograms take
    it even through a {!hist} handle.  The recording sink is atomic and
    scoped ({!with_sink}).  The clock setters are the exception: install
    clocks before going parallel. *)

type t

type clock = unit -> float
(** Seconds; only differences are meaningful.  The default is
    [Unix.gettimeofday]. *)

val create : unit -> t

val set_clock : t -> clock -> unit

val use_sim_clock : t -> Sim_clock.t -> unit
(** Drive timers/spans from a logical clock: one tick = one second. *)

val now : t -> float
(** The registry clock's current reading. *)

(** {2 Counters} *)

val incr : t -> string -> unit
(** [incr t name] adds 1 to counter [name], creating it at 0 if needed. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name]. *)

val get : t -> string -> int
(** [get t name] is the counter value, 0 if never touched. *)

val snapshot : t -> (string * int) list
(** All counters, sorted by name (gauges/histograms are not included). *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter difference [after - before], dropping zero entries. *)

(** {2 Handles}

    A handle names one counter or histogram of one registry.  Hot paths
    build their handles once, when their owner is built, and then bump
    or record through them without hashing the name on every event.  A
    handle behaves exactly like the name-keyed calls: it resolves its
    key on first use (so the key appears in {!snapshot} only once
    touched), resolves again after a {!reset} (re-creating the key
    instead of counting into the cleared entry), mirrors into the sink
    like {!add}/{!observe}, and raises [Invalid_argument] on first use
    if the name is already registered as another kind. *)

type counter

val counter : t -> string -> counter
(** [counter t name] is a handle on counter [name]; it touches nothing
    until first bumped. *)

val bump : counter -> int -> unit
(** [bump c n] is [add t name n] for the handle's registry and name. *)

type hist

val hist : t -> string -> hist
(** [hist t name] is a handle on histogram [name]; it touches nothing
    until first recorded into. *)

val record : hist -> float -> unit
(** [record h v] is [observe t name v] for the handle's registry and
    name. *)

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float
(** 0.0 if never set. *)

val gauges : t -> (string * float) list

(** {2 Histograms}

    Log-spaced buckets (8 per doubling, ~4.4% relative quantile error);
    bucket indices are clamped into under/overflow buckets, and exact
    min/max are tracked so percentile results are always within the
    observed range — exact for the empty, one-sample, and overflow
    edges. *)

val observe : t -> string -> float -> unit
(** Record one sample (typically seconds of latency). *)

val observed_count : t -> string -> int
val observed_sum : t -> string -> float

val percentile : t -> string -> float -> float
(** [percentile t name q] for [q] in [0, 1]; [q <= 0] is the minimum,
    [q >= 1] the maximum; 0.0 on an empty or absent histogram. *)

type histogram_summary = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : t -> string -> histogram_summary option
(** [None] if [name] is not a histogram. *)

val histograms : t -> (string * histogram_summary) list

(** {2 Scoped timers} — measure a region into a histogram. *)

type timer

val start_timer : t -> string -> timer
val stop_timer : timer -> float
(** Observes the elapsed time into histogram [name], returns it. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f], observing its duration even on raise. *)

(** {2 Trace spans} — nested timed regions.  A span's parent is whatever
    span was open on the same registry when it started; finishing records
    (name, parent, start, duration) and observes the duration into
    histogram [name].  [finish_span] is idempotent. *)

type span

type span_record = {
  span_name : string;
  span_parent : string option;
  span_start : float;
  span_duration : float;
}

val start_span : t -> string -> span
val finish_span : span -> unit
val with_span : t -> string -> (unit -> 'a) -> 'a
(** Balanced open/finish even on raise. *)

val span_ring : int
(** How many completed span records a registry keeps for {!spans}
    (1024): a long-lived registry finishes one span per refresh. *)

val spans : t -> span_record list
(** The newest {!span_ring} completed spans, in completion order. *)

val span_rollup : t -> (string * string option * int * float) list
(** Every completed span folded by (name, parent): [(name, parent,
    count, total duration)], in the order each pair first completed.
    Unbounded in count, bounded by the distinct pairs. *)

val span_depth : t -> int
(** Currently open spans (0 when balanced — property-tested). *)

(** {2 Reset, rendering, export} *)

val reset : t -> unit
(** Remove every entry and span.  Entries are {e cleared}, not zeroed:
    a later {!snapshot} shows nothing from before the reset. *)

val to_json : t -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count, sum,
    min, max, p50, p95, p99}}, "spans": [{name, parent, count, total}]}] —
    the per-experiment payload of [dwbench run --json]; the spans are
    {!span_rollup} sorted by (name, parent). *)

(** {2 Recording sink}

    When a sink registry is installed, every counter/gauge/histogram
    mutation on any other registry is mirrored into it, and finished
    spans are appended to it.  The bench harness uses this to capture the
    union of the per-Vfs registries an experiment creates internally.
    Not mirrored recursively (mutating the sink itself is local). *)

val with_sink : t option -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s] as the sink, runs [f], and restores the
    previously installed sink even when [f] raises. *)
