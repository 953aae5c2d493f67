(** Virtual file system.

    Every byte the engine moves to or from "disk" goes through a [Vfs.t],
    which counts operations in a {!Dw_util.Metrics.t} registry.  Two
    backends exist: an in-memory one (deterministic, fast, used by tests
    and benches) and a real-directory one (used when persistence across
    processes matters).  Counter names: [vfs.reads], [vfs.writes],
    [vfs.read_bytes], [vfs.write_bytes], [vfs.fsyncs]; latency
    histograms [vfs.read], [vfs.write], [vfs.fsync].  A [t] resolves
    these once, when it is built ({!Dw_util.Metrics.counter}), not per
    operation.

    Every device read, write and truncate of a file runs under that
    file's I/O lock, one per name and shared by all its handles, on
    both backends: a read never meets a write of the same range half
    done, and two domains never interleave a Disk handle's seek and
    transfer on its shared descriptor.  So a reader may read a page
    while another domain writes pages of the same file back, with no
    lock of its own.

    An in-memory file handle caches the byte store its name resolves to
    and revalidates it only after a {!create} or {!delete} on the same
    [t], so a handle opened before a name is re-created reads the new
    contents, as a fresh lookup would.

    A {!Fault.t} plan can be attached to inject deterministic faults on
    every byte path (see {!Fault} and DESIGN.md section 8): fail-stop
    crashes at a chosen write/fsync event, torn writes and transient
    write/fsync failures.  Injected faults are counted under [fault.*]
    names. *)

type t
type file

(** Deterministic fault injection, driven by a seeded {!Dw_util.Prng.t}.

    The plan counts {e events} — every write and fsync, in order — and can
    fail-stop at a chosen event index, which is how the crash-point
    explorer enumerates "the process died here" scenarios: everything
    written before the event survives, the crashing write itself may be
    torn (a prefix survives), nothing after it happens.  Independently,
    writes and fsyncs can fail transiently (nothing persisted,
    retryable).

    Beyond the one-shot fail-stop, a plan can carry {e sustained}
    schedules — event-windowed degradations for chaos experiments that
    need a fault to persist across retries and restarts: raised transient
    error rates, latency spikes, and crash {e flap} schedules (the shard
    dies, comes back, dies again on a deterministic period).  Sustained
    schedules survive {!revive} (unlike the whole plan, which
    {!crash_reset} detaches), so a flapping device keeps flapping until
    the window closes.

    Counters: [fault.crashes], [fault.torn_writes],
    [fault.transient_writes], [fault.transient_fsyncs],
    [fault.latency_spikes]. *)
module Fault : sig
  exception Crash of { op : string; index : int }
  (** Fail-stop: the simulated process is dead.  Every subsequent
      operation on the same [t] raises [Crash] again until
      {!crash_reset} or {!revive}. *)

  exception Transient of string
  (** A retryable failure: the operation had no effect (transient write)
      or did not reach durability (transient fsync). *)

  type window = { from_event : int; until_event : int }
  (** Half-open event-index range [from_event, until_event) a sustained
      schedule is active over. *)

  type sustained =
    | Error_rate of { window : window; write_p : float; fsync_p : float }
        (** Within the window, transient write/fsync probabilities are
            raised to at least these values (max with the base rates). *)
    | Latency of { window : window; delay_s : float }
        (** Within the window, every write/fsync sleeps an extra
            [delay_s] (overlapping windows sum); counted under
            [fault.latency_spikes]. *)
    | Crash_flap of { window : window; period_on : int; period_off : int }
        (** Within the window, events whose phase
            [(idx - from_event) mod (period_on + period_off)] is below
            [period_on] fail-stop the process.  After {!revive} the next
            durability event lands back on the schedule — still in an ON
            phase, the shard crashes again; in an OFF gap, it works until
            the next ON phase.  [period_off = 0] means dead for the whole
            window. *)

  type t

  val make :
    ?fail_stop_after:int ->  (* crash at this 0-based event index; -1 = never (default) *)
    ?tear_on_crash:bool ->   (* default true: the crashing write keeps a random prefix *)
    ?write_fail_p:float ->   (* transient write failure probability, default 0 *)
    ?fsync_fail_p:float ->   (* transient fsync failure probability, default 0 *)
    ?sustained:sustained list ->  (* event-windowed schedules, default [] *)
    seed:int ->
    unit ->
    t
  (** Raises [Invalid_argument] on a malformed sustained schedule:
      negative window bound, probability outside [0, 1], negative
      latency, [period_on < 1], or [period_off < 0]. *)

  val events : t -> int
  (** Write/fsync events seen so far — run a workload with a never-crashing
      plan to count its crash points. *)
end

val in_memory : ?metrics:Dw_util.Metrics.t -> ?op_delay:float -> unit -> t
(** Fresh empty in-memory file system.  [op_delay] (seconds, default 0)
    is added to every read/write/fsync — used to simulate a remote or
    slow device (e.g. the paper's staging database across a 10 Mb/s LAN,
    Section 3.1.3). *)

val on_disk : ?metrics:Dw_util.Metrics.t -> string -> t
(** [on_disk dir] is backed by directory [dir] (created if absent).  File
    names must not contain path separators. *)

val metrics : t -> Dw_util.Metrics.t

val set_fault : t -> Fault.t option -> unit
(** Attach (or clear) a fault plan.  Works on both backends. *)

val fault : t -> Fault.t option

val crash_reset : t -> unit
(** Simulate process death + restart over the surviving bytes: clears the
    open-file accounting (no descriptor survives a crash) and detaches the
    fault plan so recovery code runs fault-free.  File contents are
    untouched. *)

val revive : t -> unit
(** Restart the process but keep the device on its fault schedule: clears
    the open-file accounting and the plan's dead flag (and any one-shot
    fail-stop), but the sustained schedules and the event counter
    survive.  This is the half-open probe's view of the world — a revived
    shard whose flap window is still in an ON phase crashes again on its
    next durability event.  No-op on the plan if none is attached. *)

val create : t -> string -> file
(** Create (truncate if it exists) and open. *)

val open_existing : t -> string -> file
(** Raises [Not_found] if absent. *)

val open_or_create : t -> string -> file

val exists : t -> string -> bool
val delete : t -> string -> unit
(** No-op if absent; raises [Invalid_argument] if the file is open. *)

val list_files : t -> string list
(** Sorted names. *)

val name : file -> string

val id : file -> int
(** A small integer naming the file within its [t]: every handle opened
    on one name gets the same id, stable across {!delete} and re-{!create}
    of that name, and distinct names get distinct ids.  The buffer pool
    keys its frames by it. *)

val size : file -> int

val read_at : file -> off:int -> len:int -> bytes
(** Raises [Invalid_argument] when the range extends past end of file. *)

val read_into : file -> off:int -> bytes -> unit
(** {!read_at} of the buffer's length into the caller's buffer, with the
    same checks, counters and latency: a page read that
    allocates nothing.  The buffer pool faults pages in through it, and
    a snapshot scan reads a page that is not cached into its own buffer
    (a cold read), holding no pool lock. *)

val write_at : file -> off:int -> bytes -> unit
(** Extends the file if needed ([off] at most [size]). *)

val append : ?hist:Dw_util.Metrics.hist -> ?len:int -> file -> bytes -> int
(** Appends the first [len] bytes of the data (default: all of it) in one
    write and returns the offset they were written at.  The write's
    duration, the sample [vfs.write] records, is also recorded into
    [hist] when given (so a caller timing its appends reads the clock no
    more).  Raises [Invalid_argument] when [len] is outside the data. *)

val fsync : file -> unit
val close : file -> unit
val truncate : file -> int -> unit
(** Shrink to the given size. *)
