(** Group commit: amortize one WAL fsync over a group of committers.

    Committers append their commit records to the {!Wal} individually
    (fixing the durability {e order}), then register with a group-commit
    state via {!note_commit}.  The first registrant of a group is the
    {e leader}; it holds the group open until either the group reaches
    {!policy.max_group} pending commits or the registry clock has
    advanced {!policy.max_wait_s} past the group's opening, at which
    point a {e single} {!Wal.flush} makes every pending commit durable at
    once.  In the engine's cooperative single-threaded world the
    "concurrent committers" are logical sessions (see
    {!Dw_engine.Scheduler}); the deadline is evaluated on each
    registration and on {!poll} (which {!Dw_engine.Db} drives from
    statement boundaries).

    Time comes from the WAL registry's pluggable clock
    ({!Dw_util.Metrics.now}), so the max-wait bound is deterministic
    under {!Dw_util.Sim_clock} — crash tests and unit tests advance a
    logical clock instead of sleeping.

    Every flushed group observes its size into the [wal.group_size]
    histogram of the WAL's registry (alongside the [wal.fsync] latency
    histogram {!Wal.flush} already records), which is the evidence the
    [t5] experiment uses to show the per-transaction fsync count drop.

    A crash while a group is open loses no acknowledged durability: the
    pending commits were never reported durable, and recovery replays
    exactly the records that survived on the device — at least the
    fsynced prefix (see DESIGN.md §8 on prefix persistence). *)

type policy = {
  max_group : int;  (** flush when this many commits are pending (>= 1) *)
  max_wait_s : float;
      (** flush when the group has been open this long (clock seconds;
          [infinity] = size-only, [0.] = flush at every registration) *)
}

val validate_policy : policy -> unit
(** Raises [Invalid_argument] unless [max_group >= 1] and
    [max_wait_s >= 0.] (NaN rejected). *)

type t

val create : ?policy:policy -> Wal.t -> t
(** A fresh group-commit state over the WAL; no commits pending. *)

val policy : t -> policy
(** The bounds currently in force. *)

val set_policy : t -> policy -> unit
(** Validates, then installs the new bounds.  Any open group is flushed
    first so commits acknowledged under the old policy never wait on the
    new one. *)

val note_commit : t -> unit
(** Register one committer whose commit record is already appended.
    Flushes the group (one fsync for all pending commits) when the size
    or deadline bound is reached; otherwise returns with the commit
    pending — the bounded durability window group commit trades for
    throughput. *)

val poll : t -> unit
(** Flush the open group if its deadline has passed; no-op otherwise
    (and free when nothing is pending).  Called from statement
    boundaries so a waiting leader cannot be starved by a commit lull. *)

val sync : t -> unit
(** Durability barrier: flush the open group if any commits are pending;
    no-op otherwise. *)

val flush_now : t -> unit
(** Unconditional {!Wal.flush}, accounting any pending commits into the
    flushed group.  Used by abort paths that must always reach the
    device. *)

val absorb : t -> unit
(** Account the pending commits as covered {e without} issuing a flush —
    for callers about to fsync through another path (checkpoint). *)

val pending : t -> int
(** Commits registered but not yet covered by a flush. *)
