(** Two-phase-locking lock manager with shared/exclusive modes, table and
    row granularity, and wait-for-graph deadlock detection.

    The engine is single-threaded; "blocking" is *logical*: a conflicting
    {!acquire} returns [`Blocked] (registering the waiter in the wait-for
    graph) and the caller's scheduler decides what to do — retry later,
    advance the simulated clock, or abort on [`Deadlock].  This is what
    the warehouse experiment (W2) uses to account outage: an OLAP query
    blocked by the value-delta batch integration holds its span open until
    the lock is granted.

    {b Concurrency}: every operation runs under one mutex, so the
    conflict check, the grant and the wait-for update of an {!acquire}
    are one atomic step and any domain may call in.  The engine calls
    it from the writer domain of each database only: snapshot
    transactions take no locks and never call it ([Dw_engine.Db]). *)

type txid = int

type resource =
  | Table of string
  | Row of string * Dw_storage.Heap_file.rid

type mode = S | X

type outcome =
  | Granted
  | Blocked of txid list  (** the transactions holding conflicting locks *)
  | Deadlock of txid list  (** granting would close a wait-for cycle *)

type t

val create : ?metrics:Dw_util.Metrics.t -> unit -> t
(** [metrics] receives counters [lock.acquires], [lock.blocks] and
    [lock.deadlocks] (a private registry is used when omitted); the
    caller's scheduler is responsible for timing actual waits (the engine
    records a [lock.wait] latency histogram around its block hook). *)

val acquire : t -> txid -> resource -> mode -> outcome
(** Upgrades S→X when possible.  Re-acquiring a held lock is [Granted].
    A [Row] lock implicitly conflicts with an [X] [Table] lock on the
    same table (coarse-over-fine; no full intention-lock hierarchy). *)

val release_all : t -> txid -> unit
(** End of transaction: drop all locks and pending waits of [txid]. *)

val held_by : t -> txid -> resource list
(** Resources [txid] currently holds a lock on, in no particular order. *)

val waiting : t -> txid -> bool
(** Whether [txid] has a queued (not yet granted) lock request. *)
