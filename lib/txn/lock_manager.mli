(** Two-phase-locking lock manager with shared/exclusive modes, table and
    row granularity, and wait-for-graph deadlock detection.

    The engine is single-threaded; "blocking" is *logical*: a conflicting
    {!acquire} returns [`Blocked] (registering the waiter in the wait-for
    graph) and the caller's scheduler decides what to do — retry later,
    advance the simulated clock, or abort on [`Deadlock].  This is what
    the warehouse experiment (W2) uses to account outage: an OLAP query
    blocked by the value-delta batch integration holds its span open until
    the lock is granted.

    {b Striping}: lock state is sharded by table-name hash into
    independently-mutexed stripes, so writer domains on disjoint tables
    never contend; a table and all of its rows share one stripe, keeping
    the coarse-over-fine conflict check stripe-local.  The wait-for
    graph stays global (own mutex) so deadlock cycles spanning stripes
    are still detected — property-tested in the parallel suite. *)

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

val create : ?metrics:Dw_util.Metrics.t -> ?stripes:int -> unit -> t
(** [metrics] receives counters [lock.acquires], [lock.blocks] and
    [lock.deadlocks] (a private registry is used when omitted); the
    caller's scheduler is responsible for timing actual waits (the engine
    records a [lock.wait] latency histogram around its block hook).
    [stripes] (default 8, >= 1 or [Invalid_argument]) is the number of
    independently-locked shards of lock state. *)

val stripe_count : t -> int
(** Number of stripes the manager was created with. *)

val stripe_of : t -> resource -> int
(** The stripe index [resource] hashes to; [Table t] and every
    [Row (t, _)] map to the same stripe (invariant the tests pin). *)

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
