(** The staging tier of the partitioned refresh: bucket op-delta runs by
    partition before load.

    This is the intermediate level of Liu's two-level data staging shape
    (PAPERS.md): incoming op-delta transactions are split {e before}
    integration into one delta stream per partition of a
    {!Dw_warehouse.Partition} spec, so
    {!Dw_warehouse.Partitioned.refresh} — the one fleet refresh — can
    apply independent partitions' buckets concurrently, each shard
    under its own circuit breaker.

    Routing is by statement analysis against the spec's key column:
    - an INSERT into the fact table is {e decomposed} — each row goes
      only to the shard owning its key, so a multi-row insert becomes at
      most one smaller insert per partition;
    - an UPDATE/DELETE whose WHERE clause confines the key to one
      partition (conjunctions of comparisons against literals, the same
      conservative analysis the engine's index planner uses) is routed
      to that single partition;
    - anything else — an unconfined predicate, a statement on a
      replicated (non-fact) table, a non-DML statement — is
      {e broadcast} to every bucket.  Broadcast is always safe: each
      shard holds only its own rows, so re-executing the statement
      everywhere touches exactly the rows the monolithic execution
      would have;
    - an UPDATE whose SET list assigns the partition key is rejected
      ([Invalid_argument]) — the updated rows could migrate between
      shards, which statement re-execution cannot express.  Source-side
      capture must ship such changes as DELETE + INSERT.

    Per-partition buckets preserve source commit order and transaction
    ids, so each shard's stream is a subsequence of the source history
    and the per-shard watermark filtering stays exactly-once.

    Fact-table INSERTs written in schema order (no explicit column list)
    are keyed on their {e first} value — the fact table's leading key
    column is the partition key, which
    {!Dw_warehouse.Partitioned.add_replica} enforces. *)

module Partition = Dw_warehouse.Partition
module Op_delta = Dw_core.Op_delta
module Ast = Dw_sql.Ast

(** Where one statement must execute. *)
type route =
  | To of int  (** exactly the one partition owning every affected row *)
  | All  (** every partition (safe fallback; inserts are never [All]) *)

(** Staging tallies for one {!split} call (observability: T6 reports
    them as gauges). *)
type stats = {
  txns : int;  (** source transactions staged *)
  statements : int;  (** statements examined *)
  routed : int;  (** statements sent to exactly one bucket *)
  broadcast : int;  (** statements copied into every bucket *)
  split_rows : int;  (** fact-table INSERT rows decomposed row-wise *)
}

val split : spec:Partition.t -> Op_delta.t list -> Op_delta.t list array * stats
(** Stage a run of op-delta transactions into per-partition buckets
    (array length [Partition.partitions spec], index-aligned with
    {!Dw_warehouse.Partitioned} shards).  Each source transaction
    contributes at most one op-delta per bucket, keeping its [txn_id];
    transactions contributing nothing to a partition simply do not
    appear in that bucket.  Raises [Invalid_argument] on a fact-table
    UPDATE that assigns the partition key, and on a fact-table INSERT
    carrying a non-integer or missing key. *)
