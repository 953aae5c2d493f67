(** Partitioned parallel snapshot SELECT: the OLAP read path fanned over a
    {!Dw_util.Domain_pool}.

    The planner splits the table's heap into contiguous page-range
    partitions fixed at plan time; each domain runs the snapshot scan
    (heap pass, then the version-chain pass restricted to its range) over
    one partition, filters, and — for aggregate queries — pre-aggregates
    its rows into per-group partials.  The coordinator merges partials in
    the exact order the single-domain executor would have evaluated
    (ordered operand lists for SUM/AVG, strictly-better merges for
    MIN/MAX), so results are {e byte-identical} to {!Dw_engine.Db.exec}
    on the same snapshot — including row order, [col%d] naming, Int/Float
    payloads on compare-equal ties, and error messages.

    Readers take no locks; safety against concurrent writers comes from
    the same version-store protocol the sequential snapshot path uses
    (DML notes before-images before touching the heap, pages only ever
    grow). *)

val exec_sql :
  ?partitions:int ->
  pool:Dw_util.Domain_pool.t ->
  Dw_engine.Db.t ->
  Dw_engine.Db.txn ->
  string ->
  (Dw_engine.Db.exec_result, string) result
(** Parse, then run the SELECT on [txn]'s snapshot across the pool's
    domains, mapping exceptions to [Error] exactly like
    {!Dw_engine.Db.exec_sql}: non-SELECT statements, non-[`Snapshot]
    transactions, [partitions < 1] and any input the sequential executor
    rejects (same messages), and an unknown table. *)
