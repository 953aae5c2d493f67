(** Partitioned parallel snapshot SELECT: the OLAP read path fanned over a
    {!Dw_util.Domain_pool}.

    The planner splits the table's heap into contiguous page ranges fixed
    at plan time.  Each domain runs the engine's snapshot scan
    ({!Dw_engine.Db.select_pages}: each page of its range copied, then
    its slots resolved against the version store) and filters.  The
    coordinator joins the rid-ordered range results in page order and
    hands them to the engine's one SELECT evaluator
    ({!Dw_engine.Db.eval_select}).  The joined list is the sequential
    scan's, and the evaluator is the one {!Dw_engine.Db.exec} runs, so
    results are {e byte-identical} to it on the same snapshot by
    construction — row order, column names, values and error messages.

    Readers take no locks and run no group-commit poll; safety against
    concurrent writers comes from the same version-store protocol the
    sequential snapshot path uses (DML notes before-images before
    touching the heap, pages only ever grow). *)

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
