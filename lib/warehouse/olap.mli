(** OLAP query workload over the warehouse.

    The DSS side of the paper's architecture: a set of analyst queries
    (filters, GROUP BY aggregates) run against replicas and view backing
    tables through the SQL layer.  Used by examples and by availability
    experiments to put concrete read work next to the integrators. *)

type query = {
  name : string;
  sql : string;
}

val standard_queries : table:string -> query list
(** A canned analyst mix over a PARTS-shaped replica: row count, stock
    value, per-quantity histogram, price extremes of low-stock parts,
    and a band filter. *)

type query_result = {
  query : string;
  rows : int;          (** result rows *)
  duration : float;    (** wall-clock seconds *)
}

val run :
  ?mode:[ `Read_write | `Snapshot ] -> Warehouse.t -> query -> (query_result, string) result
(** Each query runs in its own transaction.  The default [`Snapshot]
    mode takes no locks: the query sees a transaction-consistent state
    as of its begin and never waits on (or delays) the integrators.
    [`Read_write] restores the old locking read behaviour — the
    availability experiments use it as the contrast arm. *)

val run_parallel :
  ?partitions:int ->
  pool:Dw_util.Domain_pool.t ->
  Warehouse.t ->
  query ->
  (query_result, string) result
(** Like {!run} in [`Snapshot] mode, but executed by {!Par_scan} across
    the pool's domains: the scan is split into [partitions] page ranges
    (default 8) and results are merged
    byte-identically to the sequential path.  Timed into the
    [olap.query_parallel] histogram on the registry clock. *)

val run_all :
  ?mode:[ `Read_write | `Snapshot ] ->
  Warehouse.t ->
  query list ->
  query_result list * string option
(** Runs queries in order, stopping at the first failure; the results of
    the queries completed before it are always returned, with [Some
    error] describing the one that failed ([None] = all succeeded). *)
