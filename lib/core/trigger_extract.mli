(** Trigger-based delta extraction (paper Section 3, method 3; overheads
    measured in Figure 2).

    [install] creates a delta table [<table>__delta] and registers a
    row-level AFTER trigger on the source table that writes, inside the
    user transaction:
    - the new values for each inserted row;
    - the old values for each deleted row;
    - the old {e and} new values for each updated row (two rows).

    This is precisely the capture policy of the paper's Figure 2
    experiment, and the per-row triggered insert is the measured
    overhead.  Each delta row leads with [__seq], its position: positions
    rise in capture order, and an extraction round {!read}s the rows past
    its mark, commits the last position with its output, and only then
    {!purge}s through it.  A read stops short of the first position an
    open source transaction holds, so it sees committed changes only and
    never moves a mark past a transaction that commits later.  Updates
    are rebuilt from adjacent old/new rows; transaction boundaries are
    {e not} recoverable — the delta table does not record them, which is
    the paper's criticism. *)

module Db = Dw_engine.Db
module Schema = Dw_relation.Schema

type handle

val install : Db.t -> table:string -> handle
(** Creates [<table>__delta] when the device never had it, and continues
    positions past the largest one it holds.  Raises [Invalid_argument]
    if already installed on this table, or if the delta table's file is
    on the device but the source was reopened without it in its
    catalog. *)

val uninstall : Db.t -> handle -> unit
(** Removes the trigger; the delta table stays until dropped. *)

val capture_units : images:int -> float
(** Deterministic {e source-side} overhead estimate in abstract row-visit
    units: each captured image is one extra triggered insert inside the
    user transaction (an update writes two) — the Figure 2 overhead the
    planner charges against this method when source contention matters. *)

val work_units : images:int -> float
(** Deterministic {e extraction-side} work estimate in abstract row-visit
    units — the cost hook {!Dw_etl.Planner} calibrates and compares
    across methods: {!collect} reads each captured image back out of the
    delta table once. *)

val read : Db.t -> handle -> after:int -> Delta.t * int
(** The changes captured past position [after] by committed
    transactions, in capture order, and the position of the last one read
    ([after] when there is none).  Stops short of the first position a
    transaction in {!Db.active_txns} holds. *)

val collect : Db.t -> handle -> Delta.t
(** [read ~after:0]: every committed change the delta table holds. *)

val purge : Db.t -> handle -> through:int -> unit
(** Removes the rows through position [through] in one source
    transaction ({!Db.purge}: one [Purge] log record of their rids, no
    before images; nothing when [through] is 0), and hands out positions
    past [through] from now on — a consumer calls it with its committed
    mark, also when it restarts over an emptied delta table.  Recovery
    finishes a purge whose record reached the log even if its
    transaction did not commit, so [through] must never pass the mark
    the consumer has made durable.  Capture rows are appended without
    locks, so an open transaction never blocks the purge. *)
