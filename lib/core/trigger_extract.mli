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
    overhead.  [collect] reads the delta table back into a {!Delta.t}
    (optionally draining it), reconstructing updates from adjacent
    old/new rows; transaction boundaries are {e not} recoverable — the
    delta table does not record them, which is the paper's criticism. *)

module Db = Dw_engine.Db
module Schema = Dw_relation.Schema

type handle

val install : Db.t -> table:string -> handle
(** Raises [Invalid_argument] if already installed on this table. *)

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

val collect : ?drain:bool -> Db.t -> handle -> Delta.t
(** Rows in capture order.  [drain] (default false) empties the delta
    table afterwards. *)
