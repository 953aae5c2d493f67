(** Op-Delta capture wrapper (paper Section 4.2).

    The wrapper sits "right before the DBMS" — exactly where the paper
    captures: application code submits whole business transactions
    (statement lists) through {!exec_txn}, and the wrapper records each
    transaction's Op-Delta before executing it.

    Two sinks, matching the Figure 3 / Table 4 experiments:
    - {b DB log}: the Op-Delta is inserted into a capture table in the
      {e same transaction} (transactional capture; chunked rows, each
      leading with its position [__seq]);
    - {b file log}: the Op-Delta is appended to a flat file, one line per
      transaction just before its commit (cheap, non-transactional — the
      paper's "if writing the Op-Delta log does not need to be
      transactional, using a file log could be attractive").  A line
      whose transaction does not commit is withdrawn by a later marker
      line: {!exec_txn} appends one when the commit fails, and {!create}
      appends one for each transaction the source log shows without a
      commit record (one a crash cut short).  The source log's buffered
      frames are written out before a line is appended, so a line never
      reaches the file ahead of its transaction's log.  A line's
      position is the byte offset past it.

    Either way positions rise in capture order, and {!lines} returns
    committed transactions only: an extraction round reads the lines past
    its mark and commits the last position with its output.  The file log
    is append-only; the DB log keeps its rows.

    A wrapper created with [~capture_images:true] also records, for each
    UPDATE and DELETE, the before images of the rows it affects (the
    paper's hybrid of the Op-Delta and "the before image portion" of a
    value delta), read inside the transaction just ahead of the
    statement.  An INSERT carries its full tuples and records none. *)

module Db = Dw_engine.Db
module Ast = Dw_sql.Ast

type sink =
  | To_db_table of string
  | To_file of string

type t

val create : ?capture_images:bool -> Db.t -> sink:sink -> t
(** With [To_db_table] the capture table is created when the device
    never had it, and positions continue past the largest one it holds;
    it raises [Invalid_argument] when the table's file is on the device
    but the source was reopened without it in its catalog.  With
    [To_file] a torn last line (a crash mid-append) is cut off, and the
    lines of transactions that did not commit are withdrawn; create the
    wrapper right after a source restart, before a checkpoint retires
    the log records that tell.
    [capture_images] (default [false]) records before images for every
    UPDATE and DELETE — a chunked bootstrap ({!Dw_etl.Bootstrap}) needs
    full row images to turn statement deltas into last-write-wins
    upserts inside its watermark windows. *)

val captures_images : t -> bool
(** Whether this wrapper was created with [capture_images:true]. *)

val exec_txn : t -> Ast.stmt list -> (Db.exec_result list, string) result
(** Run the statements as one source transaction, capturing its Op-Delta,
    with the before images of each UPDATE and DELETE when the wrapper
    {!captures_images}.  On [Error] (bad statement) the transaction is
    aborted and nothing is captured.  Any other exception before the
    commit, such as {!Db.Would_block}, also aborts it and is re-raised; a
    [Vfs.Fault.Crash] is re-raised without the rollback, as
    {!Db.with_txn} does.  A commit that raises is re-raised too; when
    its transaction did not commit ({!Db.committed}), its file line is
    withdrawn. *)

val work_units : statements:int -> float
(** Deterministic {e extraction-side} work estimate in abstract row-visit
    units — the cost hook {!Dw_etl.Planner} calibrates and compares
    across methods: draining the capture log visits each recorded
    statement once, {e independent of how many rows each statement
    touched} (the paper's Section 4 headline). *)

val captured : t -> Op_delta.t list
(** Every Op-Delta this wrapper captured and committed, oldest first (an
    in-memory mirror of the sink). *)

val captured_bytes : t -> int
(** Total {!Op_delta.size_bytes} captured — the paper's delta-volume
    metric (experiment V1). *)

val lines : t -> after:int -> (int * string) list
(** The encoded Op-Delta lines past position [after], oldest first, each
    with its position: a file line's is the byte offset past its newline,
    a capture table line's that of its last chunk row.  Every line is a
    committed transaction's: a table read stops short of the first
    position a transaction in {!Db.active_txns} holds, and a file read
    drops withdrawn lines (a file line is appended and committed with no
    statement boundary between them). *)

val read_sink : t -> (Op_delta.t list, string) result
(** Decode the Op-Deltas back out of the sink: every line {!lines}
    returns past position 0. *)
