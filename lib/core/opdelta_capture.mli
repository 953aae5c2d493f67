(** Op-Delta capture wrapper (paper Section 4.2).

    The wrapper sits "right before the DBMS" — exactly where the paper
    captures: application code submits whole business transactions
    (statement lists) through {!exec_txn}, and the wrapper records each
    transaction's Op-Delta before executing it.

    Two sinks, matching the Figure 3 / Table 4 experiments:
    - {b DB log}: the Op-Delta is inserted into a capture table in the
      {e same transaction} (transactional capture; chunked rows);
    - {b file log}: the Op-Delta is appended to a flat file (cheap,
      non-transactional — the paper's "if writing the Op-Delta log does
      not need to be transactional, using a file log could be
      attractive").

    When a view configuration is supplied, {!Self_maintain.requirement}
    decides per statement whether before images must be captured too
    (hybrid mode); the wrapper then reads the affected rows' before
    images ahead of executing the statement. *)

module Db = Dw_engine.Db
module Ast = Dw_sql.Ast

type sink =
  | To_db_table of string
  | To_file of string

type t

val create :
  ?views:Spj_view.t list ->
  ?replicas:bool ->        (* does the warehouse keep source replicas? default true *)
  ?capture_images:bool ->  (* force hybrid capture for every statement, default false *)
  Db.t ->
  sink:sink ->
  t
(** With [To_db_table] the capture table is created if missing.
    [capture_images:true] records before images for {e every} UPDATE and
    DELETE regardless of what {!Self_maintain.requirement} asks for — a
    chunked bootstrap ({!Dw_etl.Bootstrap}) needs full row images to turn
    statement deltas into last-write-wins upserts inside its watermark
    windows. *)

val captures_images : t -> bool
(** Whether this wrapper was created with [capture_images:true]. *)

exception Not_self_maintainable of string
(** Raised by {!exec_txn} when the view set cannot be maintained from
    captures at all (join views without replicas). *)

val exec_txn : t -> Ast.stmt list -> (Db.exec_result list, string) result
(** Run the statements as one source transaction, capturing its Op-Delta.
    On [Error] (bad statement) the transaction is aborted and nothing is
    captured.  Any other exception before the commit, such as
    {!Db.Would_block}, also aborts it and is re-raised; a
    [Vfs.Fault.Crash] is re-raised without the rollback, as
    {!Db.with_txn} does. *)

val capture_units : statements:int -> image_rows:int -> float
(** Deterministic {e source-side} overhead estimate in abstract row-visit
    units: recording one statement costs roughly one row write at the
    sink, plus one row read per hybrid before image — the Figure 3
    overhead the planner charges against this method. *)

val work_units : statements:int -> float
(** Deterministic {e extraction-side} work estimate in abstract row-visit
    units — the cost hook {!Dw_etl.Planner} calibrates and compares
    across methods: draining the capture log visits each recorded
    statement once, {e independent of how many rows each statement
    touched} (the paper's Section 4 headline). *)

val captured : ?since:int -> t -> Op_delta.t list
(** The Op-Deltas captured through this wrapper, oldest first (in-memory
    mirror of the sink; survives sink truncation): all of them, or with
    [since] only those after the first [since], at a cost linear in the
    number returned. *)

val captured_count : t -> int
(** How many Op-Deltas {!captured} holds. *)

val captured_bytes : t -> int
(** Total {!Op_delta.size_bytes} captured — the paper's delta-volume
    metric (experiment V1). *)

val read_sink : t -> (Op_delta.t list, string) result
(** Decode the Op-Deltas back out of the sink (capture table or file) —
    what the transport layer ships to the warehouse. *)
