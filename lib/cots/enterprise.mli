(** Simulated COTS-integrated enterprise (paper Section 2).

    One {e logical} table is replicated across [k] autonomous source
    databases.  Each source stores it under its own physical name with its
    own column names (heterogeneity); the integration layer (this module,
    standing in for the CORBA/DCE/DCOM glue) fans every {e business
    transaction} out to all replicas — each replica in its {e own local
    transaction}, so there is no global atomicity, exactly the
    "global serializability is often not enforced" situation the paper
    describes.

    Capture points:
    - the {b Op-Delta wrapper} sits at the business level and records each
      business transaction {e once}, against the logical schema — nothing
      to reconcile;
    - the {b trigger-based value-delta} extractors sit below, one per
      replica, and each sees its own copy of every change; their streams
      must be inverse-transformed to the logical schema and then
      reconciled ({!Dw_core.Reconcile}).  This asymmetry is experiment R1. *)

module Db = Dw_engine.Db
module Schema = Dw_relation.Schema
module Ast = Dw_sql.Ast
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Transform = Dw_core.Transform

type t

val create :
  ?heterogeneous:bool ->  (* distinct physical names per source, default true *)
  ?extra_tables:(string * Schema.t) list ->
  (* further logical tables replicated the same way; business transactions
     may span all logical tables (and Op-Delta keeps those cross-table
     transaction boundaries, which per-table value-delta streams lose) *)
  sources:int ->
  logical_table:string ->
  logical_schema:Schema.t ->
  unit ->
  t
(** Builds [sources] in-memory source databases, creates the physical
    replica tables in each, and installs the per-replica trigger capture. *)

val source_db : t -> int -> Db.t
val rule_to_physical : t -> int -> Transform.rule
(** The logical→physical transformation of source [i]. *)

val physical_table : t -> int -> string

val submit : t -> Ast.stmt list -> (unit, string) result
(** One business transaction, in the logical schema.  Statements must
    target the logical table.  Applied to every replica (local
    transactions); the Op-Delta wrapper records it once.  On a statement
    error the already-updated replicas keep their local commits — the
    non-atomicity is deliberate. *)

val business_op_deltas : t -> Op_delta.t list
(** The wrapper's capture: one Op-Delta per submitted business
    transaction, logical schema, in order. *)

val extract_replica_value_deltas : t -> Delta.t list
(** Trigger-extract each replica's delta table for the main logical
    table, inverse-transformed to the logical schema: [k] near-identical
    streams that the caller must reconcile. *)

val extract_replica_value_deltas_for : t -> table:string -> Delta.t list
(** Same for any logical table.  Raises [Not_found] for an unknown one.
    Note what is lost relative to {!business_op_deltas}: each stream is
    per-table, so a business transaction spanning tables arrives as
    disconnected fragments. *)

val logical_tables : t -> string list
