(** Aggregate (group-by) views.

    The paper positions delta extraction as the missing first step in
    front of work like Labio, Yerneni & Garcia-Molina's "Shrinking the
    Warehouse Update Window" [19], which maintains {e aggregate} views.
    This module supplies that view class so the warehouse can exercise the
    full pipeline: [SELECT g1..gk, AGG(c).. FROM t WHERE p GROUP BY g1..gk].

    Incremental maintainability (the classic results, all implemented):
    - [Count] and [Sum] are self-maintainable under inserts and deletes;
    - [Min]/[Max] are self-maintainable under inserts, but a delete of the
      current extremum forces a group re-scan of the (warehouse-resident)
      replica — which is exactly why warehouses keep detail data. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr

type agg_fn =
  | Count
  | Sum of string
  | Min of string
  | Max of string

type t = {
  name : string;
  table : string;
  schema : Schema.t;        (** source schema *)
  filter : Expr.t option;
  group_by : string list;   (** non-empty; become the output key *)
  aggregates : (string * agg_fn) list;  (** (output column, function) *)
}

val validate : t -> (unit, string) result
(** Group/aggregate columns exist; Sum/Min/Max columns are numeric
    (Sum) or orderable non-null (Min/Max); output names don't collide. *)

val output_schema : t -> Schema.t
(** Group columns (key) followed by the aggregate columns. *)

(** The functions below that take a view and then rows compile when
    partially applied: [group_key t], [passes t], [init_group t],
    [apply_insert t] and [apply_delete t] resolve column names and the
    filter once, to be applied to many rows. *)

val group_key : t -> Tuple.t -> Tuple.t
(** The group a (filter-passing) source row belongs to. *)

val passes : t -> Tuple.t -> bool

val eval : t -> rows:Tuple.t list -> (Tuple.t * int) list
(** Full recomputation: one output row per non-empty group, with the
    group's cardinality (used by maintenance to know when a group dies),
    sorted by group key. *)

(** {2 Incremental state transitions} — pure helpers the warehouse calls.
    State per group: the output row (group cols + agg cols) and the group
    cardinality. *)

val init_group : t -> Tuple.t -> Tuple.t
(** Output row for a brand-new group containing just this source row. *)

val apply_insert : t -> current:Tuple.t -> Tuple.t -> Tuple.t
(** Fold one more source row into a group's output row. *)

type delete_outcome =
  | Updated of Tuple.t          (** new output row *)
  | Needs_rescan                (** a Min/Max extremum left: recompute *)

val apply_delete : t -> current:Tuple.t -> Tuple.t -> delete_outcome
(** Remove one source row's contribution.  The caller handles group death
    (cardinality 0) before calling this. *)

val recompute_group :
  t -> group:Tuple.t -> replica_rows:Tuple.t list -> (Tuple.t * int) option
(** Re-derive a group's output row and cardinality from replica detail
    rows ([None] if the group is empty). *)
