(** Self-maintainability analysis (paper Section 4.1).

    Decides, per view and per operation kind, whether the warehouse can be
    refreshed from the Op-Delta alone, and when the Op-Delta must be
    augmented with the before images of the affected rows ("a hybrid
    between a partial value delta — the before image portion only — and
    the Op-Delta").

    The decisive factor is whether the warehouse keeps {e replicas} of the
    source tables (detail data):

    - with replicas, every operation is self-maintainable from the
      operation description alone — the warehouse re-runs the statement
      against its replica and derives all images locally;
    - without replicas, a select-project view needs the before images for
      deletes and updates (the statement's predicate identifies source
      rows the warehouse cannot see), while inserts remain self-
      maintainable since the INSERT statement carries the full tuple;
    - a join view is not self-maintainable without the other side's rows,
      no matter what is captured: replicas are required. *)

type op_kind = K_insert | K_update | K_delete

type verdict = {
  self_maintainable : bool;
      (** can the warehouse refresh without contacting the source? *)
  needs_before_images : bool;
      (** when self-maintainable: must the capture ship before images? *)
  reason : string;
}

val analyze : Spj_view.t -> op_kind -> replicas:bool -> verdict

val requirement :
  views:Spj_view.t list -> replicas:bool -> Dw_sql.Ast.stmt ->
  [ `Op_only | `Op_with_before_images | `Not_self_maintainable of string ]
(** The capture requirement for one statement against a whole view set:
    the worst verdict over all views on the statement's table. *)
