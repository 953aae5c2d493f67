(** Abstract syntax of the SQL dialect.

    This dialect is exactly what Op-Delta needs to describe source
    operations: single-table [SELECT] / [INSERT] / [UPDATE] / [DELETE]
    plus [CREATE TABLE].  Expressions are {!Dw_relation.Expr.t}. *)

module Expr = Dw_relation.Expr
module Value = Dw_relation.Value

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type select_item =
  | Star
  | Item of Expr.t * string option  (** expression with optional AS alias *)
  | Agg of agg_fn * Expr.t option * string option
      (** aggregate over an expression ([None] only for [Count_star]),
          with optional AS alias *)

type column_def = {
  col_name : string;
  col_ty : Value.ty;
  col_nullable : bool;
  col_key : bool;
}

type stmt =
  | Select of {
      items : select_item list;
      table : string;
      where : Expr.t option;
      group_by : string list;
      order_by : string list;
    }
  | Insert of {
      table : string;
      columns : string list option;  (** [None] = schema order *)
      rows : Value.t list list;
    }
  | Update of {
      table : string;
      sets : (string * Expr.t) list;
      where : Expr.t option;
    }
  | Delete of {
      table : string;
      where : Expr.t option;
    }
  | Create_table of {
      table : string;
      columns : column_def list;
    }

val table_of : stmt -> string

val equal : stmt -> stmt -> bool
