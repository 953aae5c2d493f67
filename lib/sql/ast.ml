module Expr = Dw_relation.Expr
module Value = Dw_relation.Value

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type select_item =
  | Star
  | Item of Expr.t * string option
  | Agg of agg_fn * Expr.t option * string option

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
  | Insert of { table : string; columns : string list option; rows : Value.t list list }
  | Update of { table : string; sets : (string * Expr.t) list; where : Expr.t option }
  | Delete of { table : string; where : Expr.t option }
  | Create_table of { table : string; columns : column_def list }

let table_of = function
  | Select { table; _ } | Insert { table; _ } | Update { table; _ } | Delete { table; _ }
  | Create_table { table; _ } ->
    table

let opt_expr_equal a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Expr.equal x y
  | None, Some _ | Some _, None -> false

let opt_expr_equal2 a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Expr.equal x y
  | None, Some _ | Some _, None -> false

let item_equal a b =
  match a, b with
  | Star, Star -> true
  | Item (e1, a1), Item (e2, a2) -> Expr.equal e1 e2 && a1 = a2
  | Agg (f1, e1, a1), Agg (f2, e2, a2) -> f1 = f2 && opt_expr_equal2 e1 e2 && a1 = a2
  | (Star | Item _ | Agg _), _ -> false

let value_rows_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun row1 row2 ->
         List.length row1 = List.length row2
         && List.for_all2
              (fun v1 v2 -> Value.equal v1 v2 || (Value.is_null v1 && Value.is_null v2))
              row1 row2)
       r1 r2

let equal s1 s2 =
  match s1, s2 with
  | Select a, Select b ->
    a.table = b.table && opt_expr_equal a.where b.where && a.order_by = b.order_by
    && a.group_by = b.group_by
    && List.length a.items = List.length b.items
    && List.for_all2 item_equal a.items b.items
  | Insert a, Insert b ->
    a.table = b.table && a.columns = b.columns && value_rows_equal a.rows b.rows
  | Update a, Update b ->
    a.table = b.table && opt_expr_equal a.where b.where
    && List.length a.sets = List.length b.sets
    && List.for_all2 (fun (c1, e1) (c2, e2) -> c1 = c2 && Expr.equal e1 e2) a.sets b.sets
  | Delete a, Delete b -> a.table = b.table && opt_expr_equal a.where b.where
  | Create_table a, Create_table b -> a.table = b.table && a.columns = b.columns
  | (Select _ | Insert _ | Update _ | Delete _ | Create_table _), _ -> false
