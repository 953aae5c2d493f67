(** SPJ (select-project-join) view definitions and their full evaluation.

    These are the warehouse views the Op-Delta maintenance algorithms of
    the paper's companion report [8] operate over.  Views are bags: the
    warehouse materialises each distinct output row with a multiplicity
    count, which is what makes projection maintainable under deletes —
    except a key-preserving view (see {!output_schema}), whose rows are
    distinct by their key.

    Two shapes, which cover the experiments:
    - {b select-project} over one source table;
    - {b equi-join} of two source tables with optional per-side filters
      and a projection mixing columns of both sides. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr

type side = L | R

type projection = {
  out_name : string;
  from_side : side;   (** ignored for select-project views *)
  from_col : string;
}

type t =
  | Select_project of {
      name : string;
      table : string;
      schema : Schema.t;
      filter : Expr.t option;
      project : projection list;  (** [from_side] ignored *)
    }
  | Join of {
      name : string;
      left_table : string;
      left_schema : Schema.t;
      right_table : string;
      right_schema : Schema.t;
      on : (string * string) list;  (** left column = right column; non-empty *)
      left_filter : Expr.t option;
      right_filter : Expr.t option;
      project : projection list;
    }

val name : t -> string
val source_tables : t -> string list
val validate : t -> (unit, string) result
(** Column references exist, projection non-empty, join keys typed. *)

val output_schema : t -> Schema.t
(** Schema of the view rows: all projected columns.  A select-project
    view whose projection begins with its source's primary-key columns,
    in key order, is {e key-preserving}: its key is those columns, and
    every view row has multiplicity 1.  Every other view's key spans the
    whole row, and bag semantics live in a multiplicity count, not in the
    key.  The warehouse derives a view's backing layout from this key
    alone. *)

val eval : t -> rows_of:(string -> Tuple.t list) -> (Tuple.t * int) list
(** Full recomputation: distinct output rows with multiplicities, sorted
    by row.  [rows_of] supplies current source-table contents. *)

val project_sp : t -> Tuple.t -> Tuple.t option
(** Select-project views only: the view row produced by one source row
    ([None] if filtered out).  Raises [Invalid_argument] on Join views.
    [project_sp t] compiles the filter and projection once: apply it to
    many rows. *)

val join_contribution :
  t -> side -> Tuple.t -> other_rows:Tuple.t list -> Tuple.t list
(** Join views only: the view rows produced by one new/old row on the
    given side against the other side's current rows.
    [join_contribution t side] compiles the view once. *)
