(** Table schemas: ordered, named, typed columns.

    The first [key_arity] columns form the primary key (delta extraction,
    snapshot differentials and warehouse integration all identify rows by
    this key). *)

type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t

val make : ?key_arity:int -> column list -> t
(** [make cols] builds a schema.  Column names must be unique and
    non-empty; [key_arity] defaults to 1 and must be between 1 and the
    number of columns.  Raises [Invalid_argument] otherwise. *)

val columns : t -> column list
val arity : t -> int
val key_arity : t -> int

val column : t -> int -> column
(** Raises [Invalid_argument] if out of bounds. *)

val index_of : t -> string -> int
(** Position of the named column.  Raises [Not_found]. *)

val index_of_opt : t -> string -> int option
val mem : t -> string -> bool

val record_size : t -> int
(** Fixed on-disk byte width of a tuple (1 null-bitmap byte per 8 columns
    plus the sum of column widths). *)

val equal : t -> t -> bool

val project : t -> string list -> t
(** [project t names] is the sub-schema with the given columns in the given
    order; key_arity resets to the full width of the projection.  Raises
    [Not_found] on an unknown name. *)
