(** Scalar values and their column types.

    The engine is typed: every column has a {!ty} and every slot of a tuple
    holds a {!t} compatible with that type ([Null] is compatible with any
    nullable column).  Dates are stored as days since 1970-01-01 so that
    timestamp-based delta extraction (Section 3.1.1 of the paper) is a plain
    integer comparison. *)

type ty =
  | Tint
  | Tfloat
  | Tbool
  | Tdate
  | Tstring of int  (** maximum byte length *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Date of int  (** days since epoch *)
  | Str of string
  | Null

val ty_compatible : ty -> t -> bool
(** Does the value fit the column type?  [Null] fits every type. *)

val compare : t -> t -> int
(** Total order: Null < Bool < Int/Float/Date (numeric order, comparable
    with each other where sensible) < Str.  Int and Float compare
    numerically against each other; Date compares only with Date. *)

val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic.  Int op Int stays Int (division truncates); any Float
    operand promotes to Float; [Null] propagates; other combinations raise
    [Invalid_argument]. *)

val is_null : t -> bool

val ty_to_string : ty -> string
val ty_of_string : string -> ty option
(** Parses what {!ty_to_string} produces, e.g. ["INT"], ["STRING(40)"]. *)

val to_string : t -> string

val to_sql_literal : t -> string
(** Render as a literal of the SQL dialect (strings quoted and escaped).
    A finite float prints with 17 significant digits and always with a
    decimal point ([1.0e+17], not [1e+17]), so the lexer reads it back
    as the same float. *)

val encoded_size : ty -> int
(** Fixed on-disk width of a value of this column type, in bytes. *)

val date_of_ymd : year:int -> month:int -> day:int -> t
(** Convenience constructor; no leap-second pedantry, proleptic Gregorian. *)
