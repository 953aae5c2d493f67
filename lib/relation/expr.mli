(** Scalar expressions and predicates over tuples.

    This is the expression language of the SQL dialect's [WHERE] clauses,
    [UPDATE ... SET] right-hand sides and projection lists.  Evaluation is
    SQL-style three-valued for comparisons on NULL: a comparison involving
    NULL is false (conservative; adequate for the dialect used by the
    experiments). *)

type binop = Add | Sub | Mul | Div

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | Col of string
  | Lit of Value.t
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t

val compile : Schema.t -> t -> Tuple.t -> Value.t
(** [compile schema e] resolves [e]'s column names against [schema] once
    and returns its evaluator: apply it to each tuple.  Boolean-valued
    nodes yield [Bool]; a comparison with a NULL operand yields
    [Bool false].  The evaluator raises [Not_found] when it reaches an
    unknown column and [Invalid_argument] on type errors. *)

val compile_pred : Schema.t -> t -> Tuple.t -> bool
(** [compile] as a predicate: [Bool b] gives [b]; [Null] gives [false];
    any other result raises [Invalid_argument]. *)

val eval : Schema.t -> Tuple.t -> t -> Value.t
(** [eval schema tuple e] is [compile schema e tuple]: for one tuple. *)

val eval_pred : Schema.t -> Tuple.t -> t -> bool
(** [eval_pred schema tuple e] is [compile_pred schema e tuple]. *)

val columns : t -> string list
(** Column names referenced, without duplicates, in first-use order. *)

val equal : t -> t -> bool

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the SQL-syntax rendering (parenthesised where precedence
    requires); [Parser.parse_expr] reads it back as an equal expression. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val conj : t list -> t option
(** [conj ps] is the AND of all predicates, or [None] for the empty list. *)
