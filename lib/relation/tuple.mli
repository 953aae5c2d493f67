(** Tuples: value arrays conforming to a schema. *)

type t = Value.t array

val validate : Schema.t -> t -> (unit, string) result
(** Arity check, per-column type compatibility, null-in-non-nullable and
    null-in-key checks, and a FLOAT must be finite (an infinity or NaN
    has no SQL literal, so no Op-Delta or value delta could carry it). *)

val validate_exn : Schema.t -> t -> unit
(** Raises [Invalid_argument] with the error message. *)

val key : Schema.t -> t -> t
(** The key prefix of the tuple. *)

val compare_key : Schema.t -> t -> t -> int
(** Compare two tuples of the same schema by key columns only. *)

val compare : t -> t -> int
(** Full lexicographic comparison. *)

val equal : t -> t -> bool

val get : Schema.t -> t -> string -> Value.t
(** Field by column name.  Raises [Not_found]. *)

val set : Schema.t -> t -> string -> Value.t -> t
(** Functional update by column name; returns a fresh tuple. *)

val to_string : t -> string
