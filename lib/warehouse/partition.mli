(** Partition specifications for the warehouse fact table.

    A spec names the partitioned table, its (integer) partition-key
    column, and the placement method — [Hash n] spreads keys over [n]
    partitions by a fixed multiplicative hash, [Range bounds] splits the
    key space at the given ascending upper-exclusive bounds (so
    [Range [100; 200]] makes three partitions: keys below 100, keys in
    [100, 200), and the rest).  Both methods are total over the integer
    key space: every key routes to exactly one partition, always the
    same one for the same spec.

    Specs are persisted in warehouse metadata (a [__partition_spec]
    table in every shard, written at creation time) so a crashed
    partitioned warehouse can be re-adopted with the placement it was
    built with — see {!Partitioned.reopen} — and a shard can detect
    being attached under the wrong spec. *)

module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Db = Dw_engine.Db

(** Placement method over the integer partition key. *)
type method_ =
  | Hash of int  (** [Hash n]: key [k] goes to [mix k mod n]; [n >= 1] *)
  | Range of int list
      (** [Range bounds]: strictly ascending upper-exclusive split
          points; [List.length bounds + 1] partitions *)

type t
(** A validated partition spec (constructed by {!make}). *)

val make : table:string -> key_column:string -> method_ -> t
(** Validate and build a spec.  Raises [Invalid_argument] on an empty or
    delimiter-bearing table/column name (names may not contain [':'],
    [','] or whitespace), [Hash n] with [n < 1], or [Range] bounds that
    are not strictly ascending. *)

val table : t -> string
(** The partitioned (fact) table's name. *)

val key_column : t -> string
(** The integer column keys are routed by (the table's leading key
    column in every current use). *)

val method_ : t -> method_
(** The placement method the spec was built with. *)

val partitions : t -> int
(** Number of partitions ([n] for [Hash n], [bounds + 1] for [Range]). *)

val route_key : t -> int -> int
(** The partition (in [0, partitions - 1]) owning integer key [k].
    Total and deterministic: same spec, same key, same partition. *)

val route_row : t -> Schema.t -> Tuple.t -> int
(** Route a whole row of the fact table by its partition-key column.
    Raises [Not_found] if [schema] lacks the key column. *)

val to_string : t -> string
(** One-line serialization, e.g. ["hash:parts:part_id:4"] or
    ["range:parts:part_id:100,200"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first malformation.
    [of_string (to_string s)] re-validates, so only specs {!make} would
    accept parse back. *)

val equal : t -> t -> bool
(** Structural equality (same table, key column and method). *)

val spec_table : string
(** Name of the metadata table specs persist into
    ([__partition_spec]). *)

val spec_schema : Schema.t
(** Schema of {!spec_table}: [(id INT KEY, shard INT, spec STRING)] —
    include it in a {!Db.reopen} catalog when re-adopting a shard. *)

val save : Db.t -> shard:int -> t -> unit
(** Persist the spec and this shard's index into [db]'s
    [__partition_spec] table (created on first save, overwritten on
    subsequent ones), inside its own transaction. *)

val load : Db.t -> (int * t) option
(** Read back [(shard index, spec)] persisted by {!save}; [None] if the
    metadata table is absent or empty.  Raises [Invalid_argument] on a
    corrupt spec row. *)
