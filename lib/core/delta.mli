(** Value deltas — the differential-file representation every extraction
    method of Section 3 produces.

    A value delta carries row {e images}: the after image for inserts, the
    before image for deletes, both for updates.  Timestamp- and
    snapshot-based methods can only observe the final state of a row, so
    they produce [Upsert] entries (and, for snapshots, [Delete]s) without
    intermediate state changes.

    Crucially — and this is the paper's point — a value delta {e loses the
    source transaction boundaries}: it is one flat batch that must be
    applied to the warehouse as an indivisible unit. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple

type change =
  | Insert of Tuple.t                  (** after image *)
  | Delete of Tuple.t                  (** before image *)
  | Update of Tuple.t * Tuple.t        (** before, after *)
  | Upsert of Tuple.t
      (** final-state row from a method that cannot distinguish insert
          from update (timestamp extraction) *)

type t = {
  table : string;
  schema : Schema.t;
  changes : change list;  (** in capture order *)
}

val make : table:string -> schema:Schema.t -> change list -> t

val row_count : t -> int
(** Number of change entries. *)

val image_count : t -> int
(** Number of row images carried (updates carry two). *)

val size_bytes : t -> int
(** Wire volume: record width × {!image_count} — what must travel from
    source to warehouse. *)

val change_key : Schema.t -> change -> Tuple.t

val apply_to_rows : t -> Tuple.t list -> Tuple.t list
(** Replay onto a bag of rows keyed by primary key (model semantics used
    by tests): Insert adds (error if key exists), Delete removes by key,
    Update/Upsert replace by key (Upsert adds when absent). *)

val compact : t -> t
(** Collapse each key's change chain into its net effect (the classic
    differential-file optimisation): insert∘update* → one insert of the
    final image, update∘update → one update from the first before-image
    to the last after-image, insert∘…∘delete → nothing, delete∘insert →
    an update, etc.  [Upsert] entries absorb like updates.  The result
    applies to any base state exactly like the original
    ({!apply_to_rows}-equivalence is property-tested), in at most one
    change per key, ordered by key. *)

(** {2 Differential file} — what a round ships: one line per image, an
    [I]/[D]/[S] tag or, for an update, a [U] line with the before image
    and a [u] line with the after image, then [|] and the ASCII record
    ({!Dw_relation.Codec.encode_ascii}), each line ending in a newline. *)

val to_file : t -> string
(** The whole delta as one string: the empty string for no changes. *)

val of_file : table:string -> schema:Schema.t -> string -> (t, string) result
(** Inverse of {!to_file}, reading each record where it lies in the
    string.  The first bad line's error is returned: a line without a
    tag and [|], an unknown tag, a [U] line not followed by a [u] line,
    or a record that does not decode. *)
