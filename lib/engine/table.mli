(** A table: heap file + primary-key B+tree + optional timestamp column
    with its own index + attached triggers.

    This module provides the *non-transactional* primitives; {!Db} wraps
    them with locking, logging and trigger firing.  The timestamp column,
    when configured, is set by {!Db} on every insert/update — it is how
    the timestamp-based extraction method of the paper finds deltas. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Heap_file = Dw_storage.Heap_file
module Btree = Dw_storage.Btree

type t

val create :
  pool:Dw_storage.Buffer_pool.t ->
  file:Dw_storage.Vfs.file ->
  name:string ->
  schema:Schema.t ->
  ts_column:string option ->
  t
(** [ts_column], if given, must name a [Tdate] column of the schema;
    it gets a secondary index. *)

val attach :
  rebuild_index:bool ->
  pool:Dw_storage.Buffer_pool.t ->
  file:Dw_storage.Vfs.file ->
  name:string ->
  schema:Schema.t ->
  ts_column:string option ->
  t
(** Re-adopt a heap file that already holds pages (post-crash re-open):
    the heap is attached rather than created and both indexes are rebuilt
    from its live records.  The schema must match the one the file was
    written with.

    [rebuild_index] must be false for callers that run WAL recovery
    next: a crash mid-checkpoint can leave heap pages whose union holds
    one key at two rids (the page with the re-insert flushed, the page
    with the old row's delete not yet), so an index built before
    redo/undo would see duplicate keys — recovery calls
    {!rebuild_indexes} itself once the heap is consistent. *)

val name : t -> string
val schema : t -> Schema.t
val heap : t -> Heap_file.t
val ts_column : t -> string option

val ts_col_idx : t -> int option
(** Position of {!ts_column} in the schema. *)

val raw_insert : t -> Tuple.t -> Heap_file.rid * bytes
(** Inserts and maintains indexes; returns the new rid and the encoded
    record the heap now holds (the image a WAL record logs, so the row
    is encoded once).  Raises [Invalid_argument] on an invalid tuple or
    a duplicate primary key. *)

val raw_insert_blind : t -> bytes -> Heap_file.rid
(** Direct-block load path (ASCII Loader): no key-uniqueness check, no
    index maintenance; call {!rebuild_indexes} afterwards.  This is what
    makes the Loader structurally cheaper than Import in Table 1. *)

val raw_insert_at : t -> Heap_file.rid -> Tuple.t -> unit
(** Re-insert a tuple at an exact rid (the slot must be free — undo of a
    delete).  Keeping the rid stable matters to the snapshot read path:
    version chains are keyed by rid, so a row must never migrate to a
    different slot while old snapshots are live. *)

val raw_update : t -> Heap_file.rid -> old_tuple:Tuple.t -> Tuple.t -> bytes * bytes
(** Overwrites the row in place and maintains indexes; returns the
    encoded record the slot held and the one written (a WAL record's
    before and after images, so neither row is encoded twice). *)

val raw_delete : t -> Heap_file.rid -> old_tuple:Tuple.t -> bytes
(** Frees the row's slot and removes its index entries; returns the
    encoded record the slot held. *)

val raw_delete_through :
  t ->
  Dw_relation.Value.t ->
  victims:((Heap_file.rid * Tuple.t) list -> unit) ->
  (Heap_file.rid -> Tuple.t -> (unit -> bytes) -> unit) ->
  int
(** [raw_delete_through t v ~victims each] deletes every row whose first
    key column is [<= v], found through the primary-key index, and
    returns how many there were.  [victims] sees them all, in rid order,
    before the first slot is freed.  Then for each row, in rid order,
    [each rid tuple free] runs, and must call [free] once: it frees the
    slot and returns the encoded record it held.  The primary-key
    entries then go in one {!Btree.remove_range}.  If [each] raises, the
    index entries of the rows freed so far are removed and the exception
    goes on.  Raises [Invalid_argument] for a composite key whose first
    column is not an INT or DATE below [max_int], where no key range
    ends at [v]. *)

val rebuild_indexes : t -> unit

val find_key : t -> Tuple.t -> (Heap_file.rid * Tuple.t) option
(** Lookup by primary-key tuple (key columns only). *)

val scan : t -> (Heap_file.rid -> Tuple.t -> unit) -> unit

val ts_range : t -> after:int -> (Heap_file.rid -> Tuple.t -> unit) -> unit
(** Rows whose timestamp column is strictly greater than [after], via the
    timestamp index.  Raises [Invalid_argument] if the table has no
    timestamp column. *)

val key_range :
  t ->
  lo:Dw_relation.Value.t option ->
  hi:Dw_relation.Value.t option ->
  (Heap_file.rid -> Tuple.t -> unit) ->
  unit
(** Rows whose first key column lies in the inclusive range, via the
    primary-key index.  An index entry whose heap slot is already free (a
    delete racing a lock-free snapshot reader) is skipped. *)

val row_count : t -> int
val cardinality : t -> int
(** Index cardinality (O(1)); equals {!row_count} when indexes are fresh.
    After {!raw_insert_blind} call {!rebuild_indexes} first. *)
