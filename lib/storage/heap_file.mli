(** Heap files: unordered collections of fixed-width records, one per
    table, stored in pages through the buffer pool.

    Rows are addressed by {!rid} (page number, slot).  RIDs are stable
    across updates (fixed-width update-in-place) but are reused after
    deletion. *)

module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple

type rid = { page : int; slot : int }

val rid_compare : rid -> rid -> int
val rid_to_string : rid -> string

type t

val create : Buffer_pool.t -> Vfs.file -> Schema.t -> t
(** Use on a fresh (empty) file. *)

val attach : Buffer_pool.t -> Vfs.file -> Schema.t -> t
(** Re-open a heap file previously created with the same schema. *)

val file : t -> Vfs.file

val insert : t -> Tuple.t -> rid
(** Validates the tuple; appends a page when no free slot exists. *)

val insert_raw : t -> bytes -> rid
(** Insert an already-encoded record (the ASCII loader's direct-block
    path).  The record must be [Schema.record_size] bytes. *)

val get : t -> rid -> Tuple.t
(** Raises [Invalid_argument] for a free or out-of-range rid. *)

val update : t -> rid -> bytes -> bytes
(** Overwrite the record at [rid] with an encoded record
    ([Codec.encode_binary] of a valid tuple) and return the record the
    slot held, as {!delete} does. *)

val delete : t -> rid -> bytes
(** Frees the slot and returns the record it held.  Raises
    [Invalid_argument] for a free or out-of-range rid. *)

val free_rows : t -> (rid * 'a) list -> (rid -> 'a -> unit) -> unit
(** [free_rows t rows freed] frees the slots of [rows] in list order,
    without copying their records out: each run of rows on one page
    under one page latch, then [freed rid x] for each row of the run.  A
    raise leaves every row before it freed, each seen by [freed] before
    the raise reaches the caller, and the rows from it on untouched.
    Raises [Invalid_argument] for a free slot. *)

val iter_pages : t -> from_page:int -> to_page:int -> (rid -> Tuple.t -> unit) -> unit
(** Scan pages [from_page, to_page) in page order (clamped to the file:
    [~from_page:0 ~to_page:max_int] is a full scan),
    copying each page's records out under its frame latch and decoding
    outside it. *)

val copy_page : t -> int -> bytes -> unit
(** [copy_page t pno buf]: page [pno] copied into [buf], read cold
    ({!Buffer_pool.copy_page}): a cached page keeps its place, and one
    that is not cached is read from the device into [buf] without taking
    a frame.  A snapshot scan reads the heap one page at a time this
    way, into one buffer per scan. *)

val count : t -> int
(** Number of live records (scans). *)

val page_count : t -> int
val flush : t -> unit

val force_at : t -> rid -> bytes option -> unit
(** Recovery-only: make the slot state exactly [Some record] (occupied with
    these bytes) or [None] (free), regardless of its current state,
    extending the file with formatted pages as needed.  Idempotent. *)

val exists_at : t -> rid -> bool
(** Is the slot currently occupied?  [false] for out-of-range rids. *)

val get_opt : t -> rid -> Tuple.t option
(** [Some] of the slot's tuple if occupied, [None] otherwise — the
    occupancy check and the read happen under one page latch, so a
    concurrent delete cannot slip between them (unlike pairing
    {!exists_at} with {!get}). *)
