(** Fixed-size pages and the heap-page record layout.

    A heap page stores fixed-width records (width given by the table
    schema).  Layout:

    {v
    offset 0   u16  record width
    offset 2   u16  slot capacity
    offset 4   bitmap of used slots, (capacity+7)/8 bytes
    then       capacity * width record bytes
    v} *)

val size : int
(** Page size in bytes (4096). *)

val alloc : unit -> bytes
(** A zeroed page. *)

type slot = int

val init : bytes -> record_width:int -> unit
(** Format an empty heap page for records of the given width.
    Raises [Invalid_argument] if the width doesn't fit a page. *)

val capacity : bytes -> int
val record_width : bytes -> int
val used_count : bytes -> int
val is_used : bytes -> slot -> bool

val insert : bytes -> bytes -> slot option
(** [insert page record] places the record in a free slot; [None] when
    full.  The record must be exactly [record_width page] bytes. *)

val write_slot : bytes -> slot -> bytes -> unit
(** Overwrite a used slot in place (fixed-width update). *)

val slot_off : bytes -> slot -> int
(** Byte offset of the slot's record in the page (no range check): a
    reader decodes it where it lies instead of copying it out with
    {!read_slot}. *)

val read_slot : bytes -> slot -> bytes
(** Raises [Invalid_argument] if the slot is free or out of range. *)

val delete : bytes -> slot -> unit
(** Free the slot.  Raises [Invalid_argument] if already free. *)

val force_use : bytes -> slot -> unit
(** Mark the slot used without writing record bytes (recovery-only;
    followed by {!write_slot}).  No-op if already used. *)

val iter_used : bytes -> (slot -> bytes -> unit) -> unit
(** Visit every used slot in slot order. *)

val max_records_per_page : record_width:int -> int
(** How many records of this width fit one page. *)
