(** FNV-1a content checksums for small persistent records.

    Every durable frame format in the repo (WAL frames, queue frames and
    offsets) guards its payload with the same 32-bit FNV-1a hash: cheap,
    dependency-free, and good enough to reject torn or bit-flipped tails
    on recovery — these are crash-consistency checks, not cryptographic
    integrity. *)

val fnv1a : ?off:int -> ?len:int -> string -> int
(** 32-bit FNV-1a hash of the [len] bytes at [off] (default: the whole
    string), in [0, 0xffffffff].  The one copy of the hash, for WAL frames
    and queue frames and offsets; its loop is a C stub
    ([checksum_stubs.c]) that allocates nothing.
    Raises [Invalid_argument] when the range is outside the string. *)
