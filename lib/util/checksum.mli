(** FNV-1a content checksums for small persistent records.

    Every durable text/frame format in the repo (WAL frames, queue frames,
    bootstrap run journal records) guards its payload with the same
    32-bit FNV-1a hash: cheap, dependency-free, and good enough to reject
    torn or bit-flipped tails on recovery — these are crash-consistency
    checks, not cryptographic integrity. *)

val fnv1a : ?off:int -> ?len:int -> string -> int
(** 32-bit FNV-1a hash of the [len] bytes at [off] (default: the whole
    string), in [0, 0xffffffff].  The one copy of the hash: WAL frames,
    queue frames and offsets, and the bootstrap run journal all use it.
    Raises [Invalid_argument] when the range is outside the string. *)

val hex : string -> string
(** [fnv1a] rendered as 8 lowercase hex digits, for text formats. *)
