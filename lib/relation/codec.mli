(** Record codecs.

    Two encodings are used throughout the system:

    - {b binary}: fixed-width records (what heap pages, Export dumps and the
      redo log store).  Width is [Schema.record_size]; layout is a null
      bitmap followed by each column at its fixed offset.
    - {b ascii}: one [|]-separated line per record (what the timestamp
      extractor's file output and the ASCII Loader consume, mirroring the
      paper's dump-to-file path). *)

val encode_binary : Schema.t -> Tuple.t -> bytes
(** Fixed-width encoding.  The tuple must validate against the schema. *)

val encode_binary_into : Schema.t -> Tuple.t -> bytes -> int -> unit
(** [encode_binary_into schema tuple buf off] writes in place. *)

val column_offset : Schema.t -> int -> int
(** Byte offset of column [i]'s field within a binary record.  Its NULL
    flag is bit [i mod 8] of the record's byte [i / 8]; an INT or DATE
    field is a little-endian int64, a FLOAT one the float's bits as one. *)

val decode_binary : Schema.t -> bytes -> int -> Tuple.t
(** [decode_binary schema buf off] reads a record at offset [off]. *)

val encode_ascii : Schema.t -> Tuple.t -> string
(** One line, no trailing newline.  [|], [\n] and [\\] in strings are
    escaped.

    A float prints as the shortest decimal [m / 10^k], [k <= 6], that
    reads back bit for bit: the smallest such [k] with [|m| < 2^53]
    ([466.57], not [466.56999999999999]).  Then [m] and [10^k] are exact
    doubles, so their correctly rounded quotient is the double [strtod]
    reads from the decimal.  Every other float, [-0.0] included (its
    [m] would print as [0]), prints as [%.17g], which also reads back
    bit for bit. *)

val encode_ascii_into : Schema.t -> Tuple.t -> Buffer.t -> unit
(** {!encode_ascii} appended to a buffer. *)

val decode_ascii : Schema.t -> string -> (Tuple.t, string) result
(** Inverse of {!encode_ascii}. *)

val decode_ascii_sub : Schema.t -> string -> off:int -> len:int -> (Tuple.t, string) result
(** {!decode_ascii} of the [len] bytes of the string at [off], read where
    they lie: a record inside a larger file. *)

val small_int : string -> int -> int -> int option
(** The integer [s] spells from [start] to [stop]: an optional ['-'] and
    1..18 digits, which never overflow, read as [int_of_string] reads
    them.  [None] for any other form; the caller falls back to
    [int_of_string_opt]. *)

val short_float : string -> int -> int -> float option
(** The decimal [s] spells from [start] to [stop]: an optional ['-'],
    digits, then optionally ['.'] and digits, 18 digits at most.  It reads
    as [float_of_string] reads it, bit for bit: one division of two exact
    doubles up to 15 digits, and from 16 digits (the [%.17g] form a SQL
    float literal prints in) a division whose exact remainder shows it
    rounded correctly.  [None] for any other form, and where that check
    cannot tell. *)
