(** Deterministic pseudo-random number generator (splitmix64).

    All workload generation in this repository goes through this module so
    that experiments are reproducible bit-for-bit across runs.  The state is
    explicit: independent streams are obtained with {!split} and never share
    state with each other. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val alpha_string : t -> int -> string
(** [alpha_string t n] is a length-[n] string of lowercase ASCII letters. *)
