(** Extraction watermarks: the persistent per-table "where did the last
    extraction round stop" state that every periodic delta-extraction
    deployment needs (the [last_modified_date > 12/5/99] of the paper's
    running example, plus the log position for the log-based method).

    State is an append-only journal on a {!Dw_storage.Vfs.t}: every
    {!advance} appends one FNV-1a-checksummed record and fsyncs, so an
    extraction agent that crashes re-extracts at most one round
    (at-least-once, pairing with the transport queue's redelivery).
    {!load} replays the journal and stops at the first record whose
    checksum fails — a torn tail from a crash mid-append falls back to
    the last durable state instead of raising or dropping other tables'
    marks.  The journal grows by one short line per advance and is never
    compacted; watermark traffic is a handful of records per refresh
    round, so growth is negligible next to the data it tracks. *)

type t

type mark = {
  day : int;                  (** last timestamp-watermark extracted through *)
  lsn : Dw_txn.Wal.lsn;       (** first log position NOT yet extracted *)
}

val load : Dw_storage.Vfs.t -> name:string -> t
(** Open (or create) the watermark journal [name], replaying valid
    records; a corrupt tail is truncated away so recovery appends stay
    visible to later loads. *)

val get : t -> table:string -> mark
(** [{ day = -1; lsn = 0 }] for a table never extracted. *)

val advance : t -> table:string -> mark -> unit
(** Persist a new mark.  Marks may only move forward; raises
    [Invalid_argument] on regression. *)

val tables : t -> string list
(** Tables with recorded marks, sorted. *)
