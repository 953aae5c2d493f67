(** Write-ahead log manager with segment rotation and archive mode.

    The log is a sequence of {!Log_record.t} framed records spread over
    segment files named [<name>.<base-lsn>].  An LSN is the byte offset in
    the logical log stream.  {!checkpoint} rotates the current segment;
    with [archive:false] pre-checkpoint segments are recycled (deleted),
    with [archive:true] they accumulate — this is the paper's "archiving
    turned on" mode that the log-based delta extractor depends on
    (Section 3, method 4). *)

type t
type lsn = int

val create : Dw_storage.Vfs.t -> name:string -> archive:bool -> t
(** Starts a fresh log (or re-opens one left by a previous run with the
    same name).  On re-open, every adopted segment is scanned and a torn
    tail — a partial record left by a crash mid-append — is truncated back
    to the last whole record, so that subsequent appends never land after
    garbage.  Truncations are counted as [wal.torn_segments] /
    [wal.torn_bytes] in the Vfs metrics registry. *)

val archive_enabled : t -> bool
(** Whether rotated segments are retained (the [archive:true] mode). *)

val metrics : t -> Dw_util.Metrics.t
(** The underlying Vfs registry.  The WAL records [wal.append] and
    [wal.fsync] latency histograms there, besides the torn-tail
    counters. *)

val next_lsn : t -> lsn
(** The LSN the next {!append} will return. *)

val append : t -> Log_record.t -> lsn
(** Returns the LSN the record was placed at.  Does not flush. *)

val flush : t -> unit
(** fsync the current segment (the commit durability point). *)

val checkpoint : t -> active:Log_record.txid list -> lsn
(** Append a checkpoint record, flush, rotate segments; returns the
    checkpoint's LSN.  Without archive mode, fully-checkpointed older
    segments are deleted. *)

val iter_from : t -> lsn -> (lsn -> Log_record.t -> unit) -> unit
(** Replay retained records with LSN >= the argument, in order.  Corrupt
    or torn trailing records terminate iteration (crash semantics) —
    defence in depth; {!create} already truncates torn tails on
    re-open. *)

val iter_all : t -> (lsn -> Log_record.t -> unit) -> unit
(** {!iter_from} from the start of the retained log. *)

val archived_segments : t -> string list
(** File names of rotated segments still on disk, oldest first (empty
    when archiving is off).  These are what gets "shipped" by the
    log-based extractor. *)

val segment_bytes : t -> int
(** Total bytes across retained segments including the current one. *)

val prune_archived : t -> upto:lsn -> int
(** Delete archived (closed) segments consisting entirely of records below
    [upto] — the log-retention companion of watermark-driven extraction:
    once a round has shipped everything below its watermark LSN, the
    segments feeding it can be reclaimed.  Returns the number of segments
    deleted.  The current segment is never touched. *)
