(** Write-ahead log manager with segment rotation and archive mode.

    The log is a sequence of {!Log_record.t} framed records spread over
    segment files named [<name>.<base-lsn>].  An LSN is the byte offset in
    the logical log stream.  {!checkpoint} rotates the current segment;
    with [archive:false] pre-checkpoint segments are recycled (deleted),
    with [archive:true] they accumulate — this is the paper's "archiving
    turned on" mode that the log-based delta extractor depends on
    (Section 3, method 4).

    {b Log buffer.}  {!append} encodes each frame into one bounded,
    reused buffer of the log; the buffer goes to the device in one Vfs
    write ({!write_out}) at a commit or abort (the caller's
    {!write_out} or {!flush}), at a checkpoint or segment rotation, at
    any log read ({!iter_from}, {!segment_bytes}), and when the next
    frame would not fit.  A caller that writes pages back under steal
    must call {!write_out} first (the write-ahead rule; [Db] installs it
    as the buffer pool's write-back hook).  The bytes on the device, the
    LSNs and the fsyncs are those of writing every frame on its own;
    only the number and size of the writes differ.  The buffer is
    guarded by a mutex, so {!write_out} may run on another domain. *)

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
    counters.  A [wal.append] sample is one log write: the frames
    buffered since the previous one. *)

val next_lsn : t -> lsn
(** The LSN the next {!append} will return. *)

val append : t -> Log_record.t -> lsn
(** Returns the LSN the record was placed at.  The frame waits in the
    log buffer; it reaches the device only if it does not fit there
    after the buffer is written out (a frame larger than the whole
    buffer is written on its own).  A fault writing the buffer out
    raises with nothing appended. *)

val write_out : t -> unit
(** Write the buffered frames to the device in one Vfs write; no fsync.
    Nothing happens when the buffer is empty.  A transient fault leaves
    every frame buffered, so a later write-out retries it. *)

val retract : t -> lsn -> unit
(** [retract t lsn] drops the buffered frames from [lsn] (an LSN
    {!append} returned) on, so that {!next_lsn} is [lsn] again.  Raises
    [Invalid_argument] when a frame from [lsn] on is already on the
    device.  A commit whose write-out failed retracts its Commit frame
    before it logs the Abort. *)

val flush : t -> unit
(** Write out the buffer and fsync the current segment (the commit
    durability point). *)

val checkpoint : t -> active:Log_record.txid list -> lsn
(** Append a checkpoint record, flush, rotate segments; returns the
    checkpoint's LSN.  Without archive mode, fully-checkpointed older
    segments are deleted. *)

val iter_from : t -> lsn -> (lsn -> Log_record.t -> unit) -> unit
(** Replay retained records with LSN >= the argument, in order.  A
    closed segment that ends at or before it (where the next one
    begins) is not read.  Corrupt or torn trailing records terminate
    iteration (crash semantics) — defence in depth; {!create} already
    truncates torn tails on re-open. *)

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
