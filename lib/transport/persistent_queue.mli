(** Persistent queue with transactional dequeue (the paper's "persistent
    queues / fault tolerant logs" transport option).

    Messages are appended to a checksummed log file; the consumer position
    lives in a sidecar offset file that is only advanced by {!ack}.  After
    a crash (or plain re-open) every enqueued-but-unacked message is
    redelivered — at-least-once delivery, which is what a warehouse
    integrator needs to never lose a delta batch.

    Crash hardening on {!open_}: a torn frame at the log tail (crash
    mid-enqueue) is truncated away so later enqueues stay reachable
    ([queue.torn_frames]/[queue.torn_bytes] counters); the sidecar carries
    a checksum and is only honoured when it is whole, checksums cleanly,
    and points at a frame boundary — otherwise the position conservatively
    resets to 0 ([queue.offset_resets]), trading redelivery for the
    guarantee that an unacked message is never skipped.

    {b Batching.}  Each {!enqueue} costs one append plus one fsync and
    each {!ack} one sidecar write plus one fsync.  For streams of small
    op-delta messages that dominates the transport cost, so the queue
    also offers a coalesced path: {!enqueue_batch} appends many frames
    in one durable write, {!peek_run} returns a run of consecutive
    messages, and {!ack_run} consumes the run under a single sidecar
    update.  Per-message framing (and so per-message checksums) is
    preserved on disk — a batch is a packing decision, not a format
    change, and batched and unbatched producers/consumers interoperate
    on the same queue file.

    {b Retries.}  Every mutating call is safe to retry after it raises
    [Vfs.Fault.Transient]: a faulted enqueue truncates its frames back,
    and a faulted ack leaves the in-memory position where it was. *)

module Vfs = Dw_storage.Vfs

type t

val open_ : Vfs.t -> name:string -> t
(** Creates the queue files if missing, otherwise recovers position. *)

val enqueue : t -> string -> unit
(** Durable once the call returns (fsync). *)

val enqueue_batch : t -> string list -> unit
(** Append every payload as its own checksummed frame under a {e single}
    append + fsync — the messages become durable atomically in order
    (a crash mid-call retains a frame-boundary prefix of the batch,
    which {!open_}'s tail repair preserves and at-least-once delivery
    permits).  Observes the batch size into [queue.batch_size].  No-op
    on [[]]. *)

val peek : t -> string option
(** The oldest unacked message; [None] when drained. *)

val peek_run : t -> max:int -> string list
(** Up to [max] consecutive unacked messages starting at the oldest,
    without consuming them; [[]] when drained.  Raises
    [Invalid_argument] if [max < 1].  Pair with {!ack_run} to amortize
    the sidecar fsync over the whole run. *)

val ack : t -> unit
(** Consume the message last returned by {!peek}.  Raises
    [Invalid_argument] if there is nothing to ack. *)

val ack_run : t -> int -> unit
(** Consume the oldest [n] unacked messages under a single sidecar
    write + fsync, observing the run length into [queue.ack_run].
    Raises [Invalid_argument] if [n < 0] or [n > pending t].  No-op on
    [0].  Invalidates any outstanding {!peek}. *)

val pending : t -> int
(** Number of unacked messages. *)

val close : t -> unit
(** Close both files; the queue state stays on the Vfs for re-{!open_}. *)

val enqueued_total : t -> int
(** Messages ever enqueued (including before a re-open). *)

(** {2 Wire format helpers} — the queue's per-message framing
    ([u32 len][u32 fnv1a][payload]) reused by {!File_ship.ship_messages}
    so shipped blocks carry the same per-message checksums as the queue
    log. *)

val encode_frames : string list -> bytes
(** Concatenated checksummed frames, one per payload. *)

val decode_frames : bytes -> (string list, string) result
(** Inverse of {!encode_frames}.  [Error _] describes the first torn or
    corrupt frame (offset included); payloads before it are not
    returned — a shipped block is accepted whole or rejected whole. *)
