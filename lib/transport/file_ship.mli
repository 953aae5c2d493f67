(** File shipping between a source system and the warehouse/staging area
    (the paper's "ftp" transport option).

    Copies a file across {!Dw_storage.Vfs.t} instances in bounded chunks,
    counting bytes.  An optional per-chunk latency cost feeds the
    simulated clock when transport time matters to an experiment.

    Transient destination faults ({!Dw_storage.Vfs.Fault.Transient} from
    an attached fault plan, standing in for a flaky network or device) are
    retried with bounded exponential backoff under equal jitter: each
    pause is half the doubled base plus a uniform random half, drawn from
    a {!Dw_util.Prng.t} seeded by [jitter_seed], so retriers decorrelate
    deterministically.  Chunk writes are idempotent (fixed offsets), so a
    retried transfer still produces byte-identical output.  Retries are
    counted in the destination registry as [retry.ship], each pause is
    observed in the [ship.backoff] histogram, and the total is reported
    in {!stats}. *)

module Vfs = Dw_storage.Vfs

type stats = {
  bytes : int;
  chunks : int;
  retries : int;  (** transient faults absorbed by retry *)
}

val ship_messages :
  ?block_size:int ->   (* default 64 KiB *)
  ?max_retries:int ->  (* per-operation retry budget, default 8 *)
  ?backoff_s:float ->  (* base backoff (doubles per retry, jittered), default 0 = no sleep *)
  ?jitter_seed:int ->  (* backoff jitter PRNG seed, default 0 *)
  dst:Vfs.t ->
  dst_name:string ->
  string list ->
  (stats, string) result
(** Coalesced message shipping: pack the messages — each framed with its
    own [Dw_util.Checksum.fnv1a] — into blocks of at most
    [block_size] bytes (a message never spans two blocks; an oversized
    message gets a block to itself) and write each block as one
    retried, fixed-offset, idempotent write, with a single fsync at the
    end.  Small op-delta messages that would each have cost a ship
    round-trip thus share one; the per-block fill ratio is observed as
    [ship.block_fill] and the message count as [ship.msgs].  Read the
    result back with {!fetch_messages}.  [stats.chunks] is the number
    of blocks written. *)

val fetch_messages : Vfs.t -> name:string -> (string list, string) result
(** Decode a file written by {!ship_messages} back into messages,
    verifying every per-message checksum.  [Error _] on a missing file
    or the first torn/corrupt frame — a block ships whole or not at
    all. *)

val ship :
  ?chunk_size:int ->   (* default 64 KiB *)
  ?max_retries:int ->  (* per-operation retry budget, default 8 *)
  ?backoff_s:float ->  (* base backoff (doubles per retry, jittered), default 0 = no sleep *)
  ?jitter_seed:int ->  (* backoff jitter PRNG seed, default 0 *)
  src:Vfs.t ->
  src_name:string ->
  dst:Vfs.t ->
  dst_name:string ->
  unit ->
  (stats, string) result
(** Overwrites [dst_name].  [Error _] if the source is missing or a
    transient fault persists through the whole retry budget. *)
