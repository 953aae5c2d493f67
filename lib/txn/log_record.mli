(** Redo/undo log records (physiological logging: full record images keyed
    by table name and rid, as in Gray & Reuter's terminology the paper
    cites).

    An [Insert] carries only the after image, a [Delete] only the before
    image, an [Update] both — exactly the images the trigger-based
    value-delta extraction captures, which is what lets the log-based
    extractor of the paper recover value deltas from the archive log. *)

type txid = int

type rid = Dw_storage.Heap_file.rid

type body =
  | Begin
  | Commit
  | Abort
  | Insert of { table : string; rid : rid; after : bytes }
  | Delete of { table : string; rid : rid; before : bytes }
  | Update of { table : string; rid : rid; before : bytes; after : bytes }
  | Checkpoint of txid list  (** transactions active at checkpoint time *)

type t = {
  tx : txid;
  body : body;
}

val encode : t -> bytes
(** Framed and checksummed: [u32 total_len][u32 fnv1a of payload][payload].
    [decode] validates the checksum. *)

val frame_length : t -> int
(** The length of the frame {!encode} returns, computed without
    encoding it. *)

val encode_into : t -> bytes -> off:int -> int
(** [encode_into t buf ~off] writes the bytes {!encode} returns at [off]
    of [buf] and returns their length ({!frame_length}).  Raises
    [Invalid_argument] when the frame does not fit there. *)

val decode : bytes -> off:int -> (t * int, string) result
(** [decode buf ~off] returns the record and the offset just past it. *)

val pp : Format.formatter -> t -> unit
(** Debug printer ([tx] plus the body constructor and its sizes). *)
