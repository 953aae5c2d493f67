(** Op-Delta — the paper's contribution (Section 4).

    An Op-Delta captures a source {e transaction} as the ordered list of
    {e operations} (SQL statements) it executed, optionally augmented with
    the before images of the rows its UPDATEs and DELETEs affected (hybrid
    capture, {!Opdelta_capture.create} with [~capture_images:true]).  A
    warehouse with replicas re-runs the statements and ignores the images;
    a chunked bootstrap turns them into a value delta ({!value_delta}).

    Properties the paper leans on, all reflected here:
    - {!size_bytes} of a delete/update Op-Delta is independent of how many
      rows the transaction touched — it is the SQL text length;
    - source transaction boundaries are preserved ([txn_id] + one value
      per transaction), so the warehouse can apply each Op-Delta as its
      own transaction, interleaved with OLAP queries;
    - a wire codec ({!encode_line} / {!decode_line}) for shipping through
      files and queues. *)

module Ast = Dw_sql.Ast
module Tuple = Dw_relation.Tuple
module Schema = Dw_relation.Schema

type op = {
  stmt : Ast.stmt;
  before_images : Tuple.t list;
      (** non-empty only in hybrid mode (partial value delta: the before
          image portion, paper Section 4.1) *)
}

type t = {
  txn_id : int;       (** source transaction identifier *)
  ops : op list;      (** statements in execution order *)
}

val make : txn_id:int -> Ast.stmt list -> t
(** All ops without before images. *)

val with_before_images : txn_id:int -> (Ast.stmt * Tuple.t list) list -> t

val size_bytes : ?schema_of:(string -> Schema.t option) -> t -> int

val value_delta : table:string -> schema:Schema.t -> t -> Delta.t
(** The row images of the transaction's changes to [table], in statement
    order: an [Insert] per INSERT row (column lists resolved against
    [schema]), an [Update (before, after)] per UPDATE before image with
    the after image computed from the SET list, a [Delete] per DELETE
    before image.  Statements on other tables contribute nothing.  An
    UPDATE or DELETE captured without hybrid images carries none and so
    yields no change — the Op-Delta's images are a value delta only under
    hybrid capture ({!Opdelta_capture.create}).  Raises
    [Invalid_argument] on an INSERT whose values do not fit [schema]. *)

(** {2 Wire format} — one line per transaction:
    [txn_id <TAB> stmt ; stmt ; ...] with statements SQL-printed.  Hybrid
    before-images ride as ASCII records after a [#] separator per op. *)

val encode_line : ?schema_of:(string -> Schema.t option) -> t -> string
val encode_line_sized : ?schema_of:(string -> Schema.t option) -> t -> string * int
(** {!encode_line} and {!size_bytes} together, from one print of each
    statement. *)

val decode_line : ?schema_of:(string -> Schema.t option) -> string -> (t, string) result
(** [schema_of] resolves each statement's table schema and is required to
    encode/decode before images; without it a line with images is an
    error. *)

val pp : Format.formatter -> t -> unit
