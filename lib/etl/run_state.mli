(** Persistent bootstrap run state, stored {e in the warehouse database}
    so progress commits atomically with the chunk/delta transactions it
    describes (same WAL, same recovery path — after a crash,
    {!Dw_engine.Db.reopen} brings back exactly the progress rows whose
    data also survived).

    One row per bootstrapped table in the [__bootstrap_state] table:
    the run id, the load state, the keyset chunk cursor, the
    applied-through source transaction id (the exactly-once filter for
    queue redelivery), and the [is_running] lease that makes overlapping
    runs impossible.  A small append-only checksummed journal file on the
    warehouse VFS records run/step transitions for observability and
    post-mortems; it is advisory — recovery never depends on it. *)

module Db = Dw_engine.Db

type state =
  | Bootstrapping  (** chunks still loading, or catch-up not finished *)
  | Complete       (** consistent snapshot reached; lease released *)

type row = {
  table : string;        (** source/replica table being bootstrapped *)
  run_id : string;       (** identifies the owning run across resumes *)
  state : state;         (** load state (see above) *)
  next_key : int;        (** first primary key not yet chunk-loaded *)
  chunks_done : int;     (** chunks durably applied *)
  rows_loaded : int;     (** chunk rows durably applied (post-dedup) *)
  last_txn : int;        (** highest source txn id applied (exactly-once mark) *)
  lease_owner : string;  (** "" = no lease held *)
  lease_expiry : float;  (** registry-clock time the lease lapses *)
}

val table_name : string
(** ["__bootstrap_state"]. *)

val schema : Dw_relation.Schema.t
(** Exported so crash-recovery callers can include the state table in
    their {!Db.reopen} catalog. *)

val ensure_table : Db.t -> unit
(** Create [__bootstrap_state] if missing. *)

val get : Db.t -> Db.txn -> table:string -> row option
(** The state row for [table], if a bootstrap ever started. *)

val put : Db.t -> Db.txn -> row -> unit
(** Upsert the state row inside the caller's transaction — callers pass
    the same transaction that applies the chunk or delta, which is the
    whole point. *)

val journal_append : Dw_storage.Vfs.t -> table:string -> string -> unit
(** Append one checksummed record to the table's advisory run journal
    ([bootstrap.<table>.journal]) and fsync. *)

val journal_read : Dw_storage.Vfs.t -> table:string -> string list
(** Valid journal records, oldest first; stops at the first corrupt
    record (torn tail), missing file reads as empty. *)
