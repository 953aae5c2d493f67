(** Crash recovery: redo committed work, undo losers.

    Three passes over the retained log, in the classic style:

    + {b analysis} — find winners (transactions with a Commit record) and
      losers (Begin without Commit/Abort);
    + {b redo} — reapply every DML record of winning transactions, in LSN
      order, via {!Dw_storage.Heap_file.force_at} (idempotent full-record
      images);
    + {b undo} — reverse losers' DML records in reverse LSN order,
      {e except} records whose rid a committed transaction rewrote at a
      higher LSN: under strict 2PL the winner can only have acquired
      that rid after the loser's rollback completed (typically in a
      previous incarnation, before a second crash), so the redone winner
      image is the correct final state and stale undo must not clobber
      it.

    Aborted transactions' records are skipped in redo and also undone
    (the engine applies changes eagerly, so an abort that didn't finish
    rolling back is completed here). *)

type stats = {
  records_scanned : int;
  winners : int;
  losers : int;
  redone : int;
  undone : int;
  max_txid : int;  (** the highest txid of any retained record, 0 for none *)
}

val run :
  wal:Wal.t ->
  resolve:(string -> Dw_storage.Heap_file.t option) ->
  stats
(** [resolve] maps a table name from the log to its heap file; records for
    unknown tables (dropped since) are skipped. *)
