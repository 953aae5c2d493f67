(** Import utility: load an {!Export_util} dump into a table.

    Mirrors the commercial Import the paper measures in Table 1: records
    are first staged through the utility's *own internal pages* (written
    to a staging file and read back — the "extra I/O" the paper points
    at), then inserted through the normal transactional, logged insert
    path.  This is structurally more expensive than {!Ascii_util.load}'s
    direct block writes, which is exactly the Import ≫ Loader gap in
    Table 1. *)

type stats = {
  rows : int;
  staged_bytes : int;   (** bytes written to + read from staging pages *)
  txns : int;           (** commit batches of 1000 rows: [rows / 1000 + 1] *)
}

val import_table :
  Db.t ->
  src:string ->
  table:string ->
  (stats, string) result
(** The destination [table] must exist with a schema equal to the dump's
    (same product constraint is enforced via the header product tag). *)
