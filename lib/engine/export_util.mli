(** Export utility: dump a table to a proprietary-format binary file.

    Mirrors commercial DBMS Export (paper, Section 3): the output can only
    be read back by {!Import_util} of the same "product" (a product tag is
    embedded and checked), which is the restrictive constraint the paper
    calls out for the table-output extraction path. *)

type stats = {
  rows : int;
  bytes : int;
}

val export_table :
  Db.t -> table:string -> ?where:Dw_relation.Expr.t -> dest:string -> unit -> stats
(** Write all (matching) rows of [table] into vfs file [dest].  Sequential
    scan + sequential write. *)

(** Reading (used by Import and by tests): *)

val read_header :
  Dw_storage.Vfs.t -> string -> (Dw_relation.Schema.t * int, string) result
(** Schema and row count, or an error for wrong magic/product/corrupt
    header. *)

val iter_records :
  Dw_storage.Vfs.t -> string -> f:(Dw_relation.Tuple.t -> unit) -> (int, string) result
(** Stream all records; returns the count read. *)
