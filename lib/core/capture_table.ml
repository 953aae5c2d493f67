(* The position log under both capture methods: a table keyed by its
   leading [__seq] column (the trigger's delta table, the Op-Delta
   wrapper's DB log).  A consumer reads the rows past its mark in key
   order, commits the last position it read with its output, and only
   then purges the rows through that position.  Private to dw_core.

   Positions are handed out in capture order and never reused: the
   counter starts past the table's largest position, and a purge moves
   it past the position purged through, so a table emptied by a purge
   continues above the consumer's mark after a source reopen too.

   A read stops short of the smallest position a transaction in
   [Db.active_txns] holds.  Every row below that position belongs to a
   finished transaction (an aborted one's rows are undone), so the read
   is the committed state as of a snapshot, and a consumer's mark never
   passes a transaction that commits later. *)

module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value

type t = {
  name : string;
  mutable last : int;  (* the last position handed out *)
  first : (int, int) Hashtbl.t;  (* transaction id -> its first position *)
}

let position (row : Tuple.t) =
  match row.(0) with Value.Int p -> p | _ -> invalid_arg "capture row without a position"

(* the table [name], created when the device never had it; a heap file
   the catalog left out would be overwritten, so that is refused *)
let attach db ~name schema =
  (match Db.table_opt db name with
   | Some _ -> ()
   | None ->
     if Db.has_table_file ~vfs:(Db.vfs db) ~name:(Db.name db) name then
       invalid_arg
         (Printf.sprintf "capture table %s is on the device but not in the catalog" name);
     ignore (Db.create_table db ~name schema : Table.t));
  let last = ref 0 in
  Table.scan (Db.table db name) (fun _ row -> last := max !last (position row));
  { name; last = !last; first = Hashtbl.create 8 }

(* append [row] at the next position (written into its first column)
   inside [txn]; no lock, so open transactions capture side by side *)
let insert db txn t row =
  t.last <- t.last + 1;
  let tx = Db.txid txn in
  if not (Hashtbl.mem t.first tx) then Hashtbl.replace t.first tx t.last;
  row.(0) <- Value.Int t.last;
  Db.append_row db txn t.name row

(* visit the committed rows past [after] in position order, returning
   the last position visited ([after] when none) *)
let read db t ~after visit =
  let active = Db.active_txns db in
  Hashtbl.filter_map_inplace (fun tx p -> if List.mem tx active then Some p else None) t.first;
  let stop = Hashtbl.fold (fun _ p acc -> min p acc) t.first max_int in
  let last = ref after in
  Table.key_range (Db.table db t.name)
    ~lo:(Some (Value.Int (after + 1)))
    ~hi:(Some (Value.Int (stop - 1)))
    (fun _ row ->
      last := position row;
      visit row);
  !last

(* delete the rows through [through] in one key-range statement, and
   hand out positions past it from now on; open transactions hold no
   lock on their rows, which all lie past [through] *)
let purge db t ~through =
  if through > 0 then begin
    t.last <- max t.last through;
    ignore (Db.with_txn db (fun txn -> Db.delete_through db txn t.name (Value.Int through)) : int)
  end
