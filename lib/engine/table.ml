module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Heap_file = Dw_storage.Heap_file
module Btree = Dw_storage.Btree

type t = {
  name : string;
  schema : Schema.t;
  heap : Heap_file.t;
  mutable pk : Heap_file.rid Btree.t;
  ts_column : string option;
  ts_col_idx : int option;
  mutable ts_index : Heap_file.rid Btree.t option;  (* keyed by ts :: key columns *)
}

let ts_col_idx_of ~name ~schema ts_column =
  match ts_column with
  | None -> None
  | Some col ->
    let i =
      match Schema.index_of_opt schema col with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Table.create %s: no column %s" name col)
    in
    (match (Schema.column schema i).Schema.ty with
     | Value.Tdate -> Some i
     | Value.Tint | Value.Tfloat | Value.Tbool | Value.Tstring _ ->
       invalid_arg (Printf.sprintf "Table.create %s: ts column %s is not DATE" name col))

let create ~pool ~file ~name ~schema ~ts_column =
  let ts_col_idx = ts_col_idx_of ~name ~schema ts_column in
  {
    name;
    schema;
    heap = Heap_file.create pool file schema;
    pk = Btree.create ();
    ts_column;
    ts_col_idx;
    ts_index = (match ts_col_idx with Some _ -> Some (Btree.create ()) | None -> None);
  }

let name t = t.name
let schema t = t.schema
let heap t = t.heap
let ts_column t = t.ts_column
let ts_col_idx t = t.ts_col_idx

(* the ts index key of [tuple]: its timestamp (column [i]), then its
   primary [key] *)
let ts_key_of i tuple key = Array.append [| tuple.(i) |] key

let ts_key t tuple =
  match t.ts_col_idx with
  | None -> assert false
  | Some i -> ts_key_of i tuple (Tuple.key t.schema tuple)

let index_insert t rid tuple =
  Btree.insert t.pk (Tuple.key t.schema tuple) rid;
  match t.ts_index with
  | Some idx -> Btree.insert idx (ts_key t tuple) rid
  | None -> ()

let index_remove t tuple =
  ignore (Btree.remove t.pk (Tuple.key t.schema tuple) : bool);
  match t.ts_index with
  | Some idx -> ignore (Btree.remove idx (ts_key t tuple) : bool)
  | None -> ()

let find_key t key =
  match Btree.find t.pk key with
  | None -> None
  | Some rid -> Some (rid, Heap_file.get t.heap rid)

(* [Codec.encode_binary] validates the tuple, so encoding comes first:
   an invalid tuple is reported before a key check *)
let raw_insert t tuple =
  let record = Dw_relation.Codec.encode_binary t.schema tuple in
  let key = Tuple.key t.schema tuple in
  if Btree.mem t.pk key then
    invalid_arg
      (Printf.sprintf "Table %s: duplicate primary key %s" t.name (Tuple.to_string key));
  let rid = Heap_file.insert_raw t.heap record in
  index_insert t rid tuple;
  (rid, record)

let raw_insert_blind t record = Heap_file.insert_raw t.heap record

let raw_insert_at t rid tuple =
  let record = Dw_relation.Codec.encode_binary t.schema tuple in
  let key = Tuple.key t.schema tuple in
  if Btree.mem t.pk key then
    invalid_arg
      (Printf.sprintf "Table %s: duplicate primary key %s" t.name (Tuple.to_string key));
  Heap_file.force_at t.heap rid (Some record);
  index_insert t rid tuple

let raw_update t rid ~old_tuple tuple =
  let record = Dw_relation.Codec.encode_binary t.schema tuple in
  let old_key = Tuple.key t.schema old_tuple in
  let new_key = Tuple.key t.schema tuple in
  let same_key = Tuple.compare old_key new_key = 0 in
  if (not same_key) && Btree.mem t.pk new_key then
    invalid_arg
      (Printf.sprintf "Table %s: update collides on key %s" t.name (Tuple.to_string new_key));
  let before = Heap_file.update t.heap rid record in
  (* the update is in place, so the rid is unchanged: an index entry
     whose key did not move already maps to it and is left alone *)
  if not same_key then begin
    ignore (Btree.remove t.pk old_key : bool);
    Btree.insert t.pk new_key rid
  end;
  (match t.ts_index, t.ts_col_idx with
   | Some idx, Some i when not (same_key && Value.equal old_tuple.(i) tuple.(i)) ->
     ignore (Btree.remove idx (ts_key_of i old_tuple old_key) : bool);
     Btree.insert idx (ts_key_of i tuple new_key) rid
   | _ -> ());
  (before, record)

let raw_delete t rid ~old_tuple =
  let record = Heap_file.delete t.heap rid in
  index_remove t old_tuple;
  record

let rebuild_indexes t =
  (* collect, sort once, bulk-load packed trees *)
  let pk_bindings = ref [] in
  let ts_bindings = ref [] in
  Heap_file.iter t.heap (fun rid tuple ->
      let key = Tuple.key t.schema tuple in
      pk_bindings := (key, rid) :: !pk_bindings;
      match t.ts_col_idx with
      | Some i when t.ts_index <> None ->
        ts_bindings := (ts_key_of i tuple key, rid) :: !ts_bindings
      | Some _ | None -> ());
  let sort l = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) l in
  t.pk <- Btree.of_sorted (sort !pk_bindings);
  t.ts_index <-
    (match t.ts_index with Some _ -> Some (Btree.of_sorted (sort !ts_bindings)) | None -> None)

let attach ~rebuild_index ~pool ~file ~name ~schema ~ts_column =
  let ts_col_idx = ts_col_idx_of ~name ~schema ts_column in
  let t =
    {
      name;
      schema;
      heap = Heap_file.attach pool file schema;
      pk = Btree.create ();
      ts_column;
      ts_col_idx;
      ts_index = (match ts_col_idx with Some _ -> Some (Btree.create ()) | None -> None);
    }
  in
  if rebuild_index then rebuild_indexes t;
  t

let scan t f = Heap_file.iter t.heap f

let ts_range t ~after f =
  match t.ts_index, t.ts_col_idx with
  | Some idx, Some _ ->
    (* dates are integral days: ts > after  <=>  ts >= after + 1, and the
       length-1 bound tuple is a prefix-minimum for all composite keys *)
    Btree.iter_range idx ~lo:(Btree.Incl [| Value.Date (after + 1) |]) ~hi:Btree.Unbounded
      (fun _key rid -> f rid (Heap_file.get t.heap rid))
  | (None, _ | _, None) ->
    invalid_arg (Printf.sprintf "Table %s has no timestamp column" t.name)

(* The upper bound that holds exactly the keys whose first column is
   <= [v], if there is one.  A length-1 bound tuple compares below every
   longer tuple with the same first component, so for composite keys the
   inclusive bound is the exclusive bound of the successor. *)
let through_bound t v =
  match v with
  | Value.Int n when n < max_int -> Some (Btree.Excl [| Value.Int (n + 1) |])
  | Value.Date n when n < max_int -> Some (Btree.Excl [| Value.Date (n + 1) |])
  | _ -> if Schema.key_arity t.schema = 1 then Some (Btree.Incl [| v |]) else None

let key_range t ~lo ~hi f =
  let lo = match lo with Some v -> Btree.Incl [| v |] | None -> Btree.Unbounded in
  (* where no exact bound exists, the scan runs to the end: callers
     re-filter every row *)
  let hi =
    match hi with
    | None -> Btree.Unbounded
    | Some v -> Option.value (through_bound t v) ~default:Btree.Unbounded
  in
  (* a lock-free snapshot reader may find the slot already freed by a
     concurrent delete: the row is gone from the heap, not an error *)
  Btree.iter_range t.pk ~lo ~hi (fun _key rid ->
      Option.iter (f rid) (Heap_file.get_opt t.heap rid))

let raw_delete_through t v ~victims:on_victims each =
  let hi =
    match through_bound t v with
    | Some hi -> hi
    | None ->
      invalid_arg
        (Printf.sprintf "Table %s: no key range ends at %s" t.name (Value.to_string v))
  in
  let victims = ref [] in
  Btree.iter_range t.pk ~lo:Btree.Unbounded ~hi (fun _key rid ->
      victims := (rid, Heap_file.get t.heap rid) :: !victims);
  let victims = List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) !victims in
  on_victims victims;
  (* the slots are freed first and the index entries dropped last, as a
     row delete does for each row; if a step fails, the entries of the
     rows already freed go, so an undo can put each row back *)
  let freed = ref [] in
  let free rid tuple () =
    let record = Heap_file.delete t.heap rid in
    freed := tuple :: !freed;
    record
  in
  (match List.iter (fun (rid, tuple) -> each rid tuple (free rid tuple)) victims with
   | () ->
     ignore (Btree.remove_range t.pk ~lo:Btree.Unbounded ~hi : int);
     Option.iter
       (fun idx ->
         List.iter (fun (_, tuple) -> ignore (Btree.remove idx (ts_key t tuple) : bool)) victims)
       t.ts_index
   | exception e ->
     List.iter (index_remove t) !freed;
     raise e);
  List.length victims

let row_count t = Heap_file.count t.heap
let cardinality t = Btree.cardinal t.pk
