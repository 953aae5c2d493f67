module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Heap_file = Dw_storage.Heap_file

type handle = {
  source : string;
  delta_table : string;
  trigger_name : string;
  schema : Schema.t;        (* source schema *)
  delta_schema : Schema.t;
  seq : int ref;
}

(* delta table layout: seq, kind ("I" insert-new / "D" delete-old /
   "O" update-old / "N" update-new), then every source column *)
let delta_schema_of schema =
  Schema.make
    ({ Schema.name = "__seq"; ty = Value.Tint; nullable = false }
     :: { Schema.name = "__kind"; ty = Value.Tstring 1; nullable = false }
     :: Schema.columns schema)

let install db ~table =
  let tbl = Db.table db table in
  let schema = Table.schema tbl in
  let delta_table = table ^ "__delta" in
  let trigger_name = "capture__" ^ table in
  if List.mem trigger_name (Db.triggers_on db table) then
    invalid_arg (Printf.sprintf "Trigger_extract: already installed on %s" table);
  let delta_schema = delta_schema_of schema in
  (match Db.table_opt db delta_table with
   | Some _ -> ()
   | None -> ignore (Db.create_table db ~name:delta_table delta_schema : Table.t));
  let seq = ref 0 in
  let write (ctx : Db.trigger_ctx) kind tuple =
    incr seq;
    let row = Array.append [| Value.Int !seq; Value.Str kind |] tuple in
    ignore (Db.insert ctx.Db.ctx_db ctx.Db.ctx_txn delta_table row : Heap_file.rid)
  in
  let action ctx event =
    match event with
    | Trigger.Inserted (_, after) -> write ctx "I" after
    | Trigger.Deleted (_, before) -> write ctx "D" before
    | Trigger.Updated (_, before, after) ->
      write ctx "O" before;
      write ctx "N" after
  in
  Db.add_trigger db ~table
    { Trigger.name = trigger_name;
      on = [ Trigger.On_insert; Trigger.On_delete; Trigger.On_update ];
      action };
  { source = table; delta_table; trigger_name; schema; delta_schema; seq }

let uninstall db h = Db.remove_trigger db ~table:h.source h.trigger_name

let capture_units ~images = float_of_int images
let work_units ~images = float_of_int images

let strip h row = Array.sub row 2 (Schema.arity h.schema)

let collect ?(drain = false) db h =
  let tbl = Db.table db h.delta_table in
  let rows = ref [] in
  Table.scan tbl (fun _ row -> rows := row :: !rows);
  let rows =
    List.sort
      (fun a b ->
        match a.(0), b.(0) with
        | Value.Int x, Value.Int y -> compare x y
        | _ -> 0)
      !rows
  in
  let rec to_changes = function
    | [] -> []
    | row :: rest -> (
        let kind = match row.(1) with Value.Str s -> s | _ -> "?" in
        match kind, rest with
        | "I", _ -> Delta.Insert (strip h row) :: to_changes rest
        | "D", _ -> Delta.Delete (strip h row) :: to_changes rest
        | "O", next :: rest' when (match next.(1) with Value.Str "N" -> true | _ -> false) ->
          Delta.Update (strip h row, strip h next) :: to_changes rest'
        | "O", _ ->
          (* torn pair (should not happen): degrade to delete *)
          Delta.Delete (strip h row) :: to_changes rest
        | "N", _ -> Delta.Insert (strip h row) :: to_changes rest
        | _, _ -> to_changes rest)
  in
  let delta = Delta.make ~table:h.source ~schema:h.schema (to_changes rows) in
  if drain then
    ignore (Db.with_txn db (fun txn -> Db.delete_where db txn h.delta_table ~where:None) : int);
  delta
