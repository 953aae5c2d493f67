module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value

type handle = {
  source : string;
  trigger_name : string;
  schema : Schema.t;  (* source schema *)
  log : Capture_table.t;
}

(* delta table layout: seq, kind ("I" insert-new / "D" delete-old /
   "O" update-old / "N" update-new), then every source column *)
let delta_schema_of schema =
  Schema.make
    ({ Schema.name = "__seq"; ty = Value.Tint; nullable = false }
     :: { Schema.name = "__kind"; ty = Value.Tstring 1; nullable = false }
     :: Schema.columns schema)

let install db ~table =
  let schema = Table.schema (Db.table db table) in
  let trigger_name = "capture__" ^ table in
  if List.mem trigger_name (Db.triggers_on db table) then
    invalid_arg (Printf.sprintf "Trigger_extract: already installed on %s" table);
  let log = Capture_table.attach db ~name:(table ^ "__delta") (delta_schema_of schema) in
  let write (ctx : Db.trigger_ctx) kind tuple =
    Capture_table.insert ctx.Db.ctx_db ctx.Db.ctx_txn log
      (Array.append [| Value.Null; Value.Str kind |] tuple)
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
  { source = table; trigger_name; schema; log }

let uninstall db h = Db.remove_trigger db ~table:h.source h.trigger_name

let capture_units ~images = float_of_int images
let work_units ~images = float_of_int images

let strip h row = Array.sub row 2 (Schema.arity h.schema)

let read db h ~after =
  let rows = ref [] in
  let last = Capture_table.read db h.log ~after (fun row -> rows := row :: !rows) in
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
  (Delta.make ~table:h.source ~schema:h.schema (to_changes (List.rev !rows)), last)

let collect db h = fst (read db h ~after:0)
let purge db h ~through = Capture_table.purge db h.log ~through
