module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple

type change =
  | Insert of Tuple.t
  | Delete of Tuple.t
  | Update of Tuple.t * Tuple.t
  | Upsert of Tuple.t

type t = { table : string; schema : Schema.t; changes : change list }

let make ~table ~schema changes = { table; schema; changes }

let row_count t = List.length t.changes

let image_count t =
  List.fold_left
    (fun acc c -> acc + match c with Update _ -> 2 | Insert _ | Delete _ | Upsert _ -> 1)
    0 t.changes

let size_bytes t = Schema.record_size t.schema * image_count t

let change_key schema = function
  | Insert after | Upsert after -> Tuple.key schema after
  | Delete before | Update (before, _) -> Tuple.key schema before

module KeyMap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let apply_to_rows t rows =
  let table =
    List.fold_left
      (fun acc row -> KeyMap.add (Tuple.key t.schema row) row acc)
      KeyMap.empty rows
  in
  let table =
    List.fold_left
      (fun acc change ->
        match change with
        | Insert after ->
          let key = Tuple.key t.schema after in
          if KeyMap.mem key acc then
            invalid_arg
              (Printf.sprintf "Delta.apply_to_rows: insert collides on key %s"
                 (Tuple.to_string key));
          KeyMap.add key after acc
        | Delete before -> KeyMap.remove (Tuple.key t.schema before) acc
        | Update (before, after) ->
          let acc = KeyMap.remove (Tuple.key t.schema before) acc in
          KeyMap.add (Tuple.key t.schema after) after acc
        | Upsert after -> KeyMap.add (Tuple.key t.schema after) after acc)
      table t.changes
  in
  List.map snd (KeyMap.bindings table)

(* net-change state machine per key *)
type net =
  | N_insert of Tuple.t                 (* net: key appears, image *)
  | N_delete of Tuple.t                 (* net: key disappears, before image *)
  | N_update of Tuple.t * Tuple.t       (* net: key changes, first before / last after *)
  | N_upsert of Tuple.t                 (* net: key present with image, prior unknown *)

let step_net current change =
  match current, change with
  | None, Insert a -> Some (N_insert a)
  | None, Delete b -> Some (N_delete b)
  | None, Update (b, a) -> Some (N_update (b, a))
  | None, Upsert a -> Some (N_upsert a)
  | Some (N_insert _), Insert a | Some (N_insert _), Upsert a -> Some (N_insert a)
  | Some (N_insert _), Update (_, a) -> Some (N_insert a)
  | Some (N_insert _), Delete _ -> None
  | Some (N_update (b0, _)), (Update (_, a) | Upsert a | Insert a) -> Some (N_update (b0, a))
  | Some (N_update (b0, _)), Delete _ -> Some (N_delete b0)
  | Some (N_delete b0), (Insert a | Upsert a) -> Some (N_update (b0, a))
  | Some (N_delete b0), Update (_, a) -> Some (N_update (b0, a))
  | Some (N_delete b0), Delete _ -> Some (N_delete b0)
  | Some (N_upsert _), (Insert a | Upsert a | Update (_, a)) -> Some (N_upsert a)
  | Some (N_upsert _), Delete b -> Some (N_delete b)

let compact t =
  let nets =
    List.fold_left
      (fun acc change ->
        let key = change_key t.schema change in
        KeyMap.update key (fun current -> Some (step_net (Option.join current) change)) acc)
      KeyMap.empty t.changes
  in
  let changes =
    KeyMap.bindings nets
    |> List.filter_map (fun (_, net) ->
           match net with
           | None -> None
           | Some (N_insert a) -> Some (Insert a)
           | Some (N_delete b) -> Some (Delete b)
           | Some (N_update (b, a)) -> Some (Update (b, a))
           | Some (N_upsert a) -> Some (Upsert a))
  in
  { t with changes }

(* wire format: TAG|ascii-record, updates carry both images separated by
   an unescaped tab (Codec.encode_ascii never emits raw tabs unescaped —
   it escapes backslash and pipe; tab can appear inside string fields, so
   updates use a dedicated "U|" line followed by a second "u|" line) *)

module Codec = Dw_relation.Codec

let to_lines t =
  List.concat_map
    (fun change ->
      match change with
      | Insert after -> [ "I|" ^ Codec.encode_ascii t.schema after ]
      | Delete before -> [ "D|" ^ Codec.encode_ascii t.schema before ]
      | Upsert after -> [ "S|" ^ Codec.encode_ascii t.schema after ]
      | Update (before, after) ->
        [ "U|" ^ Codec.encode_ascii t.schema before; "u|" ^ Codec.encode_ascii t.schema after ])
    t.changes

let of_lines ~table ~schema lines =
  let decode body = Codec.decode_ascii schema body in
  let rec go acc = function
    | [] -> Ok (make ~table ~schema (List.rev acc))
    | line :: rest ->
      if String.length line < 2 || line.[1] <> '|' then
        Error (Printf.sprintf "bad delta line %S" line)
      else begin
        let body = String.sub line 2 (String.length line - 2) in
        match line.[0], rest with
        | 'I', _ -> (
            match decode body with
            | Ok t -> go (Insert t :: acc) rest
            | Error e -> Error e)
        | 'D', _ -> (
            match decode body with
            | Ok t -> go (Delete t :: acc) rest
            | Error e -> Error e)
        | 'S', _ -> (
            match decode body with
            | Ok t -> go (Upsert t :: acc) rest
            | Error e -> Error e)
        | 'U', after_line :: rest'
          when String.length after_line >= 2 && after_line.[0] = 'u' && after_line.[1] = '|' -> (
            let after_body = String.sub after_line 2 (String.length after_line - 2) in
            match decode body, decode after_body with
            | Ok b, Ok a -> go (Update (b, a) :: acc) rest'
            | Error e, _ | _, Error e -> Error e)
        | 'U', _ -> Error "update line without its after-image line"
        | c, _ -> Error (Printf.sprintf "unknown delta tag %C" c)
      end
  in
  go [] lines
