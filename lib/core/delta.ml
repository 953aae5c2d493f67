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

(* The differential file: one line per image, a tag, '|' and the ASCII
   record, each ending in '\n' ([Codec.encode_ascii] escapes '\n', '|'
   and '\\' inside strings, so a line is always one image).  An update is
   a "U" line with its before image, then a "u" line with its after
   image. *)

module Codec = Dw_relation.Codec

let to_file t =
  let buf = Buffer.create (max 64 (size_bytes t)) in
  let line tag row =
    Buffer.add_char buf tag;
    Buffer.add_char buf '|';
    Codec.encode_ascii_into t.schema row buf;
    Buffer.add_char buf '\n'
  in
  List.iter
    (function
      | Insert after -> line 'I' after
      | Delete before -> line 'D' before
      | Upsert after -> line 'S' after
      | Update (before, after) ->
        line 'U' before;
        line 'u' after)
    t.changes;
  Buffer.contents buf

(* Walks the file line by line, decoding each record where it lies.  A
   last line without its '\n' still counts. *)
let of_file ~table ~schema file =
  let n = String.length file in
  let line_end pos = Option.value (String.index_from_opt file pos '\n') ~default:n in
  let record pos stop = Codec.decode_ascii_sub schema file ~off:(pos + 2) ~len:(stop - pos - 2) in
  let rec go acc pos =
    if pos >= n then Ok (make ~table ~schema (List.rev acc))
    else
      let stop = line_end pos in
      let one change =
        match record pos stop with Ok row -> go (change row :: acc) (stop + 1) | Error e -> Error e
      in
      if stop - pos < 2 || file.[pos + 1] <> '|' then
        Error (Printf.sprintf "bad delta line %S" (String.sub file pos (stop - pos)))
      else
        match file.[pos] with
        | 'I' -> one (fun row -> Insert row)
        | 'D' -> one (fun row -> Delete row)
        | 'S' -> one (fun row -> Upsert row)
        | 'U' ->
          let next = stop + 1 in
          let next_stop = if next < n then line_end next else n in
          if next < n && next_stop - next >= 2 && file.[next] = 'u' && file.[next + 1] = '|' then
            match record pos stop, record next next_stop with
            | Ok before, Ok after -> go (Update (before, after) :: acc) (next_stop + 1)
            | Error e, _ | _, Error e -> Error e
          else Error "update line without its after-image line"
        | c -> Error (Printf.sprintf "unknown delta tag %C" c)
  in
  go [] 0
