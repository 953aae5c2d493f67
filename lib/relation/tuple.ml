type t = Value.t array

let validate schema tuple =
  let n = Schema.arity schema in
  if Array.length tuple <> n then
    Error (Printf.sprintf "arity mismatch: schema has %d columns, tuple has %d" n (Array.length tuple))
  else begin
    let rec go i =
      if i >= n then Ok ()
      else
        let col = Schema.column schema i in
        let v = tuple.(i) in
        if not (Value.ty_compatible col.Schema.ty v) then
          Error (Printf.sprintf "column %s: value %s does not fit type %s"
                   col.Schema.name (Value.to_string v) (Value.ty_to_string col.Schema.ty))
        else
          match v with
          | Value.Null when (not col.Schema.nullable) || i < Schema.key_arity schema ->
            Error (Printf.sprintf "column %s: NULL not allowed" col.Schema.name)
          (* an infinity or NaN has no SQL literal, so no statement or
             value delta could carry it to a replica *)
          | Value.Float f when not (Float.is_finite f) ->
            Error (Printf.sprintf "column %s: FLOAT %s is not finite" col.Schema.name
                     (Value.to_string v))
          | Value.Null | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Date _ | Value.Str _ ->
            go (i + 1)
    in
    go 0
  end

let validate_exn schema tuple =
  match validate schema tuple with
  | Ok () -> ()
  | Error e -> invalid_arg ("Tuple.validate: " ^ e)

let key schema tuple = Array.sub tuple 0 (Schema.key_arity schema)

let compare_key schema a b =
  let k = Schema.key_arity schema in
  let rec go i =
    if i >= k then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* lexicographic from index [i]; a proper prefix sorts first.  Top-level,
   so a comparison allocates no closure *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i >= la && i >= lb then 0
  else if i >= la then -1
  else if i >= lb then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b = compare_from a b 0

let equal a b = compare a b = 0

let get schema tuple name = tuple.(Schema.index_of schema name)

let set schema tuple name v =
  let t' = Array.copy tuple in
  t'.(Schema.index_of schema name) <- v;
  t'

let to_string t =
  "(" ^ (Array.to_list t |> List.map Value.to_string |> String.concat ", ") ^ ")"
