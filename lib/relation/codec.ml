let set_i64 buf off v = Bytes.set_int64_le buf off v
let get_i64 buf off = Bytes.get_int64_le buf off

let encode_binary_into schema tuple buf off =
  Tuple.validate_exn schema tuple;
  let n = Schema.arity schema in
  let bitmap_bytes = (n + 7) / 8 in
  Bytes.fill buf off bitmap_bytes '\000';
  (* null bitmap: bit i set = column i is NULL *)
  Array.iteri
    (fun i v ->
      if Value.is_null v then begin
        let byte = off + (i / 8) in
        Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lor (1 lsl (i mod 8))))
      end)
    tuple;
  let pos = ref (off + bitmap_bytes) in
  for i = 0 to n - 1 do
    let col = Schema.column schema i in
    let width = Value.encoded_size col.Schema.ty in
    begin
      match tuple.(i) with
      | Value.Null -> Bytes.fill buf !pos width '\000'
      | Value.Int v -> set_i64 buf !pos (Int64.of_int v)
      | Value.Date v -> set_i64 buf !pos (Int64.of_int v)
      | Value.Float v -> set_i64 buf !pos (Int64.bits_of_float v)
      | Value.Bool v -> Bytes.set buf !pos (if v then '\001' else '\000')
      | Value.Str s ->
        let len = String.length s in
        Bytes.set_uint16_le buf !pos len;
        Bytes.blit_string s 0 buf (!pos + 2) len;
        Bytes.fill buf (!pos + 2 + len) (width - 2 - len) '\000'
    end;
    pos := !pos + width
  done

let encode_binary schema tuple =
  let buf = Bytes.create (Schema.record_size schema) in
  encode_binary_into schema tuple buf 0;
  buf

let decode_binary schema buf off =
  let n = Schema.arity schema in
  let bitmap_bytes = (n + 7) / 8 in
  let is_null i =
    Char.code (Bytes.get buf (off + (i / 8))) land (1 lsl (i mod 8)) <> 0
  in
  let pos = ref (off + bitmap_bytes) in
  Array.init n (fun i ->
      let col = Schema.column schema i in
      let width = Value.encoded_size col.Schema.ty in
      let p = !pos in
      pos := !pos + width;
      if is_null i then Value.Null
      else
        match col.Schema.ty with
        | Value.Tint -> Value.Int (Int64.to_int (get_i64 buf p))
        | Value.Tdate -> Value.Date (Int64.to_int (get_i64 buf p))
        | Value.Tfloat -> Value.Float (Int64.float_of_bits (get_i64 buf p))
        | Value.Tbool -> Value.Bool (Bytes.get buf p <> '\000')
        | Value.Tstring _ ->
          let len = Bytes.get_uint16_le buf p in
          Value.Str (Bytes.sub_string buf (p + 2) len))

(* runs without a byte to escape are copied whole *)
let escape_into buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let escaped =
      match String.unsafe_get s i with
      | '|' -> "\\p"
      | '\n' -> "\\n"
      | '\\' -> "\\\\"
      | _ -> ""
    in
    if String.length escaped > 0 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf escaped;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i < n then
        if s.[i] = '\\' && i + 1 < n then begin
          (match s.[i + 1] with
           | 'p' -> Buffer.add_char buf '|'
           | 'n' -> Buffer.add_char buf '\n'
           | '\\' -> Buffer.add_char buf '\\'
           | c -> Buffer.add_char buf c);
          go (i + 2)
        end
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf
  end

(* the primitive [Printf.sprintf "%.17g"] calls, without parsing the format *)
external format_float : string -> float -> string = "caml_format_float"

let encode_ascii schema tuple =
  Tuple.validate_exn schema tuple;
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf '|';
      match v with
      | Value.Null -> Buffer.add_string buf "\\0"
      | Value.Int n -> Buffer.add_string buf (string_of_int n)
      | Value.Date d -> Buffer.add_string buf (string_of_int d)
      | Value.Float f -> Buffer.add_string buf (format_float "%.17g" f)
      | Value.Bool b -> Buffer.add_string buf (if b then "T" else "F")
      | Value.Str s -> escape_into buf s)
    tuple;
  Buffer.contents buf

(* one field of a line, still escaped *)
let decode_field (col : Schema.column) field =
  if String.equal field "\\0" then Ok Value.Null
  else
    match col.Schema.ty with
    | Value.Tint -> (
        match int_of_string_opt field with
        | Some n -> Ok (Value.Int n)
        | None -> Error (Printf.sprintf "bad int %S" field))
    | Value.Tdate -> (
        match int_of_string_opt field with
        | Some n -> Ok (Value.Date n)
        | None -> Error (Printf.sprintf "bad date %S" field))
    | Value.Tfloat -> (
        match float_of_string_opt field with
        | Some f -> Ok (Value.Float f)
        | None -> Error (Printf.sprintf "bad float %S" field))
    | Value.Tbool -> (
        match field with
        | "T" -> Ok (Value.Bool true)
        | "F" -> Ok (Value.Bool false)
        | _ -> Error (Printf.sprintf "bad bool %S" field))
    | Value.Tstring _ -> Ok (Value.Str (unescape field))

let decode_ascii schema line =
  (* one pass over the line: each unescaped '|' ends a field, which is
     the raw substring (an escape's two bytes stay in it); fields past
     the arity are only counted *)
  let arity = Schema.arity schema in
  let fields = Array.make arity "" in
  let n = String.length line in
  let count = ref 0 in
  let start = ref 0 in
  let cut stop =
    if !count < arity then fields.(!count) <- String.sub line !start (stop - !start);
    incr count
  in
  let i = ref 0 in
  while !i < n do
    match String.unsafe_get line !i with
    | '|' ->
      cut !i;
      incr i;
      start := !i
    | '\\' when !i + 1 < n -> i := !i + 2
    | _ -> incr i
  done;
  cut n;
  if !count <> arity then
    Error (Printf.sprintf "field count %d does not match schema arity %d" !count arity)
  else begin
    (* every field is decoded; a bad one reports the last error *)
    let tuple = Array.make arity Value.Null in
    let err = ref None in
    for j = 0 to arity - 1 do
      match decode_field (Schema.column schema j) fields.(j) with
      | Ok v -> tuple.(j) <- v
      | Error e -> err := Some e
    done;
    match !err with
    | Some e -> Error e
    | None -> (
        match Tuple.validate schema tuple with
        | Ok () -> Ok tuple
        | Error e -> Error e)
  end
