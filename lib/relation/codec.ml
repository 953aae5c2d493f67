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

let column_offset schema i =
  let pos = ref ((Schema.arity schema + 7) / 8) in
  for j = 0 to i - 1 do
    pos := !pos + Value.encoded_size (Schema.column schema j).Schema.ty
  done;
  !pos

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

(* [s] from [start] to [stop], escapes resolved *)
let unescape s start stop =
  let rec first_escape i = if i = stop || s.[i] = '\\' then i else first_escape (i + 1) in
  let first = first_escape start in
  if first = stop then String.sub s start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    Buffer.add_substring buf s start (first - start);
    let rec go i =
      if i < stop then
        if s.[i] = '\\' && i + 1 < stop then begin
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
    go first;
    Buffer.contents buf
  end

(* the primitive [Printf.sprintf "%.17g"] calls, without parsing the format *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k <= 15: every one is an exact double *)
let pow10 = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))
let two_53 = 9007199254740992.0

(* [f] as [m / 10^k] with the smallest [k <= 6] whose quotient is [f] bit
   for bit, and [|m| < 2^53].  Both operands are then exact, so the
   division rounds the decimal [m * 10^-k] correctly, as [strtod] does
   when it reads it back.  [m] is the integer nearest [f * 10^k], as
   [%.*f] rounds: the rounded product, or its neighbour on the product's
   side when the product's own rounding carried it across a half.
   [-0.0] has [m = -0], which prints as [0]: it keeps the [%.17g] form,
   as do NaN and the infinities (no [m]). *)
let short_decimal f =
  if f = 0.0 && Float.sign_bit f then None
  else
    let bits = Int64.bits_of_float f in
    let rec go k =
      if k > 6 then None
      else
        let p = pow10.(k) in
        let x = f *. p in
        let m = Float.round x in
        let reads_back m =
          Float.abs m < two_53 && Int64.equal (Int64.bits_of_float (m /. p)) bits
        in
        if reads_back m then Some (int_of_float m, k)
        else
          let m' = if x > m then m +. 1.0 else m -. 1.0 in
          if x <> m && reads_back m' then Some (int_of_float m', k) else go (k + 1)
    in
    go 0

let add_float buf f =
  match short_decimal f with
  | None -> Buffer.add_string buf (format_float "%.17g" f)
  | Some (m, 0) -> Buffer.add_string buf (string_of_int m)
  | Some (m, k) ->
    if m < 0 then Buffer.add_char buf '-';
    let digits = string_of_int (abs m) in
    let n = String.length digits in
    if n <= k then begin
      Buffer.add_string buf "0.";
      for _ = 1 to k - n do Buffer.add_char buf '0' done;
      Buffer.add_string buf digits
    end
    else begin
      Buffer.add_substring buf digits 0 (n - k);
      Buffer.add_char buf '.';
      Buffer.add_substring buf digits (n - k) k
    end

let encode_ascii_into schema tuple buf =
  Tuple.validate_exn schema tuple;
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf '|';
      match v with
      | Value.Null -> Buffer.add_string buf "\\0"
      | Value.Int n -> Buffer.add_string buf (string_of_int n)
      | Value.Date d -> Buffer.add_string buf (string_of_int d)
      | Value.Float f -> add_float buf f
      | Value.Bool b -> Buffer.add_string buf (if b then "T" else "F")
      | Value.Str s -> escape_into buf s)
    tuple

let encode_ascii schema tuple =
  let buf = Buffer.create 128 in
  encode_ascii_into schema tuple buf;
  Buffer.contents buf

(* The fast readers of a field take the forms the encoder writes, and
   read them as [int_of_string] and [float_of_string] do; anything else
   goes to those.  An optional '-' then 1..18 digits never overflows. *)
let small_int s start stop =
  let neg = start < stop && s.[start] = '-' in
  let first = if neg then start + 1 else start in
  if stop - first < 1 || stop - first > 18 then None
  else
    let rec go i acc =
      if i = stop then Some (if neg then -acc else acc)
      else
        match s.[i] with
        | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> None
    in
    go first 0

(* [m / 10^k] for an [m] of 16 to 18 digits, which may not be a double:
   the quotient [y] of [m]'s nearest double.  The division's remainder is
   a double, so one fused multiply-add gives it exactly, and with the
   part of [m] the conversion dropped it gives [v - y] for the exact
   decimal [v], to a relative 2^-51.  [y] is [v] correctly rounded when
   that lies inside [y]'s rounding interval (half the gap to the
   neighbour on [v]'s side) by more than the error; otherwise [None], and
   [float_of_string] decides. *)
let checked_quotient m k =
  let p = pow10.(k) in
  let mh = float_of_int m in
  let y = mh /. p in
  let r = Float.fma (-.y) p mh in
  let dropped = float_of_int (m - int_of_float mh) in
  let d = (r +. dropped) /. p in
  let half = if d < 0.0 then (y -. Float.pred y) /. 2.0 else (Float.succ y -. y) /. 2.0 in
  if y >= 0x1p-1000 && Float.abs d < half *. 0.999999 then Some y else None

(* An optional '-', digits, then optionally '.' and digits, 18 digits at
   most.  With 15 digits at most the decimal is [m / 10^k] with
   [m < 10^15 < 2^53] and [k <= 15], both exact, so one IEEE division
   rounds it as [strtod] does; 16 to 18 digits (the [%.17g] form) go
   through [checked_quotient]. *)
let short_float s start stop =
  let neg = start < stop && s.[start] = '-' in
  let first = if neg then start + 1 else start in
  (* [point]: the digits before the '.', or -1 before one is seen *)
  let rec go i m digits point =
    if i = stop then
      if digits = 0 || digits > 18 || point = digits then None
      else
        let k = if point < 0 then 0 else digits - point in
        let v =
          if digits <= 15 then Some (float_of_int m /. pow10.(k))
          else if k < Array.length pow10 then checked_quotient m k
          else None
        in
        match v with Some v when neg -> Some (-.v) | v -> v
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((m * 10) + Char.code c - 48) (digits + 1) point
      | '.' when point < 0 && digits > 0 -> go (i + 1) m digits digits
      | _ -> None
  in
  if stop - first > 19 then None else go first 0 0 (-1)

(* one field of a record, [s] from [start] to [stop], still escaped *)
let decode_field (col : Schema.column) s start stop =
  let len = stop - start in
  let field () = String.sub s start len in
  (* the fast reader, else the standard one on the field's copy *)
  let parsed fast standard what value =
    match fast s start stop with
    | Some x -> Ok (value x)
    | None -> (
        let field = field () in
        match standard field with
        | Some x -> Ok (value x)
        | None -> Error (Printf.sprintf "bad %s %S" what field))
  in
  if len = 2 && s.[start] = '\\' && s.[start + 1] = '0' then Ok Value.Null
  else
    match col.Schema.ty with
    | Value.Tint -> parsed small_int int_of_string_opt "int" (fun n -> Value.Int n)
    | Value.Tdate -> parsed small_int int_of_string_opt "date" (fun n -> Value.Date n)
    | Value.Tfloat -> parsed short_float float_of_string_opt "float" (fun f -> Value.Float f)
    | Value.Tbool ->
      if len = 1 && s.[start] = 'T' then Ok (Value.Bool true)
      else if len = 1 && s.[start] = 'F' then Ok (Value.Bool false)
      else Error (Printf.sprintf "bad bool %S" (field ()))
    | Value.Tstring _ -> Ok (Value.Str (unescape s start stop))

let decode_ascii_sub schema s ~off ~len =
  (* one pass over the record: each unescaped '|' ends a field (an
     escape's two bytes stay in it), which is decoded where it lies;
     fields past the arity are only counted.  Every field is decoded, and
     a bad one reports the last error, but a wrong field count wins *)
  let arity = Schema.arity schema in
  let tuple = Array.make arity Value.Null in
  let err = ref None in
  let count = ref 0 in
  let start = ref off in
  let stop = off + len in
  let cut field_stop =
    if !count < arity then begin
      match decode_field (Schema.column schema !count) s !start field_stop with
      | Ok v -> tuple.(!count) <- v
      | Error e -> err := Some e
    end;
    incr count
  in
  let i = ref off in
  while !i < stop do
    match String.unsafe_get s !i with
    | '|' ->
      cut !i;
      incr i;
      start := !i
    | '\\' when !i + 1 < stop -> i := !i + 2
    | _ -> incr i
  done;
  cut stop;
  if !count <> arity then
    Error (Printf.sprintf "field count %d does not match schema arity %d" !count arity)
  else
    match !err with
    | Some e -> Error e
    | None -> (
        match Tuple.validate schema tuple with Ok () -> Ok tuple | Error e -> Error e)

let decode_ascii schema line = decode_ascii_sub schema line ~off:0 ~len:(String.length line)
