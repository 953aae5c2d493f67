type ty = Tint | Tfloat | Tbool | Tdate | Tstring of int

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Date of int
  | Str of string
  | Null

let ty_compatible ty v =
  match ty, v with
  | _, Null -> true
  | Tint, Int _ -> true
  | Tfloat, Float _ -> true
  | Tbool, Bool _ -> true
  | Tdate, Date _ -> true
  | Tstring n, Str s -> String.length s <= n
  | (Tint | Tfloat | Tbool | Tdate | Tstring _), _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Date _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Date x, Date y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Date _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0
let is_null = function Null -> true | Int _ | Float _ | Bool _ | Date _ | Str _ -> false

let arith name fint ffloat a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fint x y)
  | Float x, Float y -> Float (ffloat x y)
  | Int x, Float y -> Float (ffloat (float_of_int x) y)
  | Float x, Int y -> Float (ffloat x (float_of_int y))
  | (Bool _ | Date _ | Str _ | Int _ | Float _), _ ->
    invalid_arg (Printf.sprintf "Value.%s: non-numeric operand" name)

let add a b = arith "add" ( + ) ( +. ) a b
let sub a b = arith "sub" ( - ) ( -. ) a b
let mul a b = arith "mul" ( * ) ( *. ) a b

let div a b =
  match b with
  | Int 0 -> invalid_arg "Value.div: division by zero"
  | Float f when f = 0.0 -> invalid_arg "Value.div: division by zero"
  | _ -> arith "div" ( / ) ( /. ) a b

let ty_to_string = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tbool -> "BOOL"
  | Tdate -> "DATE"
  | Tstring n -> Printf.sprintf "STRING(%d)" n

let ty_of_string s =
  let s = String.uppercase_ascii (String.trim s) in
  match s with
  | "INT" -> Some Tint
  | "FLOAT" -> Some Tfloat
  | "BOOL" -> Some Tbool
  | "DATE" -> Some Tdate
  | _ ->
    if String.length s > 8 && String.sub s 0 7 = "STRING(" && s.[String.length s - 1] = ')' then
      match int_of_string_opt (String.sub s 7 (String.length s - 8)) with
      | Some n when n > 0 -> Some (Tstring n)
      | Some _ | None -> None
    else None

let days_in_month year m =
  let leap = (year mod 4 = 0 && year mod 100 <> 0) || year mod 400 = 0 in
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if leap then 29 else 28
  | _ -> invalid_arg "Value.days_in_month"

let date_of_ymd ~year ~month ~day =
  (* Days since 1970-01-01, proleptic Gregorian; valid for year >= 1970
     which is all the experiments need. *)
  let days = ref 0 in
  if year >= 1970 then begin
    for y = 1970 to year - 1 do
      let leap = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 in
      days := !days + if leap then 366 else 365
    done;
    for m = 1 to month - 1 do
      days := !days + days_in_month year m
    done;
    days := !days + (day - 1)
  end
  else invalid_arg "Value.date_of_ymd: year < 1970 unsupported";
  Date !days

let to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Date d -> Printf.sprintf "#%d" d
  | Str s -> s
  | Null -> "NULL"

(* the primitive [Printf.sprintf "%.17g"] calls, without parsing the format *)
external format_float : string -> float -> string = "caml_format_float"

let to_sql_literal = function
  | Int n -> string_of_int n
  | Float f -> (
    (* keep a decimal point so the literal lexes as a float: [1e+17]
       would read as [1] then the identifier [e], so it prints as [1.0e+17] *)
    let s = format_float "%.17g" f in
    if String.contains s '.' then s
    else
      match String.index_opt s 'e' with
      | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
      | None -> s ^ ".0")
  | Bool b -> if b then "TRUE" else "FALSE"
  | Date d -> Printf.sprintf "DATE %d" d
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | Null -> "NULL"

let encoded_size = function
  | Tint -> 8
  | Tfloat -> 8
  | Tbool -> 1
  | Tdate -> 8
  | Tstring n -> 2 + n
