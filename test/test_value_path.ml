(* The per-record value-delta path against references kept here: the
   Buffer printers against the Format/Printf printers they replaced, the
   lexer against its List.mem/polymorphic-compare form, the one-pass
   ASCII decoder against the list-based one, the one FNV-1a against a
   byte loop, B-tree node edits against a Map model, and a logged
   DELETE's WAL image against the encoded before image.  Plus the
   overflowing-FLOAT regression: the source rejects the UPDATE, and the
   trigger and Op-Delta pipelines reach the same replica. *)

module Vfs = Dw_storage.Vfs
module Btree = Dw_storage.Btree
module Heap_file = Dw_storage.Heap_file
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Codec = Dw_relation.Codec
module Checksum = Dw_util.Checksum
module Lexer = Dw_sql.Lexer
module Parser = Dw_sql.Parser
module Printer = Dw_sql.Printer
module Ast = Dw_sql.Ast
module Log_record = Dw_txn.Log_record
module Wal = Dw_txn.Wal
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Workload = Dw_workload.Workload
module Warehouse = Dw_warehouse.Warehouse
module Pipeline = Dw_etl.Pipeline
module Opdelta_capture = Dw_core.Opdelta_capture
module Op_delta = Dw_core.Op_delta

let test name f = Alcotest.test_case name `Quick f

(* ---------- printers: Buffer vs Format/Printf ---------- *)

module Ref_printer = struct
  (* [Value.to_sql_literal] through [Printf], with the exponent-form
     decimal point put in by a regexp instead of a scan *)
  let literal = function
    | Value.Int n -> string_of_int n
    | Value.Float f ->
      let s = Printf.sprintf "%.17g" f in
      if String.exists (fun c -> c = '.') s then s
      else if String.exists (fun c -> c = 'e') s then
        Str.replace_first (Str.regexp "e") ".0e" s
      else s ^ ".0"
    | Value.Bool b -> if b then "TRUE" else "FALSE"
    | Value.Date d -> Printf.sprintf "DATE %d" d
    | Value.Str s -> "'" ^ Str.global_replace (Str.regexp "'") "''" s ^ "'"
    | Value.Null -> "NULL"

  let binop_str = function Expr.Add -> "+" | Expr.Sub -> "-" | Expr.Mul -> "*" | Expr.Div -> "/"

  let cmp_str = function
    | Expr.Eq -> "=" | Expr.Neq -> "<>" | Expr.Lt -> "<" | Expr.Le -> "<="
    | Expr.Gt -> ">" | Expr.Ge -> ">="

  let prec = function
    | Expr.Or _ -> 1
    | Expr.And _ -> 2
    | Expr.Not _ -> 3
    | Expr.Cmp _ | Expr.Is_null _ | Expr.Is_not_null _ -> 4
    | Expr.Binop ((Expr.Add | Expr.Sub), _, _) -> 5
    | Expr.Binop ((Expr.Mul | Expr.Div), _, _) -> 6
    | Expr.Col _ | Expr.Lit _ -> 7

  (* [Expr.pp] as it was, one [Format.fprintf] per node *)
  let rec pp_prec ctx ppf expr =
    let p = prec expr in
    let parens = p < ctx in
    if parens then Format.pp_print_char ppf '(';
    (match expr with
     | Expr.Col name -> Format.pp_print_string ppf name
     | Expr.Lit v -> Format.pp_print_string ppf (literal v)
     | Expr.Binop (op, a, b) ->
       Format.fprintf ppf "%a %s %a" (pp_prec p) a (binop_str op) (pp_prec (p + 1)) b
     | Expr.Cmp (op, a, b) ->
       Format.fprintf ppf "%a %s %a" (pp_prec (p + 1)) a (cmp_str op) (pp_prec (p + 1)) b
     | Expr.And (a, b) -> Format.fprintf ppf "%a AND %a" (pp_prec (p + 1)) a (pp_prec p) b
     | Expr.Or (a, b) -> Format.fprintf ppf "%a OR %a" (pp_prec (p + 1)) a (pp_prec p) b
     | Expr.Not a -> Format.fprintf ppf "NOT %a" (pp_prec (p + 1)) a
     | Expr.Is_null a -> Format.fprintf ppf "%a IS NULL" (pp_prec (p + 1)) a
     | Expr.Is_not_null a -> Format.fprintf ppf "%a IS NOT NULL" (pp_prec (p + 1)) a);
    if parens then Format.pp_print_char ppf ')'

  let expr e = Format.asprintf "%a" (pp_prec 0) e

  let where = function Some e -> " WHERE " ^ expr e | None -> ""

  let agg_name = function
    | Ast.Count_star | Ast.Count -> "COUNT"
    | Ast.Sum -> "SUM"
    | Ast.Avg -> "AVG"
    | Ast.Min -> "MIN"
    | Ast.Max -> "MAX"

  let item = function
    | Ast.Star -> "*"
    | Ast.Item (e, None) -> expr e
    | Ast.Item (e, Some alias) -> expr e ^ " AS " ^ alias
    | Ast.Agg (fn, e, alias) ->
      Printf.sprintf "%s(%s)%s" (agg_name fn)
        (match e with None -> "*" | Some e -> expr e)
        (match alias with None -> "" | Some a -> " AS " ^ a)

  let names kw = function [] -> "" | l -> kw ^ String.concat ", " l

  (* [Printer.to_string] as it was: [Printf] and [String.concat] *)
  let stmt = function
    | Ast.Select { items; table; where = w; group_by; order_by } ->
      Printf.sprintf "SELECT %s FROM %s%s%s%s"
        (String.concat ", " (List.map item items))
        table (where w) (names " GROUP BY " group_by) (names " ORDER BY " order_by)
    | Ast.Insert { table; columns; rows } ->
      let cols = match columns with None -> "" | Some cs -> " (" ^ String.concat ", " cs ^ ")" in
      let row vs = "(" ^ String.concat ", " (List.map literal vs) ^ ")" in
      Printf.sprintf "INSERT INTO %s%s VALUES %s" table cols
        (String.concat ", " (List.map row rows))
    | Ast.Update { table; sets; where = w } ->
      Printf.sprintf "UPDATE %s SET %s%s" table
        (String.concat ", " (List.map (fun (c, e) -> Printf.sprintf "%s = %s" c (expr e)) sets))
        (where w)
    | Ast.Delete { table; where = w } -> Printf.sprintf "DELETE FROM %s%s" table (where w)
    | Ast.Create_table _ -> invalid_arg "Ref_printer.stmt: not generated"
end

(* generated statements, plus SELECTs with aggregates, aliases, GROUP BY
   and ORDER BY, which [Test_sql.gen_stmt] leaves out *)
let gen_print_stmt =
  let open QCheck2.Gen in
  let gen_expr = int_range 0 6 >>= Test_sql.gen_expr_sized in
  let gen_item =
    oneof
      [
        map2 (fun e alias -> Ast.Item (e, alias)) gen_expr (option Test_sql.gen_ident);
        map3
          (fun fn e alias -> Ast.Agg (fn, e, alias))
          (oneofl [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ])
          (map Option.some gen_expr) (option Test_sql.gen_ident);
        map (fun alias -> Ast.Agg (Ast.Count_star, None, alias)) (option Test_sql.gen_ident);
      ]
  in
  let names = list_size (int_range 0 2) Test_sql.gen_ident in
  oneof
    [
      Test_sql.gen_stmt;
      map
        (fun (items, table, where, (group_by, order_by)) ->
          Ast.Select { items; table; where; group_by; order_by })
        (quad (list_size (int_range 1 3) gen_item) Test_sql.gen_ident (option gen_expr)
           (pair names names));
    ]

let prop_printers_match =
  QCheck2.Test.make ~name:"Buffer printers match the Format/Printf printers" ~count:500
    ~print:Ref_printer.stmt gen_print_stmt (fun stmt ->
      let want = Ref_printer.stmt stmt in
      String.equal (Printer.to_string stmt) want
      && String.equal (Format.asprintf "%a" Printer.pp stmt) want
      &&
      match stmt with
      | Ast.Update { sets; _ } ->
        List.for_all
          (fun (_, e) ->
            let want = Ref_printer.expr e in
            String.equal (Expr.to_string e) want
            && String.equal (Format.asprintf "%a" Expr.pp e) want)
          sets
      | Ast.Select _ | Ast.Insert _ | Ast.Delete _ | Ast.Create_table _ -> true)

let prop_float_literal_reads_back =
  QCheck2.Test.make ~name:"every finite float literal reads back bit for bit" ~count:1000
    ~print:(fun f -> Printf.sprintf "%h" f)
    Test_sql.gen_finite_float (fun f ->
      match Parser.parse_expr (Value.to_sql_literal (Value.Float f)) with
      | Ok (Expr.Lit (Value.Float g)) -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Ok _ | Error _ -> false)

(* ---------- lexer: keyword table vs List.mem ---------- *)

(* [Lexer.tokenize] as it was, with polymorphic compares on the error
   state and [List.mem] over the keywords; the only change is that a
   float literal out of range is an error *)
let ref_tokenize input =
  let open Lexer in
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') in
  let is_digit c = c >= '0' && c <= '9' in
  let n = String.length input in
  let tokens = ref [] in
  let error = ref None in
  let emit tok = tokens := tok :: !tokens in
  let rec go i =
    if !error <> None then ()
    else if i >= n then emit EOF
    else
      let c = input.[i] in
      match c with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | '*' -> emit STAR; go (i + 1)
      | '.' -> emit DOT; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | '+' -> emit PLUS; go (i + 1)
      | '-' -> emit MINUS; go (i + 1)
      | '/' -> emit SLASH; go (i + 1)
      | '=' -> emit EQ; go (i + 1)
      | '<' ->
        if i + 1 < n && input.[i + 1] = '=' then begin emit LE; go (i + 2) end
        else if i + 1 < n && input.[i + 1] = '>' then begin emit NEQ; go (i + 2) end
        else begin emit LT; go (i + 1) end
      | '>' ->
        if i + 1 < n && input.[i + 1] = '=' then begin emit GE; go (i + 2) end
        else begin emit GT; go (i + 1) end
      | '!' when i + 1 < n && input.[i + 1] = '=' -> emit NEQ; go (i + 2)
      | '\'' ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then begin
            error := Some (Printf.sprintf "unterminated string starting at %d" i);
            j
          end
          else if input.[j] = '\'' then
            if j + 1 < n && input.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              str (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf input.[j];
            str (j + 1)
          end
        in
        let next = str (i + 1) in
        if !error = None then begin
          emit (STRING (Buffer.contents buf));
          go next
        end
      | c when is_digit c ->
        let j = ref i in
        while !j < n && is_digit input.[!j] do incr j done;
        let is_float = !j < n && input.[!j] = '.' && !j + 1 < n && is_digit input.[!j + 1] in
        if is_float then begin
          incr j;
          while !j < n && is_digit input.[!j] do incr j done;
          if !j < n && (input.[!j] = 'e' || input.[!j] = 'E') then begin
            let k = ref (!j + 1) in
            if !k < n && (input.[!k] = '+' || input.[!k] = '-') then incr k;
            if !k < n && is_digit input.[!k] then begin
              while !k < n && is_digit input.[!k] do incr k done;
              j := !k
            end
          end;
          match float_of_string_opt (String.sub input i (!j - i)) with
          | Some f when Float.is_finite f -> emit (FLOAT f); go !j
          | Some _ | None -> error := Some (Printf.sprintf "bad float at %d" i)
        end
        else begin
          match int_of_string_opt (String.sub input i (!j - i)) with
          | Some v -> emit (INT v); go !j
          | None -> error := Some (Printf.sprintf "bad int at %d" i)
        end
      | c when is_ident_start c ->
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do incr j done;
        let word = String.sub input i (!j - i) in
        let upper = String.uppercase_ascii word in
        if List.mem upper keywords then emit (KW upper) else emit (IDENT word);
        go !j
      | c -> error := Some (Printf.sprintf "unexpected character %C at %d" c i)
  in
  go 0;
  match !error with Some e -> Error e | None -> Ok (List.rev !tokens)

(* characters the lexer treats specially, digits and exponent letters
   weighted up so numbers of every shape (and out-of-range ones) occur *)
let gen_sqlish =
  QCheck2.Gen.(
    string_size (int_range 0 40)
      ~gen:
        (frequency
           [
             (4, char_range '0' '9');
             (2, oneofl [ 'e'; 'E'; '.'; '+'; '-' ]);
             (3, char_range 'a' 'z');
             (1, char_range 'A' 'Z');
             (2, oneofl [ ' '; '\''; '('; ')'; ','; '*'; ';'; '='; '<'; '>'; '!'; '/'; '_' ]);
             (1, oneofl [ '@'; '"'; '\t'; '\n'; '#' ]);
           ]))

let gen_lexer_input =
  QCheck2.Gen.(
    oneof
      [
        map Printer.to_string gen_print_stmt;
        gen_sqlish;
        map (fun (a, b) -> a ^ " " ^ b)
          (pair (oneofl ("1.0e400" :: "99999999999999999999" :: Lexer.keywords)) gen_sqlish);
      ])

let prop_lexer_matches =
  QCheck2.Test.make ~name:"lexer matches its List.mem form, errors included" ~count:1000
    ~print:(Printf.sprintf "%S") gen_lexer_input (fun input ->
      match Lexer.tokenize input, ref_tokenize input with
      | Ok got, Ok want -> got = want
      | Error got, Error want -> String.equal got want
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ---------- decode_ascii: one pass vs split list ---------- *)

(* [Codec.decode_ascii] as it was: split into a list, decode with
   [List.mapi], the last bad field's error wins *)
let ref_decode_ascii schema line =
  let unescape s =
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
  in
  let split_fields line =
    let fields = ref [] in
    let buf = Buffer.create 32 in
    let n = String.length line in
    let rec go i =
      if i >= n then fields := Buffer.contents buf :: !fields
      else
        match line.[i] with
        | '|' ->
          fields := Buffer.contents buf :: !fields;
          Buffer.clear buf;
          go (i + 1)
        | '\\' when i + 1 < n ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf line.[i + 1];
          go (i + 2)
        | c ->
          Buffer.add_char buf c;
          go (i + 1)
    in
    go 0;
    List.rev !fields
  in
  let fields = split_fields line in
  if List.length fields <> Schema.arity schema then
    Error
      (Printf.sprintf "field count %d does not match schema arity %d" (List.length fields)
         (Schema.arity schema))
  else begin
    let result = ref (Ok ()) in
    let bad fmt field = result := Error (Printf.sprintf fmt field); Value.Null in
    let tuple =
      Array.of_list
        (List.mapi
           (fun i field ->
             let col = Schema.column schema i in
             if field = "\\0" then Value.Null
             else
               match col.Schema.ty with
               | Value.Tint -> (
                   match int_of_string_opt field with
                   | Some n -> Value.Int n
                   | None -> bad "bad int %S" field)
               | Value.Tdate -> (
                   match int_of_string_opt field with
                   | Some n -> Value.Date n
                   | None -> bad "bad date %S" field)
               | Value.Tfloat -> (
                   match float_of_string_opt field with
                   | Some f -> Value.Float f
                   | None -> bad "bad float %S" field)
               | Value.Tbool -> (
                   match field with
                   | "T" -> Value.Bool true
                   | "F" -> Value.Bool false
                   | _ -> bad "bad bool %S" field)
               | Value.Tstring _ -> Value.Str (unescape field))
           fields)
    in
    match !result with
    | Error e -> Error e
    | Ok () -> ( match Tuple.validate schema tuple with Ok () -> Ok tuple | Error e -> Error e)
  end

let codec_schema =
  Schema.make
    [
      { Schema.name = "k"; ty = Value.Tint; nullable = false };
      { Schema.name = "s"; ty = Value.Tstring 12; nullable = true };
      { Schema.name = "f"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "b"; ty = Value.Tbool; nullable = true };
      { Schema.name = "d"; ty = Value.Tdate; nullable = false };
    ]

(* [m / 10^k] with [k <= 6]: a decimal of at most six places, as a
   price column holds *)
let gen_short_decimal =
  QCheck2.Gen.(
    map2
      (fun m k -> float_of_int m /. (10.0 ** float_of_int k))
      (int_range (-1_000_000_000) 1_000_000_000)
      (int_range 0 6))

(* random bits, the edge values and short decimals *)
let gen_float = QCheck2.Gen.oneof [ Test_sql.gen_finite_float; gen_short_decimal ]

let gen_row =
  QCheck2.Gen.(
    let nullable g = frequency [ (1, pure Value.Null); (4, g) ] in
    map
      (fun (k, s, f, (b, d)) -> [| Value.Int k; s; f; b; Value.Date d |])
      (quad (int_range (-1000) 1000)
         (nullable
            (map
               (fun s -> Value.Str s)
               (string_size (int_range 0 12)
                  ~gen:(oneof [ char_range 'a' 'z'; oneofl [ '|'; '\\'; '\n'; '\t'; 'p'; '0' ] ]))))
         (nullable (map (fun f -> Value.Float f) gen_float))
         (pair (nullable (map (fun b -> Value.Bool b) bool)) (int_range 0 30000))))

(* an encoded row, then a few edits that land on separators, escapes and
   field contents: wrong field counts, bad numbers, stray escapes *)
let gen_ascii_line =
  QCheck2.Gen.(
    let edit line =
      map3
        (fun pos c mode ->
          let n = String.length line in
          let pos = if n = 0 then 0 else pos mod (n + 1) in
          let before = String.sub line 0 pos and after = String.sub line pos (n - pos) in
          match mode with
          | 0 -> before ^ String.make 1 c ^ after
          | 1 when n > pos -> before ^ String.sub after 1 (String.length after - 1)
          | _ ->
            before ^ String.make 1 c ^ if n > pos then String.sub after 1 (n - pos - 1) else "")
        nat
        (oneofl [ '|'; '\\'; 'x'; '0'; '.'; 'e'; 'T'; 'n'; 'i'; '-' ])
        (int_range 0 2)
    in
    oneof
      [
        map (Codec.encode_ascii codec_schema) gen_row;
        map (Codec.encode_ascii codec_schema) gen_row >>= edit;
        map (Codec.encode_ascii codec_schema) gen_row >>= edit >>= edit >>= edit;
        oneofl [ "1|\\0|inf|T|3"; "1|\\0|nan|\\0|3"; "1|a|1e400|T|3"; "\\0|\\0|\\0|\\0|\\0"; "" ];
        string_size (int_range 0 30) ~gen:(oneofl [ '|'; '\\'; '1'; 'T'; '0'; 'a' ]);
      ])

let same_tuple a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match x, y with
         | Value.Float f, Value.Float g ->
           Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
         | _ -> Value.equal x y)
       a b

let prop_decode_matches =
  QCheck2.Test.make ~name:"one-pass decode_ascii matches the list decoder, errors included"
    ~count:1000 ~print:(Printf.sprintf "%S") gen_ascii_line (fun line ->
      match Codec.decode_ascii codec_schema line, ref_decode_ascii codec_schema line with
      | Ok got, Ok want -> same_tuple got want
      | Error got, Error want -> String.equal got want
      | Ok _, Error _ | Error _, Ok _ -> false)

(* the shortest [%.*f] form, [k <= 6], that reads back bit for bit
   with fewer than 2^53 as its digits; else [%.17g], and always for
   [-0.0] *)
let ref_float f =
  let reads_back s =
    let digits = String.concat "" (String.split_on_char '.' s) in
    Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float f)
    && Float.abs (float_of_string digits) < 9007199254740992.0
  in
  let rec go k =
    if k > 6 || Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (-0.0)) then
      Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.*f" k f in
      if Float.is_finite f && reads_back s then s else go (k + 1)
  in
  go 0

(* [Codec.encode_ascii] through [Printf] floats, a closure per byte *)
let ref_encode_ascii row =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf '|';
      match v with
      | Value.Null -> Buffer.add_string buf "\\0"
      | Value.Int n | Value.Date n -> Buffer.add_string buf (string_of_int n)
      | Value.Float f -> Buffer.add_string buf (ref_float f)
      | Value.Bool b -> Buffer.add_string buf (if b then "T" else "F")
      | Value.Str s ->
        String.iter
          (function
            | '|' -> Buffer.add_string buf "\\p"
            | '\n' -> Buffer.add_string buf "\\n"
            | '\\' -> Buffer.add_string buf "\\\\"
            | c -> Buffer.add_char buf c)
          s)
    row;
  Buffer.contents buf

let prop_ascii_roundtrip =
  QCheck2.Test.make ~name:"encode_ascii matches its Printf form and decodes back" ~count:500
    gen_row (fun row ->
      let line = Codec.encode_ascii codec_schema row in
      String.equal line (ref_encode_ascii row)
      &&
      match Codec.decode_ascii codec_schema line with
      | Ok back -> same_tuple row back
      | Error _ -> false)

(* ---------- FNV-1a vs a byte loop ---------- *)

(* the per-byte masked loop each copy of the hash used to run *)
let ref_fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let prop_fnv1a_matches =
  QCheck2.Test.make ~name:"Checksum.fnv1a matches the byte loop on any range" ~count:1000
    QCheck2.Gen.(triple (string_size (int_range 0 200) ~gen:char) nat nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      Checksum.fnv1a s = ref_fnv1a s
      && Checksum.fnv1a ~off s = ref_fnv1a (String.sub s off (n - off))
      && Checksum.fnv1a ~off ~len s = ref_fnv1a (String.sub s off len))

let fnv1a_rejects_bad_ranges () =
  List.iter
    (fun (off, len) ->
      match Checksum.fnv1a ~off ~len "abcd" with
      | _ -> Alcotest.failf "range %d+%d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, 5); (3, 2); (5, 0); (1, -1) ]

(* ---------- B-tree node edits vs a Map model ---------- *)

module Int_map = Map.Make (Int)

type btree_op = Put of int | Take of int | Take_range of Btree.bound * Btree.bound

(* insert or remove of a small key range, so removes often hit and
   nodes split, borrow and merge at branching 4; a range removal
   rebuilds the tree from any number of kept keys *)
let gen_btree_ops =
  QCheck2.Gen.(
    let bound =
      frequency
        [
          (1, return Btree.Unbounded);
          (3, map (fun k -> Btree.Incl [| Value.Int k |]) (int_range (-2) 62));
          (2, map (fun k -> Btree.Excl [| Value.Int k |]) (int_range (-2) 62));
        ]
    in
    pair (oneofl [ 4; 6; 8 ])
      (list_size (int_range 1 400)
         (frequency
            [
              (10, map (fun k -> Put k) (int_range 0 60));
              (10, map (fun k -> Take k) (int_range 0 60));
              (1, map2 (fun lo hi -> Take_range (lo, hi)) bound bound);
            ])))

let in_bounds lo hi k =
  let key = [| Value.Int k |] in
  (match lo with
   | Btree.Unbounded -> true
   | Btree.Incl b -> Tuple.compare key b >= 0
   | Btree.Excl b -> Tuple.compare key b > 0)
  &&
  match hi with
  | Btree.Unbounded -> true
  | Btree.Incl b -> Tuple.compare key b <= 0
  | Btree.Excl b -> Tuple.compare key b < 0

let prop_btree_matches_map =
  QCheck2.Test.make ~name:"B-tree insert/remove streams match a Map, invariants hold" ~count:200
    gen_btree_ops (fun (branching, ops) ->
      let tree = Btree.create ~branching () in
      let key k = [| Value.Int k |] in
      let step model op =
        let model =
          match op with
          | Put k ->
            Btree.insert tree (key k) (-k);
            Int_map.add k (-k) model
          | Take k ->
            let was = Btree.remove tree (key k) in
            if was <> Int_map.mem k model then Alcotest.failf "remove %d returned %b" k was;
            Int_map.remove k model
          | Take_range (lo, hi) ->
            let doomed, kept = Int_map.partition (fun k _ -> in_bounds lo hi k) model in
            let n = Btree.remove_range tree ~lo ~hi in
            if n <> Int_map.cardinal doomed then
              Alcotest.failf "remove_range removed %d, want %d" n (Int_map.cardinal doomed);
            kept
        in
        (match Btree.check_invariants tree with
         | Ok () -> ()
         | Error e -> Alcotest.failf "after an op on %d keys: %s" (Int_map.cardinal model) e);
        if Btree.cardinal tree <> Int_map.cardinal model then Alcotest.fail "cardinal";
        model
      in
      let model = List.fold_left step Int_map.empty ops in
      List.equal
        (fun (k, v) (k', v') -> Tuple.equal k k' && Int.equal v v')
        (Btree.to_list tree)
        (List.map (fun (k, v) -> (key k, v)) (Int_map.bindings model)))

(* ---------- a logged DELETE carries the encoded before image ---------- *)

type wal_op = Ins of Tuple.t | Upd of int * Tuple.t | Del_where of int * int | Del_rid of int

let gen_wal_ops =
  QCheck2.Gen.(
    list_size (int_range 5 60)
      (frequency
         [
           (4, map (fun r -> Ins r) gen_row);
           (2, map2 (fun k r -> Upd (k, r)) (int_range (-1000) 1000) gen_row);
           (2, map2 (fun lo w -> Del_where (lo, lo + w)) (int_range (-1000) 1000)
                 (int_range 0 300));
           (2, map (fun k -> Del_rid k) (int_range (-1000) 1000));
         ]))

let key_of row = match row.(0) with Value.Int k -> k | _ -> assert false

let prop_delete_logs_before_image =
  QCheck2.Test.make ~name:"a logged DELETE's image is the encoded before image" ~count:100
    gen_wal_ops (fun ops ->
      let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
      ignore (Db.create_table db ~name:"t" codec_schema : Table.t);
      (* the row each key holds, and the image each deleted key had *)
      let live = Hashtbl.create 64 in
      let deleted = Hashtbl.create 64 in
      let find txn k =
        match Db.find_by_key db txn "t" [| Value.Int k |] with
        | Some found -> found
        | None -> Alcotest.failf "key %d not found" k
      in
      List.iter
        (fun op ->
          Db.with_txn db (fun txn ->
              match op with
              | Ins row ->
                let k = key_of row in
                if not (Hashtbl.mem live k || Hashtbl.mem deleted k) then begin
                  ignore (Db.insert db txn "t" row : Heap_file.rid);
                  Hashtbl.replace live k row
                end
              | Upd (k, row) ->
                (* any live key, overwritten in place with a new image *)
                let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] |> List.sort compare in
                if keys <> [] then begin
                  let k = List.nth keys (abs k mod List.length keys) in
                  let row = Array.copy row in
                  row.(0) <- Value.Int k;
                  Db.update_row db txn "t" (find txn k) row;
                  Hashtbl.replace live k row
                end
              | Del_where (lo, hi) ->
                let where =
                  Expr.And
                    ( Expr.Cmp (Expr.Ge, Expr.Col "k", Expr.Lit (Value.Int lo)),
                      Expr.Cmp (Expr.Le, Expr.Col "k", Expr.Lit (Value.Int hi)) )
                in
                let victims =
                  Hashtbl.fold
                    (fun k row acc -> if k >= lo && k <= hi then (k, row) :: acc else acc)
                    live []
                in
                let n = Db.delete_where db txn "t" ~where:(Some where) in
                if n <> List.length victims then
                  Alcotest.failf "deleted %d, want %d" n (List.length victims);
                List.iter
                  (fun (k, row) ->
                    Hashtbl.remove live k;
                    Hashtbl.replace deleted k row)
                  victims
              | Del_rid k -> (
                  match Hashtbl.find_opt live k with
                  | None -> ()
                  | Some row ->
                    Db.delete_row db txn "t" (find txn k);
                    Hashtbl.remove live k;
                    Hashtbl.replace deleted k row)))
        ops;
      let logged = ref 0 in
      Wal.iter_all (Db.wal db) (fun _ r ->
          match r.Log_record.body with
          | Log_record.Delete { before; _ } ->
            incr logged;
            let k = key_of (Codec.decode_binary codec_schema before 0) in
            let want = Codec.encode_binary codec_schema (Hashtbl.find deleted k) in
            if not (Bytes.equal before want) then Alcotest.failf "key %d: image differs" k
          | Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.Insert _
          | Log_record.Update _ | Log_record.Checkpoint _ ->
            ());
      !logged = Hashtbl.length deleted)

let heap_delete_returns_record () =
  let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let table = Db.create_table db ~name:"t" codec_schema in
  let row = [| Value.Int 7; Value.Str "a|b"; Value.Null; Value.Bool true; Value.Date 3 |] in
  let rid, written = Table.raw_insert table row in
  let record = Heap_file.delete (Table.heap table) rid in
  Alcotest.(check bool) "the bytes the slot held" true (Bytes.equal record written);
  Alcotest.(check bool) "= encode_binary of the row" true
    (Bytes.equal record (Codec.encode_binary codec_schema row));
  match Heap_file.delete (Table.heap table) rid with
  | _ -> Alcotest.fail "deleting a free slot succeeded"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "Page.delete's error" "Page.delete: slot already free" msg

(* ---------- a statement runs the same from its AST as from its text ---------- *)

(* The integrators run each statement from its AST ([Db.exec] inside
   [Warehouse.exec]); before, every one was printed and run through
   [Db.exec_sql].  Twin engines run one statement stream both ways and
   must agree on every outcome, error text included, on the rows and on
   the whole log: plain engines compare [Db.exec] (its exceptions read as
   [Db.exec_sql] reports them) with [Db.exec_sql]; twin warehouses compare
   [Warehouse.integrate_op_deltas] with [Db.exec_sql] in a transaction of
   its own. *)

let twin_schema =
  Schema.make
    [
      { Schema.name = "k"; ty = Value.Tint; nullable = false };
      { Schema.name = "a"; ty = Value.Tint; nullable = true };
      { Schema.name = "f"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "s"; ty = Value.Tstring 6; nullable = true };
      { Schema.name = "d"; ty = Value.Tdate; nullable = true };
    ]

(* keys 0..5, so generated keys in -2..8 collide with some *)
let twin_rows =
  List.init 6 (fun k ->
      [| Value.Int k; Value.Int (k * 10); Value.Float (float_of_int k /. 4.0);
         Value.Str (String.make (k mod 4) 'x'); Value.Date (100 + k) |])

let gen_twin_stmts =
  let open QCheck2.Gen in
  let gen_str =
    string_size (int_range 0 8)
      ~gen:
        (oneof
           [ char_range 'a' 'z'; oneofl [ '\''; '\\'; '\t'; '\n'; ' '; ','; '('; ';'; '-' ] ])
  in
  let gen_float =
    oneof
      [ Test_sql.gen_finite_float; oneofl [ 1.0e17; -1.0e17; 2.5e-7; -0.0; 1e22; -3.75 ] ]
  in
  let typed = function
    | "k" -> map (fun n -> Value.Int n) (int_range (-2) 8)
    | "a" ->
      map (fun n -> Value.Int n) (oneof [ int_range (-1000) 1000; int_range (-max_int / 2) (-1) ])
    | "f" -> map (fun f -> Value.Float f) gen_float
    | "s" -> map (fun s -> Value.Str s) gen_str
    | _ -> map (fun d -> Value.Date d) (int_range 0 20000)
  in
  (* mostly the column's type; otherwise NULL or any column's type *)
  let literal col =
    frequency
      [ (6, typed col); (1, return Value.Null); (1, oneofl [ "a"; "f"; "s"; "d" ] >>= typed) ]
  in
  let columns = [ "k"; "a"; "f"; "s"; "d" ] in
  (* a column name, now and then one the table does not have *)
  let gen_col = frequency [ (8, oneofl columns); (1, return "zz") ] in
  let gen_where =
    let key_cmp =
      map2
        (fun op n -> Expr.Cmp (op, Expr.Col "k", Expr.Lit (Value.Int n)))
        (oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
        (int_range (-2) 8)
    in
    frequency
      [
        (1, return None);
        (4, map Option.some key_cmp);
        (2, map2 (fun p q -> Some (Expr.And (p, q))) key_cmp key_cmp);
        (1, map2 (fun p q -> Some (Expr.Or (p, q))) key_cmp key_cmp);
        (1, map (fun p -> Some (Expr.And (p, Expr.Is_null (Expr.Col "a")))) key_cmp);
        (1, map (fun col -> Some (Expr.Is_not_null (Expr.Col col))) gen_col);
      ]
  in
  let gen_insert =
    let row = flatten_l (List.map literal columns) in
    frequency
      [
        ( 3,
          map
            (fun rows -> Ast.Insert { table = "t"; columns = None; rows })
            (list_size (int_range 1 2) row) );
        (* a column list: some of the columns, in any order, maybe an
           unknown one *)
        ( 3,
          gen_col |> list_size (int_range 1 4)
          >>= fun cols ->
          let cols = List.sort_uniq compare ("k" :: cols) in
          shuffle_l cols >>= fun cols ->
          map
            (fun rows -> Ast.Insert { table = "t"; columns = Some cols; rows })
            (list_size (int_range 1 2) (flatten_l (List.map literal cols))) );
        (* one value short *)
        ( 1,
          map (fun row -> Ast.Insert { table = "t"; columns = None; rows = [ List.tl row ] }) row );
      ]
  in
  let gen_set =
    gen_col >>= fun col ->
    map (fun e -> (col, e))
      (frequency
         [
           (4, map (fun v -> Expr.Lit v) (literal col));
           (1, map (fun v -> Expr.Binop (Expr.Add, Expr.Col "a", Expr.Lit v)) (literal "a"));
           (1, map (fun v -> Expr.Binop (Expr.Mul, Expr.Col "f", Expr.Lit v)) (literal "f"));
           (1, map (fun c -> Expr.Col c) gen_col);
         ])
  in
  let gen_stmt =
    frequency
      [
        (3, gen_insert);
        ( 3,
          map2
            (fun sets where -> Ast.Update { table = "t"; sets; where })
            (list_size (int_range 1 3) gen_set) gen_where );
        (2, map (fun where -> Ast.Delete { table = "t"; where }) gen_where);
      ]
  in
  list_size (int_range 1 5) gen_stmt

(* [Applied]: an integrator ran the statement; it returns no statement
   result *)
type outcome = Done of Db.exec_result | Applied | Failed of string | Raised of string

(* a plain engine or a warehouse over [twin_schema], loaded alike *)
let twin_db () =
  let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"twin" () in
  ignore (Db.create_table db ~name:"t" twin_schema : Table.t);
  db

let twin_wh () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"twin" () in
  Warehouse.add_replica wh ~table:"t" ~schema:twin_schema;
  wh

let load db =
  Db.with_txn db (fun txn ->
      List.iter (fun row -> ignore (Db.insert db txn "t" row : Heap_file.rid)) twin_rows)

(* one statement in a transaction of its own, committed when it ran *)
let in_txn db f =
  let txn = Db.begin_txn db in
  match f txn with
  | (Done _ | Applied) as o ->
    Db.commit db txn;
    o
  | (Failed _ | Raised _) as o ->
    Db.abort db txn;
    o
  | exception e ->
    Db.abort db txn;
    Raised (Printexc.to_string e)

let by_text db stmt =
  in_txn db (fun txn ->
      match Db.exec_sql db txn (Printer.to_string stmt) with
      | Ok r -> Done r
      | Error e -> Failed e)

let by_ast db stmt =
  in_txn db (fun txn ->
      match Db.exec db txn stmt with
      | r -> Done r
      | exception Invalid_argument e -> Failed e
      | exception Not_found -> Failed ("unknown table " ^ Ast.table_of stmt))

let by_integrator wh stmt =
  match Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:1 [ stmt ] ] with
  | (_ : Warehouse.stats) -> Applied
  | exception Invalid_argument e -> Failed e
  | exception e -> Raised (Printexc.to_string e)

let twin_rows_of db =
  let rows = ref [] in
  Table.scan (Db.table db "t") (fun _ row -> rows := row :: !rows);
  List.sort Tuple.compare !rows

let log_of db =
  let records = ref [] in
  Wal.iter_all (Db.wal db) (fun lsn r -> records := (lsn, r) :: !records);
  List.rev !records

let show_outcome = function
  | Done (Db.Affected n) -> Printf.sprintf "affected %d" n
  | Done _ -> "done"
  | Applied -> "applied"
  | Failed e -> "failed: " ^ e
  | Raised e -> "raised " ^ e

let prop_ast_runs_as_text =
  QCheck2.Test.make ~name:"a statement runs from its AST as from its printed text" ~count:300
    ~print:(fun stmts -> String.concat ";\n" (List.map Printer.to_string stmts))
    gen_twin_stmts (fun stmts ->
      let db_ast = twin_db () and db_text = twin_db () in
      let wh_ast = twin_wh () and wh_text = twin_wh () in
      List.iter load [ db_ast; db_text; Warehouse.db wh_ast; Warehouse.db wh_text ];
      List.iteri
        (fun i stmt ->
          let agree what a b =
            if a <> b then
              QCheck2.Test.fail_reportf "statement %d (%s), %s: AST %s, text %s" i
                (Printer.to_string stmt) what (show_outcome a) (show_outcome b)
          in
          agree "engine" (by_ast db_ast stmt) (by_text db_text stmt);
          (* the integrator's error is [Db.exec_sql]'s, in its context *)
          let text =
            match by_text (Warehouse.db wh_text) stmt with
            | Done _ -> Applied
            | Failed e -> Failed ("Warehouse.integrate_op_deltas: " ^ e)
            | (Applied | Raised _) as o -> o
          in
          agree "warehouse" (by_integrator wh_ast stmt) text)
        stmts;
      let same a b what =
        if not (List.equal Tuple.equal (twin_rows_of a) (twin_rows_of b)) then
          QCheck2.Test.fail_reportf "%s: rows differ" what;
        if log_of a <> log_of b then QCheck2.Test.fail_reportf "%s: logs differ" what
      in
      same db_ast db_text "engine";
      same (Warehouse.db wh_ast) (Warehouse.db wh_text) "warehouse";
      true)

let duplicate_key_error_text () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let od txn_id =
    Op_delta.make ~txn_id (Workload.insert_parts_txn ~first_id:7 ~size:1 ~day:0 ())
  in
  ignore (Warehouse.integrate_op_deltas wh [ od 1 ] : Warehouse.stats);
  match Warehouse.integrate_op_deltas wh [ od 2 ] with
  | (_ : Warehouse.stats) -> Alcotest.fail "a duplicate key integrated"
  | exception Invalid_argument e ->
    Alcotest.(check string)
      "the statement's error"
      "Warehouse.integrate_op_deltas: Table parts: duplicate primary key (7)" e

(* ---------- an overflowing FLOAT never reaches a replica ---------- *)

let parts_rows db =
  let rows = ref [] in
  Table.scan (Db.table db "parts") (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let price db id =
  match List.find (fun row -> Value.equal row.(0) (Value.Int id)) (parts_rows db) with
  | row -> row.(3)
  | exception Not_found -> Alcotest.failf "part %d missing" id

let overflowing_float_rejected () =
  let side method_ queue =
    let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
    ignore (Workload.create_parts_table src : Table.t);
    let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
    Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
    let pipe =
      Pipeline.create ~source:src ~warehouse:wh ~table:"parts" ~method_
        ~transport:(Pipeline.Queued queue) ()
    in
    (* one statement list as one source transaction: through the wrapper
       when there is one, else straight into the engine *)
    let run stmts =
      match Pipeline.capture pipe with
      | Some cap -> (
          match Opdelta_capture.exec_txn cap stmts with Ok _ -> Ok () | Error e -> Error e)
      | None -> (
          let txn = Db.begin_txn src in
          match List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts with
          | () -> Db.commit src txn; Ok ()
          | exception Invalid_argument e -> Db.abort src txn; Error e)
    in
    let round () = match Pipeline.run_round pipe with Ok _ -> () | Error e -> Alcotest.fail e in
    (src, wh, run, round)
  in
  let sides = [ side Pipeline.Trigger "tq"; side Pipeline.Op_delta_wrapper "oq" ] in
  let parse sql = match Parser.parse sql with Ok s -> s | Error e -> Alcotest.fail e in
  List.iter
    (fun (src, _, run, round) ->
      (match run (Workload.insert_parts_txn ~first_id:1 ~size:5 ~day:(Db.current_day src) ()) with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      round ();
      let before = price src 2 in
      let overflow = parse "UPDATE parts SET price = price * 1.0e300 * 1.0e300 WHERE part_id = 2" in
      (match run [ overflow ] with
       | Ok () -> Alcotest.fail "an infinite price committed"
       | Error e ->
         Alcotest.(check bool) (Printf.sprintf "named error: %s" e) true
           (Str.string_match (Str.regexp ".*FLOAT inf is not finite") e 0));
      Alcotest.(check bool) "the row keeps its value" true (Value.equal before (price src 2));
      (* a literal past max_float does not even parse *)
      Alcotest.(check bool) "1.0e400 rejected" true
        (Result.is_error (Parser.parse "UPDATE parts SET price = 1.0e400"));
      (match run [ parse "UPDATE parts SET price = price * 2.0e300 WHERE part_id <= 3" ] with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      round ())
    sides;
  match sides with
  | [ (src_t, wh_t, _, _); (src_o, wh_o, _, _) ] ->
    let same a b = List.equal Tuple.equal a b in
    Alcotest.(check bool) "sources agree" true (same (parts_rows src_t) (parts_rows src_o));
    Alcotest.(check bool) "trigger replica = its source" true
      (same (parts_rows (Warehouse.db wh_t)) (parts_rows src_t));
    Alcotest.(check bool) "Op-Delta replica = trigger replica" true
      (same (parts_rows (Warehouse.db wh_o)) (parts_rows (Warehouse.db wh_t)))
  | _ -> assert false

(* ---------- a value delta loads by key as from its printed statements ---------- *)

(* [Warehouse.integrate_value_delta] applies each record as the typed row
   it is, through the key index ([Db.insert], [Db.delete_key],
   [Db.insert ~upsert:true]).  Before, each record became a statement
   that was printed, parsed back and run: an INSERT per insert image, a
   DELETE on the key columns per delete image, both per update, and for
   an upsert an UPDATE of every non-key column, then an INSERT when it
   matched no row.  That loader is the reference kept here, twice:

   - a plain engine runs the printed statements through [Db.exec_sql]
     (the upsert's INSERT when the UPDATE reads [Affected 0]), against
     the typed calls, on a table with a timestamp column;
   - a warehouse with an SPJ view of each layout and an aggregate view
     runs them, printed and parsed, through the statement integrator
     ([Warehouse.integrate_op_deltas]: the old loader's run and view
     bookkeeping), against [integrate_value_delta].  One transaction
     cannot branch on an UPDATE's count, so the upsert's INSERT follows
     when a model of the keys present says the UPDATE matches nothing.

   Both must agree on the outcome, error text included, on every row,
   view row and log record, and on the row ops; the typed loader counts
   one statement per record, two per update. *)

module Delta = Dw_core.Delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view

(* a composite key; a generated key may hold NULL, which no stored key
   does ([Tuple.validate]) *)
let comp_schema =
  Schema.make ~key_arity:2
    [
      { Schema.name = "k"; ty = Value.Tint; nullable = false };
      { Schema.name = "tag"; ty = Value.Tstring 4; nullable = false };
      { Schema.name = "a"; ty = Value.Tint; nullable = true };
      { Schema.name = "f"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "s"; ty = Value.Tstring 6; nullable = true };
      { Schema.name = "d"; ty = Value.Tdate; nullable = false };
    ]

let comp_rows =
  List.map
    (fun (k, tag) ->
      [| Value.Int k; tag; Value.Int (k * 7); Value.Float (float_of_int k *. 1.5e-3);
         Value.Str (String.make k 'q'); Value.Date (200 + k) |])
    [ (0, Value.Str "a"); (0, Value.Str "b"); (1, Value.Str "a"); (2, Value.Str "it's");
      (3, Value.Str "b"); (4, Value.Str "") ]

let parts_rows_init =
  List.init 6 (fun i ->
      let id = i + 1 in
      [| Value.Int id; Value.Str (Printf.sprintf "part '%d'" id); Value.Int (id mod 3);
         Value.Float (float_of_int (id * 150)); Value.Date (300 + id) |])

(* an SPJ view of each layout and an aggregate view with a MIN, whose
   extremum leaving forces a group rescan *)
type shape = {
  schema : Schema.t;
  ts_column : string;
  initial : Tuple.t list;
  keyed_view : Spj_view.t;
  bag_view : Spj_view.t;
  agg_view : Agg_view.t;
}

let project table schema ?filter name cols =
  Spj_view.Select_project
    {
      name;
      table;
      schema;
      filter;
      project =
        List.map (fun c -> { Spj_view.out_name = c; from_side = Spj_view.L; from_col = c }) cols;
    }

let comp_shape =
  let v = project "t" comp_schema in
  {
    schema = comp_schema;
    ts_column = "d";
    initial = comp_rows;
    keyed_view =
      v ~filter:(Expr.Cmp (Expr.Gt, Expr.Col "a", Expr.Lit (Value.Int 0))) "t_keyed"
        [ "k"; "tag"; "f"; "s" ];
    bag_view = v "t_bag" [ "tag"; "d" ];
    agg_view =
      { Agg_view.name = "t_agg"; table = "t"; schema = comp_schema; filter = None;
        group_by = [ "tag" ];
        aggregates = [ ("n", Agg_view.Count); ("total", Agg_view.Sum "k");
                       ("first", Agg_view.Min "d") ] };
  }

let parts_shape =
  let v = project "t" Workload.parts_schema in
  {
    schema = Workload.parts_schema;
    ts_column = "last_modified";
    initial = parts_rows_init;
    keyed_view =
      v ~filter:(Expr.Cmp (Expr.Lt, Expr.Col "price", Expr.Lit (Value.Float 500.0))) "cheap"
        [ "part_id"; "qty" ];
    bag_view = v "t_bag" [ "qty" ];
    agg_view =
      { Agg_view.name = "t_agg"; table = "t"; schema = Workload.parts_schema; filter = None;
        group_by = [ "qty" ];
        aggregates = [ ("n", Agg_view.Count); ("value", Agg_view.Sum "price");
                       ("newest", Agg_view.Max "last_modified") ] };
  }

let gen_delta_case =
  let open QCheck2.Gen in
  let gen_str n =
    string_size (int_range 0 n)
      ~gen:(oneof [ char_range 'a' 'c'; oneofl [ '\''; '\\'; ' '; ','; '\n' ] ])
  in
  let gen_float =
    oneof [ Test_sql.gen_finite_float; oneofl [ 1.0e17; -2.5e-7; 1e22; -0.0; 6.02e23 ] ]
  in
  (* mostly the column's type, NULL where the column admits it, and
     rarely a value it rejects (NULL where it does not, a string one byte
     too long): the load fails, and its error text is compared *)
  let value (c : Schema.column) =
    let typed =
      match c.Schema.ty with
      | Value.Tint -> map (fun n -> Value.Int n) (int_range (-3) 9)
      | Value.Tfloat -> map (fun f -> Value.Float f) gen_float
      | Value.Tstring n -> map (fun s -> Value.Str s) (gen_str n)
      | Value.Tdate -> map (fun d -> Value.Date d) (int_range 0 20000)
      | Value.Tbool -> map (fun b -> Value.Bool b) bool
    in
    let rejected =
      match c.Schema.ty with
      | Value.Tstring n -> return (Value.Str (String.make (n + 1) 'x'))
      | Value.Tint | Value.Tfloat | Value.Tdate | Value.Tbool -> return Value.Null
    in
    if c.Schema.nullable then frequency [ (30, typed); (8, return Value.Null); (1, rejected) ]
    else frequency [ (40, typed); (1, rejected) ]
  in
  (* keys from a small domain, so inserts collide and deletes miss *)
  let key shape =
    if shape == comp_shape then
      map2
        (fun k tag -> [ Value.Int k; tag ])
        (int_range 0 6)
        (frequency [ (30, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "it's"; "" ]));
                     (1, return Value.Null) ])
    else map (fun k -> [ Value.Int k ]) (int_range 0 14)
  in
  let row shape =
    let rest = List.filteri (fun i _ -> i >= Schema.key_arity shape.schema) (Schema.columns shape.schema) in
    map2 (fun key rest -> Array.of_list (key @ rest)) (key shape) (flatten_l (List.map value rest))
  in
  let change shape =
    frequency
      [
        (3, map (fun r -> Delta.Insert r) (row shape));
        (2, map (fun r -> Delta.Delete r) (row shape));
        ( 3,
          row shape >>= fun before ->
          map2
            (fun after rekey ->
              (* mostly the same key, as a captured update has *)
              if rekey then Delta.Update (before, after)
              else
                let after = Array.copy after in
                Array.blit before 0 after 0 (Schema.key_arity shape.schema);
                Delta.Update (before, after))
            (row shape) (frequency [ (1, return true); (3, return false) ]) );
        (3, map (fun r -> Delta.Upsert r) (row shape));
      ]
  in
  oneofl [ comp_shape; parts_shape ] >>= fun shape ->
  map (fun changes -> (shape, changes)) (list_size (int_range 1 7) (change shape))

let print_delta_case (shape, changes) =
  String.concat "\n"
    ((if shape == comp_shape then "composite key" else "parts")
    :: List.map
         (function
           | Delta.Insert r -> "I " ^ Tuple.to_string r
           | Delta.Delete r -> "D " ^ Tuple.to_string r
           | Delta.Update (b, a) -> "U " ^ Tuple.to_string b ^ " -> " ^ Tuple.to_string a
           | Delta.Upsert r -> "S " ^ Tuple.to_string r)
         changes)

(* the reference loader's statements, each printed and parsed back *)
let key_predicate schema tuple =
  Option.get
    (Expr.conj
       (List.init (Schema.key_arity schema) (fun i ->
            Expr.Cmp (Expr.Eq, Expr.Col (Schema.column schema i).Schema.name, Expr.Lit tuple.(i)))))

let insert_stmt tuple = Ast.Insert { table = "t"; columns = None; rows = [ Array.to_list tuple ] }
let delete_stmt schema tuple = Ast.Delete { table = "t"; where = Some (key_predicate schema tuple) }

let update_stmt schema tuple =
  let sets =
    List.filteri (fun i _ -> i >= Schema.key_arity schema) (Schema.columns schema)
    |> List.mapi (fun i c -> (c.Schema.name, Expr.Lit tuple.(Schema.key_arity schema + i)))
  in
  Ast.Update { table = "t"; sets; where = Some (key_predicate schema tuple) }

let reparse stmt =
  match Parser.parse (Printer.to_string stmt) with
  | Ok stmt -> stmt
  | Error e -> QCheck2.Test.fail_reportf "%s does not parse back: %s" (Printer.to_string stmt) e

(* one change as the reference loader's statements; an upsert's INSERT
   follows its UPDATE unless [present], the keys a successful load holds
   so far, has its key (a failed load rolls back whole, so the keys after
   a failure do not matter; a key holding NULL is never present) *)
let reference_stmts schema present change =
  let key tuple = Tuple.key schema tuple in
  let keyed tuple = not (Array.exists Value.is_null (key tuple)) in
  let add tuple = if keyed tuple then Hashtbl.replace present (key tuple) () in
  let remove tuple = Hashtbl.remove present (key tuple) in
  match change with
  | Delta.Insert after ->
    add after;
    [ insert_stmt after ]
  | Delta.Delete before ->
    remove before;
    [ delete_stmt schema before ]
  | Delta.Update (before, after) ->
    remove before;
    add after;
    [ delete_stmt schema before; insert_stmt after ]
  | Delta.Upsert after ->
    let hit = keyed after && Hashtbl.mem present (key after) in
    add after;
    if hit then [ update_stmt schema after ] else [ update_stmt schema after; insert_stmt after ]

let show_result = function Ok _ -> "ok" | Error e -> "failed: " ^ e

(* the plain-engine twin: one transaction each, stopped at the first
   failing change *)
let engine_twin shape changes =
  let mk () =
    let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"twin" () in
    ignore (Db.create_table db ~name:"t" ~ts_column:shape.ts_column shape.schema : Table.t);
    Db.with_txn db (fun txn ->
        List.iter (fun row -> ignore (Db.insert db txn "t" row : Heap_file.rid)) shape.initial);
    (* stamps differ from every loaded date *)
    Db.set_day db 77_777;
    db
  in
  let typed = mk () and text = mk () in
  let by_key db txn = function
    | Delta.Insert after -> ignore (Db.insert db txn "t" after : Heap_file.rid)
    | Delta.Delete before ->
      ignore (Db.delete_key db txn "t" (Tuple.key shape.schema before) : int)
    | Delta.Update (before, after) ->
      ignore (Db.delete_key db txn "t" (Tuple.key shape.schema before) : int);
      ignore (Db.insert db txn "t" after : Heap_file.rid)
    | Delta.Upsert after -> ignore (Db.insert ~upsert:true db txn "t" after : Heap_file.rid)
  in
  let sql db txn stmt =
    match Db.exec_sql db txn (Printer.to_string stmt) with Ok r -> r | Error e -> invalid_arg e
  in
  let by_text db txn = function
    | Delta.Insert after -> ignore (sql db txn (insert_stmt after) : Db.exec_result)
    | Delta.Delete before -> ignore (sql db txn (delete_stmt shape.schema before) : Db.exec_result)
    | Delta.Update (before, after) ->
      ignore (sql db txn (delete_stmt shape.schema before) : Db.exec_result);
      ignore (sql db txn (insert_stmt after) : Db.exec_result)
    | Delta.Upsert after -> (
        match sql db txn (update_stmt shape.schema after) with
        | Db.Affected 0 -> ignore (sql db txn (insert_stmt after) : Db.exec_result)
        | _ -> ())
  in
  let run db apply =
    let txn = Db.begin_txn db in
    match List.iter (apply db txn) changes with
    | () -> Db.commit db txn; Ok ()
    | exception Invalid_argument e -> Db.abort db txn; Error e
    | exception Not_found -> Db.abort db txn; Error "unknown table t"
  in
  let a = run typed by_key and b = run text by_text in
  if a <> b then
    QCheck2.Test.fail_reportf "engine: typed %s, text %s" (show_result a) (show_result b);
  if not (List.equal Tuple.equal (twin_rows_of typed) (twin_rows_of text)) then
    QCheck2.Test.fail_reportf "engine: rows differ";
  if log_of typed <> log_of text then QCheck2.Test.fail_reportf "engine: logs differ"

let delta_wh shape =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"twin" () in
  Warehouse.add_replica wh ~table:"t" ~schema:shape.schema;
  Warehouse.load_replica wh ~table:"t" shape.initial;
  Warehouse.define_view wh shape.keyed_view;
  Warehouse.define_view wh shape.bag_view;
  Warehouse.define_agg_view wh shape.agg_view;
  wh

let prop_value_delta_loads_by_key =
  QCheck2.Test.make ~name:"a value delta loads by key as from its printed statements" ~count:300
    ~print:print_delta_case gen_delta_case (fun (shape, changes) ->
      engine_twin shape changes;
      let typed = delta_wh shape and text = delta_wh shape in
      let present = Hashtbl.create 16 in
      List.iter (fun row -> Hashtbl.replace present (Tuple.key shape.schema row) ()) shape.initial;
      let stmts = List.concat_map (reference_stmts shape.schema present) changes |> List.map reparse in
      let result f =
        match f () with
        | (s : Warehouse.stats) -> Ok s
        | exception Invalid_argument e -> Error e
      in
      let a =
        result (fun () -> Warehouse.integrate_value_delta typed (Delta.make ~table:"t" ~schema:shape.schema changes))
      in
      (* the reference's error, in the value integrator's context *)
      let b =
        result (fun () -> Warehouse.integrate_op_deltas text [ Op_delta.make ~txn_id:1 stmts ])
        |> Result.map_error (fun e ->
               Str.replace_first (Str.regexp "^Warehouse.integrate_op_deltas: ")
                 "Warehouse.integrate_value_delta: " e)
      in
      (match a, b with
       | Ok sa, Ok sb ->
         if sa.Warehouse.row_ops <> sb.Warehouse.row_ops then
           QCheck2.Test.fail_reportf "row ops: typed %d, text %d" sa.row_ops sb.row_ops;
         let want =
           List.fold_left
             (fun n -> function Delta.Update _ -> n + 2 | Delta.Insert _ | Delta.Delete _ | Delta.Upsert _ -> n + 1)
             0 changes
         in
         if sa.statements <> want then
           QCheck2.Test.fail_reportf "statements: typed %d, want %d" sa.statements want
       | Error ea, Error eb when String.equal ea eb -> ()
       | _ -> QCheck2.Test.fail_reportf "warehouse: typed %s, text %s" (show_result a) (show_result b));
      let same what x y = if not (x = y) then QCheck2.Test.fail_reportf "warehouse: %s differ" what in
      let dbt = Warehouse.db typed and dbx = Warehouse.db text in
      same "replica rows" (twin_rows_of dbt) (twin_rows_of dbx);
      List.iter
        (fun v -> same v (Warehouse.view_rows typed v) (Warehouse.view_rows text v))
        [ Spj_view.name shape.keyed_view; Spj_view.name shape.bag_view ];
      same "aggregate rows"
        (Warehouse.agg_view_rows typed shape.agg_view.Agg_view.name)
        (Warehouse.agg_view_rows text shape.agg_view.Agg_view.name);
      same "logs" (log_of dbt) (log_of dbx);
      true)

(* ---------- floats: short where exact, and back bit for bit ---------- *)

let float_schema = Schema.make [ { Schema.name = "f"; ty = Value.Tfloat; nullable = false } ]

(* [m / 10^k] printed as a decimal, trailing zeros dropped *)
let decimal m k =
  let digits = string_of_int (abs m) in
  let digits = String.make (max 0 (k + 1 - String.length digits)) '0' ^ digits in
  let n = String.length digits in
  let whole = String.sub digits 0 (n - k) and frac = String.sub digits (n - k) k in
  let rec trim s =
    if s <> "" && s.[String.length s - 1] = '0' then trim (String.sub s 0 (String.length s - 1))
    else s
  in
  let frac = trim frac in
  (if m < 0 then "-" else "") ^ whole ^ if frac = "" then "" else "." ^ frac

(* a float from one of: a short decimal with at most nine digits (its
   shortest form is known), one near 2^53 / 10^k (where several decimals
   of k places can read back as one double), a neighbour of either, or
   the random-bit and edge values *)
let gen_float_case =
  QCheck2.Gen.(
    let place = int_range 0 6 in
    oneof
      [
        map2 (fun m k -> (float_of_int m /. (10.0 ** float_of_int k), Some (decimal m k)))
          (int_range (-999_999_999) 999_999_999) place;
        map3
          (fun m k up ->
            let f = float_of_int m /. (10.0 ** float_of_int k) in
            ((if up then Float.succ f else f), None))
          (int_range (1 lsl 50) ((1 lsl 53) - 1)) place bool;
        map (fun f -> (f, None)) gen_float;
        oneofl [ (-0.0, Some "-0"); (1e17, Some "1e+17"); (5e-324, None); (466.57, Some "466.57") ];
      ])

let prop_float_short_and_exact =
  QCheck2.Test.make ~name:"a float field prints its short decimal and reads back bit for bit"
    ~count:2000
    ~print:(fun (f, want) ->
      Printf.sprintf "%h (%.17g) printed %S, want %s" f f
        (Codec.encode_ascii float_schema [| Value.Float f |])
        (Option.value want ~default:"-"))
    gen_float_case
    (fun (f, want) ->
      let line = Codec.encode_ascii float_schema [| Value.Float f |] in
      String.equal line (ref_float f)
      && Option.fold ~none:true ~some:(String.equal line) want
      &&
      match Codec.decode_ascii float_schema line with
      | Ok [| Value.Float g |] -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Ok _ | Error _ -> false)

(* ---------- the differential file vs the line codec ---------- *)

(* [Delta.to_lines] and [Delta.of_lines] as they were, one string per
   image, over [codec_schema] records through the reference codec *)
let ref_to_lines changes =
  List.concat_map
    (function
      | Delta.Insert after -> [ "I|" ^ ref_encode_ascii after ]
      | Delta.Delete before -> [ "D|" ^ ref_encode_ascii before ]
      | Delta.Upsert after -> [ "S|" ^ ref_encode_ascii after ]
      | Delta.Update (before, after) ->
        [ "U|" ^ ref_encode_ascii before; "u|" ^ ref_encode_ascii after ])
    changes

let ref_of_lines lines =
  let decode body = ref_decode_ascii codec_schema body in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.length line < 2 || line.[1] <> '|' then
        Error (Printf.sprintf "bad delta line %S" line)
      else begin
        let body = String.sub line 2 (String.length line - 2) in
        match line.[0], rest with
        | 'I', _ -> Result.bind (decode body) (fun t -> go (Delta.Insert t :: acc) rest)
        | 'D', _ -> Result.bind (decode body) (fun t -> go (Delta.Delete t :: acc) rest)
        | 'S', _ -> Result.bind (decode body) (fun t -> go (Delta.Upsert t :: acc) rest)
        | 'U', after_line :: rest'
          when String.length after_line >= 2 && after_line.[0] = 'u' && after_line.[1] = '|' -> (
            let after_body = String.sub after_line 2 (String.length after_line - 2) in
            match decode body, decode after_body with
            | Ok b, Ok a -> go (Delta.Update (b, a) :: acc) rest'
            | Error e, _ | _, Error e -> Error e)
        | 'U', _ -> Error "update line without its after-image line"
        | c, _ -> Error (Printf.sprintf "unknown delta tag %C" c)
      end
  in
  go [] lines

(* the file's lines: every '\n' ends one, and a last one may lack it *)
let lines_of file =
  match List.rev (String.split_on_char '\n' file) with
  | "" :: rest -> List.rev rest
  | lines -> List.rev lines

let gen_changes =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (frequency
         [
           (2, map (fun r -> Delta.Insert r) gen_row);
           (2, map (fun r -> Delta.Delete r) gen_row);
           (2, map2 (fun b a -> Delta.Update (b, a)) gen_row gen_row);
           (1, map (fun r -> Delta.Upsert r) gen_row);
         ]))

(* a file, then edits that land on tags, separators, newlines and
   fields, or drop a whole line (a "U" loses its "u") *)
let gen_file_case =
  QCheck2.Gen.(
    let edit file =
      map3
        (fun pos c mode ->
          let n = String.length file in
          let pos = if n = 0 then 0 else pos mod (n + 1) in
          let before = String.sub file 0 pos and after = String.sub file pos (n - pos) in
          match mode with
          | 0 -> before ^ String.make 1 c ^ after
          | 1 when n > pos -> before ^ String.sub after 1 (String.length after - 1)
          | 2 ->
            let lines = lines_of file in
            let drop = if lines = [] then 0 else pos mod List.length lines in
            List.filteri (fun i _ -> i <> drop) lines
            |> List.map (fun l -> l ^ "\n")
            |> String.concat ""
          | _ -> before ^ String.make 1 c ^ if n > pos then String.sub after 1 (n - pos - 1) else "")
        nat
        (oneofl [ '\n'; '|'; '\\'; 'I'; 'U'; 'u'; 'D'; 'S'; 'X'; '.'; 'e'; '-'; '0'; 'T' ])
        (int_range 0 3)
    in
    gen_changes >>= fun changes ->
    let file = Delta.to_file (Delta.make ~table:"t" ~schema:codec_schema changes) in
    map
      (fun file -> (changes, file))
      (frequency
         [
           (2, return file);
           (3, edit file);
           (2, edit file >>= edit >>= edit);
           (1, string_size (int_range 0 20) ~gen:(oneofl [ '\n'; '|'; 'U'; 'u'; 'I'; '1'; '\\' ]));
         ]))

let same_changes a b =
  List.equal
    (fun x y ->
      match x, y with
      | Delta.Insert r, Delta.Insert r' | Delta.Delete r, Delta.Delete r'
      | Delta.Upsert r, Delta.Upsert r' ->
        same_tuple r r'
      | Delta.Update (b, a), Delta.Update (b', a') -> same_tuple b b' && same_tuple a a'
      | _ -> false)
    a b

let prop_file_matches_lines =
  QCheck2.Test.make ~name:"the differential file matches the line codec, errors included"
    ~count:1000
    ~print:(fun (changes, file) ->
      Printf.sprintf "%d changes, file %S" (List.length changes) file)
    gen_file_case
    (fun (changes, file) ->
      let delta = Delta.make ~table:"t" ~schema:codec_schema changes in
      let encoded = Delta.to_file delta in
      let want = String.concat "" (List.map (fun l -> l ^ "\n") (ref_to_lines changes)) in
      if not (String.equal encoded want) then QCheck2.Test.fail_reportf "encoded %S" encoded;
      (match Delta.of_file ~table:"t" ~schema:codec_schema encoded with
       | Ok back when same_changes back.Delta.changes changes -> ()
       | Ok _ -> QCheck2.Test.fail_report "the file does not decode to its delta"
       | Error e -> QCheck2.Test.fail_reportf "the file does not decode: %s" e);
      match Delta.of_file ~table:"t" ~schema:codec_schema file, ref_of_lines (lines_of file) with
      | Ok got, Ok want -> same_changes got.Delta.changes want
      | Error got, Error want -> String.equal got want
      | Ok _, Error e -> QCheck2.Test.fail_reportf "decoded, the lines fail with %s" e
      | Error e, Ok _ -> QCheck2.Test.fail_reportf "failed with %s, the lines decode" e)

(* ---------- the key-range delete vs DELETE ... WHERE key <= n ---------- *)

let seq_schema =
  Schema.make
    [
      { Schema.name = "__seq"; ty = Value.Tint; nullable = false };
      { Schema.name = "v"; ty = Value.Tstring 8; nullable = true };
      { Schema.name = "d"; ty = Value.Tdate; nullable = false };
    ]

type range_case = {
  keys : int list;  (* inserted one transaction each, in this order *)
  dropped : int list;  (* then deleted one each, freeing their slots *)
  refill : int list;  (* then inserted into the freed slots *)
  through : int;
  ts : bool;  (* the table has a timestamp column, so a second index *)
  index_plan : bool;  (* the WHERE twin runs in [`Index_preferred] *)
  abort : bool;
}

let gen_range_case =
  QCheck2.Gen.(
    let distinct l = List.sort_uniq compare l in
    map
      (fun ((keys, dropped, refill), (through, ts, index_plan, abort)) ->
        let keys = distinct keys in
        (* the key order is shuffled against the slot order *)
        let keys = List.sort (fun a b -> compare ((a * 7919) mod 61) ((b * 7919) mod 61)) keys in
        let dropped = List.filter (fun k -> List.mem k keys) (distinct dropped) in
        let refill = List.filter (fun k -> not (List.mem k keys)) (distinct refill) in
        { keys; dropped; refill; through; ts; index_plan; abort })
      (pair
         (triple
            (list_size (int_range 0 60) (int_range 1 80))
            (list_size (int_range 0 10) (int_range 1 80))
            (list_size (int_range 0 10) (int_range 81 120)))
         (quad (int_range (-3) 125) bool bool bool)))

let prop_range_delete_matches_where =
  QCheck2.Test.make ~name:"a key-range delete is DELETE WHERE key <= n on a twin engine" ~count:300
    ~print:(fun c ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "keys %s, dropped %s, refill %s, through %d, ts %b, index %b, abort %b"
        (ints c.keys) (ints c.dropped) (ints c.refill) c.through c.ts c.index_plan c.abort)
    gen_range_case
    (fun c ->
      let mk plan =
        let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
        Db.set_plan_mode db plan;
        let ts_column = if c.ts then Some "d" else None in
        ignore (Db.create_table db ~name:"t" ?ts_column seq_schema : Table.t);
        let row k = [| Value.Int k; Value.Str (string_of_int (k * 3)); Value.Date (k mod 5) |] in
        let insert k =
          Db.with_txn db (fun txn -> ignore (Db.insert db txn "t" (row k) : Heap_file.rid))
        in
        List.iter insert c.keys;
        List.iter
          (fun k ->
            Db.with_txn db (fun txn -> ignore (Db.delete_key db txn "t" [| Value.Int k |] : int)))
          c.dropped;
        List.iter insert c.refill;
        db
      in
      let ranged = mk `Scan_only in
      let filtered = mk (if c.index_plan then `Index_preferred else `Scan_only) in
      let snapshot db = Db.begin_txn ~mode:`Snapshot db in
      let read db txn = List.sort Tuple.compare (Db.select db txn "t" ()) in
      let old_r = snapshot ranged and old_f = snapshot filtered in
      let run db delete =
        let txn = Db.begin_txn db in
        let n = delete txn in
        if c.abort then Db.abort db txn else Db.commit db txn;
        n
      in
      let n_r = run ranged (fun txn -> Db.delete_through ranged txn "t" (Value.Int c.through)) in
      let n_f =
        run filtered (fun txn ->
            Db.delete_where filtered txn "t"
              ~where:(Some (Expr.Cmp (Expr.Le, Expr.Col "__seq", Expr.Lit (Value.Int c.through)))))
      in
      let agree what a b = if not a then QCheck2.Test.fail_reportf "%s differ" what else b in
      let same_rows = List.equal Tuple.equal in
      agree "deleted counts" (n_r = n_f)
      @@ agree "snapshot reads from before" (same_rows (read ranged old_r) (read filtered old_f))
      @@ agree "rows" (same_rows (twin_rows_of ranged) (twin_rows_of filtered))
      @@ agree "logs" (log_of ranged = log_of filtered)
      @@ agree "snapshot reads after"
           (same_rows (read ranged (snapshot ranged)) (read filtered (snapshot filtered)))
      @@
      (* every key the twins ever held finds the same row through the
         index, and the index holds exactly the live rows *)
      let keys = c.keys @ c.refill in
      let find db k =
        Db.with_txn db (fun txn -> Option.map snd (Db.find_by_key db txn "t" [| Value.Int k |]))
      in
      agree "key lookups"
        (List.for_all (fun k -> Option.equal Tuple.equal (find ranged k) (find filtered k)) keys)
      @@ agree "index sizes"
           (Table.cardinality (Db.table ranged "t") = Table.row_count (Db.table ranged "t"))
           true)

(* ---------- UPDATE before images ---------- *)

(* A transaction of the stream: range UPDATEs run as one Op-Delta (the
   replica's [update_where] and the views' row writes in one refresh
   transaction), or [update_row]s of found rows, each key possibly twice. *)
type upd_txn = Ranges of (int * int * Tuple.t) list | Rows of (int * Tuple.t) list

let gen_upd_txns =
  QCheck2.Gen.(
    let range = map3 (fun lo w row -> (lo, lo + w, row)) (int_range 0 39) (int_range 0 10) gen_row in
    let one = map2 (fun k row -> (k, row)) (int_range 0 39) gen_row in
    list_size (int_range 1 8)
      (oneof
         [ map (fun l -> Ranges l) (list_size (int_range 1 3) range);
           map (fun l -> Rows l) (list_size (int_range 1 4) one) ]))

(* The logged before image of every UPDATE (replica or view row) is the
   record the slot held: it equals the image logged into that slot last,
   or the stored row's encoding for a row loaded unlogged; each slot's
   last image is the stored row's encoding at the end. *)
let prop_update_logs_before_image =
  QCheck2.Test.make ~name:"a logged UPDATE's before image is the stored row's encoding"
    ~count:60
    QCheck2.Gen.(pair (list_repeat 40 gen_row) gen_upd_txns)
    (fun (rows, txns) ->
      let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
      Warehouse.add_replica wh ~table:"t" ~schema:codec_schema;
      Warehouse.load_replica wh ~table:"t"
        (List.mapi
           (fun i row ->
             let row = Array.copy row in
             row.(0) <- Value.Int i;
             row)
           rows);
      let v = project "t" codec_schema in
      Warehouse.define_view wh (v "t_keyed" [ "k"; "s"; "f"; "b" ]);
      Warehouse.define_view wh (v "t_bag" [ "d" ]);
      Warehouse.define_agg_view wh
        { Agg_view.name = "t_agg"; table = "t"; schema = codec_schema; filter = None;
          group_by = [ "d" ]; aggregates = [ ("n", Agg_view.Count) ] };
      let db = Warehouse.db wh in
      let slot = Hashtbl.create 256 in
      let stored () =
        List.iter
          (fun table ->
            let schema = Table.schema table in
            Table.scan table (fun rid row ->
                Hashtbl.replace slot (Table.name table, rid) (Codec.encode_binary schema row)))
          (Db.tables db)
      in
      stored ();
      let set_of row =
        List.map (fun i -> ((Schema.column codec_schema i).Schema.name, Expr.Lit row.(i))) [ 1; 2; 3; 4 ]
      in
      List.iteri
        (fun i txn ->
          match txn with
          | Ranges ranges ->
            let stmts =
              List.map
                (fun (lo, hi, row) ->
                  Ast.Update
                    { table = "t"; sets = set_of row;
                      where =
                        Some
                          (Expr.And
                             ( Expr.Cmp (Expr.Ge, Expr.Col "k", Expr.Lit (Value.Int lo)),
                               Expr.Cmp (Expr.Le, Expr.Col "k", Expr.Lit (Value.Int hi)) )) })
                ranges
            in
            ignore (Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:(i + 1) stmts ]
                    : Warehouse.stats)
          | Rows updates ->
            Db.with_txn db (fun txn ->
                List.iter
                  (fun (k, row) ->
                    let found = Option.get (Db.find_by_key db txn "t" [| Value.Int k |]) in
                    let row = Array.copy row in
                    row.(0) <- Value.Int k;
                    Db.update_row db txn "t" found row)
                  updates))
        txns;
      let updates = ref 0 in
      Wal.iter_all (Db.wal db) (fun _ r ->
          match r.Log_record.body with
          | Log_record.Insert { table; rid; after } -> Hashtbl.replace slot (table, rid) after
          | Log_record.Update { table; rid; before; after } ->
            incr updates;
            if not (Bytes.equal before (Hashtbl.find slot (table, rid))) then
              Alcotest.failf "%s %s: before image differs" table (Heap_file.rid_to_string rid);
            Hashtbl.replace slot (table, rid) after
          | Log_record.Delete { table; rid; before } ->
            if not (Bytes.equal before (Hashtbl.find slot (table, rid))) then
              Alcotest.failf "%s %s: delete image differs" table (Heap_file.rid_to_string rid);
            Hashtbl.remove slot (table, rid)
          | Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.Checkpoint _ -> ());
      let logged = Hashtbl.copy slot in
      Hashtbl.reset slot;
      stored ();
      !updates > 0
      && Hashtbl.length logged = Hashtbl.length slot
      && Hashtbl.fold
           (fun key image ok -> ok && Bytes.equal image (Hashtbl.find slot key))
           logged true)

(* ---------- Op-Delta lines: decoded in place vs split and copied ---------- *)

(* [Op_delta.decode_line] as it was: split the line on tabs and each op
   field on '#', unescape every field into a copy, lex the statement into
   a list ([ref_tokenize]: its first lex error wins) and parse the copy.
   Its field decoder returns the error a '%' that starts no two-hex-digit
   escape now gives, where the old one raised or kept the '%'. *)
let ref_decode_field s =
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else if i + 2 >= n then Error "bad percent escape"
    else
      match hex s.[i + 1], hex s.[i + 2] with
      | Some hi, Some lo ->
        Buffer.add_char buf (Char.chr ((hi * 16) + lo));
        go (i + 3)
      | _ -> Error "bad percent escape"
  in
  go 0

let ref_decode_line ~schema_of line =
  let parse text = match ref_tokenize text with Error e -> Error e | Ok _ -> Parser.parse text in
  match String.split_on_char '\t' line with
  | [] | [ _ ] ->
    if line = "" then Error "empty op-delta line"
    else (
      match int_of_string_opt line with
      | Some txn_id -> Ok { Op_delta.txn_id; ops = [] }
      | None -> Error "bad txn id")
  | txn_field :: op_fields -> (
      match int_of_string_opt txn_field with
      | None -> Error (Printf.sprintf "bad txn id %S" txn_field)
      | Some txn_id ->
        let decode_op field =
          match String.split_on_char '#' field with
          | [] -> Error "empty op field"
          | stmt_field :: image_fields -> (
              match Result.bind (ref_decode_field stmt_field) parse with
              | Error e -> Error e
              | Ok stmt ->
                let rec images acc = function
                  | [] -> Ok (List.rev acc)
                  | img :: rest -> (
                      match schema_of (Ast.table_of stmt) with
                      | None -> Error "before images present but no schema resolvable"
                      | Some schema -> (
                          match Result.bind (ref_decode_field img) (Codec.decode_ascii schema) with
                          | Ok t -> images (t :: acc) rest
                          | Error e -> Error e))
                in
                Result.map
                  (fun before_images -> { Op_delta.stmt; before_images })
                  (images [] image_fields))
        in
        let rec go acc = function
          | [] -> Ok { Op_delta.txn_id; ops = List.rev acc }
          | field :: rest -> (
              match decode_op field with Ok op -> go (op :: acc) rest | Error e -> Error e)
        in
        go [] op_fields)

(* strings holding every byte the line and the record codecs escape *)
let gen_wire_string =
  QCheck2.Gen.(
    string_size (int_range 0 12)
      ~gen:
        (frequency
           [
             (3, char_range 'a' 'z');
             (2, oneofl [ '%'; '#'; '\t'; '\n'; '\''; '|'; '\\'; ' '; '0'; 'F' ]);
           ]))

let gen_wire_int =
  QCheck2.Gen.(
    oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int + 1; -999_999_999_999_999_999 ] ])

let gen_parts_image =
  QCheck2.Gen.(
    map
      (fun ((id, descr), (qty, price, day)) ->
        [| Value.Int id; Value.Str descr; Value.Int qty; Value.Float price; Value.Date day |])
      (pair (pair gen_wire_int gen_wire_string)
         (triple gen_wire_int Test_sql.gen_finite_float (int_range 0 20000))))

(* one op and its before images: any generated statement, an INSERT of
   escaped strings and extreme numbers, or an UPDATE or DELETE of parts
   with images *)
let gen_wire_op =
  QCheck2.Gen.(
    let value =
      oneof
        [
          map (fun n -> Value.Int n) gen_wire_int;
          map (fun f -> Value.Float f) Test_sql.gen_finite_float;
          map (fun s -> Value.Str s) gen_wire_string;
          map (fun d -> Value.Date d) (int_range 0 20000);
          return Value.Null;
        ]
    in
    let images = list_size (int_range 0 3) gen_parts_image in
    oneof
      [
        map (fun stmt -> (stmt, [])) Test_sql.gen_stmt;
        map
          (fun rows -> (Ast.Insert { table = "parts"; columns = None; rows }, []))
          (list_size (int_range 1 3) (list_size (int_range 1 5) value));
        map2
          (fun (first_id, size) images ->
            (Workload.update_parts_stmt ~first_id ~size, images))
          (pair gen_wire_int (int_range 1 50)) images;
        map2
          (fun (first_id, size) images ->
            (Workload.delete_parts_stmt ~first_id ~size, images))
          (pair gen_wire_int (int_range 1 50)) images;
      ])

(* a line damaged at one spot: a byte either codec treats specially, a
   19-digit int, a broken escape, a case flip of every letter from there
   on (keywords, hex digits, identifiers and bools alike), or a deletion *)
let damage line (kind, frac, c) =
  let n = String.length line in
  let at = int_of_float (frac *. float_of_int n) in
  let before = String.sub line 0 at and after = String.sub line at (n - at) in
  match kind with
  | 0 -> before ^ String.make 1 c ^ after
  | 1 -> before ^ "9999999999999999999" ^ after
  | 2 when c = '%' ->
    (* a truncated escape at the end of the field *)
    let rec field_end i = if i >= n || line.[i] = '\t' || line.[i] = '#' then i else field_end (i + 1) in
    let e = field_end at in
    String.sub line 0 e ^ "%4" ^ String.sub line e (n - e)
  | 2 -> before ^ "%z" ^ String.make 1 c ^ after
  | 3 ->
    before
    ^ String.mapi
        (fun i ch -> if i mod 2 = 0 then Char.uppercase_ascii ch else Char.lowercase_ascii ch)
        (String.lowercase_ascii after)
  | _ -> if at < n then before ^ String.sub after 1 (n - at - 1) else before

let gen_wire_line =
  QCheck2.Gen.(
    let schema_of name = if name = "parts" then Some Workload.parts_schema else None in
    let encoded =
      map2
        (fun txn_id ops -> Op_delta.encode_line ~schema_of (Op_delta.with_before_images ~txn_id ops))
        gen_wire_int (list_size (int_range 0 4) gen_wire_op)
    in
    let hit =
      triple (int_range 0 4) (float_bound_exclusive 1.0)
        (oneofl [ '%'; '#'; '\t'; '\''; '-'; '.'; 'e'; '9'; '@'; '('; 'x' ])
    in
    frequency
      [
        (3, encoded);
        (3, map2 (List.fold_left damage) encoded (list_size (int_range 1 2) hit));
        (1, map2 (fun txn text -> txn ^ "\t" ^ text) (oneofl [ "1"; "-4"; "x" ]) gen_sqlish);
      ])

let prop_line_decodes_in_place =
  let schema_of name = if name = "parts" then Some Workload.parts_schema else None in
  let same (a : Op_delta.t) (b : Op_delta.t) =
    a.txn_id = b.txn_id
    && List.equal
         (fun (x : Op_delta.op) (y : Op_delta.op) ->
           Ast.equal x.stmt y.stmt && List.equal Tuple.equal x.before_images y.before_images)
         a.ops b.ops
  in
  QCheck2.Test.make ~name:"an Op-Delta line decodes in place as split and copied" ~count:1000
    ~print:(Printf.sprintf "%S") gen_wire_line (fun line ->
      match Op_delta.decode_line ~schema_of line, ref_decode_line ~schema_of line with
      | Ok got, Ok want -> same got want
      | Error got, Error want -> String.equal got want
      | Ok _, Error e | Error e, Ok _ -> QCheck2.Test.fail_reportf "only one side failed: %s" e)

(* ---------- long decimals: the checked quotient vs strtod ---------- *)

(* the 18 significant digits [%.17e] prints for [f], as an int, and the
   power of ten of the first *)
let digits18 f =
  let s = Printf.sprintf "%.17e" f in
  let e = String.index s 'e' in
  (int_of_string (String.sub s 0 1 ^ String.sub s 2 17), int_of_string (String.sub s (e + 1) (String.length s - e - 1)))

(* [m], of [n] digits, as a plain decimal whose first digit is worth 10^[exp] *)
let plain_decimal m n exp =
  let digits = string_of_int m in
  let digits = String.make (max 0 (n - String.length digits)) '0' ^ digits in
  if exp >= n - 1 then digits ^ String.make (exp - n + 1) '0'
  else if exp >= 0 then String.sub digits 0 (exp + 1) ^ "." ^ String.sub digits (exp + 1) (n - exp - 1)
  else "0." ^ String.make (-exp - 1) '0' ^ digits

(* 16 to 19 digit decimals anywhere (19 digits overflow the reader's
   int), and 18 digit ones within a few units of the midpoint between a
   double and the next one up, where the quotient's rounding is closest
   to a tie *)
let gen_long_decimal =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun digits at ->
            let n = String.length digits in
            if at >= n then digits else String.sub digits 0 at ^ "." ^ String.sub digits at (n - at))
          (string_size ~gen:(char_range '0' '9') (int_range 16 19))
          (int_range 1 20);
        map2
          (fun f off ->
            let lo, exp = digits18 f and hi, exp' = digits18 (Float.succ f) in
            plain_decimal ((lo + (if exp = exp' then hi else lo)) / 2 + off) 18 exp)
          (map (fun f -> Float.abs f) Test_sql.gen_finite_float |> map (fun f ->
               if f < 1e-3 || f > 1e17 then 466.57 else f))
          (int_range (-3) 3);
      ])

let prop_long_decimal_reads_as_strtod =
  QCheck2.Test.make ~name:"a 16 to 19 digit decimal reads as float_of_string reads it"
    ~count:2000 ~print:Fun.id gen_long_decimal (fun s ->
      match Codec.short_float s 0 (String.length s) with
      | None -> true
      | Some v -> Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float (float_of_string s)))

(* ---------- the folding aggregate evaluator against the list one ---------- *)

(* The aggregate SELECT evaluator the folding one replaced: a list of
   rows per group, each item a function of its group's rows.  Kept here
   as the reference, with one change the fold makes on purpose: a
   group's rows fold in rid order (the replaced one consed them, so a
   group folded in reverse). *)
module Ref_aggregate = struct
  let output_name i = function
    | Ast.Star -> "*"
    | Ast.Item (_, Some alias) | Ast.Agg (_, _, Some alias) -> alias
    | Ast.Item (Expr.Col c, None) -> c
    | Ast.Item (_, None) | Ast.Agg (_, _, None) -> Printf.sprintf "col%d" i

  let sort_on idxs rows =
    if idxs = [] then rows
    else
      List.sort
        (fun (a : Value.t array) b ->
          let rec go = function
            | [] -> 0
            | i :: rest ->
              let c = Value.compare a.(i) b.(i) in
              if c <> 0 then c else go rest
          in
          go idxs)
        rows

  let check_columns schema e =
    List.iter
      (fun col ->
        if not (Schema.mem schema col) then invalid_arg (Printf.sprintf "unknown column %s" col))
      (Expr.columns e)

  let aggregate fn eval rows =
    let values () =
      List.filter_map
        (fun row ->
          let v = eval row in
          if Value.is_null v then None else Some v)
        rows
    in
    match fn with
    | Ast.Count_star -> Value.Int (List.length rows)
    | Ast.Count -> Value.Int (List.length (values ()))
    | Ast.Sum -> List.fold_left Value.add (Value.Int 0) (values ())
    | Ast.Avg -> (
        match values () with
        | [] -> Value.Null
        | vs ->
          let total = List.fold_left Value.add (Value.Int 0) vs in
          Value.div
            (match total with Value.Int n -> Value.Float (float_of_int n) | v -> v)
            (Value.Float (float_of_int (List.length vs))))
    | Ast.Min -> (
        match values () with
        | [] -> Value.Null
        | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
    | Ast.Max -> (
        match values () with
        | [] -> Value.Null
        | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)

  let eval schema ~items ~group_by ~order_by tuples =
    let group_idxs =
      List.map
        (fun col ->
          match Schema.index_of_opt schema col with
          | Some i -> i
          | None -> invalid_arg (Printf.sprintf "GROUP BY: unknown column %s" col))
        group_by
    in
    let module RowMap = Map.Make (struct
      type t = Value.t array

      let compare a b = Tuple.compare a b
    end) in
    let groups =
      if group_by = [] then RowMap.singleton [||] tuples
      else
        RowMap.map List.rev
          (List.fold_left
             (fun acc tuple ->
               let key = Array.of_list (List.map (fun i -> tuple.(i)) group_idxs) in
               RowMap.update key
                 (function None -> Some [ tuple ] | Some l -> Some (tuple :: l))
                 acc)
             RowMap.empty tuples)
    in
    let names =
      List.mapi
        (fun i item ->
          match item with
          | Ast.Star -> invalid_arg "SELECT: * not allowed with aggregates/GROUP BY"
          | Ast.Item _ | Ast.Agg _ -> output_name i item)
        items
    in
    let compile e =
      check_columns schema e;
      Expr.compile schema e
    in
    let item_fns =
      List.map
        (fun item ->
          match item with
          | Ast.Star -> assert false
          | Ast.Agg (Ast.Count_star, _, _) -> aggregate Ast.Count_star (fun _ -> Value.Null)
          | Ast.Agg (fn, Some e, _) -> aggregate fn (compile e)
          | Ast.Agg (_, None, _) -> invalid_arg "aggregate without argument"
          | Ast.Item (Expr.Col c, _) when List.mem c group_by -> (
              let i = Schema.index_of schema c in
              function row :: _ -> row.(i) | [] -> Value.Null)
          | Ast.Item _ ->
            invalid_arg "SELECT with GROUP BY: non-aggregate items must be grouping columns")
        items
    in
    let eval_group rows = Array.of_list (List.map (fun f -> f rows) item_fns) in
    let out_rows = List.rev (RowMap.fold (fun _key rows acc -> eval_group rows :: acc) groups []) in
    let idx_of name =
      match List.find_index (fun n -> n = name) names with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "ORDER BY: unknown output column %s" name)
    in
    Db.Rows { columns = names; rows = sort_on (List.map idx_of order_by) out_rows }

  (* [Db.exec_sql] of an aggregate SELECT as it ran: the WHERE filter
     over the transaction's rows in rid order, then the list evaluator *)
  let exec_sql db txn sql =
    match Parser.parse sql with
    | Error e -> Error e
    | Ok (Ast.Select { items; table; where; group_by; order_by }) -> (
        let schema = Table.schema (Db.table db table) in
        match
          let rows = Db.select db txn table () in
          let rows =
            match where with
            | None -> rows
            | Some e ->
              check_columns schema e;
              List.filter (Expr.compile_pred schema e) rows
          in
          eval schema ~items ~group_by ~order_by rows
        with
        | result -> Ok result
        | exception Invalid_argument msg -> Error msg)
    | Ok _ -> Error "not a SELECT"
end

(* a table with a column of every kind, NULLs everywhere but the key; a
   column holds no NaN or infinity, but sums of 1e308 and expressions
   over them reach both *)
let agg_schema =
  Schema.make
    [
      { Schema.name = "k"; ty = Value.Tint; nullable = false };
      { Schema.name = "i"; ty = Value.Tint; nullable = true };
      { Schema.name = "f"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "d"; ty = Value.Tdate; nullable = true };
      { Schema.name = "s"; ty = Value.Tstring 200; nullable = true };
      { Schema.name = "g"; ty = Value.Tint; nullable = true };
      { Schema.name = "b"; ty = Value.Tbool; nullable = true };
    ]

type agg_case = {
  rows : Value.t list list;  (* i, f, d, s, g, b of keys 1, 2, ... *)
  later : (int * bool) list;  (* after the snapshot: key, deleted (else updated) *)
  query : Ast.stmt;
}

let gen_agg_case =
  let open QCheck2.Gen in
  let null_or g = oneof [ return Value.Null; g ] in
  let int_v =
    null_or
      (oneof
         [
           map (fun n -> Value.Int n) (int_range (-5) 5);
           oneofl [ Value.Int max_int; Value.Int min_int; Value.Int (max_int - 1) ];
         ])
  in
  let float_v =
    null_or
      (oneof
         [
           map (fun n -> Value.Float (float_of_int n /. 4.0)) (int_range (-2) 2);
           oneofl (List.map (fun f -> Value.Float f) [ 0.0; -0.0; -0.0; 1e308; -1e308; 0.1 ]);
         ])
  in
  let date_v = null_or (map (fun d -> Value.Date d) (int_range 0 4)) in
  let str_v = null_or (map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab" ])) in
  let group_v = null_or (map (fun n -> Value.Int n) (int_range 0 3)) in
  let bool_v = null_or (map (fun b -> Value.Bool b) bool) in
  let row =
    let* i = int_v and* f = float_v and* d = date_v and* s = str_v and* g = group_v in
    let+ b = bool_v in
    [ i; f; d; s; g; b ]
  in
  let col = Expr.(oneofl [ Col "i"; Col "f"; Col "d"; Col "s"; Col "g"; Col "b" ]) in
  let lit =
    oneofl
      Value.
        [ Null; Int (-1); Int 0; Int 2; Int max_int; Float 0.5; Float (-0.0); Float 2.0; Date 2;
          Str "a"; Bool true ]
  in
  let operand =
    frequency
      [
        (4, col);
        (1, oneofl
          Expr.
            [
              Binop (Add, Col "i", Col "f");
              Binop (Mul, Col "i", Lit (Value.Int 2));
              Binop (Div, Col "g", Col "i");
              (* infinities, and a NaN, from finite columns *)
              Binop (Add, Col "f", Col "f");
              Binop (Sub, Binop (Add, Col "f", Col "f"), Binop (Add, Col "f", Col "f"));
              Col "zz";
            ]);
      ]
  in
  let leaf =
    frequency
      [
        (6, let* op = oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ] and* c = col and* v = lit in
         let+ flipped = bool in
         if flipped then Expr.Cmp (op, Expr.Lit v, c) else Expr.Cmp (op, c, Expr.Lit v));
        (1, map (fun c -> Expr.Is_null c) col);
        (1, map (fun c -> Expr.Is_not_null c) col);
        (1, oneofl
          Expr.
            [
              Cmp (Gt, Binop (Add, Col "i", Lit (Value.Int 1)), Lit (Value.Int 0));
              Cmp (Eq, Col "zz", Lit (Value.Int 1));
              Col "b";
              Col "g";
            ]);
      ]
  in
  let pred =
    fix (fun self depth ->
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Expr.And (a, b)) (self (depth - 1)) (self (depth - 1));
              map2 (fun a b -> Expr.Or (a, b)) (self (depth - 1)) (self (depth - 1));
              map (fun a -> Expr.Not a) (self (depth - 1));
            ])
      2
  in
  let agg =
    oneof
      [
        return (Ast.Agg (Ast.Count_star, None, None));
        map2
          (fun fn e -> Ast.Agg (fn, Some e, None))
          (oneofl Ast.[ Count; Sum; Avg; Min; Max ])
          operand;
      ]
  in
  let group_by =
    frequency
      [
        (3, return []);
        (8, oneofl [ [ "g" ]; [ "d" ]; [ "f" ]; [ "s" ]; [ "b" ]; [ "g"; "d" ]; [ "i" ]; [ "f"; "g" ] ]);
        (1, return [ "zz" ]);
      ]
  in
  let case =
    let* rows = list_size (int_range 0 60) row and* group_by = group_by in
    let item =
      frequency
        [
          (14, agg);
          ( 4,
            map (fun c -> Ast.Item (Expr.Col c, None)) (oneofl (if group_by = [] then [ "g" ] else group_by)) );
          (1, map (fun c -> Ast.Item (Expr.Col c, None)) (oneofl [ "g"; "f" ]));
          (1, return Ast.Star);
        ]
    in
    let* items = list_size (int_range 1 3) item
    and* where = option pred
    and* order_by = frequency [ (4, return `None); (4, return `First); (1, return `Unknown) ] in
    let items =
      if group_by = [] && not (List.exists (function Ast.Agg _ -> true | _ -> false) items) then
        Ast.Agg (Ast.Count_star, None, None) :: items
      else items
    in
    let order_by =
      match order_by, items with
      | `None, _ -> []
      | `First, item :: _ -> [ Ref_aggregate.output_name 0 item ]
      | `First, [] -> []
      | `Unknown, _ -> [ "zz" ]
    in
    let+ later =
      list_size (int_range 0 10) (pair (int_range 1 (max 1 (List.length rows))) bool)
    in
    { rows; later; query = Ast.Select { items; table = "t"; where; group_by; order_by } }
  in
  case

let same_value a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let prop_fold_matches_list_evaluator =
  QCheck2.Test.make ~name:"the folding aggregate evaluator matches the list one" ~count:300
    ~print:(fun c ->
      Printf.sprintf "%s over %d rows, %d later writes" (Printer.to_string c.query)
        (List.length c.rows) (List.length c.later))
    gen_agg_case
    (fun c ->
      let sql = Printer.to_string c.query in
      let db = Db.create ~pool_pages:4 ~vfs:(Vfs.in_memory ()) ~name:"db" () in
      ignore (Db.create_table db ~name:"t" agg_schema : Table.t);
      Db.with_txn db (fun txn ->
          List.iteri
            (fun k row ->
              ignore (Db.insert db txn "t" (Array.of_list (Value.Int (k + 1) :: row)) : Heap_file.rid))
            c.rows);
      let snap = Db.begin_txn ~mode:`Snapshot db in
      (* the snapshot reads these rows through their version chains *)
      Db.with_txn db (fun txn ->
          List.iter
            (fun (k, deleted) ->
              let key = Expr.Cmp (Expr.Eq, Expr.Col "k", Expr.Lit (Value.Int k)) in
              if deleted then ignore (Db.delete_where db txn "t" ~where:(Some key) : int)
              else
                ignore
                  (Db.update_where db txn "t"
                     ~set:[ ("g", Expr.Lit (Value.Int 9)); ("f", Expr.Lit (Value.Float (-0.0))) ]
                     ~where:(Some key)
                    : int))
            c.later);
      let same a b =
        match a, b with
        | Ok (Db.Rows x), Ok (Db.Rows y) ->
          x.columns = y.columns
          && List.equal (fun r s -> Array.length r = Array.length s && Array.for_all2 same_value r s) x.rows y.rows
        | Error x, Error y -> x = y
        | _ -> false
      in
      let show = function
        | Ok (Db.Rows { rows; _ }) ->
          String.concat "; "
            (List.map (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r))) rows)
        | Ok _ -> "not rows"
        | Error e -> "error: " ^ e
      in
      let agree what want got =
        if not (same want got) then
          QCheck2.Test.fail_reportf "%s: want %s, got %s" what (show want) (show got)
      in
      let want = Ref_aggregate.exec_sql db snap sql in
      agree "snapshot" want (Db.exec_sql db snap sql);
      Dw_util.Domain_pool.with_pool ~domains:2 (fun pool ->
          for partitions = 1 to 5 do
            agree
              (Printf.sprintf "Par_scan at %d partitions" partitions)
              want
              (Dw_warehouse.Par_scan.exec_sql ~partitions ~pool db snap sql)
          done);
      Db.commit db snap;
      let rw = Db.begin_txn db in
      agree "read-write" (Ref_aggregate.exec_sql db rw sql) (Db.exec_sql db rw sql);
      Db.commit db rw;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_printers_match;
    QCheck_alcotest.to_alcotest prop_float_literal_reads_back;
    QCheck_alcotest.to_alcotest prop_lexer_matches;
    QCheck_alcotest.to_alcotest prop_decode_matches;
    QCheck_alcotest.to_alcotest prop_ascii_roundtrip;
    QCheck_alcotest.to_alcotest prop_fnv1a_matches;
    test "fnv1a rejects ranges outside the string" fnv1a_rejects_bad_ranges;
    QCheck_alcotest.to_alcotest prop_btree_matches_map;
    QCheck_alcotest.to_alcotest prop_delete_logs_before_image;
    test "heap delete returns the record the slot held" heap_delete_returns_record;
    test "an overflowing FLOAT update is rejected; pipelines agree" overflowing_float_rejected;
    QCheck_alcotest.to_alcotest prop_ast_runs_as_text;
    test "a duplicate-key Op-Delta keeps its error text" duplicate_key_error_text;
    QCheck_alcotest.to_alcotest prop_value_delta_loads_by_key;
    QCheck_alcotest.to_alcotest prop_float_short_and_exact;
    QCheck_alcotest.to_alcotest prop_file_matches_lines;
    QCheck_alcotest.to_alcotest prop_range_delete_matches_where;
    QCheck_alcotest.to_alcotest prop_update_logs_before_image;
    QCheck_alcotest.to_alcotest prop_line_decodes_in_place;
    QCheck_alcotest.to_alcotest prop_long_decimal_reads_as_strtod;
    QCheck_alcotest.to_alcotest prop_fold_matches_list_evaluator;
  ]
