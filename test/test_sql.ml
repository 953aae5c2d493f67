(* Tests for Dw_sql: lexer, parser, printer, including the qcheck
   print-parse round-trip property over generated statements. *)

module Lexer = Dw_sql.Lexer
module Parser = Dw_sql.Parser
module Printer = Dw_sql.Printer
module Ast = Dw_sql.Ast
module Expr = Dw_relation.Expr
module Value = Dw_relation.Value

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let parse_ok input =
  match Parser.parse input with
  | Ok stmt -> stmt
  | Error e -> Alcotest.failf "parse %S failed: %s" input e

(* ---------- lexer ---------- *)

let lexer_basics () =
  match Lexer.tokenize "SELECT * FROM parts WHERE qty >= 10.5 AND name = 'o''brien'" with
  | Error e -> Alcotest.fail e
  | Ok tokens ->
    check Alcotest.int "token count" 13 (List.length tokens);
    check Alcotest.bool "string unescaped" true
      (List.exists (function Lexer.STRING "o'brien" -> true | _ -> false) tokens)

let lexer_case_insensitive_keywords () =
  match Lexer.tokenize "select From wHeRe" with
  | Ok [ Lexer.KW "SELECT"; Lexer.KW "FROM"; Lexer.KW "WHERE"; Lexer.EOF ] -> ()
  | Ok _ -> Alcotest.fail "unexpected tokens"
  | Error e -> Alcotest.fail e

let lexer_errors () =
  check Alcotest.bool "unterminated string" true (Result.is_error (Lexer.tokenize "'abc"));
  check Alcotest.bool "bad char" true (Result.is_error (Lexer.tokenize "a @ b"))

let lexer_numbers () =
  match Lexer.tokenize "1 2.5 3e2 1.5e-3" with
  | Ok [ Lexer.INT 1; Lexer.FLOAT 2.5; Lexer.INT 3; Lexer.IDENT "e2"; Lexer.FLOAT f; Lexer.EOF ]
    ->
    (* 3e2 without decimal point lexes as INT 3 then ident; 1.5e-3 is a float *)
    check (Alcotest.float 1e-9) "sci float" 0.0015 f
  | Ok toks ->
    Alcotest.failf "unexpected: %s" (String.concat " " (List.map Lexer.token_to_string toks))
  | Error e -> Alcotest.fail e

(* a float in exponent form prints with a decimal point, so it lexes
   back as one FLOAT; a literal past [max_float] is not a float *)
let float_literal_exponent_form () =
  List.iter
    (fun f ->
      let lit = Value.to_sql_literal (Value.Float f) in
      match Parser.parse_expr lit with
      | Ok (Expr.Lit (Value.Float g)) ->
        check Alcotest.bool (Printf.sprintf "%s reads back" lit) true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Ok e -> Alcotest.failf "%s parsed as %s" lit (Expr.to_string e)
      | Error e -> Alcotest.failf "%s: %s" lit e)
    [ 1e17; 1e22; 2e+20; -1e17; 1e-7; 5e-324; Float.max_float; -0.0 ];
  check Alcotest.string "1e17" "1.0e+17" (Value.to_sql_literal (Value.Float 1e17));
  check Alcotest.string "1.5" "1.5" (Value.to_sql_literal (Value.Float 1.5));
  check Alcotest.string "3" "3.0" (Value.to_sql_literal (Value.Float 3.0));
  match Lexer.tokenize "1.0e400" with
  | Error e -> check Alcotest.string "overflow" "bad float at 0" e
  | Ok _ -> Alcotest.fail "1.0e400 lexed"

(* ---------- parser ---------- *)

let parse_select () =
  match parse_ok "SELECT * FROM parts WHERE last_modified > DATE 10930" with
  | Ast.Select { items = [ Ast.Star ]; table = "parts"; where = Some w; order_by = []; group_by = [] } ->
    check Alcotest.string "where" "last_modified > DATE 10930" (Expr.to_string w)
  | _ -> Alcotest.fail "wrong shape"

let parse_select_items () =
  match parse_ok "SELECT a, b + 1 AS c FROM t ORDER BY a, b" with
  | Ast.Select { items = [ Ast.Item (Expr.Col "a", None); Ast.Item (_, Some "c") ];
                 order_by = [ "a"; "b" ]; _ } ->
    ()
  | _ -> Alcotest.fail "wrong shape"

let parse_insert () =
  match parse_ok "INSERT INTO parts (id, name) VALUES (1, 'bolt'), (2, NULL)" with
  | Ast.Insert { table = "parts"; columns = Some [ "id"; "name" ]; rows = [ r1; r2 ] } ->
    check Alcotest.bool "row1" true (r1 = [ Value.Int 1; Value.Str "bolt" ]);
    check Alcotest.bool "row2 null" true (List.nth r2 1 = Value.Null)
  | _ -> Alcotest.fail "wrong shape"

let parse_update () =
  match parse_ok "UPDATE parts SET status = 'revised', qty = qty - 1 WHERE qty > 0" with
  | Ast.Update { table = "parts"; sets = [ ("status", _); ("qty", _) ]; where = Some _ } -> ()
  | _ -> Alcotest.fail "wrong shape"

let parse_delete () =
  match parse_ok "DELETE FROM parts WHERE id = 7;" with
  | Ast.Delete { table = "parts"; where = Some _ } -> ()
  | _ -> Alcotest.fail "wrong shape"

let parse_create () =
  match
    parse_ok
      "CREATE TABLE parts (id INT NOT NULL KEY, name STRING(40), price FLOAT, added DATE NOT NULL)"
  with
  | Ast.Create_table { table = "parts"; columns = [ c1; c2; _; c4 ] } ->
    check Alcotest.bool "c1 key" true c1.Ast.col_key;
    check Alcotest.bool "c1 not null" false c1.Ast.col_nullable;
    check Alcotest.bool "c2 type" true (c2.Ast.col_ty = Value.Tstring 40);
    check Alcotest.bool "c4 date" true (c4.Ast.col_ty = Value.Tdate)
  | _ -> Alcotest.fail "wrong shape"

let parse_precedence () =
  match Parser.parse_expr "a + b * c = d AND NOT e < f OR g = h" with
  | Ok e ->
    check Alcotest.string "normalised" "a + b * c = d AND NOT e < f OR g = h"
      (Expr.to_string e)
  | Error e -> Alcotest.fail e

let parse_errors () =
  List.iter
    (fun input ->
      check Alcotest.bool (Printf.sprintf "reject %S" input) true
        (Result.is_error (Parser.parse input)))
    [
      "SELECT";
      "SELECT * FROM";
      "INSERT INTO t VALUES";
      "UPDATE t SET";
      "DELETE t WHERE x = 1";
      "CREATE TABLE t ()";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t extra";
      "INSERT INTO t VALUES (1,)";
    ]

let parse_aggregates () =
  match
    parse_ok
      "SELECT qty, COUNT(*) AS n, SUM(price), AVG(price), MIN(part_id), MAX(part_id) FROM \
       parts WHERE qty > 0 GROUP BY qty ORDER BY qty"
  with
  | Ast.Select
      { items =
          [ Ast.Item (Expr.Col "qty", None); Ast.Agg (Ast.Count_star, None, Some "n");
            Ast.Agg (Ast.Sum, Some _, None); Ast.Agg (Ast.Avg, Some _, None);
            Ast.Agg (Ast.Min, Some _, None); Ast.Agg (Ast.Max, Some _, None) ];
        group_by = [ "qty" ]; order_by = [ "qty" ]; _ } ->
    ()
  | _ -> Alcotest.fail "wrong aggregate shape"

let parse_count_expr () =
  match parse_ok "SELECT COUNT(descr) FROM parts" with
  | Ast.Select { items = [ Ast.Agg (Ast.Count, Some (Expr.Col "descr"), None) ]; _ } -> ()
  | _ -> Alcotest.fail "wrong shape"

let aggregate_roundtrip () =
  List.iter
    (fun input ->
      let s1 = parse_ok input in
      let printed = Printer.to_string s1 in
      let s2 = parse_ok printed in
      check Alcotest.bool (Printf.sprintf "roundtrip %S -> %S" input printed) true
        (Ast.equal s1 s2))
    [
      "SELECT COUNT(*) FROM t";
      "SELECT a, SUM(b) AS total FROM t GROUP BY a";
      "SELECT a, b, MIN(c), MAX(c) FROM t WHERE c > 0 GROUP BY a, b ORDER BY a";
      "SELECT AVG(x + y) FROM t";
      "SELECT COUNT(descr) FROM t GROUP BY k";
    ]

(* the paper's running example: an Op-Delta is ~70 bytes *)
let opdelta_size_example () =
  let stmt = parse_ok "UPDATE PARTS SET status = 'revised' WHERE last_modified > DATE 10910" in
  let n = Printer.size_bytes stmt in
  check Alcotest.bool "about 70 bytes" true (n >= 50 && n <= 90)

(* ---------- printer round-trip ---------- *)

let roundtrip_cases =
  [
    "SELECT * FROM parts";
    "SELECT a, b AS c FROM t WHERE x = 1 ORDER BY a";
    "SELECT a + b * 2 FROM t WHERE NOT (x = 1 OR y = 2) AND z IS NOT NULL";
    "INSERT INTO t VALUES (1, 'a', TRUE, NULL, DATE 100)";
    "INSERT INTO t (x, y) VALUES (-5, 2.5)";
    "UPDATE t SET a = a + 1, b = 'x''y' WHERE a < 10";
    "DELETE FROM t WHERE a IS NULL";
    "CREATE TABLE t (id INT NOT NULL KEY, v STRING(10))";
  ]

let printer_roundtrip () =
  List.iter
    (fun input ->
      let s1 = parse_ok input in
      let printed = Printer.to_string s1 in
      let s2 = parse_ok printed in
      check Alcotest.bool (Printf.sprintf "roundtrip %S -> %S" input printed) true
        (Ast.equal s1 s2))
    roundtrip_cases

(* qcheck: generated statements survive print-parse *)

let gen_ident =
  (* avoid generating keywords: the dialect has no identifier quoting *)
  QCheck2.Gen.(
    map2
      (fun c s ->
        let word = Printf.sprintf "%c%s" c s in
        if List.mem (String.uppercase_ascii word) Lexer.keywords then word ^ "_" else word)
      (char_range 'a' 'z')
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)))

(* any finite float: every bit pattern but infinities and NaNs (those
   become [max_float]), plus the edge cases a bit pattern rarely hits *)
let gen_finite_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> float_of_int f /. 4.0) (int_range (-100) 100);
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else Float.max_float)
          ui64;
        oneofl
          [ -0.0; 0.0; Float.max_float; -.Float.max_float; Float.min_float; 5e-324;
            -5e-324; 2.2250738585072009e-308; 1e17; 1e22; 2e+20; -1e100; 1e-7; 0.1 ];
      ])

let gen_literal =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) gen_finite_float;
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun b -> Value.Bool b) bool;
        map (fun d -> Value.Date d) (int_range 0 20000);
        return Value.Null;
      ])

let rec gen_expr_sized n =
  let open QCheck2.Gen in
  if n <= 0 then oneof [ map (fun c -> Expr.Col c) gen_ident; map (fun v -> Expr.Lit v) gen_literal ]
  else
    let sub = gen_expr_sized (n / 2) in
    frequency
      [
        (2, map (fun c -> Expr.Col c) gen_ident);
        (2, map (fun v -> Expr.Lit v) gen_literal);
        (2, map2 (fun a b -> Expr.Binop (Expr.Add, a, b)) sub sub);
        (1, map2 (fun a b -> Expr.Binop (Expr.Mul, a, b)) sub sub);
        (2, map2 (fun a b -> Expr.Cmp (Expr.Le, a, b)) sub sub);
        (2, map2 (fun a b -> Expr.And (a, b)) sub sub);
        (2, map2 (fun a b -> Expr.Or (a, b)) sub sub);
        (1, map (fun a -> Expr.Not a) sub);
        (1, map (fun a -> Expr.Is_null a) sub);
      ]

let gen_stmt =
  let open QCheck2.Gen in
  let gen_expr = int_range 0 8 >>= gen_expr_sized in
  let gen_where = oneof [ return None; map Option.some gen_expr ] in
  oneof
    [
      map3
        (fun items table where -> Ast.Select { items; table; where; group_by = []; order_by = [] })
        (oneof
           [
             return [ Ast.Star ];
             list_size (int_range 1 4) (map (fun e -> Ast.Item (e, None)) gen_expr);
           ])
        gen_ident gen_where;
      map3
        (fun table cols rows ->
          let arity = List.length cols in
          let rows = List.map (fun row -> List.filteri (fun i _ -> i < arity) (row @ row)) rows in
          Ast.Insert { table; columns = Some cols; rows })
        gen_ident
        (list_size (int_range 1 4) gen_ident)
        (list_size (int_range 1 3) (list_size (int_range 4 4) gen_literal));
      map3
        (fun table sets where -> Ast.Update { table; sets; where })
        gen_ident
        (list_size (int_range 1 3) (pair gen_ident gen_expr))
        gen_where;
      map2 (fun table where -> Ast.Delete { table; where }) gen_ident gen_where;
    ]

let prop_print_parse =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 gen_stmt (fun stmt ->
      let printed = Printer.to_string stmt in
      match Parser.parse printed with
      | Ok stmt' -> Ast.equal stmt stmt'
      | Error _ -> false)

let suite =
  [
    test "lexer basics" lexer_basics;
    test "lexer case-insensitive keywords" lexer_case_insensitive_keywords;
    test "lexer errors" lexer_errors;
    test "lexer numbers" lexer_numbers;
    test "float literal in exponent form" float_literal_exponent_form;
    test "parse select" parse_select;
    test "parse select items" parse_select_items;
    test "parse insert" parse_insert;
    test "parse update" parse_update;
    test "parse delete" parse_delete;
    test "parse create" parse_create;
    test "parse precedence" parse_precedence;
    test "parse errors" parse_errors;
    test "parse aggregates" parse_aggregates;
    test "parse count expr" parse_count_expr;
    test "aggregate roundtrip" aggregate_roundtrip;
    test "op-delta size example" opdelta_size_example;
    test "printer roundtrip" printer_roundtrip;
    QCheck_alcotest.to_alcotest prop_print_parse;
  ]
