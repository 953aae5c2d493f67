module Expr = Dw_relation.Expr
module Value = Dw_relation.Value

exception Parse_error of string

(* the parser pulls its tokens from the cursor one at a time: [tok] is
   the one it looks at *)
type state = {
  cursor : Lexer.cursor;
  mutable tok : Lexer.token;
}

let peek st = st.tok
let advance st = st.tok <- Lexer.next st.cursor

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* a constructor match, not polymorphic [=] *)
let same_token a b =
  match a, b with
  | Lexer.KW x, Lexer.KW y | Lexer.IDENT x, Lexer.IDENT y | Lexer.STRING x, Lexer.STRING y ->
    String.equal x y
  | Lexer.INT x, Lexer.INT y -> Int.equal x y
  | Lexer.FLOAT x, Lexer.FLOAT y -> Float.equal x y
  | Lexer.LPAREN, Lexer.LPAREN | Lexer.RPAREN, Lexer.RPAREN | Lexer.COMMA, Lexer.COMMA
  | Lexer.STAR, Lexer.STAR | Lexer.DOT, Lexer.DOT | Lexer.SEMI, Lexer.SEMI
  | Lexer.EQ, Lexer.EQ | Lexer.NEQ, Lexer.NEQ | Lexer.LT, Lexer.LT | Lexer.LE, Lexer.LE
  | Lexer.GT, Lexer.GT | Lexer.GE, Lexer.GE | Lexer.PLUS, Lexer.PLUS
  | Lexer.MINUS, Lexer.MINUS | Lexer.SLASH, Lexer.SLASH | Lexer.EOF, Lexer.EOF ->
    true
  | ( ( Lexer.IDENT _ | Lexer.INT _ | Lexer.FLOAT _ | Lexer.STRING _ | Lexer.KW _
      | Lexer.LPAREN | Lexer.RPAREN | Lexer.COMMA | Lexer.STAR | Lexer.DOT | Lexer.SEMI
      | Lexer.EQ | Lexer.NEQ | Lexer.LT | Lexer.LE | Lexer.GT | Lexer.GE | Lexer.PLUS
      | Lexer.MINUS | Lexer.SLASH | Lexer.EOF ),
      _ ) ->
    false

let expect st tok =
  if same_token (peek st) tok then advance st
  else fail "expected %s, found %s" (Lexer.token_to_string tok) (Lexer.token_to_string (peek st))

let expect_kw st kw = expect st (Lexer.KW kw)

let accept st tok =
  if same_token (peek st) tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw = accept st (Lexer.KW kw)

let ident st =
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    name
  | tok -> fail "expected identifier, found %s" (Lexer.token_to_string tok)

(* literals *)

let literal st =
  match peek st with
  | Lexer.INT n -> advance st; Value.Int n
  | Lexer.FLOAT f -> advance st; Value.Float f
  | Lexer.STRING s -> advance st; Value.Str s
  | Lexer.KW "TRUE" -> advance st; Value.Bool true
  | Lexer.KW "FALSE" -> advance st; Value.Bool false
  | Lexer.KW "NULL" -> advance st; Value.Null
  | Lexer.KW "DATE" -> (
      advance st;
      match peek st with
      | Lexer.INT d -> advance st; Value.Date d
      | tok -> fail "expected day number after DATE, found %s" (Lexer.token_to_string tok))
  | Lexer.MINUS -> (
      advance st;
      match peek st with
      | Lexer.INT n -> advance st; Value.Int (-n)
      | Lexer.FLOAT f -> advance st; Value.Float (-.f)
      | tok -> fail "expected number after -, found %s" (Lexer.token_to_string tok))
  | tok -> fail "expected literal, found %s" (Lexer.token_to_string tok)

(* expressions: precedence climbing *)

let rec expr_or st =
  let left = expr_and st in
  if accept_kw st "OR" then Expr.Or (left, expr_or st) else left

and expr_and st =
  let left = expr_not st in
  if accept_kw st "AND" then Expr.And (left, expr_and st) else left

and expr_not st =
  if accept_kw st "NOT" then Expr.Not (expr_not st) else expr_cmp st

and expr_cmp st =
  let left = expr_add st in
  match peek st with
  | Lexer.EQ -> advance st; Expr.Cmp (Expr.Eq, left, expr_add st)
  | Lexer.NEQ -> advance st; Expr.Cmp (Expr.Neq, left, expr_add st)
  | Lexer.LT -> advance st; Expr.Cmp (Expr.Lt, left, expr_add st)
  | Lexer.LE -> advance st; Expr.Cmp (Expr.Le, left, expr_add st)
  | Lexer.GT -> advance st; Expr.Cmp (Expr.Gt, left, expr_add st)
  | Lexer.GE -> advance st; Expr.Cmp (Expr.Ge, left, expr_add st)
  | Lexer.KW "IS" ->
    advance st;
    if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      Expr.Is_not_null left
    end
    else begin
      expect_kw st "NULL";
      Expr.Is_null left
    end
  | _ -> left

and expr_add st =
  let rec loop left =
    match peek st with
    | Lexer.PLUS -> advance st; loop (Expr.Binop (Expr.Add, left, expr_mul st))
    | Lexer.MINUS -> advance st; loop (Expr.Binop (Expr.Sub, left, expr_mul st))
    | _ -> left
  in
  loop (expr_mul st)

and expr_mul st =
  let rec loop left =
    match peek st with
    | Lexer.STAR -> advance st; loop (Expr.Binop (Expr.Mul, left, expr_atom st))
    | Lexer.SLASH -> advance st; loop (Expr.Binop (Expr.Div, left, expr_atom st))
    | _ -> left
  in
  loop (expr_atom st)

and expr_atom st =
  match peek st with
  | Lexer.LPAREN ->
    advance st;
    let e = expr_or st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name -> advance st; Expr.Col name
  | Lexer.INT _ | Lexer.FLOAT _ | Lexer.STRING _ | Lexer.MINUS
  | Lexer.KW ("TRUE" | "FALSE" | "NULL" | "DATE") ->
    Expr.Lit (literal st)
  | tok -> fail "expected expression, found %s" (Lexer.token_to_string tok)

(* statements *)

(* built in order, with no reversed copy *)
let[@tail_mod_cons] rec comma_sep st parse_item =
  let item = parse_item st in
  if accept st Lexer.COMMA then item :: comma_sep st parse_item else [ item ]

let where_clause st = if accept_kw st "WHERE" then Some (expr_or st) else None

let agg_fn_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let select_item st =
  let agg =
    match peek st with
    | Lexer.KW kw -> agg_fn_of_kw kw
    | _ -> None
  in
  match agg with
  | Some fn ->
    advance st;
    expect st Lexer.LPAREN;
    let item =
      if fn = Ast.Count && same_token (peek st) Lexer.STAR then begin
        advance st;
        expect st Lexer.RPAREN;
        Ast.Agg (Ast.Count_star, None, None)
      end
      else begin
        let e = expr_or st in
        expect st Lexer.RPAREN;
        Ast.Agg (fn, Some e, None)
      end
    in
    let alias = if accept_kw st "AS" then Some (ident st) else None in
    (match item, alias with
     | Ast.Agg (fn, e, None), alias -> Ast.Agg (fn, e, alias)
     | item, _ -> item)
  | None when same_token (peek st) Lexer.STAR ->
    advance st;
    Ast.Star
  | None ->
    let e = expr_or st in
    let alias = if accept_kw st "AS" then Some (ident st) else None in
    Ast.Item (e, alias)

let select_stmt st =
  expect_kw st "SELECT";
  let items = comma_sep st select_item in
  expect_kw st "FROM";
  let table = ident st in
  let where = where_clause st in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      comma_sep st ident
    end
    else []
  in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      comma_sep st ident
    end
    else []
  in
  Ast.Select { items; table; where; group_by; order_by }

let row st =
  expect st Lexer.LPAREN;
  let vs = comma_sep st literal in
  expect st Lexer.RPAREN;
  vs

let insert_stmt st =
  expect_kw st "INSERT";
  expect_kw st "INTO";
  let table = ident st in
  let columns =
    if same_token (peek st) Lexer.LPAREN then begin
      advance st;
      let cols = comma_sep st ident in
      expect st Lexer.RPAREN;
      Some cols
    end
    else None
  in
  expect_kw st "VALUES";
  let rows = comma_sep st row in
  Ast.Insert { table; columns; rows }

let update_stmt st =
  expect_kw st "UPDATE";
  let table = ident st in
  expect_kw st "SET";
  let sets =
    comma_sep st (fun st ->
        let col = ident st in
        expect st Lexer.EQ;
        let e = expr_or st in
        (col, e))
  in
  let where = where_clause st in
  Ast.Update { table; sets; where }

let delete_stmt st =
  expect_kw st "DELETE";
  expect_kw st "FROM";
  let table = ident st in
  let where = where_clause st in
  Ast.Delete { table; where }

let column_def st =
  let col_name = ident st in
  let col_ty =
    match peek st with
    | Lexer.KW "INT" -> advance st; Value.Tint
    | Lexer.KW "FLOAT" -> advance st; Value.Tfloat
    | Lexer.KW "BOOL" -> advance st; Value.Tbool
    | Lexer.KW "DATE" -> advance st; Value.Tdate
    | Lexer.KW "STRING" -> (
        advance st;
        expect st Lexer.LPAREN;
        match peek st with
        | Lexer.INT n when n > 0 ->
          advance st;
          expect st Lexer.RPAREN;
          Value.Tstring n
        | tok -> fail "expected positive string length, found %s" (Lexer.token_to_string tok))
    | tok -> fail "expected column type, found %s" (Lexer.token_to_string tok)
  in
  let col_nullable =
    if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      false
    end
    else true
  in
  let col_key =
    if accept_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      true
    end
    else accept_kw st "KEY"
  in
  { Ast.col_name; col_ty; col_nullable; col_key }

let create_stmt st =
  expect_kw st "CREATE";
  expect_kw st "TABLE";
  let table = ident st in
  expect st Lexer.LPAREN;
  let columns = comma_sep st column_def in
  expect st Lexer.RPAREN;
  Ast.Create_table { table; columns }

let statement st =
  match peek st with
  | Lexer.KW "SELECT" -> select_stmt st
  | Lexer.KW "INSERT" -> insert_stmt st
  | Lexer.KW "UPDATE" -> update_stmt st
  | Lexer.KW "DELETE" -> delete_stmt st
  | Lexer.KW "CREATE" -> create_stmt st
  | tok -> fail "expected statement, found %s" (Lexer.token_to_string tok)

let finish st =
  ignore (accept st Lexer.SEMI : bool);
  match peek st with
  | Lexer.EOF -> ()
  | tok -> fail "trailing input: %s" (Lexer.token_to_string tok)

(* A lex error anywhere in the text wins over a parse error, as when the
   whole text was tokenized before parsing: a parse error lexes the rest
   and reports the first lex error there, if any. *)
let rec lex_rest cursor msg =
  match Lexer.next cursor with
  | Lexer.EOF -> Error msg
  | _ -> lex_rest cursor msg
  | exception Lexer.Lex_error e -> Error e

let run src ~off ~len parse_fn =
  let cursor = Lexer.cursor src ~off ~len in
  match
    let st = { cursor; tok = Lexer.next cursor } in
    let result = parse_fn st in
    finish st;
    result
  with
  | result -> Ok result
  | exception Lexer.Lex_error e -> Error e
  | exception Parse_error msg -> lex_rest cursor msg

let parse_sub src ~off ~len = run src ~off ~len statement
let parse input = parse_sub input ~off:0 ~len:(String.length input)
let parse_expr input = run input ~off:0 ~len:(String.length input) expr_or
