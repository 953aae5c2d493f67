module Codec = Dw_relation.Codec

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | LPAREN | RPAREN | COMMA | STAR | DOT | SEMI
  | EQ | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | SLASH
  | EOF

exception Lex_error of string

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "CREATE"; "TABLE"; "AND"; "OR"; "NOT"; "NULL"; "IS"; "TRUE"; "FALSE"; "AS";
    "ORDER"; "BY"; "KEY"; "DATE"; "INT"; "FLOAT"; "BOOL"; "STRING"; "PRIMARY";
    "GROUP"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* the [KW] token of each keyword, by length: every token the lexer
   emits for a keyword is this one *)
let keywords_by_length =
  let longest = List.fold_left (fun m kw -> max m (String.length kw)) 0 keywords in
  Array.init (longest + 1) (fun n ->
      List.filter_map (fun kw -> if String.length kw = n then Some (kw, KW kw) else None) keywords)

(* does [kw] spell [s] from [i], in any case, from its byte [k] on? *)
let rec spells kw s i k =
  k = String.length kw
  || (Char.uppercase_ascii (String.unsafe_get s (i + k)) = String.unsafe_get kw k
     && spells kw s i (k + 1))

let rec find_keyword s i = function
  | [] -> EOF
  | (kw, tok) :: rest -> if spells kw s i 0 then tok else find_keyword s i rest

(* the [KW] token of the keyword [s] spells from [i] for [len] bytes, in
   any case, or [EOF] *)
let keyword_at s i len =
  if len < Array.length keywords_by_length then find_keyword s i keywords_by_length.(len)
  else EOF

(* The text is [src] from [base] to [stop]; [pos] is the next byte to
   lex.  Error positions count from [base]. *)
type cursor = { src : string; base : int; stop : int; mutable pos : int }

let cursor src ~off ~len = { src; base = off; stop = off + len; pos = off }

(* the first quote at or after [j], in a literal opening at [i] *)
let rec closing_quote cur i j =
  if j >= cur.stop then
    raise (Lex_error (Printf.sprintf "unterminated string starting at %d" (i - cur.base)))
  else if String.unsafe_get cur.src j = '\'' then j
  else closing_quote cur i (j + 1)

(* the literal opening at [i], whose text resumes at [start] after a
   doubled quote, into [buf]; the index past its closing quote *)
let rec doubled_string cur i buf start =
  let q = closing_quote cur i start in
  Buffer.add_substring buf cur.src start (q - start);
  if q + 1 < cur.stop && cur.src.[q + 1] = '\'' then begin
    Buffer.add_char buf '\'';
    doubled_string cur i buf (q + 2)
  end
  else q + 1

(* a single-quoted literal opening at [i]: one [String.sub] unless it
   holds a doubled quote *)
let string_at cur i =
  let s = cur.src in
  let q = closing_quote cur i (i + 1) in
  if q + 1 >= cur.stop || s.[q + 1] <> '\'' then begin
    cur.pos <- q + 1;
    STRING (String.sub s (i + 1) (q - i - 1))
  end
  else begin
    let buf = Buffer.create (q - i + 16) in
    cur.pos <- doubled_string cur i buf (i + 1);
    STRING (Buffer.contents buf)
  end

let number_at cur i =
  let s = cur.src and n = cur.stop in
  let j = ref i in
  while !j < n && is_digit s.[!j] do incr j done;
  let is_float = !j < n && s.[!j] = '.' && !j + 1 < n && is_digit s.[!j + 1] in
  if is_float then begin
    incr j;
    while !j < n && is_digit s.[!j] do incr j done;
    (* exponent *)
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      let k = ref (!j + 1) in
      if !k < n && (s.[!k] = '+' || s.[!k] = '-') then incr k;
      if !k < n && is_digit s.[!k] then begin
        while !k < n && is_digit s.[!k] do incr k done;
        j := !k
      end
    end;
    cur.pos <- !j;
    match Codec.short_float s i !j with
    | Some f -> FLOAT f
    | None -> (
        (* a literal past [max_float] would read as infinity, which no
           FLOAT column accepts *)
        match float_of_string_opt (String.sub s i (!j - i)) with
        | Some f when Float.is_finite f -> FLOAT f
        | Some _ | None -> raise (Lex_error (Printf.sprintf "bad float at %d" (i - cur.base))))
  end
  else begin
    cur.pos <- !j;
    match Codec.small_int s i !j with
    | Some v -> INT v
    | None -> (
        match int_of_string_opt (String.sub s i (!j - i)) with
        | Some v -> INT v
        | None -> raise (Lex_error (Printf.sprintf "bad int at %d" (i - cur.base))))
  end

let rec next cur =
  let s = cur.src and n = cur.stop and i = cur.pos in
  if i >= n then EOF
  else begin
    (* one byte consumed; a longer token moves [pos] further *)
    cur.pos <- i + 1;
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> next cur
    | '(' -> LPAREN
    | ')' -> RPAREN
    | ',' -> COMMA
    | '*' -> STAR
    | '.' -> DOT
    | ';' -> SEMI
    | '+' -> PLUS
    | '-' -> MINUS
    | '/' -> SLASH
    | '=' -> EQ
    | '<' when i + 1 < n && s.[i + 1] = '=' -> cur.pos <- i + 2; LE
    | '<' when i + 1 < n && s.[i + 1] = '>' -> cur.pos <- i + 2; NEQ
    | '<' -> LT
    | '>' when i + 1 < n && s.[i + 1] = '=' -> cur.pos <- i + 2; GE
    | '>' -> GT
    | '!' when i + 1 < n && s.[i + 1] = '=' -> cur.pos <- i + 2; NEQ
    | '\'' -> string_at cur i
    | c when is_digit c -> number_at cur i
    | c when is_ident_start c ->
      let j = ref (i + 1) in
      while !j < n && is_ident_char (String.unsafe_get s !j) do incr j done;
      cur.pos <- !j;
      (match keyword_at s i (!j - i) with
       | EOF -> IDENT (String.sub s i (!j - i))
       | kw -> kw)
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %C at %d" c (i - cur.base)))
  end

let tokenize input =
  let cur = cursor input ~off:0 ~len:(String.length input) in
  let rec go acc =
    match next cur with
    | EOF -> List.rev (EOF :: acc)
    | tok -> go (tok :: acc)
  in
  match go [] with tokens -> Ok tokens | exception Lex_error e -> Error e

let token_to_string = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "'%s'" s
  | KW k -> k
  | LPAREN -> "(" | RPAREN -> ")" | COMMA -> "," | STAR -> "*" | DOT -> "." | SEMI -> ";"
  | EQ -> "=" | NEQ -> "<>" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | PLUS -> "+" | MINUS -> "-" | SLASH -> "/"
  | EOF -> "<eof>"
