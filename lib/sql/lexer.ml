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

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "CREATE"; "TABLE"; "AND"; "OR"; "NOT"; "NULL"; "IS"; "TRUE"; "FALSE"; "AS";
    "ORDER"; "BY"; "KEY"; "DATE"; "INT"; "FLOAT"; "BOOL"; "STRING"; "PRIMARY";
    "GROUP"; "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* upper-cased word -> its keyword, built once; the stored string is
   shared by every [KW] token the lexer emits for it *)
let keyword_table =
  let tbl = Hashtbl.create 64 in
  List.iter (fun kw -> Hashtbl.replace tbl kw kw) keywords;
  tbl

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let error = ref None in
  let emit tok = tokens := tok :: !tokens in
  let rec go i =
    match !error with
    | Some _ -> ()
    | None when i >= n -> emit EOF
    | None ->
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
        (match !error with
         | None ->
           emit (STRING (Buffer.contents buf));
           go next
         | Some _ -> ())
      | c when is_digit c ->
        let j = ref i in
        while !j < n && is_digit input.[!j] do incr j done;
        let is_float =
          !j < n && input.[!j] = '.' && !j + 1 < n && is_digit input.[!j + 1]
        in
        if is_float then begin
          incr j;
          while !j < n && is_digit input.[!j] do incr j done;
          (* exponent *)
          if !j < n && (input.[!j] = 'e' || input.[!j] = 'E') then begin
            let k = ref (!j + 1) in
            if !k < n && (input.[!k] = '+' || input.[!k] = '-') then incr k;
            if !k < n && is_digit input.[!k] then begin
              while !k < n && is_digit input.[!k] do incr k done;
              j := !k
            end
          end;
          (* a literal past [max_float] would read as infinity, which no
             FLOAT column accepts *)
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
        (match Hashtbl.find_opt keyword_table (String.uppercase_ascii word) with
         | Some kw -> emit (KW kw)
         | None -> emit (IDENT word));
        go !j
      | c -> error := Some (Printf.sprintf "unexpected character %C at %d" c i)
  in
  go 0;
  match !error with
  | Some e -> Error e
  | None -> Ok (List.rev !tokens)

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
