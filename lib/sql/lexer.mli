(** Hand-written lexer for the SQL dialect.

    One lexer, pulled a token at a time: a {!cursor} reads a statement
    where it lies in a larger string (an Op-Delta line's field), and
    {!tokenize} is the list view of the same cursor over a whole string.
    Keywords match in place, integer and short decimal literals read
    through {!Dw_relation.Codec.small_int} and
    {!Dw_relation.Codec.short_float}, and a string literal without a
    doubled quote is one copy. *)

type token =
  | IDENT of string     (** case preserved; keywords are case-insensitive *)
  | INT of int
  | FLOAT of float
  | STRING of string    (** single-quoted, [''] escapes a quote *)
  | KW of string        (** upper-cased keyword *)
  | LPAREN | RPAREN | COMMA | STAR | DOT | SEMI
  | EQ | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | SLASH
  | EOF

exception Lex_error of string
(** A lex error; the message carries a character position counted from
    the start of the cursor's text. *)

val keywords : string list

type cursor

val cursor : string -> off:int -> len:int -> cursor
(** The [len] bytes of the string at [off], read where they lie. *)

val next : cursor -> token
(** The next token; [EOF] at the end, and again on every later call.
    Raises {!Lex_error}. *)

val tokenize : string -> (token list, string) result
(** Every token of the string, ending with [EOF]; the first lex error. *)

val token_to_string : token -> string
