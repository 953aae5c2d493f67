(** Recursive-descent parser for the SQL dialect.

    Grammar (keywords case-insensitive):

    {v
    stmt    := SELECT items FROM ident [WHERE expr] [ORDER BY ident {, ident}] [;]
             | INSERT INTO ident [( ident {, ident} )] VALUES row {, row} [;]
             | UPDATE ident SET ident = expr {, ident = expr} [WHERE expr] [;]
             | DELETE FROM ident [WHERE expr] [;]
             | CREATE TABLE ident ( coldef {, coldef} ) [;]
    row     := ( literal {, literal} )
    coldef  := ident type [NOT NULL] [PRIMARY KEY | KEY]
    type    := INT | FLOAT | BOOL | DATE | STRING ( int )
    expr    := or-expr with AND/OR/NOT, comparisons, IS [NOT] NULL,
               + - * /, parentheses, column refs, literals
    literal := int | float | 'string' | TRUE | FALSE | NULL | DATE int
               (numeric literals may be negated)
    v} *)

val parse : string -> (Ast.stmt, string) result
(** Tokens are pulled from a {!Lexer.cursor} as the parser goes; no token
    list is built.  A lex error anywhere in the text wins over a parse
    error, as if the whole text were tokenized first. *)

val parse_sub : string -> off:int -> len:int -> (Ast.stmt, string) result
(** {!parse} of the [len] bytes of the string at [off], read where they
    lie (a field of an Op-Delta line); error positions count from [off]. *)

val parse_expr : string -> (Dw_relation.Expr.t, string) result
(** Parse a standalone expression (used by tests). *)
