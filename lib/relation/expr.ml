type binop = Add | Sub | Mul | Div
type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | Col of string
  | Lit of Value.t
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t

let apply_binop = function
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    Value.Bool
      (match op with
       | Eq -> c = 0
       | Neq -> c <> 0
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | Ge -> c >= 0)

let bad_bool v =
  invalid_arg (Printf.sprintf "Expr.eval: expected boolean, got %s" (Value.to_string v))

let as_bool = function
  | Value.Bool _ as v -> v
  | Value.Null -> Value.Bool false
  | v -> bad_bool v

let truth = function Value.Bool b -> b | Value.Null -> false | v -> bad_bool v

(* Column names resolve to indices here, once; the closure does no name
   lookup.  An unknown column raises [Not_found] only when it is
   evaluated.  A binary node evaluates its right operand first: when both
   operands fail, the right one's error is raised. *)
let rec compile schema expr : Tuple.t -> Value.t =
  match expr with
  | Col name -> (
      match Schema.index_of_opt schema name with
      | Some i -> fun tuple -> tuple.(i)
      | None -> fun _ -> raise Not_found)
  | Lit v -> fun _ -> v
  | Binop (op, a, b) ->
    let f = apply_binop op and a = compile schema a and b = compile schema b in
    fun tuple ->
      let vb = b tuple in
      f (a tuple) vb
  | Cmp (op, a, b) ->
    let a = compile schema a and b = compile schema b in
    fun tuple ->
      let vb = b tuple in
      apply_cmp op (a tuple) vb
  | And (a, b) ->
    let a = compile schema a and b = compile schema b in
    fun tuple ->
      (match a tuple with
       | Value.Bool false | Value.Null -> Value.Bool false
       | Value.Bool true -> as_bool (b tuple)
       | v -> bad_bool v)
  | Or (a, b) ->
    let a = compile schema a and b = compile schema b in
    fun tuple ->
      (match a tuple with
       | Value.Bool true -> Value.Bool true
       | Value.Bool false | Value.Null -> as_bool (b tuple)
       | v -> bad_bool v)
  | Not a ->
    let a = compile schema a in
    fun tuple ->
      (match a tuple with
       | Value.Bool b -> Value.Bool (not b)
       | Value.Null -> Value.Bool false
       | v -> bad_bool v)
  | Is_null a ->
    let a = compile schema a in
    fun tuple -> Value.Bool (Value.is_null (a tuple))
  | Is_not_null a ->
    let a = compile schema a in
    fun tuple -> Value.Bool (not (Value.is_null (a tuple)))

let compile_pred schema expr =
  let f = compile schema expr in
  fun tuple -> truth (f tuple)

let eval schema tuple expr = compile schema expr tuple
let eval_pred schema tuple expr = compile_pred schema expr tuple

(* expressions are small: a list is the cheapest set of names seen *)
let columns expr =
  let acc = ref [] in
  let rec go = function
    | Col name -> if not (List.exists (String.equal name) !acc) then acc := name :: !acc
    | Lit _ -> ()
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      go a;
      go b
    | Not a | Is_null a | Is_not_null a -> go a
  in
  go expr;
  List.rev !acc

let rec equal a b =
  match a, b with
  | Col x, Col y -> x = y
  | Lit x, Lit y -> Value.equal x y || (Value.is_null x && Value.is_null y)
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) -> equal a1 a2 && equal b1 b2
  | Not x, Not y | Is_null x, Is_null y | Is_not_null x, Is_not_null y -> equal x y
  | (Col _ | Lit _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Is_null _ | Is_not_null _), _ ->
    false

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let cmp_str = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

(* precedence: Or=1, And=2, Not=3, Cmp=4, Add/Sub=5, Mul/Div=6, atom=7 *)
let prec = function
  | Or _ -> 1
  | And _ -> 2
  | Not _ -> 3
  | Cmp _ | Is_null _ | Is_not_null _ -> 4
  | Binop ((Add | Sub), _, _) -> 5
  | Binop ((Mul | Div), _, _) -> 6
  | Col _ | Lit _ -> 7

let rec add_prec ctx buf expr =
  let p = prec expr in
  let parens = p < ctx in
  if parens then Buffer.add_char buf '(';
  (match expr with
   | Col name -> Buffer.add_string buf name
   | Lit v -> Buffer.add_string buf (Value.to_sql_literal v)
   | Binop (op, a, b) ->
     add_prec p buf a;
     Buffer.add_char buf ' ';
     Buffer.add_string buf (binop_str op);
     Buffer.add_char buf ' ';
     add_prec (p + 1) buf b
   | Cmp (op, a, b) ->
     add_prec (p + 1) buf a;
     Buffer.add_char buf ' ';
     Buffer.add_string buf (cmp_str op);
     Buffer.add_char buf ' ';
     add_prec (p + 1) buf b
   (* AND/OR parse right-associatively, so the right operand prints at the
      operator's own precedence and the left one is forced tighter *)
   | And (a, b) ->
     add_prec (p + 1) buf a;
     Buffer.add_string buf " AND ";
     add_prec p buf b
   | Or (a, b) ->
     add_prec (p + 1) buf a;
     Buffer.add_string buf " OR ";
     add_prec p buf b
   | Not a ->
     Buffer.add_string buf "NOT ";
     add_prec (p + 1) buf a
   | Is_null a ->
     add_prec (p + 1) buf a;
     Buffer.add_string buf " IS NULL"
   | Is_not_null a ->
     add_prec (p + 1) buf a;
     Buffer.add_string buf " IS NOT NULL");
  if parens then Buffer.add_char buf ')'

let add_to_buffer buf expr = add_prec 0 buf expr

let to_string expr =
  let buf = Buffer.create 64 in
  add_to_buffer buf expr;
  Buffer.contents buf

let pp ppf expr = Format.pp_print_string ppf (to_string expr)

let conj = function
  | [] -> None
  | p :: ps -> Some (List.fold_left (fun acc q -> And (acc, q)) p ps)
