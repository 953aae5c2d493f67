(* Tests for Dw_relation: values, schemas, tuples, codecs, expressions.
   Includes qcheck round-trip properties for both codecs. *)

module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Codec = Dw_relation.Codec
module Expr = Dw_relation.Expr

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- fixtures ---------- *)

let parts_schema =
  Schema.make ~key_arity:1
    [
      { Schema.name = "part_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "descr"; ty = Value.Tstring 40; nullable = true };
      { Schema.name = "qty"; ty = Value.Tint; nullable = true };
      { Schema.name = "price"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "active"; ty = Value.Tbool; nullable = true };
      { Schema.name = "last_modified"; ty = Value.Tdate; nullable = false };
    ]

let part ?(id = 1) ?(descr = "widget") ?(qty = 10) ?(price = 9.99) ?(active = true) ?(day = 10950)
    () =
  [| Value.Int id; Value.Str descr; Value.Int qty; Value.Float price; Value.Bool active;
     Value.Date day |]

(* ---------- values ---------- *)

let value_compare_numeric () =
  check Alcotest.bool "int<int" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check Alcotest.bool "int/float mixed" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  check Alcotest.bool "float/int equal" true
    (Value.compare (Value.Float 2.0) (Value.Int 2) = 0);
  check Alcotest.bool "null smallest" true (Value.compare Value.Null (Value.Int min_int) < 0)

let value_arith () =
  check Alcotest.bool "add ints" true (Value.equal (Value.add (Value.Int 2) (Value.Int 3)) (Value.Int 5));
  check Alcotest.bool "promote" true
    (Value.equal (Value.mul (Value.Int 2) (Value.Float 1.5)) (Value.Float 3.0));
  check Alcotest.bool "null propagates" true (Value.is_null (Value.add Value.Null (Value.Int 1)));
  Alcotest.check_raises "div by zero" (Invalid_argument "Value.div: division by zero") (fun () ->
      ignore (Value.div (Value.Int 1) (Value.Int 0)))

let value_ty_compat () =
  check Alcotest.bool "int ok" true (Value.ty_compatible Value.Tint (Value.Int 3));
  check Alcotest.bool "null ok anywhere" true (Value.ty_compatible Value.Tbool Value.Null);
  check Alcotest.bool "str fits" true (Value.ty_compatible (Value.Tstring 3) (Value.Str "abc"));
  check Alcotest.bool "str too long" false (Value.ty_compatible (Value.Tstring 3) (Value.Str "abcd"));
  check Alcotest.bool "wrong type" false (Value.ty_compatible Value.Tint (Value.Str "x"))

let value_ty_string_roundtrip () =
  List.iter
    (fun ty ->
      check Alcotest.bool "ty roundtrip" true
        (Value.ty_of_string (Value.ty_to_string ty) = Some ty))
    [ Value.Tint; Value.Tfloat; Value.Tbool; Value.Tdate; Value.Tstring 17 ]

let value_dates () =
  (match Value.date_of_ymd ~year:1970 ~month:1 ~day:1 with
   | Value.Date 0 -> ()
   | v -> Alcotest.failf "epoch should be day 0, got %s" (Value.to_string v));
  (match Value.date_of_ymd ~year:1999 ~month:12 ~day:5 with
   | Value.Date d ->
     (* 1999-12-05 is 10930 days after 1970-01-01 *)
     check Alcotest.int "1999-12-05" 10930 d
   | v -> Alcotest.failf "unexpected %s" (Value.to_string v))

let value_sql_literal () =
  check Alcotest.string "escaping" "'o''brien'" (Value.to_sql_literal (Value.Str "o'brien"));
  check Alcotest.string "null" "NULL" (Value.to_sql_literal Value.Null);
  check Alcotest.string "bool" "TRUE" (Value.to_sql_literal (Value.Bool true))

(* ---------- schema ---------- *)

let schema_lookup () =
  check Alcotest.int "arity" 6 (Schema.arity parts_schema);
  check Alcotest.int "key arity" 1 (Schema.key_arity parts_schema);
  check Alcotest.int "index_of" 3 (Schema.index_of parts_schema "price");
  check Alcotest.bool "mem" true (Schema.mem parts_schema "qty");
  check Alcotest.bool "not mem" false (Schema.mem parts_schema "nope")

let schema_validation_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Schema.make: empty column list") (fun () ->
      ignore (Schema.make []));
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column a") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "a"; ty = Value.Tint; nullable = false };
             { Schema.name = "a"; ty = Value.Tint; nullable = false };
           ]))

let schema_record_size () =
  (* 1 bitmap byte (6 cols) + 8 + (2+40) + 8 + 8 + 1 + 8 = 76 *)
  check Alcotest.int "record size" 76 (Schema.record_size parts_schema)

let schema_project () =
  let sub = Schema.project parts_schema [ "qty"; "part_id" ] in
  check Alcotest.int "sub arity" 2 (Schema.arity sub);
  check Alcotest.int "order preserved" 0 (Schema.index_of sub "qty")

(* ---------- tuples ---------- *)

let tuple_validate () =
  check Alcotest.bool "valid" true (Tuple.validate parts_schema (part ()) = Ok ());
  let bad_arity = [| Value.Int 1 |] in
  check Alcotest.bool "arity" true (Result.is_error (Tuple.validate parts_schema bad_arity));
  let null_key = part () in
  null_key.(0) <- Value.Null;
  check Alcotest.bool "null key" true (Result.is_error (Tuple.validate parts_schema null_key));
  let wrong_ty = part () in
  wrong_ty.(2) <- Value.Str "x";
  check Alcotest.bool "type" true (Result.is_error (Tuple.validate parts_schema wrong_ty))

let tuple_key_ops () =
  let a = part ~id:1 () and b = part ~id:2 ~descr:"other" () in
  check Alcotest.bool "key compare" true (Tuple.compare_key parts_schema a b < 0);
  check Alcotest.int "key arity" 1 (Array.length (Tuple.key parts_schema a))

let tuple_get_set () =
  let t = part () in
  let t' = Tuple.set parts_schema t "qty" (Value.Int 99) in
  check Alcotest.bool "functional" true (Value.equal (Tuple.get parts_schema t "qty") (Value.Int 10));
  check Alcotest.bool "updated" true (Value.equal (Tuple.get parts_schema t' "qty") (Value.Int 99))

(* ---------- codecs ---------- *)

let binary_roundtrip_simple () =
  let t = part ~descr:"hello world" () in
  let b = Codec.encode_binary parts_schema t in
  check Alcotest.int "width" (Schema.record_size parts_schema) (Bytes.length b);
  let t' = Codec.decode_binary parts_schema b 0 in
  check Alcotest.bool "roundtrip" true (Tuple.equal t t')

let binary_roundtrip_nulls () =
  let t = part () in
  t.(1) <- Value.Null;
  t.(3) <- Value.Null;
  let t' = Codec.decode_binary parts_schema (Codec.encode_binary parts_schema t) 0 in
  check Alcotest.bool "roundtrip with nulls" true (Tuple.equal t t')

let ascii_roundtrip_escapes () =
  let t = part ~descr:"a|b\\c\nd" () in
  let line = Codec.encode_ascii parts_schema t in
  check Alcotest.bool "single line" false (String.contains line '\n');
  match Codec.decode_ascii parts_schema line with
  | Ok t' -> check Alcotest.bool "roundtrip" true (Tuple.equal t t')
  | Error e -> Alcotest.fail e

let ascii_rejects_garbage () =
  check Alcotest.bool "bad field count" true
    (Result.is_error (Codec.decode_ascii parts_schema "1|2"));
  check Alcotest.bool "bad int" true
    (Result.is_error (Codec.decode_ascii parts_schema "x|d|1|1.0|T|10"))

(* qcheck generators *)

let gen_value ty =
  let open QCheck2.Gen in
  match ty with
  | Value.Tint -> map (fun n -> Value.Int n) int
  | Value.Tfloat -> map (fun f -> Value.Float f) (float_bound_inclusive 1e9)
  | Value.Tbool -> map (fun b -> Value.Bool b) bool
  | Value.Tdate -> map (fun d -> Value.Date d) (int_range 0 100000)
  | Value.Tstring n ->
    map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 (min n 20)))

let gen_tuple schema =
  let open QCheck2.Gen in
  let cols = Schema.columns schema in
  let gens =
    List.mapi
      (fun i c ->
        if c.Schema.nullable && i >= Schema.key_arity schema then
          frequency [ (1, return Value.Null); (4, gen_value c.Schema.ty) ]
        else gen_value c.Schema.ty)
      cols
  in
  map Array.of_list (flatten_l gens)

let prop_binary_roundtrip =
  QCheck2.Test.make ~name:"binary codec roundtrip" ~count:500 (gen_tuple parts_schema)
    (fun t ->
      let t' = Codec.decode_binary parts_schema (Codec.encode_binary parts_schema t) 0 in
      Tuple.equal t t')

let prop_ascii_roundtrip =
  QCheck2.Test.make ~name:"ascii codec roundtrip" ~count:500 (gen_tuple parts_schema)
    (fun t ->
      match Codec.decode_ascii parts_schema (Codec.encode_ascii parts_schema t) with
      | Ok t' -> Tuple.equal t t'
      | Error _ -> false)

(* ---------- expressions ---------- *)

let expr_eval_basics () =
  let t = part ~qty:10 ~price:2.5 () in
  let e = Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Lit (Value.Int 5)) in
  check Alcotest.bool "qty > 5" true (Expr.eval_pred parts_schema t e);
  let e2 =
    Expr.And
      ( Expr.Cmp (Expr.Ge, Expr.Col "price", Expr.Lit (Value.Float 2.5)),
        Expr.Not (Expr.Cmp (Expr.Eq, Expr.Col "descr", Expr.Lit (Value.Str "nope"))) )
  in
  check Alcotest.bool "conjunction" true (Expr.eval_pred parts_schema t e2)

let expr_null_semantics () =
  let t = part () in
  let t = Tuple.set parts_schema t "qty" Value.Null in
  let cmp = Expr.Cmp (Expr.Eq, Expr.Col "qty", Expr.Lit (Value.Int 10)) in
  check Alcotest.bool "null cmp false" false (Expr.eval_pred parts_schema t cmp);
  check Alcotest.bool "is null" true (Expr.eval_pred parts_schema t (Expr.Is_null (Expr.Col "qty")));
  check Alcotest.bool "is not null" false
    (Expr.eval_pred parts_schema t (Expr.Is_not_null (Expr.Col "qty")))

let expr_arith_eval () =
  let t = part ~qty:4 () in
  let e = Expr.Binop (Expr.Mul, Expr.Col "qty", Expr.Lit (Value.Int 3)) in
  check Alcotest.bool "4*3" true (Value.equal (Expr.eval parts_schema t e) (Value.Int 12))

let expr_columns () =
  let e =
    Expr.And
      ( Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Col "part_id"),
        Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 3)) )
  in
  check (Alcotest.list Alcotest.string) "refs" [ "qty"; "part_id" ] (Expr.columns e)

let expr_pp_parens () =
  let e =
    Expr.Binop
      (Expr.Mul, Expr.Binop (Expr.Add, Expr.Col "a", Expr.Col "b"), Expr.Lit (Value.Int 2))
  in
  check Alcotest.string "parens" "(a + b) * 2" (Expr.to_string e)

let expr_conj () =
  check Alcotest.bool "empty" true (Expr.conj [] = None);
  let p = Expr.Cmp (Expr.Eq, Expr.Col "a", Expr.Lit (Value.Int 1)) in
  (match Expr.conj [ p; p ] with
   | Some (Expr.And _) -> ()
   | _ -> Alcotest.fail "expected And")

(* equal tuples compare 0; a proper prefix sorts first; otherwise the
   first differing column decides *)
let tuple_compare () =
  let i n = Value.Int n and str s = Value.Str s in
  let cases =
    [
      ("equal", [| i 1; str "a" |], [| i 1; str "a" |], 0);
      ("both empty", [||], [||], 0);
      ("empty first", [||], [| i 0 |], -1);
      ("shorter prefix first", [| i 1 |], [| i 1; str "a" |], -1);
      ("longer after prefix", [| i 1; str "a"; i 0 |], [| i 1; str "a" |], 1);
      ("shared prefix, later column decides", [| i 1; str "a"; i 2 |], [| i 1; str "b" |], -1);
      ("first column decides over length", [| i 2 |], [| i 1; str "z" |], 1);
    ]
  in
  List.iter
    (fun (name, a, b, expected) ->
      check Alcotest.int name expected (Int.compare (Tuple.compare a b) 0);
      check Alcotest.int (name ^ " (swapped)") (-expected) (Int.compare (Tuple.compare b a) 0);
      check Alcotest.bool (name ^ " equal") (expected = 0) (Tuple.equal a b))
    cases

let suite =
  [
    test "value compare numeric" value_compare_numeric;
    test "value arith" value_arith;
    test "value type compatibility" value_ty_compat;
    test "value type string roundtrip" value_ty_string_roundtrip;
    test "value dates" value_dates;
    test "value sql literal" value_sql_literal;
    test "schema lookup" schema_lookup;
    test "schema validation errors" schema_validation_errors;
    test "schema record size" schema_record_size;
    test "schema project" schema_project;
    test "tuple validate" tuple_validate;
    test "tuple key ops" tuple_key_ops;
    test "tuple get/set" tuple_get_set;
    test "binary roundtrip simple" binary_roundtrip_simple;
    test "binary roundtrip nulls" binary_roundtrip_nulls;
    test "ascii roundtrip escapes" ascii_roundtrip_escapes;
    test "ascii rejects garbage" ascii_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_binary_roundtrip;
    QCheck_alcotest.to_alcotest prop_ascii_roundtrip;
    test "expr eval basics" expr_eval_basics;
    test "expr null semantics" expr_null_semantics;
    test "expr arith eval" expr_arith_eval;
    test "expr columns" expr_columns;
    test "expr pp parens" expr_pp_parens;
    test "expr conj" expr_conj;
    test "tuple compare" tuple_compare;
  ]
