(* Tests for Dw_engine: DML, transactions, triggers, timestamp columns,
   SQL execution, Export/Import/Loader utilities, checkpoint + recovery. *)

module Vfs = Dw_storage.Vfs
module Heap_file = Dw_storage.Heap_file
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Export_util = Dw_engine.Export_util
module Import_util = Dw_engine.Import_util
module Ascii_util = Dw_engine.Ascii_util

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let parts_schema =
  Schema.make
    [
      { Schema.name = "part_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "descr"; ty = Value.Tstring 40; nullable = true };
      { Schema.name = "qty"; ty = Value.Tint; nullable = true };
      { Schema.name = "last_modified"; ty = Value.Tdate; nullable = false };
    ]

let part id descr qty = [| Value.Int id; Value.Str descr; Value.Int qty; Value.Date 0 |]

let mk_db ?(archive = false) () =
  let vfs = Vfs.in_memory () in
  Db.create ~archive_log:archive ~vfs ~name:"src" ()

let mk_parts ?archive () =
  let db = mk_db ?archive () in
  let _ = Db.create_table db ~name:"parts" ~ts_column:"last_modified" parts_schema in
  db

let seed_parts db n =
  Db.with_txn db (fun txn ->
      for i = 1 to n do
        ignore (Db.insert db txn "parts" (part i (Printf.sprintf "part-%d" i) (i mod 50))
                : Heap_file.rid)
      done)

let eq_int = Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int 5))

(* ---------- basic DML ---------- *)

let dml_insert_select () =
  let db = mk_parts () in
  seed_parts db 20;
  let rows = Db.with_txn db (fun txn -> Db.select db txn "parts" ~where:eq_int ()) in
  check Alcotest.int "one row" 1 (List.length rows);
  let all = Db.with_txn db (fun txn -> Db.select db txn "parts" ()) in
  check Alcotest.int "all rows" 20 (List.length all)

let dml_update () =
  let db = mk_parts () in
  seed_parts db 10;
  let n =
    Db.with_txn db (fun txn ->
        Db.update_where db txn "parts"
          ~set:[ ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 100))) ]
          ~where:(Some (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 3)))))
  in
  check Alcotest.int "3 updated" 3 n;
  let rows =
    Db.with_txn db (fun txn ->
        Db.select db txn "parts"
          ~where:(Expr.Cmp (Expr.Ge, Expr.Col "qty", Expr.Lit (Value.Int 100)))
          ())
  in
  check Alcotest.int "3 big" 3 (List.length rows)

let dml_delete () =
  let db = mk_parts () in
  seed_parts db 10;
  let n =
    Db.with_txn db (fun txn ->
        Db.delete_where db txn "parts"
          ~where:(Some (Expr.Cmp (Expr.Gt, Expr.Col "part_id", Expr.Lit (Value.Int 7)))))
  in
  check Alcotest.int "3 deleted" 3 n;
  check Alcotest.int "7 left" 7 (Table.row_count (Db.table db "parts"))

let dml_duplicate_key () =
  let db = mk_parts () in
  seed_parts db 3;
  (try
     Db.with_txn db (fun txn ->
         ignore (Db.insert db txn "parts" (part 2 "dup" 0) : Heap_file.rid));
     Alcotest.fail "expected duplicate key failure"
   with Invalid_argument _ -> ());
  (* the failed txn was aborted; table unchanged *)
  check Alcotest.int "count stable" 3 (Table.row_count (Db.table db "parts"))

(* ---------- transactions ---------- *)

let txn_abort_rolls_back () =
  let db = mk_parts () in
  seed_parts db 5;
  let txn = Db.begin_txn db in
  ignore (Db.insert db txn "parts" (part 100 "x" 1) : Heap_file.rid);
  ignore
    (Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 0)) ] ~where:None : int);
  ignore (Db.delete_where db txn "parts" ~where:(Some eq_int) : int);
  Db.abort db txn;
  let rows = Db.with_txn db (fun t -> Db.select db t "parts" ()) in
  check Alcotest.int "count restored" 5 (List.length rows);
  List.iter
    (fun r ->
      match Tuple.get parts_schema r "qty" with
      | Value.Int q -> check Alcotest.bool "qty restored" true (q <> 0 || q = 0 && false = false)
      | _ -> Alcotest.fail "qty type")
    rows;
  (* key 5 still present *)
  let five = Db.with_txn db (fun t -> Db.select db t "parts" ~where:eq_int ()) in
  check Alcotest.int "row 5 back" 1 (List.length five)

let txn_abort_restores_values () =
  let db = mk_parts () in
  seed_parts db 3;
  let before = Db.with_txn db (fun t -> Db.select db t "parts" ()) in
  let txn = Db.begin_txn db in
  ignore
    (Db.update_where db txn "parts" ~set:[ ("descr", Expr.Lit (Value.Str "mangled")) ]
       ~where:None : int);
  Db.abort db txn;
  let after = Db.with_txn db (fun t -> Db.select db t "parts" ()) in
  List.iter2
    (fun a b -> check Alcotest.bool "tuple restored" true (Tuple.equal a b))
    (List.sort Tuple.compare before) (List.sort Tuple.compare after)

let txn_finished_rejected () =
  let db = mk_parts () in
  let txn = Db.begin_txn db in
  Db.commit db txn;
  (try
     ignore (Db.insert db txn "parts" (part 1 "x" 1) : Heap_file.rid);
     Alcotest.fail "expected failure on finished txn"
   with Invalid_argument _ -> ())

(* ---------- timestamp maintenance ---------- *)

let ts_maintained () =
  let db = mk_parts () in
  Db.set_day db 100;
  seed_parts db 5;
  Db.set_day db 200;
  ignore
    (Db.with_txn db (fun txn ->
         Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 1)) ]
           ~where:(Some eq_int)));
  let tbl = Db.table db "parts" in
  let fresh = ref 0 in
  Table.ts_range tbl ~after:150 (fun _ _ -> incr fresh);
  check Alcotest.int "one freshly-stamped row" 1 !fresh;
  let all = ref 0 in
  Table.ts_range tbl ~after:50 (fun _ _ -> incr all);
  check Alcotest.int "all rows stamped" 5 !all

(* ---------- triggers ---------- *)

let delta_schema =
  Schema.make ~key_arity:2
    [
      { Schema.name = "seq"; ty = Value.Tint; nullable = false };
      { Schema.name = "img"; ty = Value.Tstring 10; nullable = false };
      { Schema.name = "part_id"; ty = Value.Tint; nullable = true };
    ]

let install_capture_trigger db =
  let seq = ref 0 in
  let capture (ctx : Db.trigger_ctx) event =
    let record img id =
      incr seq;
      ignore
        (Db.insert ctx.Db.ctx_db ctx.Db.ctx_txn "delta"
           [| Value.Int !seq; Value.Str img; Value.Int id |]
          : Heap_file.rid)
    in
    let id_of tuple = match tuple.(0) with Value.Int i -> i | _ -> -1 in
    match event with
    | Trigger.Inserted (_, t) -> record "new" (id_of t)
    | Trigger.Deleted (_, t) -> record "old" (id_of t)
    | Trigger.Updated (_, before, after) ->
      record "old" (id_of before);
      record "new" (id_of after)
  in
  let _ = Db.create_table db ~name:"delta" delta_schema in
  Db.add_trigger db ~table:"parts"
    { Trigger.name = "capture"; on = [ Trigger.On_insert; Trigger.On_delete; Trigger.On_update ];
      action = capture }

let trigger_captures_images () =
  let db = mk_parts () in
  install_capture_trigger db;
  seed_parts db 4;
  ignore
    (Db.with_txn db (fun txn ->
         Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 9)) ]
           ~where:(Some (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 2))))));
  ignore (Db.with_txn db (fun txn -> Db.delete_where db txn "parts" ~where:(Some eq_int)));
  (* 4 inserts -> 4 rows; 2 updates -> 4 rows (before+after); delete of
     part 5 matches nothing (only 4 parts) -> 0 *)
  check Alcotest.int "delta rows" 8 (Table.row_count (Db.table db "delta"))

let trigger_same_txn_rollback () =
  let db = mk_parts () in
  install_capture_trigger db;
  let txn = Db.begin_txn db in
  ignore (Db.insert db txn "parts" (part 1 "a" 1) : Heap_file.rid);
  check Alcotest.int "delta written in txn" 1 (Table.row_count (Db.table db "delta"));
  Db.abort db txn;
  (* the triggered insert aborts with the user transaction *)
  check Alcotest.int "delta rolled back" 0 (Table.row_count (Db.table db "delta"));
  check Alcotest.int "parts rolled back" 0 (Table.row_count (Db.table db "parts"))

let trigger_selective_events () =
  let db = mk_parts () in
  let fired = ref 0 in
  Db.add_trigger db ~table:"parts"
    { Trigger.name = "only-delete"; on = [ Trigger.On_delete ];
      action = (fun _ _ -> incr fired) };
  seed_parts db 3;
  check Alcotest.int "inserts don't fire" 0 !fired;
  ignore (Db.with_txn db (fun txn -> Db.delete_where db txn "parts" ~where:None));
  check Alcotest.int "deletes fire per row" 3 !fired

let trigger_remove () =
  let db = mk_parts () in
  let fired = ref 0 in
  Db.add_trigger db ~table:"parts"
    { Trigger.name = "t1"; on = [ Trigger.On_insert ]; action = (fun _ _ -> incr fired) };
  check (Alcotest.list Alcotest.string) "registered" [ "t1" ] (Db.triggers_on db "parts");
  Db.remove_trigger db ~table:"parts" "t1";
  seed_parts db 2;
  check Alcotest.int "removed trigger silent" 0 !fired

(* ---------- SQL ---------- *)

let sql_end_to_end () =
  let db = mk_db () in
  Db.with_txn db (fun txn ->
      (match Db.exec_sql db txn "CREATE TABLE parts (part_id INT NOT NULL KEY, descr STRING(40), qty INT)" with
       | Ok Db.Created -> ()
       | Ok _ | Error _ -> Alcotest.fail "create failed");
      (match
         Db.exec_sql db txn "INSERT INTO parts VALUES (1, 'bolt', 5), (2, 'nut', 0), (3, 'cog', 7)"
       with
       | Ok (Db.Affected 3) -> ()
       | Ok _ -> Alcotest.fail "insert shape"
       | Error e -> Alcotest.fail e);
      (match Db.exec_sql db txn "UPDATE parts SET qty = qty + 1 WHERE qty = 0" with
       | Ok (Db.Affected 1) -> ()
       | Ok _ | Error _ -> Alcotest.fail "update failed");
      (match Db.exec_sql db txn "DELETE FROM parts WHERE part_id = 3" with
       | Ok (Db.Affected 1) -> ()
       | Ok _ | Error _ -> Alcotest.fail "delete failed");
      match Db.exec_sql db txn "SELECT descr, qty FROM parts WHERE qty >= 1 ORDER BY part_id" with
      | Ok (Db.Rows { columns; rows }) ->
        check (Alcotest.list Alcotest.string) "columns" [ "descr"; "qty" ] columns;
        check Alcotest.int "rows" 2 (List.length rows);
        (match rows with
         | [ r1; _ ] -> check Alcotest.bool "bolt first" true (r1.(0) = Value.Str "bolt")
         | _ -> Alcotest.fail "rows shape")
      | Ok _ -> Alcotest.fail "select shape"
      | Error e -> Alcotest.fail e)

let sql_aggregates () =
  let db = mk_db () in
  Db.with_txn db (fun txn ->
      (match
         Db.exec_sql db txn
           "CREATE TABLE items (id INT NOT NULL KEY, cat STRING(8), qty INT, price FLOAT)"
       with
       | Ok Db.Created -> ()
       | Ok _ | Error _ -> Alcotest.fail "create failed");
      (match
         Db.exec_sql db txn
           "INSERT INTO items VALUES (1, 'a', 10, 1.5), (2, 'a', 20, 2.5), (3, 'b', 5, 10.0), \
            (4, 'b', NULL, 4.0), (5, 'c', 7, 0.5)"
       with
       | Ok (Db.Affected 5) -> ()
       | Ok _ | Error _ -> Alcotest.fail "insert failed");
      (* grouped aggregates *)
      (match
         Db.exec_sql db txn
           "SELECT cat, COUNT(*) AS n, COUNT(qty) AS nn, SUM(qty) AS total, MIN(price), \
            MAX(price) FROM items GROUP BY cat ORDER BY cat"
       with
       | Ok (Db.Rows { columns; rows }) ->
         check (Alcotest.list Alcotest.string) "columns"
           [ "cat"; "n"; "nn"; "total"; "col4"; "col5" ] columns;
         (match rows with
          | [ ra; rb; rc ] ->
            check Alcotest.bool "a count" true (ra.(1) = Value.Int 2);
            check Alcotest.bool "a sum" true (ra.(3) = Value.Int 30);
            check Alcotest.bool "b count*" true (rb.(1) = Value.Int 2);
            check Alcotest.bool "b count qty skips null" true (rb.(2) = Value.Int 1);
            check Alcotest.bool "b min price" true (rb.(4) = Value.Float 4.0);
            check Alcotest.bool "c max price" true (rc.(5) = Value.Float 0.5)
          | _ -> Alcotest.fail "rows shape")
       | Ok _ -> Alcotest.fail "select shape"
       | Error e -> Alcotest.fail e);
      (* global aggregate over empty selection *)
      (match Db.exec_sql db txn "SELECT COUNT(*), SUM(qty) FROM items WHERE qty > 1000" with
       | Ok (Db.Rows { rows = [ r ]; _ }) ->
         check Alcotest.bool "count 0" true (r.(0) = Value.Int 0);
         check Alcotest.bool "sum 0" true (r.(1) = Value.Int 0)
       | Ok _ -> Alcotest.fail "global agg shape"
       | Error e -> Alcotest.fail e);
      (* avg promotes to float *)
      (match Db.exec_sql db txn "SELECT AVG(qty) FROM items WHERE cat = 'a'" with
       | Ok (Db.Rows { rows = [ r ]; _ }) ->
         check Alcotest.bool "avg 15.0" true (Value.equal r.(0) (Value.Float 15.0))
       | Ok _ -> Alcotest.fail "avg shape"
       | Error e -> Alcotest.fail e);
      (* non-grouping bare column rejected *)
      check Alcotest.bool "bare column with GROUP BY rejected" true
        (Result.is_error (Db.exec_sql db txn "SELECT price FROM items GROUP BY cat"));
      check Alcotest.bool "star with aggregates rejected" true
        (Result.is_error (Db.exec_sql db txn "SELECT * FROM items GROUP BY cat")))

let sql_errors () =
  let db = mk_parts () in
  Db.with_txn db (fun txn ->
      check Alcotest.bool "parse error" true (Result.is_error (Db.exec_sql db txn "SELEC x"));
      check Alcotest.bool "unknown table" true
        (Result.is_error (Db.exec_sql db txn "SELECT * FROM nope"));
      check Alcotest.bool "unknown column" true
        (Result.is_error (Db.exec_sql db txn "SELECT * FROM parts WHERE nope = 1")))

(* an INSERT's column list naming a column the table lacks reads as an
   UPDATE of it does, not as a missing table *)
let insert_unknown_column () =
  let db = mk_parts () in
  Db.with_txn db (fun txn ->
      check
        Alcotest.(result reject string)
        "INSERT" (Error "unknown column zz")
        (Db.exec_sql db txn "INSERT INTO parts (part_id, zz) VALUES (0, DATE 0)");
      check
        Alcotest.(result reject string)
        "UPDATE" (Error "unknown column zz")
        (Db.exec_sql db txn "UPDATE parts SET zz = 1 WHERE part_id = 0"))

(* a SELECT naming a column the table lacks — as an item, an ORDER BY
   key or an aggregate's operand — names the column, in both modes *)
let select_unknown_column () =
  let db = mk_parts () in
  List.iter
    (fun mode ->
      let txn = Db.begin_txn ~mode db in
      List.iter
        (fun sql ->
          check Alcotest.(result reject string) sql (Error "unknown column nope")
            (Db.exec_sql db txn sql))
        [
          "SELECT nope FROM parts";
          "SELECT qty FROM parts ORDER BY nope";
          "SELECT SUM(nope) FROM parts";
          "SELECT qty, MAX(nope) FROM parts GROUP BY qty";
        ];
      Db.abort db txn)
    [ `Read_write; `Snapshot ]

(* a GROUP BY item that is not a grouping column is an error on an
   empty table too: the evaluator checks the items, not the groups *)
let select_shape_error_needs_no_rows () =
  let db = mk_parts () in
  Db.with_txn db (fun txn ->
      check
        Alcotest.(result reject string)
        "empty table"
        (Error "SELECT with GROUP BY: non-aggregate items must be grouping columns")
        (Db.exec_sql db txn "SELECT descr, COUNT(*) FROM parts GROUP BY qty"))

(* [*] parses as one item among others, as [Printer] prints it, and the
   evaluator refuses it beside any other item whether the table is empty
   or not, from the text and from the AST alike *)
let star_among_items_refused () =
  let db = mk_parts () in
  let qty = Dw_sql.Ast.Item (Expr.Col "qty", None) in
  let cases =
    [ ("SELECT *, qty FROM parts", "SELECT: * must be the only item");
      ("SELECT qty, * FROM parts", "SELECT: * must be the only item");
      ("SELECT *, COUNT(*) FROM parts", "SELECT: * not allowed with aggregates/GROUP BY") ]
  in
  let refused label =
    Db.with_txn db (fun txn ->
        List.iter
          (fun (sql, msg) ->
            check
              Alcotest.(result reject string)
              (label ^ ": " ^ sql) (Error msg) (Db.exec_sql db txn sql);
            let ast =
              match Dw_sql.Parser.parse sql with Ok ast -> ast | Error e -> Alcotest.fail e
            in
            check Alcotest.string ("prints as parsed: " ^ sql) sql (Dw_sql.Printer.to_string ast);
            match Db.exec db txn ast with
            | (_ : Db.exec_result) -> Alcotest.failf "%s: the AST ran: %s" label sql
            | exception Invalid_argument m -> check Alcotest.string (label ^ ": AST") msg m)
          cases;
        let ast =
          Dw_sql.Ast.Select
            { items = [ Dw_sql.Ast.Star; qty ]; table = "parts"; where = None; group_by = [];
              order_by = [] }
        in
        check Alcotest.bool (label ^ ": the AST [*; qty] parses back") true
          (Dw_sql.Parser.parse (Dw_sql.Printer.to_string ast) = Ok ast);
        match Db.exec db txn ast with
        | (_ : Db.exec_result) -> Alcotest.failf "%s: the AST [*; qty] ran" label
        | exception Invalid_argument m ->
          check Alcotest.string (label ^ ": AST [*; qty]") "SELECT: * must be the only item" m)
  in
  refused "empty table";
  seed_parts db 3;
  refused "three rows"

(* ---------- utilities ---------- *)

let export_import_roundtrip () =
  let db = mk_parts () in
  seed_parts db 200;
  let stats = Export_util.export_table db ~table:"parts" ~dest:"parts.exp" () in
  check Alcotest.int "exported rows" 200 stats.Export_util.rows;
  (* import into a second table with the same schema *)
  let _ = Db.create_table db ~name:"parts2" ~ts_column:"last_modified" parts_schema in
  (match Import_util.import_table db ~src:"parts.exp" ~table:"parts2" with
   | Ok s ->
     check Alcotest.int "imported rows" 200 s.Import_util.rows;
     check Alcotest.bool "staging I/O happened" true (s.Import_util.staged_bytes > 0)
   | Error e -> Alcotest.fail e);
  let a = ref [] and b = ref [] in
  Table.scan (Db.table db "parts") (fun _ t -> a := t :: !a);
  Table.scan (Db.table db "parts2") (fun _ t -> b := t :: !b);
  let sort l = List.sort Tuple.compare l in
  List.iter2
    (fun x y -> check Alcotest.bool "same tuples" true (Tuple.equal x y))
    (sort !a) (sort !b)

let import_rejects_wrong_schema () =
  let db = mk_parts () in
  seed_parts db 5;
  ignore (Export_util.export_table db ~table:"parts" ~dest:"p.exp" () : Export_util.stats);
  let other =
    Schema.make
      [
        { Schema.name = "x"; ty = Value.Tint; nullable = false };
        { Schema.name = "y"; ty = Value.Tint; nullable = true };
      ]
  in
  let _ = Db.create_table db ~name:"other" other in
  check Alcotest.bool "schema mismatch" true
    (Result.is_error (Import_util.import_table db ~src:"p.exp" ~table:"other"))

let import_rejects_foreign_product () =
  let db = mk_parts () in
  seed_parts db 5;
  ignore (Export_util.export_table db ~table:"parts" ~dest:"p.exp" () : Export_util.stats);
  (* corrupt the product tag *)
  let f = Vfs.open_existing (Db.vfs db) "p.exp" in
  Vfs.write_at f ~off:7 (Bytes.of_string "XX");
  Vfs.close f;
  match Import_util.import_table db ~src:"p.exp" ~table:"parts" with
  | Error e -> check Alcotest.bool "product error" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected product rejection"

let ascii_dump_load_roundtrip () =
  let db = mk_parts () in
  seed_parts db 150;
  let d = Ascii_util.dump db ~table:"parts" ~dest:"parts.asc" () in
  check Alcotest.int "dumped" 150 d.Ascii_util.rows;
  let _ = Db.create_table db ~name:"parts2" ~ts_column:"last_modified" parts_schema in
  (match Ascii_util.load db ~table:"parts2" ~src:"parts.asc" with
   | Ok s ->
     check Alcotest.int "loaded" 150 s.Ascii_util.rows;
     check Alcotest.int "no bad lines" 0 s.Ascii_util.bad_lines
   | Error e -> Alcotest.fail e);
  (* loader rebuilt indexes: key lookup works *)
  match Table.find_key (Db.table db "parts2") [| Value.Int 42 |] with
  | Some (_, t) -> check Alcotest.bool "row 42" true (Tuple.get parts_schema t "part_id" = Value.Int 42)
  | None -> Alcotest.fail "index lookup after load"

let ascii_dump_where () =
  let db = mk_parts () in
  seed_parts db 50;
  let d =
    Ascii_util.dump db ~table:"parts"
      ~where:(Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 10)))
      ~dest:"some.asc" ()
  in
  check Alcotest.int "filtered dump" 10 d.Ascii_util.rows

let loader_skips_bad_lines () =
  let db = mk_parts () in
  let vfs = Db.vfs db in
  let f = Vfs.create vfs "bad.asc" in
  ignore (Vfs.append f (Bytes.of_string "1|ok|5|100\nnot-a-row\n2|ok|6|100\n") : int);
  Vfs.close f;
  match Ascii_util.load db ~table:"parts" ~src:"bad.asc" with
  | Ok s ->
    check Alcotest.int "good rows" 2 s.Ascii_util.rows;
    check Alcotest.int "bad rows" 1 s.Ascii_util.bad_lines
  | Error e -> Alcotest.fail e

(* ---------- checkpoint / recovery ---------- *)

let crash_recovery_end_to_end () =
  let db = mk_parts () in
  seed_parts db 10;
  (* committed update *)
  ignore
    (Db.with_txn db (fun txn ->
         Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 77)) ]
           ~where:(Some eq_int)));
  (* in-flight txn at crash time *)
  let txn = Db.begin_txn db in
  ignore (Db.insert db txn "parts" (part 999 "ghost" 0) : Heap_file.rid);
  (* "crash": run recovery over the same heaps (redo winners, undo losers) *)
  let stats = Db.recover db in
  check Alcotest.bool "some records" true (stats.Dw_txn.Recovery.records_scanned > 0);
  check Alcotest.int "rows" 10 (Table.row_count (Db.table db "parts"));
  let tbl = Db.table db "parts" in
  (match Table.find_key tbl [| Value.Int 5 |] with
   | Some (_, t) -> check Alcotest.bool "redo kept update" true (Tuple.get parts_schema t "qty" = Value.Int 77)
   | None -> Alcotest.fail "row 5 missing");
  check Alcotest.bool "ghost gone" true (Table.find_key tbl [| Value.Int 999 |] = None)

let checkpoint_rotates () =
  let db = mk_parts ~archive:true () in
  seed_parts db 5;
  Db.checkpoint db;
  seed_parts db 0;
  check Alcotest.bool "archived segment exists" true
    (List.length (Dw_txn.Wal.archived_segments (Db.wal db)) >= 1)

(* ---------- plan modes ---------- *)

(* qcheck: index-assisted predicate resolution returns exactly what a scan
   returns, for arbitrary range/equality predicates over the key *)
let gen_pred =
  QCheck2.Gen.(
    let lit = map (fun n -> Expr.Lit (Value.Int n)) (int_range (-5) 45) in
    let cmp_op = oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
    let key_cmp =
      map3
        (fun op l flip ->
          if flip then Expr.Cmp (op, l, Expr.Col "part_id")
          else Expr.Cmp (op, Expr.Col "part_id", l))
        cmp_op lit bool
    in
    let other_cmp = map2 (fun op l -> Expr.Cmp (op, Expr.Col "qty", l)) cmp_op lit in
    let base = oneof [ key_cmp; other_cmp ] in
    oneof
      [
        base;
        map2 (fun a b -> Expr.And (a, b)) base base;
        map2 (fun a b -> Expr.Or (a, b)) base base;
        map2 (fun a b -> Expr.And (a, Expr.And (b, a))) base base;
        map (fun a -> Expr.Not a) base;
      ])

let prop_plan_modes_agree =
  QCheck2.Test.make ~name:"Index_preferred matches Scan_only" ~count:200 gen_pred (fun pred ->
      let db = mk_parts () in
      seed_parts db 40;
      let run mode =
        Db.set_plan_mode db mode;
        Db.with_txn db (fun txn -> Db.select db txn "parts" ~where:pred ())
        |> List.sort Tuple.compare
      in
      let scan = run `Scan_only in
      let idx = run `Index_preferred in
      List.length scan = List.length idx && List.for_all2 Tuple.equal scan idx)

let prop_plan_modes_agree_dml =
  QCheck2.Test.make ~name:"Index_preferred DML matches Scan_only DML" ~count:100 gen_pred
    (fun pred ->
      let run mode =
        let db = mk_parts () in
        seed_parts db 30;
        Db.set_plan_mode db mode;
        ignore
          (Db.with_txn db (fun txn ->
               Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int 777)) ]
                 ~where:(Some pred)));
        ignore
          (Db.with_txn db (fun txn -> Db.delete_where db txn "parts" ~where:(Some (Expr.Not pred))));
        List.sort Tuple.compare
          (Db.with_txn db (fun txn -> Db.select db txn "parts" ()))
      in
      let scan = run `Scan_only in
      let idx = run `Index_preferred in
      List.length scan = List.length idx && List.for_all2 Tuple.equal scan idx)

(* qcheck: random committed workload survives recovery *)

type wop = W_ins of int * int | W_upd of int * int | W_del of int

let gen_workload =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (4, map2 (fun k v -> W_ins (k, v)) (int_range 0 40) (int_range 0 999));
           (2, map2 (fun k v -> W_upd (k, v)) (int_range 0 40) (int_range 0 999));
           (2, map (fun k -> W_del k) (int_range 0 40));
         ]))

let apply_op db txn op =
  match op with
  | W_ins (k, v) -> (
      let tbl = Db.table db "parts" in
      match Table.find_key tbl [| Value.Int k |] with
      | Some _ -> ()
      | None ->
        ignore (Db.insert db txn "parts" (part k ("k" ^ string_of_int k) v) : Heap_file.rid))
  | W_upd (k, v) ->
    ignore
      (Db.update_where db txn "parts" ~set:[ ("qty", Expr.Lit (Value.Int v)) ]
         ~where:(Some (Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int k)))) : int)
  | W_del k ->
    ignore
      (Db.delete_where db txn "parts"
         ~where:(Some (Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int k)))) : int)

let table_contents db name =
  let acc = ref [] in
  Table.scan (Db.table db name) (fun _ t -> acc := t :: !acc);
  List.sort Tuple.compare !acc

let prop_recovery_preserves_committed =
  QCheck2.Test.make ~name:"recovery preserves committed state" ~count:60 gen_workload
    (fun ops ->
      let db = mk_parts () in
      (* one txn per op, all committed *)
      List.iter (fun op -> Db.with_txn db (fun txn -> apply_op db txn op)) ops;
      let before = table_contents db "parts" in
      (* plus one loser txn *)
      let txn = Db.begin_txn db in
      apply_op db txn (W_ins (777, 1));
      (* crash now: recovery must restore exactly the committed state *)
      ignore (Db.recover db : Dw_txn.Recovery.stats);
      let after = table_contents db "parts" in
      List.length before = List.length after
      && List.for_all2 Tuple.equal before after)

(* qcheck: both indexes stay consistent with the heap under raw DML.
   An update that keeps its key (and timestamp) leaves the index entries
   in place, so every step is checked against a model and against indexes
   rebuilt from the heap.  [Table] does not expose its trees, so their
   structure is checked through full range scans, which walk the leaf
   chain in key order. *)

type iop =
  | I_ins of int * int  (* key, day *)
  | I_upd_same of int * int * int  (* pick, qty, day: key kept *)
  | I_upd_key of int * int * int  (* pick, new key, day *)
  | I_del of int  (* pick *)

let idx_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "qty"; ty = Value.Tint; nullable = true };
      { Schema.name = "ts"; ty = Value.Tdate; nullable = false };
    ]

let idx_keys = 200
let idx_days = 6

let gen_index_case =
  QCheck2.Gen.(
    pair (int_range 0 120)
      (list_size (int_range 1 80)
         (frequency
            [
              (3, map2 (fun k d -> I_ins (k, d)) (int_range 0 idx_keys) (int_range 0 idx_days));
              ( 4,
                map3 (fun p q d -> I_upd_same (p, q, d)) nat (int_range 0 999)
                  (int_range 0 idx_days) );
              ( 2,
                map3 (fun p k d -> I_upd_key (p, k, d)) nat (int_range 0 idx_keys)
                  (int_range 0 idx_days) );
              (2, map (fun p -> I_del p) nat);
            ])))

let idx_row id qty day = [| Value.Int id; Value.Int qty; Value.Date day |]

let prop_index_consistency =
  QCheck2.Test.make ~name:"raw DML keeps pk and ts indexes consistent" ~count:60 gen_index_case
    (fun (initial, ops) ->
      let vfs = Vfs.in_memory () in
      let pool = Dw_storage.Buffer_pool.create ~vfs ~capacity:64 () in
      let file = Vfs.create vfs "idx.heap" in
      let t = Table.create ~pool ~file ~name:"idx" ~schema:idx_schema ~ts_column:(Some "ts") in
      (* model: key -> (rid, tuple) *)
      let live = Hashtbl.create 64 in
      let insert id day =
        let tuple = idx_row id (id mod 7) day in
        Hashtbl.replace live id (fst (Table.raw_insert t tuple), tuple)
      in
      for id = 0 to initial - 1 do
        insert (id * 2) (id mod (idx_days + 1))
      done;
      let pick p =
        let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) live []) in
        match keys with [] -> None | _ -> Some (List.nth keys (p mod List.length keys))
      in
      let rejects f = match f () with () -> false | exception Invalid_argument _ -> true in
      let collect iter =
        let acc = ref [] in
        iter (fun rid tuple -> acc := (rid, tuple) :: !acc);
        List.rev !acc
      in
      let by_key tbl = collect (Table.key_range tbl ~lo:None ~hi:None) in
      let by_ts tbl = collect (Table.ts_range tbl ~after:(-1)) in
      let consistent () =
        let model =
          Hashtbl.fold (fun k (rid, tuple) acc -> (k, rid, tuple) :: acc) live []
          |> List.sort compare
        in
        let ts_of tuple = match tuple.(2) with Value.Date d -> d | _ -> assert false in
        let found_all =
          List.for_all
            (fun (k, rid, tuple) ->
              match Table.find_key t [| Value.Int k |] with
              | Some (rid', tuple') -> rid = rid' && Tuple.equal tuple tuple'
              | None -> false)
            model
        in
        let no_ghosts =
          List.for_all
            (fun k -> Hashtbl.mem live k || Table.find_key t [| Value.Int k |] = None)
            (List.init (idx_keys + 1) Fun.id)
        in
        let ts_ok =
          List.for_all
            (fun d ->
              let got = List.sort compare (collect (Table.ts_range t ~after:d)) in
              let want =
                List.filter_map
                  (fun (_, rid, tuple) -> if ts_of tuple > d then Some (rid, tuple) else None)
                  model
                |> List.sort compare
              in
              got = want)
            (List.init (idx_days + 2) (fun d -> d - 1))
        in
        let ordered =
          List.map (fun (_, tuple) -> tuple) (by_key t)
          = List.map (fun (_, _, tuple) -> tuple) model
        in
        let counts =
          Table.cardinality t = Table.row_count t && Table.row_count t = List.length model
        in
        (* indexes rebuilt from the heap (a read-only second view over the
           same pages) must hold exactly the same bindings *)
        let rebuilt =
          Table.attach ~rebuild_index:true ~pool ~file ~name:"idx" ~schema:idx_schema
            ~ts_column:(Some "ts")
        in
        let same_rebuilt = by_key rebuilt = by_key t && by_ts rebuilt = by_ts t in
        found_all && no_ghosts && ts_ok && ordered && counts && same_rebuilt
      in
      let step op =
        (match op with
         | I_ins (k, d) ->
           if Hashtbl.mem live k then
             assert (
               rejects (fun () -> ignore (Table.raw_insert t (idx_row k 0 d) : Heap_file.rid * bytes)))
           else insert k d
         | I_upd_same (p, q, d) -> (
             match pick p with
             | None -> ()
             | Some k ->
               let rid, old_tuple = Hashtbl.find live k in
               let tuple = idx_row k q d in
               ignore (Table.raw_update t rid ~old_tuple tuple : bytes * bytes);
               Hashtbl.replace live k (rid, tuple))
         | I_upd_key (p, k', d) -> (
             match pick p with
             | None -> ()
             | Some k ->
               let rid, old_tuple = Hashtbl.find live k in
               let tuple = idx_row k' 1 d in
               if k' <> k && Hashtbl.mem live k' then
                 assert (rejects (fun () -> ignore (Table.raw_update t rid ~old_tuple tuple : bytes * bytes)))
               else begin
                 ignore (Table.raw_update t rid ~old_tuple tuple : bytes * bytes);
                 Hashtbl.remove live k;
                 Hashtbl.replace live k' (rid, tuple)
               end)
         | I_del p -> (
             match pick p with
             | None -> ()
             | Some k ->
               let rid, old_tuple = Hashtbl.find live k in
               ignore (Table.raw_delete t rid ~old_tuple : bytes);
               Hashtbl.remove live k));
        consistent ()
      in
      consistent () && List.for_all step ops)

let suite =
  [
    test "dml insert/select" dml_insert_select;
    test "dml update" dml_update;
    test "dml delete" dml_delete;
    test "dml duplicate key" dml_duplicate_key;
    test "txn abort rolls back" txn_abort_rolls_back;
    test "txn abort restores values" txn_abort_restores_values;
    test "txn finished rejected" txn_finished_rejected;
    test "timestamps maintained" ts_maintained;
    test "trigger captures images" trigger_captures_images;
    test "trigger same-txn rollback" trigger_same_txn_rollback;
    test "trigger selective events" trigger_selective_events;
    test "trigger remove" trigger_remove;
    test "sql end to end" sql_end_to_end;
    test "sql aggregates" sql_aggregates;
    test "sql errors" sql_errors;
    test "insert of an unknown column names it" insert_unknown_column;
    test "select of an unknown column names it" select_unknown_column;
    test "select shape errors need no rows" select_shape_error_needs_no_rows;
    test "export/import roundtrip" export_import_roundtrip;
    test "import rejects wrong schema" import_rejects_wrong_schema;
    test "import rejects foreign product" import_rejects_foreign_product;
    test "ascii dump/load roundtrip" ascii_dump_load_roundtrip;
    test "ascii dump where" ascii_dump_where;
    test "loader skips bad lines" loader_skips_bad_lines;
    test "crash recovery end to end" crash_recovery_end_to_end;
    test "checkpoint rotates" checkpoint_rotates;
    QCheck_alcotest.to_alcotest prop_plan_modes_agree;
    QCheck_alcotest.to_alcotest prop_plan_modes_agree_dml;
    QCheck_alcotest.to_alcotest prop_recovery_preserves_committed;
    QCheck_alcotest.to_alcotest prop_index_consistency;
    test "star beside other items is refused" star_among_items_refused;
  ]
