(* Tests for Dw_warehouse: view materialization and incremental
   maintenance (SP and join views, incl. the qcheck incremental ==
   recompute property), both integrators, and view-name uniqueness
   across the view registries. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Warehouse = Dw_warehouse.Warehouse
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let parts_schema = Workload.parts_schema

let supply_schema =
  Schema.make
    [
      { Schema.name = "supply_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "part_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "supplier"; ty = Value.Tstring 16; nullable = false };
    ]

let proj side out_name from_col = { Spj_view.out_name; from_side = side; from_col }

let sp_view =
  Spj_view.Select_project
    {
      name = "small_qty";
      table = "parts";
      schema = parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj Spj_view.L "part_id" "part_id"; proj Spj_view.L "qty" "qty" ];
    }

let join_view =
  Spj_view.Join
    {
      name = "parts_by_supplier";
      left_table = "parts";
      left_schema = parts_schema;
      right_table = "supply";
      right_schema = supply_schema;
      on = [ ("part_id", "part_id") ];
      left_filter = None;
      right_filter = None;
      project = [ proj Spj_view.R "supplier" "supplier"; proj Spj_view.L "qty" "qty" ];
    }

let gen_supply rng n =
  List.init n (fun i ->
      [| Value.Int (i + 1); Value.Int (1 + Prng.int rng 50);
         Value.Str (Printf.sprintf "sup%d" (Prng.int rng 5)) |])

let mk_wh ?(parts = 50) ?(supply = 30) ?(views = []) () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:parts_schema;
  Warehouse.add_replica wh ~table:"supply" ~schema:supply_schema;
  let rng = Prng.create ~seed:77 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init parts (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  Warehouse.load_replica wh ~table:"supply" (gen_supply rng supply);
  List.iter (Warehouse.define_view wh) views;
  wh

let same_rows a b =
  List.length a = List.length b
  && List.for_all2 (fun (r, c) (r', c') -> Tuple.equal r r' && c = c') a b

let views_agree wh name = same_rows (Warehouse.view_rows wh name) (Warehouse.recompute_view wh name)

(* ---------- view materialization ---------- *)

let materialize_sp () =
  let wh = mk_wh ~views:[ sp_view ] () in
  check Alcotest.bool "sp view consistent" true (views_agree wh "small_qty")

let materialize_join () =
  let wh = mk_wh ~views:[ join_view ] () in
  check Alcotest.bool "join view consistent" true (views_agree wh "parts_by_supplier");
  check Alcotest.bool "join view non-empty" true (Warehouse.view_rows wh "parts_by_supplier" <> [])

let view_validation () =
  let wh = mk_wh () in
  let bad =
    Spj_view.Select_project
      { name = "bad"; table = "parts"; schema = parts_schema; filter = None;
        project = [ proj Spj_view.L "nope" "nope" ] }
  in
  (try
     Warehouse.define_view wh bad;
     Alcotest.fail "expected validation failure"
   with Invalid_argument _ -> ());
  let orphan =
    Spj_view.Select_project
      { name = "orphan"; table = "nowhere"; schema = parts_schema; filter = None;
        project = [ proj Spj_view.L "part_id" "part_id" ] }
  in
  try
    Warehouse.define_view wh orphan;
    Alcotest.fail "expected missing replica failure"
  with Invalid_argument _ -> ()

(* ---------- incremental maintenance ---------- *)

let incremental_sp_after_ops () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let stats =
    Warehouse.integrate_op_deltas wh
      [ Op_delta.make ~txn_id:1
          (Workload.insert_parts_txn ~first_id:100 ~size:5 ~day:0 ()
           @ [ Workload.update_parts_stmt ~first_id:1 ~size:10;
               Workload.delete_parts_stmt ~first_id:20 ~size:5 ]) ]
  in
  check Alcotest.bool "row ops counted" true (stats.Warehouse.row_ops > 0);
  check Alcotest.bool "sp still consistent" true (views_agree wh "small_qty")

let incremental_join_after_ops () =
  let wh = mk_wh ~views:[ join_view ] () in
  ignore
    (Warehouse.integrate_op_deltas wh
       [ Op_delta.make ~txn_id:1
           [ Workload.update_parts_stmt ~first_id:1 ~size:20;
             Workload.delete_parts_stmt ~first_id:30 ~size:10 ] ]);
  check Alcotest.bool "join consistent after parts ops" true
    (views_agree wh "parts_by_supplier");
  (* now touch the right side *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"supply" ~schema:supply_schema
          [ Delta.Insert [| Value.Int 999; Value.Int 1; Value.Str "supX" |];
            Delta.Delete [| Value.Int 1; Value.Int 0; Value.Str "" |] ]));
  check Alcotest.bool "join consistent after supply ops" true
    (views_agree wh "parts_by_supplier")

let value_delta_upsert_semantics () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let rng = Prng.create ~seed:5 in
  let existing = Workload.gen_part rng ~id:1 ~day:9 in
  let fresh = Workload.gen_part rng ~id:777 ~day:9 in
  let d =
    Delta.make ~table:"parts" ~schema:parts_schema
      [ Delta.Upsert existing; Delta.Upsert fresh ]
  in
  ignore (Warehouse.integrate_value_delta wh d);
  let parts = Warehouse.replica_rows wh "parts" in
  check Alcotest.int "upsert added one" 51 (List.length parts);
  check Alcotest.bool "view consistent" true (views_agree wh "small_qty")

(* both integration paths converge to the same state *)
let integrators_converge () =
  let mk () = mk_wh ~views:[ sp_view; join_view ] () in
  let wh_value = mk () and wh_op = mk () in
  (* one source transaction: update 10, delete 5 *)
  let upd = Workload.update_parts_stmt ~first_id:1 ~size:10 in
  let del = Workload.delete_parts_stmt ~first_id:40 ~size:5 in
  let od = Op_delta.make ~txn_id:1 [ upd; del ] in
  (* derive the equivalent value delta from a source system *)
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Workload.load_parts ~seed:77 src ~rows:50 ();
  Db.set_day src 0;
  let handle = Dw_core.Trigger_extract.install src ~table:"parts" in
  Db.with_txn src (fun txn ->
      ignore (Db.exec src txn upd : Db.exec_result);
      ignore (Db.exec src txn del : Db.exec_result));
  let vd = Dw_core.Trigger_extract.collect src handle in
  ignore (Warehouse.integrate_value_delta wh_value vd);
  ignore (Warehouse.integrate_op_deltas wh_op [ od ]);
  let sort l = List.sort Tuple.compare l in
  let rows_of wh = sort (Warehouse.replica_rows wh "parts") in
  check Alcotest.int "same cardinality" (List.length (rows_of wh_value))
    (List.length (rows_of wh_op));
  List.iter2
    (fun a b -> check Alcotest.bool "same replica rows" true (Tuple.equal a b))
    (rows_of wh_value) (rows_of wh_op);
  check Alcotest.bool "value wh views ok" true (views_agree wh_value "small_qty");
  check Alcotest.bool "op wh views ok" true (views_agree wh_op "parts_by_supplier")

(* qcheck: both integration paths converge on random workloads *)
let prop_integrators_converge =
  QCheck2.Test.make ~name:"value and op-delta integration converge" ~count:15
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:8 ~max_txn_size:5 in
      (* derive both captures from one source run *)
      let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
      let _ = Workload.create_parts_table src in
      Workload.load_parts ~seed:77 src ~rows:50 ();
      Db.set_day src 0;
      let handle = Dw_core.Trigger_extract.install src ~table:"parts" in
      let ods =
        List.mapi
          (fun i op ->
            let stmts = Workload.op_to_stmts ~day:0 op in
            Db.with_txn src (fun txn ->
                List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts);
            Op_delta.make ~txn_id:i stmts)
          ops
      in
      let vd = Dw_core.Trigger_extract.collect src handle in
      let wh_value = mk_wh ~views:[ sp_view ] () in
      let wh_op = mk_wh ~views:[ sp_view ] () in
      ignore (Warehouse.integrate_value_delta wh_value vd : Warehouse.stats);
      ignore (Warehouse.integrate_op_deltas wh_op ods : Warehouse.stats);
      let rows wh = List.sort Tuple.compare (Warehouse.replica_rows wh "parts") in
      let a = rows wh_value and b = rows wh_op in
      List.length a = List.length b
      && List.for_all2 Tuple.equal a b
      && views_agree wh_value "small_qty"
      && views_agree wh_op "small_qty")

(* qcheck: random op-delta streams keep views consistent with recompute *)

let prop_views_incremental =
  QCheck2.Test.make ~name:"incremental views equal recompute" ~count:25
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wh = mk_wh ~views:[ sp_view; join_view ] () in
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:10 ~max_txn_size:5 in
      List.iteri
        (fun i op ->
          ignore
            (Warehouse.integrate_op_deltas wh
               [ Op_delta.make ~txn_id:i (Workload.op_to_stmts ~day:0 op) ]))
        ops;
      views_agree wh "small_qty" && views_agree wh "parts_by_supplier")

(* ---------- aggregate views ---------- *)

module Agg_view = Dw_core.Agg_view

let qty_by_price_band =
  (* qty mod 10 used as a small band key so groups are non-trivial *)
  {
    Agg_view.name = "qty_stats";
    table = "parts";
    schema = parts_schema;
    filter = Some (Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Lit (Value.Int 0)));
    group_by = [ "qty" ];
    aggregates =
      [ ("n", Agg_view.Count); ("total_price", Agg_view.Sum "price");
        ("min_id", Agg_view.Min "part_id"); ("max_id", Agg_view.Max "part_id") ];
  }

let agg_views_agree wh name =
  same_rows (Warehouse.agg_view_rows wh name) (Warehouse.recompute_agg_view wh name)

let agg_validate () =
  check Alcotest.bool "valid" true (Result.is_ok (Agg_view.validate qty_by_price_band));
  check Alcotest.bool "empty group by" true
    (Result.is_error (Agg_view.validate { qty_by_price_band with Agg_view.group_by = [] }));
  check Alcotest.bool "sum over string" true
    (Result.is_error
       (Agg_view.validate
          { qty_by_price_band with Agg_view.aggregates = [ ("s", Agg_view.Sum "descr") ] }));
  check Alcotest.bool "dup out name" true
    (Result.is_error
       (Agg_view.validate
          { qty_by_price_band with Agg_view.aggregates = [ ("qty", Agg_view.Count) ] }))

let agg_eval_basics () =
  let row id qty price =
    [| Value.Int id; Value.Str "x"; Value.Int qty; Value.Float price; Value.Date 0 |]
  in
  let rows = [ row 1 5 1.0; row 2 5 2.0; row 3 7 4.0; row 4 0 9.0 (* filtered *) ] in
  let out = Agg_view.eval qty_by_price_band ~rows in
  check Alcotest.int "two groups" 2 (List.length out);
  match out with
  | [ (g5, n5); (g7, n7) ] ->
    check Alcotest.int "group 5 size" 2 n5;
    check Alcotest.int "group 7 size" 1 n7;
    check Alcotest.bool "count" true (Value.equal g5.(1) (Value.Int 2));
    check Alcotest.bool "sum" true (Value.equal g5.(2) (Value.Float 3.0));
    check Alcotest.bool "min id" true (Value.equal g5.(3) (Value.Int 1));
    check Alcotest.bool "max id" true (Value.equal g5.(4) (Value.Int 2));
    check Alcotest.bool "g7 key" true (Value.equal g7.(0) (Value.Int 7))
  | _ -> Alcotest.fail "group shape"

let agg_materialize_and_maintain () =
  let wh = mk_wh () in
  Warehouse.define_agg_view wh qty_by_price_band;
  check Alcotest.bool "initial materialization" true (agg_views_agree wh "qty_stats");
  (* inserts, deletes, updates via op-delta integration *)
  ignore
    (Warehouse.integrate_op_deltas wh
       [ Op_delta.make ~txn_id:1
           (Workload.insert_parts_txn ~first_id:200 ~size:10 ~day:0 ()
            @ [ Workload.update_parts_stmt ~first_id:1 ~size:15;
                Workload.delete_parts_stmt ~first_id:30 ~size:10 ]) ]);
  check Alcotest.bool "maintained incrementally" true (agg_views_agree wh "qty_stats")

let agg_minmax_rescan_on_delete () =
  let wh = mk_wh ~parts:0 () in
  Warehouse.define_agg_view wh qty_by_price_band;
  let row id qty price =
    [| Value.Int id; Value.Str "x"; Value.Int qty; Value.Float price; Value.Date 0 |]
  in
  (* one group, three members; delete the extremum (min and max ids) *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema
          [ Delta.Insert (row 1 5 1.0); Delta.Insert (row 2 5 1.0); Delta.Insert (row 3 5 1.0) ]));
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema [ Delta.Delete (row 3 5 1.0) ]));
  (match Warehouse.agg_view_rows wh "qty_stats" with
   | [ (g, 2) ] ->
     check Alcotest.bool "max rescanned to 2" true (Value.equal g.(4) (Value.Int 2));
     check Alcotest.bool "min still 1" true (Value.equal g.(3) (Value.Int 1))
   | _ -> Alcotest.fail "group shape");
  (* delete remaining members: group dies *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema
          [ Delta.Delete (row 1 5 1.0); Delta.Delete (row 2 5 1.0) ]));
  check Alcotest.int "group removed" 0 (List.length (Warehouse.agg_view_rows wh "qty_stats"))

let agg_update_moves_groups () =
  let wh = mk_wh ~parts:20 () in
  Warehouse.define_agg_view wh qty_by_price_band;
  (* drive several rows into one qty bucket *)
  ignore
    (Warehouse.integrate_op_deltas wh
       [ Op_delta.make ~txn_id:1
           [ Dw_sql.Ast.Update
               { table = "parts";
                 sets = [ ("qty", Expr.Lit (Value.Int 123)) ];
                 where =
                   Some (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 10))) } ] ]);
  check Alcotest.bool "consistent after group move" true (agg_views_agree wh "qty_stats");
  let moved =
    List.find_opt
      (fun (g, _) -> Value.equal g.(0) (Value.Int 123))
      (Warehouse.agg_view_rows wh "qty_stats")
  in
  match moved with
  | Some (_, n) -> check Alcotest.int "10 rows moved" 10 n
  | None -> Alcotest.fail "target group missing"

let prop_agg_incremental =
  QCheck2.Test.make ~name:"agg views: incremental equals recompute" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wh = mk_wh () in
      Warehouse.define_agg_view wh qty_by_price_band;
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:10 ~max_txn_size:5 in
      List.iteri
        (fun i op ->
          ignore
            (Warehouse.integrate_op_deltas wh
               [ Op_delta.make ~txn_id:i (Workload.op_to_stmts ~day:0 op) ]))
        ops;
      agg_views_agree wh "qty_stats")

(* ---------- set-oriented maintenance ---------- *)

(* group by day: a [qty + 1] range UPDATE keeps its rows in their group,
   a [last_modified] UPDATE moves them to another *)
let day_stats =
  {
    Agg_view.name = "day_stats";
    table = "parts";
    schema = parts_schema;
    filter = None;
    group_by = [ "last_modified" ];
    aggregates =
      [ ("n", Agg_view.Count); ("units", Agg_view.Sum "qty");
        ("min_qty", Agg_view.Min "qty"); ("max_id", Agg_view.Max "part_id") ];
  }

let between ~first_id ~size =
  Expr.And
    ( Expr.Cmp (Expr.Ge, Expr.Col "part_id", Expr.Lit (Value.Int first_id)),
      Expr.Cmp (Expr.Lt, Expr.Col "part_id", Expr.Lit (Value.Int (first_id + size))) )

let move_stmt ~first_id ~size ~day =
  Dw_sql.Ast.Update
    { table = "parts"; sets = [ ("last_modified", Expr.Lit (Value.Date day)) ];
      where = Some (between ~first_id ~size) }

let delete_where where = Dw_sql.Ast.Delete { table = "parts"; where = Some where }

(* [gen_mix] transactions of up to 10-row statements, each followed at
   random by a range UPDATE moving rows to another day's group, a DELETE
   of every row below a qty (each group's MIN) or one of the top ids
   (each group's MAX) *)
let gen_twin_stream rng =
  List.map
    (fun op ->
      let extra =
        match Prng.int rng 4 with
        | 0 ->
          [ move_stmt ~first_id:(1 + Prng.int rng 60) ~size:(1 + Prng.int rng 15)
              ~day:(1 + Prng.int rng 3) ]
        | 1 ->
          [ delete_where
              (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int (Prng.int rng 150)))) ]
        | 2 ->
          [ delete_where
              (Expr.Cmp
                 (Expr.Ge, Expr.Col "part_id", Expr.Lit (Value.Int (40 + Prng.int rng 25)))) ]
        | _ -> []
      in
      Workload.op_to_stmts ~day:0 op @ extra)
    (Workload.gen_mix rng ~existing_ids:50 ~txns:12 ~max_txn_size:10)

let mk_twin () =
  let wh = mk_wh ~views:[ sp_view; join_view ] () in
  Warehouse.define_agg_view wh day_stats;
  wh

(* every view agrees across two twin warehouses and with its recomputation *)
let twins_agree a b =
  List.for_all
    (fun name ->
      same_rows (Warehouse.view_rows a name) (Warehouse.view_rows b name)
      && views_agree a name && views_agree b name)
    [ "small_qty"; "parts_by_supplier" ]
  && same_rows (Warehouse.agg_view_rows a "day_stats") (Warehouse.agg_view_rows b "day_stats")
  && agg_views_agree a "day_stats" && agg_views_agree b "day_stats"

(* one warehouse integrates the stream as Op-Deltas (views maintained
   once per run); its twin runs the same statements as direct
   replica DML (views maintained once per row event) *)
let prop_twin_warehouses =
  QCheck2.Test.make ~name:"per-statement and per-row view maintenance agree" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let txns = gen_twin_stream (Prng.create ~seed) in
      let wh_op = mk_twin () and wh_direct = mk_twin () in
      let ods = List.mapi (fun i stmts -> Op_delta.make ~txn_id:i stmts) txns in
      ignore (Warehouse.integrate_op_deltas wh_op ods : Warehouse.stats);
      let db = Warehouse.db wh_direct in
      List.iter
        (fun stmts ->
          Db.with_txn db (fun txn ->
              List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) stmts))
        txns;
      twins_agree wh_op wh_direct)

(* the row ops a statement costs with [day_stats] defined, minus without *)
let agg_row_ops stmt =
  let row_ops with_agg =
    let wh = mk_wh ~parts:60 () in
    if with_agg then Warehouse.define_agg_view wh day_stats;
    let stats = Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:1 [ stmt ] ] in
    if with_agg then
      check Alcotest.bool "day_stats maintained" true (agg_views_agree wh "day_stats");
    stats.Warehouse.row_ops
  in
  row_ops true - row_ops false

(* the 50 rows all stay in the day-0 group: one group write, not 50 *)
let agg_group_written_once_per_statement () =
  check Alcotest.int "one group write for a 50-row UPDATE" 1
    (agg_row_ops (Workload.update_parts_stmt ~first_id:1 ~size:50))

(* deleting ids 1..5 takes the group's smallest qty with it: the group
   is recomputed and rewritten once *)
let agg_rescan_written_once () =
  let wh = mk_wh ~parts:60 () in
  let min_qty_id =
    List.fold_left
      (fun (best_id, best_q) row ->
        match row.(0), row.(2) with
        | Value.Int id, Value.Int q when q < best_q -> (id, q)
        | _ -> (best_id, best_q))
      (0, max_int) (Warehouse.replica_rows wh "parts")
    |> fst
  in
  check Alcotest.int "one group write for a DELETE of the MIN" 1
    (agg_row_ops (Workload.delete_parts_stmt ~first_id:(max 1 (min_qty_id - 2)) ~size:5))

(* ---------- hybrid Op-Deltas at a warehouse with replicas ---------- *)

module Opdelta_capture = Dw_core.Opdelta_capture
module Wal = Dw_txn.Wal

(* a seeded workload through a capture wrapper on a fresh source: 40
   rows inserted through the wrapper (so a warehouse can start empty),
   then [gen_mix] transactions, every third followed by an UPDATE that
   moves rows across [small_qty]'s [qty < 500] filter *)
let captured_workload ~capture_images ~seed =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Db.set_day src 0;
  let cap =
    Opdelta_capture.create ~capture_images src ~sink:(Opdelta_capture.To_file "oplog")
  in
  let submit stmts =
    match Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  submit (Workload.insert_parts_txn ~first_id:1 ~size:40 ~day:0 ());
  let rng = Prng.create ~seed in
  List.iteri
    (fun i op ->
      let flip =
        Dw_sql.Ast.Update
          { table = "parts";
            sets = [ ("qty", Expr.Binop (Expr.Sub, Expr.Lit (Value.Int 999), Expr.Col "qty")) ];
            where = Some (between ~first_id:(1 + Prng.int rng 40) ~size:5) }
      in
      submit (Workload.op_to_stmts ~day:0 op @ if i mod 3 = 0 then [ flip ] else []))
    (Workload.gen_mix rng ~existing_ids:40 ~txns:12 ~max_txn_size:5);
  Opdelta_capture.captured cap

(* an empty [parts] replica with a keyed SPJ view, a counted join view
   and an aggregate view *)
let empty_parts_wh () =
  let wh = mk_wh ~parts:0 ~views:[ sp_view; join_view ] () in
  Warehouse.define_agg_view wh qty_by_price_band;
  wh

let sorted_parts wh = List.sort Tuple.compare (Warehouse.replica_rows wh "parts")

(* both warehouses end with the same replica, views and view checks *)
let same_warehouse_rows a b =
  check Alcotest.bool "same replica rows" true
    (List.equal Tuple.equal (sorted_parts a) (sorted_parts b));
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ ": same rows") true
        (same_rows (Warehouse.view_rows a name) (Warehouse.view_rows b name));
      check Alcotest.bool (name ^ " equals recompute") true (views_agree a name))
    [ "small_qty"; "parts_by_supplier" ];
  check Alcotest.bool "qty_stats: same rows" true
    (same_rows (Warehouse.agg_view_rows a "qty_stats") (Warehouse.agg_view_rows b "qty_stats"));
  check Alcotest.bool "qty_stats equals recompute" true (agg_views_agree a "qty_stats")

let image_count ods =
  List.fold_left
    (fun acc (od : Op_delta.t) ->
      List.fold_left
        (fun acc (op : Op_delta.op) -> acc + List.length op.Op_delta.before_images)
        acc od.Op_delta.ops)
    0 ods

let wal_records wh =
  let n = ref 0 in
  Wal.iter_all (Db.wal (Warehouse.db wh)) (fun _ _ -> incr n);
  !n

(* A warehouse with replicas re-runs an Op-Delta's statements and reads
   none of its images, so twin sources, one capturing images and one
   not, leave twin warehouses with equal rows, counts and logs; a
   bootstrap's handoff from its hybrid capture to plain rounds relies on
   this. *)
let hybrid_integrates_as_plain ~seed () =
  let hybrid = captured_workload ~capture_images:true ~seed in
  let plain = captured_workload ~capture_images:false ~seed in
  check Alcotest.bool "the hybrid capture recorded images" true (image_count hybrid > 0);
  check Alcotest.int "the plain capture recorded none" 0 (image_count plain);
  let statements (od : Op_delta.t) =
    Op_delta.encode_line
      (Op_delta.make ~txn_id:od.Op_delta.txn_id
         (List.map (fun (op : Op_delta.op) -> op.Op_delta.stmt) od.Op_delta.ops))
  in
  check Alcotest.(list string) "the same statements" (List.map statements plain)
    (List.map statements hybrid);
  let wh_h = empty_parts_wh () and wh_p = empty_parts_wh () in
  let st_h = Warehouse.integrate_op_deltas wh_h hybrid in
  let st_p = Warehouse.integrate_op_deltas wh_p plain in
  same_warehouse_rows wh_h wh_p;
  check Alcotest.int "statements" st_p.Warehouse.statements st_h.Warehouse.statements;
  check Alcotest.int "row_ops" st_p.Warehouse.row_ops st_h.Warehouse.row_ops;
  check Alcotest.int "log records" (wal_records wh_p) (wal_records wh_h)

let hybrid_as_plain = hybrid_integrates_as_plain ~seed:3
let hybrid_as_plain_alt = hybrid_integrates_as_plain ~seed:1234

(* a hybrid Op-Delta's images, as the value delta a bootstrap loads,
   bring the replica and its views where its statements do *)
let hybrid_value_deltas_match () =
  let ods = captured_workload ~capture_images:true ~seed:7 in
  let wh_op = empty_parts_wh () and wh_value = empty_parts_wh () in
  ignore (Warehouse.integrate_op_deltas wh_op ods : Warehouse.stats);
  List.iter
    (fun od ->
      ignore
        (Warehouse.integrate_value_delta wh_value
           (Op_delta.value_delta ~table:"parts" ~schema:parts_schema od)
          : Warehouse.stats))
    ods;
  same_warehouse_rows wh_value wh_op

(* ---------- view names are unique across view kinds ---------- *)

let sp_named name =
  Spj_view.Select_project
    { name; table = "parts"; schema = parts_schema; filter = None;
      project = [ proj Spj_view.L "part_id" "part_id"; proj Spj_view.L "qty" "qty" ] }

let rejected_by_warehouse what f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument msg ->
    check Alcotest.bool (what ^ " reports the warehouse check") true
      (String.starts_with ~prefix:"Warehouse." msg)

(* ---------- re-adopting a warehouse after a crash ---------- *)

(* checkpoint, then "kill the process": what reopen sees is the bytes *)
let crash wh =
  Db.checkpoint (Warehouse.db wh);
  let vfs = Db.vfs (Warehouse.db wh) in
  Vfs.crash_reset vfs;
  vfs

let reopen ?(views = [ sp_view ]) ?(agg_views = [ qty_by_price_band ]) ?extra vfs =
  Warehouse.reopen ?extra ~vfs ~name:"dw"
    ~replicas:[ ("parts", parts_schema); ("supply", supply_schema) ]
    ~views ~agg_views ()

let update_txn ~txn_id ~first_id =
  Op_delta.make ~txn_id [ Workload.update_parts_stmt ~first_id ~size:10 ]

let reopen_round_trip () =
  let wh = mk_wh ~views:[ sp_view ] () in
  Warehouse.define_agg_view wh qty_by_price_band;
  ignore (Warehouse.integrate_op_deltas wh [ update_txn ~txn_id:1 ~first_id:1 ] : Warehouse.stats);
  let before = Warehouse.replica_rows wh "parts" in
  let wh = reopen (crash wh) in
  check Alcotest.bool "replica recovered" true (Warehouse.replica_rows wh "parts" = before);
  ignore
    (Warehouse.integrate_op_deltas wh
       [ update_txn ~txn_id:2 ~first_id:5;
         Op_delta.make ~txn_id:3 [ Workload.delete_parts_stmt ~first_id:30 ~size:4 ];
         Op_delta.make ~txn_id:4 (Workload.insert_parts_txn ~first_id:100 ~size:3 ~day:0 ()) ]
      : Warehouse.stats);
  check Alcotest.bool "SPJ view maintained after reopen" true (views_agree wh "small_qty");
  check Alcotest.bool "aggregate view maintained after reopen" true
    (agg_views_agree wh "qty_stats")

(* a refused reopen must leave the device as the crash left it: it runs
   under a counting fault plan, which sees every write and fsync, and a
   reopen that reached the device would create a missing table's file *)
let rejected_untouched ~reason vfs f =
  let files = Vfs.list_files vfs in
  let plan = Vfs.Fault.make ~seed:1 () in
  Vfs.set_fault vfs (Some plan);
  (match f () with
   | (_ : Warehouse.t) -> Alcotest.fail "reopen: expected Invalid_argument"
   | exception Invalid_argument msg ->
     check Alcotest.string "the warehouse check" ("Warehouse.reopen: " ^ reason) msg);
  check Alcotest.int "no write or fsync" 0 (Vfs.Fault.events plan);
  check Alcotest.(list string) "no file created" files (Vfs.list_files vfs)

(* an SPJ view registered under an aggregate view's name would maintain
   SPJ rows into the aggregate's backing table on the next replica change *)
let reopen_rejects_agg_name () =
  let wh = mk_wh () in
  Warehouse.define_agg_view wh qty_by_price_band;
  rejected_by_warehouse "define_view" (fun () ->
      Warehouse.define_view wh (sp_named "qty_stats"));
  ignore
    (Warehouse.integrate_op_deltas wh [ update_txn ~txn_id:1 ~first_id:1 ] : Warehouse.stats);
  check Alcotest.bool "aggregate view untouched by a stray SPJ view" true
    (agg_views_agree wh "qty_stats");
  let vfs = crash wh in
  (* [sp_view] was never defined here: its file appears if reopen runs *)
  rejected_untouched ~reason:"qty_stats exists" vfs (fun () ->
      reopen ~views:[ sp_named "qty_stats"; sp_view ] vfs)

let reopen_rejects_taken_name () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let clash = { qty_by_price_band with Agg_view.name = "small_qty" } in
  rejected_by_warehouse "define_agg_view" (fun () -> Warehouse.define_agg_view wh clash);
  check Alcotest.bool "no aggregate registered" true
    (match Warehouse.agg_view_rows wh "small_qty" with
     | _ -> false
     | exception Not_found -> true);
  Warehouse.define_agg_view wh qty_by_price_band;
  let vfs = crash wh in
  rejected_untouched ~reason:"qty_stats exists" vfs (fun () ->
      reopen ~views:[ sp_view ] ~extra:[ ("qty_stats", parts_schema) ] vfs)

(* reopen would start a never-created backing table empty and trust it *)
let reopen_rejects_missing_backing () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let vfs = crash wh in
  rejected_untouched ~reason:"no table qty_stats on the device" vfs (fun () -> reopen vfs)

(* ---------- progress rows ---------- *)

(* the upserts write inside the caller's transaction: an abort takes the
   write back, whether it inserted the row or overwrote it *)
let progress_rows_upsert () =
  let wh = mk_wh ~views:[ sp_view ] () in
  Warehouse.define_agg_view wh qty_by_price_band;
  let db = Warehouse.db wh in
  Db.checkpoint db;
  let aborted write =
    match Db.with_txn db (fun txn -> write txn; failwith "abort") with
    | () -> Alcotest.fail "the transaction committed"
    | exception Failure _ -> ()
  in
  let mark ops = { Warehouse.day = 3; lsn = 40; snap = 2; trig = 9; ops } in
  let no_mark = { Warehouse.day = -1; lsn = 0; snap = 0; trig = 0; ops = 0 } in
  let run next_key =
    { Warehouse.table = "parts"; run_id = "r1"; state = Warehouse.Bootstrapping; next_key;
      chunks_done = 2; rows_loaded = 16; last_txn = 7; lease_owner = "loader";
      lease_expiry = 30.0 }
  in
  aborted (fun txn -> Warehouse.put_mark wh txn "parts" (mark 10));
  check Alcotest.bool "an aborted first mark leaves no row" true
    (Warehouse.mark wh "parts" = no_mark);
  aborted (fun txn -> Warehouse.put_bootstrap wh txn (run 17));
  check Alcotest.bool "an aborted first run row leaves no row" true
    (Warehouse.bootstrap wh "parts" = None);
  Db.with_txn db (fun txn ->
      Warehouse.put_mark wh txn "parts" (mark 10);
      Warehouse.put_bootstrap wh txn (run 17));
  check Alcotest.bool "the next mark inserts" true (Warehouse.mark wh "parts" = mark 10);
  check Alcotest.bool "the next run row inserts" true
    (Warehouse.bootstrap wh "parts" = Some (run 17));
  aborted (fun txn ->
      Warehouse.put_mark wh txn "parts" (mark 20);
      Warehouse.put_bootstrap wh txn (run 33));
  check Alcotest.bool "an aborted overwrite leaves the committed mark" true
    (Warehouse.mark wh "parts" = mark 10);
  check Alcotest.bool "an aborted overwrite leaves the committed run row" true
    (Warehouse.bootstrap wh "parts" = Some (run 17));
  (* no checkpoint: both rows come back through WAL recovery *)
  let vfs = Db.vfs db in
  Vfs.crash_reset vfs;
  let wh = reopen vfs in
  check Alcotest.bool "reopen adopts the mark" true (Warehouse.mark wh "parts" = mark 10);
  check Alcotest.bool "reopen adopts the half-done run row" true
    (Warehouse.bootstrap wh "parts" = Some (run 17))

(* ---------- OLAP queries ---------- *)

module Olap = Dw_warehouse.Olap

let olap_standard_mix () =
  let wh = mk_wh ~parts:150 () in
  match Olap.run_all wh (Olap.standard_queries ~table:"parts") with
  | _, Some e -> Alcotest.fail e
  | results, None ->
    check Alcotest.int "five queries" 5 (List.length results);
    (match results with
     | count :: _ -> check Alcotest.int "COUNT(*) is one row" 1 count.Olap.rows
     | [] -> Alcotest.fail "no results");
    let band = List.nth results 4 in
    check Alcotest.int "band query rows" 51 band.Olap.rows
    (* ids 100..150 exist out of the 100..199 band *)

let olap_rejects_dml () =
  let wh = mk_wh () in
  match Olap.run wh { Olap.name = "bad"; sql = "DELETE FROM parts" } with
  | Error _ ->
    (* and it must not have deleted anything *)
    check Alcotest.int "no side effect" 50 (List.length (Warehouse.replica_rows wh "parts"))
  | Ok _ -> Alcotest.fail "expected rejection"

(* ---------- run-level maintenance ---------- *)

let key_is id = Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int id))
let id_of row = match row.(0) with Value.Int id -> id | _ -> invalid_arg "id_of"

let insert_part row =
  Dw_sql.Ast.Insert { table = "parts"; columns = None; rows = [ Array.to_list row ] }

(* the statement a source would have run for one value-delta change: an
   UPDATE sets every non-key column, so the twin sees update events where
   the value path sees a delete and an insert *)
let direct_stmt = function
  | Delta.Insert after | Delta.Upsert after -> insert_part after
  | Delta.Delete before -> delete_where (key_is (id_of before))
  | Delta.Update (_, after) ->
    Dw_sql.Ast.Update
      { table = "parts";
        sets = List.mapi (fun i c -> (c.Schema.name, Expr.Lit after.(i + 1)))
                 (List.tl (Schema.columns parts_schema));
        where = Some (key_is (id_of after)) }

(* [deltas] value deltas of up to 12 changes over the replica [rows]:
   inserts of new ids, and updates and deletes aimed a third of the time
   at a random row, the smallest qty (some group's MIN) or the largest id
   (some group's MAX); an update moves its row to a random day's group *)
let gen_value_deltas rng rows ~deltas =
  let live = Hashtbl.create 64 in
  List.iter (fun row -> Hashtbl.replace live (id_of row) row) rows;
  let next_id = ref 1000 in
  let target () =
    let all = Hashtbl.fold (fun _ row acc -> row :: acc) live [] |> List.sort Tuple.compare in
    let qty row = match row.(2) with Value.Int q -> q | _ -> 0 in
    match Prng.int rng 3 with
    | 0 -> List.fold_left (fun m r -> if qty r < qty m then r else m) (List.hd all) all
    | 1 -> List.nth all (List.length all - 1)
    | _ -> List.nth all (Prng.int rng (List.length all))
  in
  let change () =
    match Prng.int rng 5 with
    | 0 ->
      incr next_id;
      let row = Workload.gen_part rng ~id:!next_id ~day:(Prng.int rng 4) in
      Hashtbl.replace live !next_id row;
      Delta.Insert row
    | 1 ->
      let before = target () in
      Hashtbl.remove live (id_of before);
      Delta.Delete before
    | _ ->
      let before = target () in
      let after = Array.copy before in
      after.(2) <- Value.Int (Prng.int rng 1000);
      after.(4) <- Value.Date (Prng.int rng 4);
      Hashtbl.replace live (id_of before) after;
      Delta.Update (before, after)
  in
  List.init deltas (fun _ ->
      Delta.make ~table:"parts" ~schema:parts_schema
        (List.init (1 + Prng.int rng 12) (fun _ -> change ())))

(* one warehouse integrates value deltas (views maintained once per run);
   its twin runs the same changes as direct replica DML (once per row
   event) *)
let prop_value_delta_twins =
  QCheck2.Test.make ~name:"per-run and per-row view maintenance agree on value deltas" ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wh_value = mk_twin () and wh_direct = mk_twin () in
      let deltas =
        gen_value_deltas (Prng.create ~seed) (Warehouse.replica_rows wh_value "parts") ~deltas:4
      in
      List.iter
        (fun d -> ignore (Warehouse.integrate_value_delta wh_value d : Warehouse.stats))
        deltas;
      let db = Warehouse.db wh_direct in
      List.iter
        (fun d ->
          Db.with_txn db (fun txn ->
              List.iter
                (fun c -> ignore (Db.exec db txn (direct_stmt c) : Db.exec_result))
                d.Delta.changes))
        deltas;
      twins_agree wh_value wh_direct)

let supply_insert ~supply_id ~part_id =
  Dw_sql.Ast.Insert
    { table = "supply"; columns = None;
      rows = [ [ Value.Int supply_id; Value.Int part_id; Value.Str "sup9" ] ] }

let supply_where where = Dw_sql.Ast.Delete { table = "supply"; where = Some where }

(* one refresh transaction switches tables at every statement: each run
   over [parts] must be maintained against the [supply] rows it saw, so
   the join view stays exact only if a switch maintains the open run *)
let alternating_tables_run () =
  let wh = mk_twin () in
  let stmts =
    [
      Workload.update_parts_stmt ~first_id:1 ~size:10;
      supply_insert ~supply_id:100 ~part_id:5;
      supply_insert ~supply_id:101 ~part_id:7;
      Workload.update_parts_stmt ~first_id:3 ~size:6;
      Dw_sql.Ast.Update
        { table = "supply"; sets = [ ("part_id", Expr.Lit (Value.Int 8)) ];
          where = Some (Expr.Cmp (Expr.Le, Expr.Col "supply_id", Expr.Lit (Value.Int 10))) };
      delete_where (between ~first_id:6 ~size:3);
      supply_where (Expr.Cmp (Expr.Eq, Expr.Col "part_id", Expr.Lit (Value.Int 5)));
      move_stmt ~first_id:1 ~size:20 ~day:2;
      insert_part (Workload.gen_part (Prng.create ~seed:3) ~id:500 ~day:1);
      supply_insert ~supply_id:102 ~part_id:500;
      Workload.update_parts_stmt ~first_id:490 ~size:20;
    ]
  in
  let stats = Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:1 stmts ] in
  check Alcotest.int "one refresh transaction" 1 stats.Warehouse.txns;
  List.iter
    (fun name -> check Alcotest.bool (name ^ " equals recompute") true (views_agree wh name))
    [ "small_qty"; "parts_by_supplier" ];
  check Alcotest.bool "day_stats equals recompute" true (agg_views_agree wh "day_stats")

(* 50 updates that keep their rows in the day-0 group, as a value delta
   of 100 one-row statements: the group is written once for the run *)
let value_delta_group_written_once_per_run () =
  let row_ops with_agg =
    let wh = mk_wh ~parts:60 () in
    if with_agg then Warehouse.define_agg_view wh day_stats;
    let changes =
      List.filteri (fun i _ -> i < 50) (Warehouse.replica_rows wh "parts")
      |> List.map (fun before ->
             let after = Array.copy before in
             after.(2) <- (match before.(2) with Value.Int q -> Value.Int (q + 1) | v -> v);
             Delta.Update (before, after))
    in
    let stats =
      Warehouse.integrate_value_delta wh (Delta.make ~table:"parts" ~schema:parts_schema changes)
    in
    if with_agg then
      check Alcotest.bool "day_stats maintained" true (agg_views_agree wh "day_stats");
    stats.Warehouse.row_ops
  in
  check Alcotest.int "one group write for 50 value-delta updates" 1 (row_ops true - row_ops false)

(* ---------- key-preserving views ---------- *)

module Table = Dw_engine.Table
module Metrics = Dw_util.Metrics
module Trigger_extract = Dw_core.Trigger_extract

(* [small_qty] with the key projected last: it keeps the counted layout *)
let key_last_view =
  Spj_view.Select_project
    {
      name = "qty_then_id";
      table = "parts";
      schema = parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj Spj_view.L "qty" "qty"; proj Spj_view.L "part_id" "part_id" ];
    }

let backing_schema wh name = Table.schema (Db.table (Warehouse.db wh) name)
let backing_columns wh name = List.map (fun c -> c.Schema.name) (Schema.columns (backing_schema wh name))

let view_writes wh kind = Metrics.get (Db.metrics (Warehouse.db wh)) ("warehouse.view_writes." ^ kind)

let qty_of row = match row.(2) with Value.Int q -> q | _ -> invalid_arg "qty_of"

(* [small_qty] is stored as is and keyed by [part_id]; the key-last and
   join views keep [__count] *)
let keyed_layout_only_for_a_key_prefix () =
  let wh = mk_wh ~views:[ sp_view; key_last_view; join_view ] () in
  check Alcotest.(list string) "key-preserving view stored as is" [ "part_id"; "qty" ]
    (backing_columns wh "small_qty");
  check Alcotest.int "keyed by the source key" 1 (Schema.key_arity (backing_schema wh "small_qty"));
  check Alcotest.(list string) "key-last view counted" [ "qty"; "part_id"; "__count" ]
    (backing_columns wh "qty_then_id");
  check Alcotest.(list string) "join view counted" [ "supplier"; "qty"; "__count" ]
    (backing_columns wh "parts_by_supplier");
  List.iter
    (fun name -> check Alcotest.bool (name ^ " equals recompute") true (views_agree wh name))
    [ "small_qty"; "qty_then_id"; "parts_by_supplier" ]

(* a 10-row [qty + 1] UPDATE: a row that stays in the view is one
   in-place write of the keyed view, and a delete plus an insert of the
   counted one *)
let one_write_per_changed_row () =
  let writes view =
    let wh = mk_wh ~views:[ view ] () in
    let stays, leaves =
      List.fold_left
        (fun (stays, leaves) row ->
          if id_of row > 10 || qty_of row >= 500 then (stays, leaves)
          else if qty_of row + 1 < 500 then (stays + 1, leaves)
          else (stays, leaves + 1))
        (0, 0) (Warehouse.replica_rows wh "parts")
    in
    ignore
      (Warehouse.integrate_op_deltas wh
         [ Op_delta.make ~txn_id:1 [ Workload.update_parts_stmt ~first_id:1 ~size:10 ] ]
        : Warehouse.stats);
    check Alcotest.bool "view equals recompute" true (views_agree wh (Spj_view.name view));
    ((stays, leaves), List.map (view_writes wh) [ "insert"; "update"; "delete" ])
  in
  let (stays, leaves), keyed = writes sp_view in
  check Alcotest.bool "some rows stay in the view" true (stays > 0);
  check Alcotest.(list int) "keyed: one update per row" [ 0; stays; leaves ] keyed;
  let _, counted = writes key_last_view in
  check Alcotest.(list int) "counted: delete and insert per row" [ stays; 0; stays + leaves ]
    counted

(* hand-edit a view's backing table, as an operator could through
   [Warehouse.db]; no trigger stands on a backing table *)
let hand_edit wh f =
  let db = Warehouse.db wh in
  Db.with_txn db (fun txn -> f db txn)

(* each refresh over a hand-edited row fails with a message that [says]
   what broke, and leaves the view and the replica as they were *)
let refuses wh view what ~says stmt =
  let view_before = Warehouse.view_rows wh view and parts_before = sorted_parts wh in
  (match Warehouse.integrate_op_deltas wh [ Op_delta.make ~txn_id:1 [ stmt ] ] with
   | (_ : Warehouse.stats) -> Alcotest.failf "%s: expected Invalid_argument" what
   | exception Invalid_argument msg ->
     check Alcotest.bool (what ^ ": " ^ msg) true
       (Str.string_match (Str.regexp (".*" ^ Str.quote says)) msg 0));
  check Alcotest.bool (what ^ ": view unchanged") true
    (same_rows view_before (Warehouse.view_rows wh view));
  check Alcotest.bool (what ^ ": replica unchanged") true
    (List.equal Tuple.equal parts_before (sorted_parts wh))

(* parts in [small_qty] (qty < 500), by id *)
let in_view wh =
  List.filter_map
    (fun row -> if qty_of row < 500 then Some (id_of row, qty_of row) else None)
    (Warehouse.replica_rows wh "parts")
  |> List.sort compare

(* the invariants of a keyed view guard its backing table against edits
   the replica did not make *)
let keyed_view_rejects_bad_images () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let (k1, q1), (k2, _) =
    match in_view wh with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "too few view rows"
  in
  (* a row for part 100, which the replica lacks; a changed qty for k1;
     no row for k2 *)
  hand_edit wh (fun db txn ->
      ignore
        (Db.insert_row db txn "small_qty" [| Value.Int 100; Value.Int 10 |]
          : Dw_storage.Heap_file.rid);
      let found = Option.get (Db.find_by_key db txn "small_qty" [| Value.Int k1 |]) in
      Db.update_row db txn "small_qty" found [| Value.Int k1; Value.Int (q1 + 7) |];
      let found = Option.get (Db.find_by_key db txn "small_qty" [| Value.Int k2 |]) in
      Db.delete_row db txn "small_qty" found);
  let row id qty = [| Value.Int id; Value.Str "p"; Value.Int qty; Value.Float 1.0; Value.Date 0 |] in
  refuses wh "small_qty" "an image enters an occupied key" ~says:"duplicate primary key"
    (insert_part (row 100 10));
  refuses wh "small_qty" "a leaving image differs from the stored row"
    ~says:"leaving image differs from the stored row"
    (Workload.update_parts_stmt ~first_id:k1 ~size:1);
  refuses wh "small_qty" "an absent row leaves" ~says:"removing absent row"
    (delete_where (key_is k2))

(* the counted layout's checks: a row must be there to leave, and its
   multiplicity may not fall below zero *)
let counted_view_rejects_bad_counts () =
  let wh = mk_wh ~views:[ key_last_view ] () in
  let (k1, q1), (k2, q2) =
    match in_view wh with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "too few view rows"
  in
  (* k1's row counted 0 times, k2's row gone *)
  hand_edit wh (fun db txn ->
      let find key = Option.get (Db.find_by_key db txn "qty_then_id" key) in
      Db.update_row db txn "qty_then_id"
        (find [| Value.Int q1; Value.Int k1 |])
        [| Value.Int q1; Value.Int k1; Value.Int 0 |];
      Db.delete_row db txn "qty_then_id" (find [| Value.Int q2; Value.Int k2 |]));
  refuses wh "qty_then_id" "a multiplicity below zero" ~says:"multiplicity below zero"
    (delete_where (key_is k1));
  refuses wh "qty_then_id" "an absent row leaves" ~says:"removing absent row"
    (Workload.update_parts_stmt ~first_id:k2 ~size:1)

(* every key in [first_id, first_id + size) moves up by [by] *)
let shift_keys ~first_id ~size ~by =
  Dw_sql.Ast.Update
    { table = "parts";
      sets = [ ("part_id", Expr.Binop (Expr.Add, Expr.Col "part_id", Expr.Lit (Value.Int by))) ];
      where = Some (between ~first_id ~size) }

(* qty becomes 999 - qty: most rows cross the [qty < 500] filter *)
let flip_qty ~first_id ~size =
  Dw_sql.Ast.Update
    { table = "parts";
      sets = [ ("qty", Expr.Binop (Expr.Sub, Expr.Lit (Value.Int 999), Expr.Col "qty")) ];
      where = Some (between ~first_id ~size) }

(* one source transaction of 1-4 statements: inserts of fresh ids,
   [qty + 1] updates, filter-crossing updates, key shifts to fresh ids
   (alone, or followed by a refill of the vacated ids, so one key leaves
   and enters in one run) and deletes; [next_free] is past every id used *)
let gen_keyed_txn rng next_free =
  let range () = (1 + Prng.int rng 60, 1 + Prng.int rng 8) in
  let fresh size =
    let first_id = !next_free in
    next_free := first_id + size;
    first_id
  in
  let stmt () =
    match Prng.int rng 6 with
    | 0 ->
      let size = 1 + Prng.int rng 3 in
      Workload.insert_parts_txn ~seed:(Prng.int rng 1000) ~first_id:(fresh size) ~size ~day:0 ()
    | 1 ->
      let first_id, size = range () in
      [ Workload.update_parts_stmt ~first_id ~size ]
    | 2 ->
      let first_id, size = range () in
      [ flip_qty ~first_id ~size ]
    | 3 ->
      let first_id, size = range () in
      [ shift_keys ~first_id ~size ~by:(fresh size - first_id) ]
    | 4 ->
      let first_id, size = range () in
      shift_keys ~first_id ~size ~by:(fresh size - first_id)
      :: Workload.insert_parts_txn ~seed:(Prng.int rng 1000) ~first_id ~size ~day:0 ()
    | _ ->
      let first_id, size = range () in
      [ Workload.delete_parts_stmt ~first_id ~size ]
  in
  List.concat (List.init (1 + Prng.int rng 4) (fun _ -> stmt ()))

(* each source transaction is integrated twice, as the value delta its
   trigger captured and as its Op-Delta, into warehouses holding a keyed
   and a counted view *)
let prop_keyed_views_both_integrators =
  QCheck2.Test.make ~name:"keyed and counted views equal recompute under both integrators"
    ~count:30
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
      let _ = Workload.create_parts_table src in
      Workload.load_parts ~seed:77 src ~rows:50 ();
      Db.set_day src 0;
      let handle = Trigger_extract.install src ~table:"parts" in
      let views = [ sp_view; key_last_view ] in
      let wh_value = mk_wh ~views () and wh_op = mk_wh ~views () in
      let next_free = ref 1000 and pos = ref 0 in
      for i = 1 to 8 do
        let stmts = gen_keyed_txn rng next_free in
        Db.with_txn src (fun txn ->
            List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts);
        let delta, pos' = Trigger_extract.read src handle ~after:!pos in
        pos := pos';
        ignore (Warehouse.integrate_value_delta wh_value delta : Warehouse.stats);
        ignore (Warehouse.integrate_op_deltas wh_op [ Op_delta.make ~txn_id:i stmts ] : Warehouse.stats)
      done;
      let rows wh = List.sort Tuple.compare (Warehouse.replica_rows wh "parts") in
      List.equal Tuple.equal (rows wh_value) (rows wh_op)
      && List.for_all
           (fun name ->
             views_agree wh_value name && views_agree wh_op name
             && same_rows (Warehouse.view_rows wh_value name) (Warehouse.view_rows wh_op name))
           [ "small_qty"; "qty_then_id" ])

(* a keyed view refreshed, re-adopted after a crash and refreshed again
   (a key shift included) stays keyed and equal to its recomputation *)
let reopen_keeps_keyed_view () =
  let views = [ sp_view; key_last_view ] in
  let wh = mk_wh ~views () in
  ignore (Warehouse.integrate_op_deltas wh [ update_txn ~txn_id:1 ~first_id:1 ] : Warehouse.stats);
  let wh = reopen ~views ~agg_views:[] (crash wh) in
  check Alcotest.(list string) "still stored as is" [ "part_id"; "qty" ]
    (backing_columns wh "small_qty");
  ignore
    (Warehouse.integrate_op_deltas wh
       [ update_txn ~txn_id:2 ~first_id:5;
         Op_delta.make ~txn_id:3
           [ shift_keys ~first_id:20 ~size:5 ~by:1000; flip_qty ~first_id:30 ~size:10 ] ]
      : Warehouse.stats);
  List.iter
    (fun name -> check Alcotest.bool (name ^ " equals recompute") true (views_agree wh name))
    [ "small_qty"; "qty_then_id" ]

(* a long-lived warehouse finishes one [warehouse.refresh] span per
   refresh transaction: its registry keeps a bounded ring of span
   records and still counts every span in the rollup *)
let span_store_is_bounded () =
  let wh = mk_wh () in
  let m = Db.metrics (Warehouse.db wh) in
  let refreshes () =
    List.fold_left
      (fun acc (name, parent, n, _) ->
        if name = "warehouse.refresh" && parent = None then acc + n else acc)
      0 (Metrics.span_rollup m)
  in
  let before = refreshes () in
  let n = 10_000 in
  ignore
    (Warehouse.integrate_op_deltas wh
       (List.init n (fun i ->
            Op_delta.make ~txn_id:(i + 1)
              [ Workload.update_parts_stmt ~first_id:(1 + (i mod 50)) ~size:1 ]))
      : Warehouse.stats);
  check Alcotest.bool "at most the ring's records" true
    (List.length (Metrics.spans m) <= Metrics.span_ring);
  check Alcotest.int "the rollup counts every refresh" n (refreshes () - before)

(* the source stamps an updated row with the current day whatever the
   client set, so the captured statement carries the stamp and the
   replica ends where the source does *)
let client_set_timestamp_replays () =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Db.set_day src 0;
  let cap = Opdelta_capture.create src ~sink:(Opdelta_capture.To_file "oplog") in
  let submit stmts =
    match Opdelta_capture.exec_txn cap stmts with Ok _ -> () | Error e -> Alcotest.fail e
  in
  submit (Workload.insert_parts_txn ~first_id:1 ~size:5 ~day:0 ());
  Db.set_day src 5;
  submit
    [ (match Dw_sql.Parser.parse "UPDATE parts SET last_modified = DATE 2 WHERE part_id = 3" with
       | Ok stmt -> stmt
       | Error e -> Alcotest.fail e) ];
  let wh = mk_wh ~parts:0 () in
  ignore (Warehouse.integrate_op_deltas wh (Opdelta_capture.captured cap) : Warehouse.stats);
  let day_of rows =
    match List.find (fun row -> Value.equal row.(0) (Value.Int 3)) rows with
    | row -> Tuple.get parts_schema row "last_modified"
    | exception Not_found -> Alcotest.fail "part 3 missing"
  in
  let source_rows = Db.with_txn src (fun txn -> Db.select src txn "parts" ()) in
  check Alcotest.string "source stamps the day" "#5" (Value.to_string (day_of source_rows));
  check Alcotest.string "replica stamps the day" "#5"
    (Value.to_string (day_of (Warehouse.replica_rows wh "parts")));
  check Alcotest.bool "same replica rows" true
    (List.equal Tuple.equal (List.sort Tuple.compare source_rows) (sorted_parts wh))

let suite =
  [
    test "materialize sp view" materialize_sp;
    test "materialize join view" materialize_join;
    test "view validation" view_validation;
    test "incremental sp" incremental_sp_after_ops;
    test "incremental join" incremental_join_after_ops;
    test "value delta upsert" value_delta_upsert_semantics;
    test "integrators converge" integrators_converge;
    QCheck_alcotest.to_alcotest prop_views_incremental;
    QCheck_alcotest.to_alcotest prop_integrators_converge;
    test "agg validate" agg_validate;
    test "agg eval basics" agg_eval_basics;
    test "agg materialize and maintain" agg_materialize_and_maintain;
    test "agg min/max rescan on delete" agg_minmax_rescan_on_delete;
    test "agg update moves groups" agg_update_moves_groups;
    QCheck_alcotest.to_alcotest prop_agg_incremental;
    test "hybrid and plain Op-Deltas agree" hybrid_as_plain;
    test "hybrid and plain Op-Deltas agree (alt)" hybrid_as_plain_alt;
    test "hybrid value deltas match Op-Deltas" hybrid_value_deltas_match;
    test "counted view rejects bad multiplicities" counted_view_rejects_bad_counts;
    test "reopen round trip keeps views maintained" reopen_round_trip;
    test "reopen rejects an aggregate view's name" reopen_rejects_agg_name;
    test "reopen rejects a name already taken" reopen_rejects_taken_name;
    test "reopen rejects a missing backing table" reopen_rejects_missing_backing;
    test "progress rows upsert in the caller's transaction" progress_rows_upsert;
    test "olap standard mix" olap_standard_mix;
    test "olap rejects dml" olap_rejects_dml;
    QCheck_alcotest.to_alcotest prop_twin_warehouses;
    test "agg group written once per statement" agg_group_written_once_per_statement;
    test "agg MIN rescan written once" agg_rescan_written_once;
    QCheck_alcotest.to_alcotest prop_value_delta_twins;
    test "alternating tables in one refresh transaction" alternating_tables_run;
    test "value-delta group written once per run" value_delta_group_written_once_per_run;
    test "keyed layout only for a key prefix" keyed_layout_only_for_a_key_prefix;
    test "one write per changed view row" one_write_per_changed_row;
    test "keyed view rejects bad images" keyed_view_rejects_bad_images;
    QCheck_alcotest.to_alcotest prop_keyed_views_both_integrators;
    test "reopen keeps a keyed view keyed" reopen_keeps_keyed_view;
    test "span store stays bounded over 10,000 refreshes" span_store_is_bounded;
    test "a client-set timestamp replays as the stamp" client_set_timestamp_replays;
  ]
