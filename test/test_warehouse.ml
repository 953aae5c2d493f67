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

let views_agree wh name =
  let materialized = Warehouse.view_rows wh name in
  let recomputed = Warehouse.recompute_view wh name in
  List.length materialized = List.length recomputed
  && List.for_all2
       (fun (r1, c1) (r2, c2) -> Tuple.equal r1 r2 && c1 = c2)
       materialized recomputed

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
  let materialized = Warehouse.agg_view_rows wh name in
  let recomputed = Warehouse.recompute_agg_view wh name in
  List.length materialized = List.length recomputed
  && List.for_all2
       (fun (r1, c1) (r2, c2) -> Tuple.equal r1 r2 && c1 = c2)
       materialized recomputed

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

(* ---------- replica-less (hybrid) maintenance ---------- *)

module Opdelta_capture = Dw_core.Opdelta_capture

let viewonly_view =
  Spj_view.Select_project
    {
      name = "vo_small_qty";
      table = "parts";
      schema = parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project =
        [ proj Spj_view.L "part_id" "part_id"; proj Spj_view.L "qty" "qty" ];
    }

(* run a workload through a hybrid capture at the source, feed the hybrid
   op-deltas to a replica-less warehouse, and compare its view against a
   conventional replica-based warehouse fed the same captures *)
let hybrid_capture_workload ~seed ~txns =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Db.set_day src 0;
  let cap =
    Opdelta_capture.create ~views:[ viewonly_view ] ~replicas:false src
      ~sink:(Opdelta_capture.To_file "hybrid.oplog")
  in
  let submit stmts =
    match Opdelta_capture.exec_txn cap stmts with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* seed through the wrapper so both warehouses can start empty *)
  submit (Workload.insert_parts_txn ~first_id:1 ~size:40 ~day:0 ());
  let rng = Prng.create ~seed in
  List.iter
    (fun op -> submit (Workload.op_to_stmts ~day:0 op))
    (Workload.gen_mix rng ~existing_ids:40 ~txns ~max_txn_size:5);
  Opdelta_capture.captured cap

let viewonly_matches_replica_based ~seed () =
  let ods = hybrid_capture_workload ~seed ~txns:12 in
  (* warehouse A: replica-less, hybrid integration *)
  let wh_a = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dwa" () in
  Warehouse.define_viewonly_view wh_a viewonly_view;
  List.iter
    (fun od -> ignore (Warehouse.integrate_op_delta_viewonly wh_a od : Warehouse.stats))
    ods;
  (* warehouse B: conventional replica + the same view definition *)
  let wh_b = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dwb" () in
  Warehouse.add_replica wh_b ~table:"parts" ~schema:parts_schema;
  Warehouse.define_view wh_b
    (Spj_view.Select_project
       { name = "vo_small_qty"; table = "parts"; schema = parts_schema;
         filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
         project = [ proj Spj_view.L "part_id" "part_id"; proj Spj_view.L "qty" "qty" ] });
  ignore (Warehouse.integrate_op_deltas wh_b ods : Warehouse.stats);
  let a = Warehouse.view_rows wh_a "vo_small_qty" in
  let b = Warehouse.view_rows wh_b "vo_small_qty" in
  check Alcotest.int "same view cardinality" (List.length b) (List.length a);
  List.iter2
    (fun (ra, ca) (rb, cb) ->
      check Alcotest.bool "same view row" true (Tuple.equal ra rb && ca = cb))
    a b

let viewonly_basic = viewonly_matches_replica_based ~seed:3
let viewonly_alt = viewonly_matches_replica_based ~seed:1234

let viewonly_bare_delete_is_noop () =
  (* a delete without before images is indistinguishable from one that
     matched zero rows: it must change nothing *)
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.define_viewonly_view wh viewonly_view;
  ignore
    (Warehouse.integrate_op_delta_viewonly wh
       (Op_delta.make ~txn_id:1 (Workload.insert_parts_txn ~first_id:1 ~size:3 ~day:0 ()))
      : Warehouse.stats);
  let before = Warehouse.view_rows wh "vo_small_qty" in
  ignore
    (Warehouse.integrate_op_delta_viewonly wh
       (Op_delta.make ~txn_id:2 [ Workload.delete_parts_stmt ~first_id:1 ~size:3 ])
      : Warehouse.stats);
  check Alcotest.int "unchanged" (List.length before)
    (List.length (Warehouse.view_rows wh "vo_small_qty"))

let viewonly_rejects_join () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  try
    Warehouse.define_viewonly_view wh join_view;
    Alcotest.fail "expected join rejection"
  with Invalid_argument _ -> ()

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

(* an SPJ attach under an aggregate view's name would maintain SPJ rows
   into the aggregate's backing table on the next replica change *)
let attach_view_rejects_agg_name () =
  let wh = mk_wh () in
  Warehouse.define_agg_view wh qty_by_price_band;
  rejected_by_warehouse "attach_view" (fun () ->
      Warehouse.attach_view wh (sp_named "qty_stats"));
  rejected_by_warehouse "define_view" (fun () ->
      Warehouse.define_view wh (sp_named "qty_stats"));
  ignore
    (Warehouse.integrate_op_deltas wh
       [ Op_delta.make ~txn_id:1 [ Workload.update_parts_stmt ~first_id:1 ~size:10 ] ]
      : Warehouse.stats);
  check Alcotest.bool "aggregate view untouched by a stray SPJ view" true
    (agg_views_agree wh "qty_stats")

let attach_agg_view_rejects_viewonly_name () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:parts_schema;
  Warehouse.define_viewonly_view wh viewonly_view;
  let clash = { qty_by_price_band with Agg_view.name = "vo_small_qty" } in
  rejected_by_warehouse "attach_agg_view" (fun () -> Warehouse.attach_agg_view wh clash);
  rejected_by_warehouse "define_agg_view" (fun () -> Warehouse.define_agg_view wh clash);
  check Alcotest.bool "no aggregate registered" true
    (Warehouse.agg_view_def wh "vo_small_qty" = None)

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
    test "view-only hybrid matches replica-based" viewonly_basic;
    test "view-only hybrid matches replica-based (alt seed)" viewonly_alt;
    test "view-only bare delete is no-op" viewonly_bare_delete_is_noop;
    test "view-only rejects join views" viewonly_rejects_join;
    test "attach_view rejects an aggregate view's name" attach_view_rejects_agg_name;
    test "attach_agg_view rejects a view-only name" attach_agg_view_rejects_viewonly_name;
    test "olap standard mix" olap_standard_mix;
    test "olap rejects dml" olap_rejects_dml;
  ]
