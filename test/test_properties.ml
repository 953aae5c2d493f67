(* Cross-cutting qcheck property suites that don't belong to a single
   module's tests: lock-manager safety against a brute-force model,
   Op-Delta wire-format round-trips over generated transactions, the
   Op-Delta's row images replayed as value deltas, and WAL record-stream
   round-trips. *)

module Vfs = Dw_storage.Vfs
module Heap_file = Dw_storage.Heap_file
module Lock_manager = Dw_txn.Lock_manager
module Log_record = Dw_txn.Log_record
module Wal = Dw_txn.Wal
module Value = Dw_relation.Value
module Tuple = Dw_relation.Tuple
module Ast = Dw_sql.Ast
module Schema = Dw_relation.Schema
module Expr = Dw_relation.Expr
module Prng = Dw_util.Prng
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Opdelta_capture = Dw_core.Opdelta_capture
module Workload = Dw_workload.Workload

let test name f = Alcotest.test_case name `Quick f
let _ = test

(* ---------- lock manager vs. brute-force model ---------- *)

type lock_op =
  | Acquire of int * int * bool * bool  (* tx, resource id, is_row, exclusive *)
  | Release of int

let gen_lock_ops =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (6, map (fun ((tx, r), (row, x)) -> Acquire (tx, r, row, x))
                 (pair (pair (int_range 1 5) (int_range 0 4)) (pair bool bool)));
           (2, map (fun tx -> Release tx) (int_range 1 5));
         ]))

let resource_of r is_row =
  if is_row then Lock_manager.Row ("t", { Heap_file.page = r; slot = 0 })
  else Lock_manager.Table "t"

(* model resource identity: all table locks are the one table "t" *)
let model_id r is_row = if is_row then Some r else None

(* model: set of granted (tx, id option, exclusive) *)
let model_conflicts held tx resource_id is_row exclusive =
  let id = model_id resource_id is_row in
  List.filter
    (fun (otx, oid, ox) ->
      otx <> tx
      && (not ((not exclusive) && not ox))  (* S/S compatible *)
      && (oid = id  (* same resource *)
          || (oid = None) <> (id = None) (* coarse: table lock vs any row lock *)))
    held
  |> List.map (fun (otx, _, _) -> otx)
  |> List.sort_uniq compare

(* model wait-for graph: would [tx] waiting on [blockers] close a cycle? *)
let model_closes_cycle waits tx blockers =
  let rec reaches seen from =
    from = tx
    || (not (List.mem from seen))
       && List.exists (reaches (from :: seen))
            (match List.assoc_opt from waits with Some next -> next | None -> [])
  in
  List.exists (reaches []) blockers

let prop_lock_manager_model =
  QCheck2.Test.make ~name:"lock manager matches brute-force model" ~count:300 gen_lock_ops
    (fun ops ->
      let lm = Lock_manager.create () in
      let held = ref [] in  (* (tx, id, exclusive) granted in model *)
      let waits = ref [] in  (* waiter -> blockers, as in the wait-for graph *)
      let ok = ref true in
      (* after every operation, each transaction's held set and waiting
         flag must match the model *)
      let agrees () =
        List.for_all
          (fun tx ->
            let model_held =
              List.filter_map
                (fun (otx, oid, _) ->
                  if otx <> tx then None
                  else
                    Some
                      (match oid with
                       | Some r -> resource_of r true
                       | None -> resource_of 0 false))
                !held
            in
            List.sort compare (Lock_manager.held_by lm tx) = List.sort compare model_held
            && Lock_manager.waiting lm tx = List.mem_assoc tx !waits)
          [ 1; 2; 3; 4; 5 ]
      in
      List.iter
        (fun op ->
          (match op with
           | Release tx ->
             Lock_manager.release_all lm tx;
             held := List.filter (fun (otx, _, _) -> otx <> tx) !held;
             waits :=
               List.filter_map
                 (fun (w, bs) ->
                   if w = tx then None
                   else match List.filter (( <> ) tx) bs with [] -> None | bs -> Some (w, bs))
                 !waits
           | Acquire (tx, r, is_row, x) -> (
               let resource = resource_of r is_row in
               let id = model_id r is_row in
               let mode = if x then Lock_manager.X else Lock_manager.S in
               let model_blockers = model_conflicts !held tx r is_row x in
               match Lock_manager.acquire lm tx resource mode with
               | Lock_manager.Granted ->
                 if model_blockers <> [] then ok := false
                 else begin
                   (* model grant: upgrade keeps the strongest mode *)
                   let existing =
                     List.find_opt (fun (otx, oid, _) -> otx = tx && oid = id) !held
                   in
                   let new_x = match existing with Some (_, _, ox) -> ox || x | None -> x in
                   held :=
                     (tx, id, new_x)
                     :: List.filter (fun (otx, oid, _) -> not (otx = tx && oid = id)) !held;
                   waits := List.remove_assoc tx !waits
                 end
               | Lock_manager.Blocked blockers ->
                 if model_blockers = [] || List.sort compare blockers <> model_blockers
                    || model_closes_cycle !waits tx model_blockers
                 then ok := false
                 else waits := (tx, model_blockers) :: List.remove_assoc tx !waits
               | Lock_manager.Deadlock blockers ->
                 if model_blockers = [] || List.sort compare blockers <> model_blockers
                    || not (model_closes_cycle !waits tx model_blockers)
                 then ok := false));
          if not (agrees ()) then ok := false)
        ops;
      !ok)

(* ---------- op-delta wire format over generated transactions ---------- *)

let gen_txn =
  QCheck2.Gen.(
    let gen_stmt =
      oneof
        [
          map2
            (fun first size -> List.hd (Workload.insert_parts_txn ~first_id:first ~size:1 ~day:size ()))
            (int_range 1 100000) (int_range 0 20000);
          map2 (fun f s -> Workload.update_parts_stmt ~first_id:f ~size:s) (int_range 1 1000)
            (int_range 1 1000);
          map2 (fun f s -> Workload.delete_parts_stmt ~first_id:f ~size:s) (int_range 1 1000)
            (int_range 1 1000);
        ]
    in
    pair (int_range 0 1_000_000) (list_size (int_range 1 8) gen_stmt))

let prop_opdelta_wire_roundtrip =
  QCheck2.Test.make ~name:"op-delta wire roundtrip (generated txns)" ~count:300 gen_txn
    (fun (txn_id, stmts) ->
      let od = Op_delta.make ~txn_id stmts in
      match Op_delta.decode_line (Op_delta.encode_line od) with
      | Error _ -> false
      | Ok od' ->
        od'.Op_delta.txn_id = txn_id
        && List.length od'.Op_delta.ops = List.length stmts
        && List.for_all2
             (fun stmt (op : Op_delta.op) -> Ast.equal stmt op.Op_delta.stmt)
             stmts od'.Op_delta.ops)

let gen_images =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (map2
         (fun id day -> Workload.gen_part (Dw_util.Prng.create ~seed:id) ~id ~day)
         (int_range 1 1000) (int_range 0 20000)))

let prop_opdelta_wire_with_images =
  QCheck2.Test.make ~name:"op-delta wire roundtrip with before images" ~count:200
    QCheck2.Gen.(pair gen_images (pair (int_range 1 500) (int_range 1 500)))
    (fun (images, (first_id, size)) ->
      let od =
        Op_delta.with_before_images ~txn_id:9
          [ (Workload.delete_parts_stmt ~first_id ~size, images) ]
      in
      let schema_of name = if name = "parts" then Some Workload.parts_schema else None in
      match Op_delta.decode_line ~schema_of (Op_delta.encode_line ~schema_of od) with
      | Error _ -> false
      | Ok od' -> (
          match od'.Op_delta.ops with
          | [ op ] ->
            List.length op.Op_delta.before_images = List.length images
            && List.for_all2 Tuple.equal images op.Op_delta.before_images
          | _ -> false))

(* ---------- Op-Delta row images as a value delta ---------- *)

(* one gen_mix op as statements; about half the INSERTs name their
   columns (reversed) and half the UPDATEs also move the key, into an id
   band of their own so moved keys never collide *)
let hybrid_stmts rng i op =
  match (op, Prng.int rng 2) with
  | Workload.Mix_insert _, 1 ->
    let names =
      List.rev_map (fun c -> c.Schema.name) (Schema.columns Workload.parts_schema)
    in
    List.map
      (function
        | Ast.Insert { table; columns = None; rows } ->
          Ast.Insert { table; columns = Some names; rows = List.map List.rev rows }
        | stmt -> stmt)
      (Workload.op_to_stmts ~day:0 op)
  | Workload.Mix_update (first_id, size), 1 -> (
      let shift = Expr.Lit (Value.Int (100_000 * (i + 1))) in
      match Workload.update_parts_stmt ~first_id ~size with
      | Ast.Update u ->
        [ Ast.Update
            { u with sets = ("part_id", Expr.Binop (Expr.Add, Expr.Col "part_id", shift)) :: u.sets } ]
      | stmt -> [ stmt ])
  | _ -> Workload.op_to_stmts ~day:0 op

(* each transaction commits on a later source day, so the replay also
   covers the last_modified stamps the capture reifies *)
let prop_value_delta_replays_source =
  QCheck2.Test.make ~name:"op-delta value deltas replay the source table" ~count:40
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
      let (_ : Table.t) = Workload.create_parts_table src in
      Db.set_day src 0;
      Workload.load_parts ~seed src ~rows:30 ();
      let rows () =
        let acc = ref [] in
        Table.scan (Db.table src "parts") (fun _ row -> acc := row :: !acc);
        List.sort Tuple.compare !acc
      in
      let start = rows () in
      let cap =
        Opdelta_capture.create ~capture_images:true src ~sink:(Opdelta_capture.To_file "oplog")
      in
      List.iteri
        (fun i op ->
          Db.set_day src (i + 1);
          match Opdelta_capture.exec_txn cap (hybrid_stmts rng i op) with
          | Ok _ -> ()
          | Error e -> QCheck2.Test.fail_report e)
        (Workload.gen_mix rng ~existing_ids:30 ~txns:12 ~max_txn_size:5);
      let replayed =
        List.fold_left
          (fun acc od ->
            Delta.apply_to_rows
              (Op_delta.value_delta ~table:"parts" ~schema:Workload.parts_schema od)
              acc)
          start (Opdelta_capture.captured cap)
      in
      List.equal Tuple.equal (List.sort Tuple.compare replayed) (rows ()))

(* ---------- WAL stream round-trip ---------- *)

let gen_records =
  QCheck2.Gen.(
    let bytes_gen = map Bytes.of_string (string_size ~gen:printable (int_range 0 50)) in
    let rid = map2 (fun p s -> { Heap_file.page = p; slot = s }) (int_range 0 100) (int_range 0 60) in
    list_size (int_range 1 60)
      (oneof
         [
           map (fun tx -> { Log_record.tx; body = Log_record.Begin }) (int_range 1 50);
           map (fun tx -> { Log_record.tx; body = Log_record.Commit }) (int_range 1 50);
           map (fun tx -> { Log_record.tx; body = Log_record.Abort }) (int_range 1 50);
           map3
             (fun tx rid after ->
               { Log_record.tx; body = Log_record.Insert { table = "t"; rid; after } })
             (int_range 1 50) rid bytes_gen;
           map3
             (fun tx rid before ->
               { Log_record.tx; body = Log_record.Delete { table = "t"; rid; before } })
             (int_range 1 50) rid bytes_gen;
         ]))

let record_equal (a : Log_record.t) (b : Log_record.t) =
  a.Log_record.tx = b.Log_record.tx
  &&
  match a.Log_record.body, b.Log_record.body with
  | Log_record.Begin, Log_record.Begin
  | Log_record.Commit, Log_record.Commit
  | Log_record.Abort, Log_record.Abort ->
    true
  | Log_record.Insert x, Log_record.Insert y ->
    x.table = y.table && x.rid = y.rid && Bytes.equal x.after y.after
  | Log_record.Delete x, Log_record.Delete y ->
    x.table = y.table && x.rid = y.rid && Bytes.equal x.before y.before
  | _, _ -> false

let prop_wal_stream_roundtrip =
  QCheck2.Test.make ~name:"wal stream roundtrip (with checkpoints interleaved)" ~count:150
    QCheck2.Gen.(pair gen_records (int_range 0 3))
    (fun (records, checkpoints_every) ->
      let vfs = Vfs.in_memory () in
      let wal = Wal.create vfs ~name:"p.wal" ~archive:true in
      List.iteri
        (fun i record ->
          ignore (Wal.append wal record : int);
          if checkpoints_every > 0 && i mod (checkpoints_every * 7) = 6 then
            ignore (Wal.checkpoint wal ~active:[] : int))
        records;
      let got = ref [] in
      Wal.iter_all wal (fun _ r ->
          match r.Log_record.body with
          | Log_record.Checkpoint _ -> ()
          | _ -> got := r :: !got);
      let got = List.rev !got in
      List.length got = List.length records && List.for_all2 record_equal records got)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lock_manager_model;
    QCheck_alcotest.to_alcotest prop_opdelta_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_opdelta_wire_with_images;
    QCheck_alcotest.to_alcotest prop_wal_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_value_delta_replays_source;
  ]
