(* The four dwperf workloads: their sizes, their seeded statement streams,
   the source + warehouse systems they drive, and the correctness gate.

   Everything here goes through the library's public user paths only:
   source commits through Opdelta_capture.exec_txn (or Db.with_txn under
   the trigger Pipeline.Trigger installs), refresh rounds through
   Pipeline.run_round (or Stage.split then Partitioned.refresh), and
   analyst reads through Olap.run.  Storage is in-memory with no
   simulated device delay, so what is timed is the program itself. *)

module Db = Dw_engine.Db
module Vfs = Dw_storage.Vfs
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Prng = Dw_util.Prng
module Domain_pool = Dw_util.Domain_pool
module W = Dw_workload.Workload
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Opdelta_capture = Dw_core.Opdelta_capture
module Warehouse = Dw_warehouse.Warehouse
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Pipeline = Dw_etl.Pipeline
module Stage = Dw_etl.Stage

type kind = Update_opdelta | Update_valuedelta | Insert_mix_readers | Partitioned_mix

let all = [ Update_opdelta; Update_valuedelta; Insert_mix_readers; Partitioned_mix ]

let name = function
  | Update_opdelta -> "update_opdelta"
  | Update_valuedelta -> "update_valuedelta"
  | Insert_mix_readers -> "insert_mix_readers"
  | Partitioned_mix -> "partitioned_mix"

let of_name s = List.find_opt (fun k -> name k = s) all

(* fixed sizes; [div] shrinks rows and epochs for the smoke test *)
type shape = {
  rows : int;  (** initial source and warehouse rows *)
  epoch_txns : int;  (** source transactions per epoch (about 2.5 s) *)
  round_every : int;  (** source transactions per refresh round *)
  wh_pages : int option;  (** warehouse pool pages; None = Db.create default *)
}

let shape ?(div = 1) kind =
  let s rows epoch_txns round_every wh_pages =
    { rows = max 200 (rows / div); epoch_txns = max 40 (epoch_txns / div); round_every; wh_pages }
  in
  match kind with
  | Update_opdelta -> s 20_000 1_500 20 (Some 2048)
  | Update_valuedelta -> s 20_000 600 20 (Some 2048)
  | Insert_mix_readers -> s 30_000 4_000 30 None
  | Partitioned_mix -> s 20_000 3_000 30 (Some 1024)

let table = W.parts_table

(* ---------- statement streams ---------- *)

type op = Insert | Update | Delete

type stream = {
  kind : kind;
  rng : Prng.t;
  seed : int;
  mutable next_id : int;
  mutable deck : op list;  (** the rest of the current ten mixed transactions *)
}

let stream kind ~seed ~rows = { kind; rng = Prng.create ~seed; seed; next_id = rows + 1; deck = [] }

(* a range of [size] ids starting anywhere in the id space seen so far *)
let range_start s size = 1 + Prng.int s.rng (max 1 (s.next_id - size))

(* 50 % inserts of [size] single-row statements past the id space, 30 %
   range updates, 20 % range deletes: every ten transactions hold exactly
   that mix in a seeded order, so what a transaction costs on average
   does not depend on the seed *)
let mixed s size =
  if s.deck = [] then begin
    let d = Array.concat [ Array.make 5 Insert; Array.make 3 Update; Array.make 2 Delete ] in
    Prng.shuffle s.rng d;
    s.deck <- Array.to_list d
  end;
  let op = List.hd s.deck in
  s.deck <- List.tl s.deck;
  match op with
  | Insert ->
    let first_id = s.next_id in
    s.next_id <- first_id + size;
    W.insert_parts_txn ~seed:s.seed ~first_id ~size ~day:0 ()
  | Update -> [ W.update_parts_stmt ~first_id:(range_start s size) ~size ]
  | Delete -> [ W.delete_parts_stmt ~first_id:(range_start s size) ~size ]

let next s =
  match s.kind with
  | Update_opdelta | Update_valuedelta ->
    [ W.update_parts_stmt ~first_id:(range_start s 50) ~size:50 ]
  | Insert_mix_readers -> mixed s 10
  | Partitioned_mix -> mixed s 20

(* ---------- views ---------- *)

let proj col = { Spj_view.out_name = col; from_side = Spj_view.L; from_col = col }

let spj_view =
  Spj_view.Select_project
    {
      name = "big_qty";
      table;
      schema = W.parts_schema;
      filter = Some (Expr.Cmp (Expr.Ge, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj "part_id"; proj "qty" ];
    }

(* integer aggregates only: a float SUM depends on addition order, so it
   could not be compared exactly against a recomputation *)
let agg_view =
  {
    Agg_view.name = "stock_by_day";
    table;
    schema = W.parts_schema;
    filter = None;
    group_by = [ "last_modified" ];
    aggregates = [ ("n", Agg_view.Count); ("units", Agg_view.Sum "qty") ];
  }

(* ---------- systems ---------- *)

type target =
  | Pipe of { pipe : Pipeline.t; wh : Warehouse.t }
  | Fleet of {
      pw : Partitioned.t;
      cap : Opdelta_capture.t;
      pool : Domain_pool.t;
      mutable consumed : int;
    }

type system = { kind : kind; src : Db.t; target : target }

let source_rows src =
  let txn = Db.begin_txn ~mode:`Snapshot src in
  let rows = Db.select src txn table () in
  Db.commit src txn;
  List.sort Tuple.compare rows

let setup ?div kind ~seed =
  let shape = shape ?div kind in
  let src = Db.create ~pool_pages:1024 ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  (* under the default Scan_only mode every range statement scans the
     whole table, which would hide every other layer *)
  Db.set_plan_mode src `Index_preferred;
  ignore (W.create_parts_table src : Dw_engine.Table.t);
  W.load_parts ~seed src ~rows:shape.rows ();
  let rows = source_rows src in
  let target =
    match kind with
    | Update_opdelta | Update_valuedelta | Insert_mix_readers ->
      let wh = Warehouse.create ?pool_pages:shape.wh_pages ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
      Warehouse.add_replica wh ~table ~schema:W.parts_schema;
      Warehouse.load_replica wh ~table rows;
      Warehouse.define_view wh spj_view;
      Warehouse.define_agg_view wh agg_view;
      let method_ =
        if kind = Update_valuedelta then Pipeline.Trigger else Pipeline.Op_delta_wrapper
      in
      let pipe =
        Pipeline.create ~source:src ~warehouse:wh ~table ~method_
          ~transport:(Pipeline.Queued "refresh") ()
      in
      Pipe { pipe; wh }
    | Partitioned_mix ->
      let spec = Partition.make ~table ~key_column:"part_id" (Partition.Hash 2) in
      let pw = Partitioned.create ?pool_pages:shape.wh_pages ~spec ~name:"dw" () in
      Partitioned.add_replica pw ~table ~schema:W.parts_schema;
      Partitioned.load_replica pw ~table rows;
      Partitioned.define_view pw spj_view;
      Partitioned.define_agg_view pw agg_view;
      let cap = Opdelta_capture.create src ~sink:(Opdelta_capture.To_file "capture.oplog") in
      Fleet { pw; cap; pool = Domain_pool.create ~domains:2; consumed = 0 }
  in
  { kind; src; target }

let teardown sys =
  match sys.target with Fleet f -> Domain_pool.shutdown f.pool | Pipe _ -> ()

(* the warehouse-side registries: the one warehouse, or every shard *)
let warehouse_dbs sys =
  match sys.target with
  | Pipe p -> [ Warehouse.db p.wh ]
  | Fleet f ->
    List.init (Partitioned.partitions f.pw) (fun i -> Warehouse.db (Partitioned.shard f.pw i))

(* the warehouse the analyst domain reads, on the one workload with one *)
let analyst_warehouse sys =
  match sys.target with Pipe p when sys.kind = Insert_mix_readers -> Some p.wh | _ -> None

(* the operator's periodic checkpoint of every engine: it recycles WAL
   segments, which would otherwise grow in memory for the whole run *)
let checkpoint_every = 25
let checkpoint sys = List.iter Db.checkpoint (sys.src :: warehouse_dbs sys)

(* the host's speed for this system: the partitioned fleet refreshes on
   its pool's domains, so their probes count as much as the main domain's *)
let probe sys =
  match sys.target with
  | Pipe _ -> Speed.probe ()
  | Fleet f ->
    let pooled = Domain_pool.run_all f.pool [ Speed.probe; Speed.probe ] in
    (Speed.probe () +. (List.fold_left ( +. ) 0.0 pooled /. 2.0)) /. 2.0

let protect f = try f () with e -> Error (Printexc.to_string e)

(* one source transaction through the workload's capture path *)
let commit sys stmts =
  let exec_all txn = List.iter (fun s -> ignore (Db.exec sys.src txn s : Db.exec_result)) stmts in
  protect (fun () ->
      match sys.target with
      | Pipe { pipe; _ } -> (
          match Pipeline.capture pipe with
          | Some cap -> Result.map ignore (Opdelta_capture.exec_txn cap stmts)
          | None -> Ok (Db.with_txn sys.src exec_all))
      | Fleet { cap; _ } -> Result.map ignore (Opdelta_capture.exec_txn cap stmts))

type round = {
  shipped_bytes : int;
  integration : Warehouse.stats;
  stage : Stage.stats option;
  stage_s : float;  (** Stage.split wall time (partitioned only) *)
  refresh_s : float;  (** Partitioned.refresh wall time (partitioned only) *)
}

(* one refresh round: everything committed since the previous round
   becomes visible in the warehouse *)
let run_round sys =
  protect (fun () ->
      match sys.target with
      | Pipe { pipe; _ } ->
        Result.map
          (fun (rs : Pipeline.round_stats) ->
            {
              shipped_bytes = rs.shipped_bytes;
              integration = rs.integration;
              stage = None;
              stage_s = 0.0;
              refresh_s = 0.0;
            })
          (Pipeline.run_round pipe)
      | Fleet f ->
        let consumed = f.consumed in
        let fresh = List.filteri (fun i _ -> i >= consumed) (Opdelta_capture.captured f.cap) in
        f.consumed <- consumed + List.length fresh;
        let t0 = Unix.gettimeofday () in
        let buckets, stage = Stage.split ~spec:(Partitioned.spec f.pw) fresh in
        let t1 = Unix.gettimeofday () in
        let integration = Partitioned.refresh ~pool:f.pool f.pw buckets in
        let t2 = Unix.gettimeofday () in
        Ok
          {
            shipped_bytes = 0;
            integration;
            stage = Some stage;
            stage_s = t1 -. t0;
            refresh_s = t2 -. t1;
          })

(* ---------- correctness gate ---------- *)

(* materialized and recomputed rows both come sorted *)
let check_views label wh =
  let v = Spj_view.name spj_view and a = agg_view.Agg_view.name in
  if Warehouse.view_rows wh v <> Warehouse.recompute_view wh v then
    Error (Printf.sprintf "%s: view %s differs from its recomputation" label v)
  else if Warehouse.agg_view_rows wh a <> Warehouse.recompute_agg_view wh a then
    Error (Printf.sprintf "%s: view %s differs from its recomputation" label a)
  else Ok ()

(* the warehouse replica equals the sorted source table, and every view
   (per shard when partitioned) equals its recomputation *)
let check sys =
  let expected = source_rows sys.src in
  match sys.target with
  | Pipe { wh; _ } ->
    if List.sort Tuple.compare (Warehouse.replica_rows wh table) <> expected then
      Error "warehouse replica differs from the source table"
    else check_views "warehouse" wh
  | Fleet { pw; _ } ->
    if Partitioned.replica_rows pw table <> expected then
      Error "merged shard replicas differ from the source table"
    else
      List.fold_left
        (fun acc i ->
          match acc with
          | Error _ -> acc
          | Ok () -> check_views (Printf.sprintf "shard %d" i) (Partitioned.shard pw i))
        (Ok ())
        (List.init (Partitioned.partitions pw) Fun.id)
