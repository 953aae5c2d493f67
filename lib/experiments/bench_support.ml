(* Shared helpers for the experiment harness: timing, scaling, table
   rendering, and source and warehouse construction. *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Workload = Dw_workload.Workload
module Spj_view = Dw_core.Spj_view
module Warehouse = Dw_warehouse.Warehouse
module Fmt_util = Dw_util.Fmt_util
module Prng = Dw_util.Prng

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let time_only f = snd (time f)

(* Quick mode (dwbench --quick, the @bench-json alias): shrink workloads
   ~25x and drop repetitions so a full experiment subset finishes in CI
   time.  The shapes stay measurable; the absolute numbers are not for
   quoting. *)
let quick = ref false
let set_quick b = quick := b
let is_quick () = !quick

let scaled base ~scale = (if !quick then max 100 (base / 25) else base) * scale

(* Chunk/block sizes must shrink with the workloads: a --quick run ships
   ~25x less data, and an unscaled 64 KiB chunk would cover the whole
   transfer — a degenerate single-chunk path that exercises none of the
   chunking/coalescing logic the experiments measure.  Floor at 512 B so
   frames still fit. *)
let scaled_chunk base = if !quick then max 512 (base / 25) else base
let ship_chunk () = scaled_chunk (64 * 1024)

(* median-of-n response-time measurement: [setup ()] builds fresh state,
   [run state] is the measured region; a major GC runs before each
   repetition so one cell's garbage does not bill the next.  The median is
   robust against one unlucky GC pause in either direction, which matters
   because the experiment tables report ratios of these cells. *)
let best_of ?(repeat = 5) ~setup run =
  let repeat = if !quick then 1 else repeat in
  let samples =
    List.init repeat (fun _ ->
        let state = setup () in
        Gc.major ();
        time_only (fun () -> run state))
  in
  let sorted = List.sort compare samples in
  List.nth sorted (repeat / 2)

(* default scaled sizes: the paper sweeps 100M..1000M deltas over a 1G
   table, i.e. 10%..100% of the source; we keep those proportions over a
   50k-row source of 100-byte records; scale multiplies both *)
let source_rows ~scale = scaled 50_000 ~scale
let delta_row_steps ~scale =
  List.map (fun pct -> source_rows ~scale * pct / 100) [ 10; 20; 40; 60; 80; 100 ]
let txn_sizes = [ 10; 100; 1000; 10000 ]

let label_for_rows rows =
  (* the paper labels columns by delta bytes; 100-byte records *)
  Fmt_util.human_bytes (rows * 100)

let fresh_source ?(archive = false) ?(rows = 0) () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:1024 ~archive_log:archive ~vfs ~name:"src" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

(* one source transaction: [stmts] in one Db transaction *)
let exec_txn db stmts =
  Db.with_txn db (fun txn ->
      List.iter (fun stmt -> ignore (Db.exec db txn stmt : Db.exec_result)) stmts)

(* the statement kinds of the paper's per-operation figures, and one
   [size]-row transaction of each over a [table_rows]-row source: fresh
   ids past the table for inserts, the first [size] ids otherwise *)
type op_kind = Insert | Delete | Update

let op_kinds = [ Insert; Delete; Update ]

let op_name = function Insert -> "insert" | Delete -> "delete" | Update -> "update"

let txn_stmts ?seed ~table_rows ~day kind size =
  match kind with
  | Insert -> Workload.insert_parts_txn ?seed ~first_id:(table_rows + 1) ~size ~day ()
  | Delete -> [ Workload.delete_parts_stmt ~first_id:1 ~size ]
  | Update -> [ Workload.update_parts_stmt ~first_id:1 ~size ]

(* a fresh [table_rows]-row source moved one day past its load, and the
   statements of one [kind] transaction stamped with that day *)
let source_txn ?seed ~table_rows kind size =
  let db = fresh_source ~rows:table_rows () in
  let day = Db.current_day db + 1 in
  Db.set_day db day;
  (db, txn_stmts ?seed ~table_rows ~day kind size)

(* F2's and F3's cell: the median response time of one [size]-row [kind]
   transaction on a fresh source, where [prepare db stmts] installs the
   capture under test and returns the transaction to time *)
let response_time ~table_rows ~prepare kind size =
  best_of
    ~setup:(fun () ->
      let db, stmts = source_txn ~table_rows kind size in
      prepare db stmts)
    (fun txn -> txn ())

(* [rows] parts rows, ids 1..rows at day 0, from a seed-77 stream unless
   told otherwise: the replica contents the warehouse experiments share *)
let parts_rows ?(seed = 77) rows =
  let rng = Prng.create ~seed in
  List.init rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0)

(* a warehouse whose [parts] replica holds [contents], with [views] over it *)
let replica_warehouse ?pool_pages ?pool_stripes ?(op_delay = 0.0) ?(views = []) contents =
  let wh =
    Warehouse.create ?pool_pages ?pool_stripes ~vfs:(Vfs.in_memory ~op_delay ()) ~name:"dw" ()
  in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  Warehouse.load_replica wh ~table:"parts" contents;
  List.iter (Warehouse.define_view wh) views;
  wh

(* the same with [rows] generated parts rows (see [parts_rows]) *)
let parts_warehouse ?pool_pages ?op_delay ?seed ?views ~rows () =
  replica_warehouse ?pool_pages ?op_delay ?views (parts_rows ?seed rows)

(* W1's and T5's view: parts under a price bound, id and quantity *)
let cheap_parts =
  Spj_view.Select_project
    {
      name = "cheap_parts";
      table = "parts";
      schema = Workload.parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "price", Expr.Lit (Value.Float 500.0)));
      project =
        [
          { Spj_view.out_name = "part_id"; from_side = Spj_view.L; from_col = "part_id" };
          { Spj_view.out_name = "qty"; from_side = Spj_view.L; from_col = "qty" };
        ];
    }

let sorted_rows db table =
  let rows = ref [] in
  Table.scan (Db.table db table) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

(* fail unless [wh]'s parts replica, loaded from [src]'s rows before the
   captured transactions and fed their delta, ends equal to [src]'s
   parts table *)
let require_replica_matches ~what wh src =
  let replica = List.sort Tuple.compare (Warehouse.replica_rows wh "parts") in
  if not (List.equal Tuple.equal replica (sorted_rows src "parts")) then
    failwith (what ^ ": the replica ended different from its source")

let print_table ~title ~header ~rows =
  Printf.printf "\n== %s ==\n%s\n" title (Fmt_util.table ~header ~rows)

let dur = Fmt_util.human_duration

let section name = Printf.printf "\n######## %s ########\n" name

let pct_change ~base ~other = (base -. other) /. base *. 100.0
