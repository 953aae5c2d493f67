(* Tests for the multicore read path: Domain_pool semantics, the striped
   lock manager's invariants (co-location of a table with its rows,
   cross-stripe deadlock detection through the global wait graph), the
   striped buffer pool, domain-safe Metrics under concurrent mutation and
   reset, and the headline qcheck property — Par_scan returns results
   byte-identical to the sequential executor for random tables, partition
   counts and committed writes racing the snapshot. *)

module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Domain_pool = Dw_util.Domain_pool
module Value = Dw_relation.Value
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Heap_file = Dw_storage.Heap_file
module Buffer_pool = Dw_storage.Buffer_pool
module Lock_manager = Dw_txn.Lock_manager
module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Par_scan = Dw_warehouse.Par_scan

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- Domain_pool ---------- *)

let pool_runs_in_order () =
  Domain_pool.with_pool ~domains:3 @@ fun pool ->
  let results = Domain_pool.run_all pool (List.init 20 (fun i () -> i * i)) in
  check (Alcotest.list Alcotest.int) "results in submission order"
    (List.init 20 (fun i -> i * i))
    results;
  check Alcotest.int "pool size" 3 (Domain_pool.size pool);
  check Alcotest.int "single task" 7 (Domain_pool.run pool (fun () -> 7))

let pool_reraises_lowest_index_error () =
  Domain_pool.with_pool ~domains:2 @@ fun pool ->
  let tasks =
    List.init 8 (fun i () -> if i = 3 || i = 6 then failwith (string_of_int i) else i)
  in
  (try
     ignore (Domain_pool.run_all pool tasks : int list);
     Alcotest.fail "expected a task failure to propagate"
   with Failure msg -> check Alcotest.string "lowest failing index wins" "3" msg);
  (* the pool survives a failed batch *)
  check (Alcotest.list Alcotest.int) "pool usable after failure" [ 1; 2 ]
    (Domain_pool.run_all pool [ (fun () -> 1); (fun () -> 2) ])

let pool_rejects_after_shutdown () =
  let pool = Domain_pool.create ~domains:2 in
  check (Alcotest.list Alcotest.int) "runs before shutdown" [ 5 ]
    (Domain_pool.run_all pool [ (fun () -> 5) ]);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool (* idempotent *);
  (try
     ignore (Domain_pool.run pool (fun () -> 0) : int);
     Alcotest.fail "expected Invalid_argument after shutdown"
   with Invalid_argument _ -> ());
  try ignore (Domain_pool.create ~domains:0 : Domain_pool.t);
    Alcotest.fail "expected Invalid_argument for 0 domains"
  with Invalid_argument _ -> ()

(* ---------- striped lock manager ---------- *)

let stripes_colocate_table_and_rows () =
  let lm = Lock_manager.create ~stripes:4 () in
  check Alcotest.int "stripe count" 4 (Lock_manager.stripe_count lm);
  List.iter
    (fun tname ->
      let t_stripe = Lock_manager.stripe_of lm (Lock_manager.Table tname) in
      List.iter
        (fun page ->
          let rid = { Heap_file.page; slot = page mod 7 } in
          check Alcotest.int
            (Printf.sprintf "%s row (%d) shares table stripe" tname page)
            t_stripe
            (Lock_manager.stripe_of lm (Lock_manager.Row (tname, rid))))
        [ 0; 1; 17; 123 ])
    [ "parts"; "orders"; "a"; "b"; "c"; "d"; "e"; "f"; "g" ]

(* two tables on different stripes must still close a deadlock cycle:
   the wait-for graph is global even though lock state is sharded *)
let cross_stripe_deadlock_detected () =
  let lm = Lock_manager.create ~stripes:4 () in
  (* find two tables hashing to different stripes *)
  let names = List.init 64 (fun i -> Printf.sprintf "t%d" i) in
  let a = List.hd names in
  let b =
    List.find
      (fun n ->
        Lock_manager.stripe_of lm (Lock_manager.Table n)
        <> Lock_manager.stripe_of lm (Lock_manager.Table a))
      names
  in
  let ra = Lock_manager.Table a and rb = Lock_manager.Table b in
  check Alcotest.bool "stripes differ" true
    (Lock_manager.stripe_of lm ra <> Lock_manager.stripe_of lm rb);
  (match Lock_manager.acquire lm 1 ra Lock_manager.X with
   | Lock_manager.Granted -> ()
   | _ -> Alcotest.fail "tx1 should get A");
  (match Lock_manager.acquire lm 2 rb Lock_manager.X with
   | Lock_manager.Granted -> ()
   | _ -> Alcotest.fail "tx2 should get B");
  (match Lock_manager.acquire lm 1 rb Lock_manager.X with
   | Lock_manager.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "tx1 should block on B behind tx2");
  (match Lock_manager.acquire lm 2 ra Lock_manager.X with
   | Lock_manager.Deadlock blockers ->
     check (Alcotest.list Alcotest.int) "cycle blockers" [ 1 ] blockers
   | _ -> Alcotest.fail "cross-stripe cycle must be detected");
  Lock_manager.release_all lm 1;
  Lock_manager.release_all lm 2

let striped_acquires_stay_independent () =
  (* concurrent writers on disjoint tables: every acquire must be granted
     and release must leave nothing behind, whichever stripe they hit *)
  let lm = Lock_manager.create ~stripes:4 () in
  Domain_pool.with_pool ~domains:4 @@ fun pool ->
  let per_domain = 200 in
  let task d () =
    let tname = Printf.sprintf "table%d" d in
    for i = 0 to per_domain - 1 do
      let rid = { Heap_file.page = i; slot = 0 } in
      match Lock_manager.acquire lm d (Lock_manager.Row (tname, rid)) Lock_manager.X with
      | Lock_manager.Granted -> ()
      | _ -> failwith "conflict between disjoint tables"
    done;
    List.length (Lock_manager.held_by lm d)
  in
  let held = Domain_pool.run_all pool (List.init 4 (fun d -> task (d + 1))) in
  List.iter (fun h -> check Alcotest.int "all row locks held" per_domain h) held;
  for d = 1 to 4 do
    Lock_manager.release_all lm d;
    check Alcotest.int "released" 0 (List.length (Lock_manager.held_by lm d))
  done

(* ---------- striped buffer pool ---------- *)

let buffer_pool_stripes_clamp_and_serve () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~stripes:64 ~vfs ~capacity:8 () in
  check Alcotest.int "stripes clamped to capacity" 8 (Buffer_pool.stripe_count pool);
  check Alcotest.int "capacity preserved" 8 (Buffer_pool.capacity pool)

let parallel_readers_see_every_row () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~stripes:4 ~vfs ~capacity:8 () in
  let file = Vfs.create vfs "t.heap" in
  let schema = Workload.parts_schema in
  let heap = Heap_file.create pool file schema in
  let rng = Dw_util.Prng.create ~seed:3 in
  let rows = 500 in
  List.iter
    (fun i -> ignore (Heap_file.insert heap (Workload.gen_part rng ~id:i ~day:0) : Heap_file.rid))
    (List.init rows (fun i -> i + 1));
  let pages = Heap_file.page_count heap in
  Domain_pool.with_pool ~domains:4 @@ fun dpool ->
  (* split the heap in 7 ranges (not aligned with the 4 stripes or 4
     domains) and count rows per range, faulting through shared frames *)
  let parts = 7 in
  let counts =
    Domain_pool.run_all dpool
      (List.init parts (fun i () ->
           let from_page = pages * i / parts and to_page = pages * (i + 1) / parts in
           let n = ref 0 in
           Heap_file.iter_pages heap ~from_page ~to_page (fun _ _ -> incr n);
           !n))
  in
  check Alcotest.int "every row seen exactly once" rows (List.fold_left ( + ) 0 counts)

(* ---------- domain-safe metrics ---------- *)

let metrics_survive_concurrent_mutation () =
  let m = Metrics.create () in
  let writers = 4 and per_writer = 2_000 in
  Domain_pool.with_pool ~domains:writers @@ fun pool ->
  let tasks =
    List.init writers (fun d () ->
        for i = 1 to per_writer do
          Metrics.incr m "c";
          Metrics.observe m "h" (float_of_int ((d * per_writer) + i));
          (* readers of the same histograms race the writers: before the
             registry lock these tore the histograms/summary snapshot *)
          if i mod 64 = 0 then begin
            ignore (Metrics.histograms m : (string * Metrics.histogram_summary) list);
            ignore (Metrics.summary m "h" : Metrics.histogram_summary option);
            ignore (Metrics.percentile m "h" 0.95 : float)
          end
        done)
  in
  ignore (Domain_pool.run_all pool tasks : unit list);
  check Alcotest.int "no increment lost" (writers * per_writer) (Metrics.get m "c");
  check Alcotest.int "no observation lost" (writers * per_writer) (Metrics.observed_count m "h")

let metrics_reset_races_observe () =
  (* reset concurrent with observe/summary must neither crash nor leave a
     torn histogram: afterwards the registry is consistent (count matches
     a fresh summary) even though the absolute number is racy *)
  let m = Metrics.create () in
  Domain_pool.with_pool ~domains:3 @@ fun pool ->
  let tasks =
    [
      (fun () ->
        for i = 1 to 5_000 do
          Metrics.observe m "h" (float_of_int i)
        done);
      (fun () ->
        for _ = 1 to 200 do
          Metrics.reset m;
          ignore (Metrics.summary m "h" : Metrics.histogram_summary option)
        done);
      (fun () ->
        for _ = 1 to 1_000 do
          ignore (Metrics.histograms m : (string * Metrics.histogram_summary) list);
          ignore (Metrics.observed_sum m "h" : float)
        done);
    ]
  in
  ignore (Domain_pool.run_all pool tasks : unit list);
  (match Metrics.summary m "h" with
   | Some s -> check Alcotest.int "summary count consistent" (Metrics.observed_count m "h") s.Metrics.count
   | None -> check Alcotest.int "empty after reset" 0 (Metrics.observed_count m "h"));
  Metrics.reset m;
  check Alcotest.int "reset leaves nothing" 0 (Metrics.observed_count m "h")

let with_sink_restores_on_exception () =
  let s = Metrics.create () in
  (try
     Metrics.with_sink (Some s) (fun () ->
         let m = Metrics.create () in
         Metrics.incr m "c";
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "mirrored before the raise" 1 (Metrics.get s "c");
  let m2 = Metrics.create () in
  Metrics.incr m2 "after";
  check Alcotest.int "sink restored (unset) after exception" 0 (Metrics.get s "after")

(* ---------- Par_scan = sequential executor ---------- *)

let mk_db ~rows =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:12 ~pool_stripes:4 ~vfs ~name:"db" () in
  let _ = Workload.create_parts_table db in
  if rows > 0 then Workload.load_parts db ~rows ();
  db

let par_queries =
  [
    "SELECT * FROM parts";
    "SELECT part_id, qty FROM parts WHERE qty < 300 ORDER BY part_id";
    "SELECT COUNT(*), SUM(qty), SUM(price), MIN(price), MAX(price), AVG(price) FROM parts";
    "SELECT qty, COUNT(*) AS n, AVG(price) FROM parts GROUP BY qty ORDER BY qty";
    "SELECT MIN(price), MAX(price) FROM parts WHERE qty < 100";
  ]

let exec_both ~pool ~partitions db txn sql =
  let seq = Db.exec_sql db txn sql in
  let par = Par_scan.exec_sql ~partitions ~pool db txn sql in
  (seq, par)

let par_scan_identity_basic () =
  let db = mk_db ~rows:200 in
  Domain_pool.with_pool ~domains:3 @@ fun pool ->
  let txn = Db.begin_txn ~mode:`Snapshot db in
  List.iter
    (fun sql ->
      let seq, par = exec_both ~pool ~partitions:5 db txn sql in
      check Alcotest.bool sql true (seq = par))
    par_queries;
  Db.commit db txn

let par_scan_error_parity () =
  let db = mk_db ~rows:10 in
  Domain_pool.with_pool ~domains:2 @@ fun pool ->
  let txn = Db.begin_txn ~mode:`Snapshot db in
  List.iter
    (fun sql ->
      let seq, par = exec_both ~pool ~partitions:3 db txn sql in
      (match (seq, par) with
       | Error _, Error _ -> check Alcotest.bool ("same error: " ^ sql) true (seq = par)
       | _ -> Alcotest.fail ("expected both to fail: " ^ sql)))
    [
      "SELECT nope FROM parts";
      "SELECT * FROM missing";
      "SELECT part_id, COUNT(*) FROM parts GROUP BY nope";
      "SELECT *, qty FROM parts";
      "SELECT price, COUNT(*) FROM parts GROUP BY qty";
      "SELECT qty FROM parts ORDER BY nope";
      "SELECT SUM(nope) FROM parts";
    ];
  (* [*] beside another item parses, so both paths report the evaluator *)
  let seq, par = exec_both ~pool ~partitions:3 db txn "SELECT *, qty FROM parts" in
  List.iter
    (fun (path, got) ->
      check
        Alcotest.(result reject string)
        ("the evaluator's text: " ^ path) (Error "SELECT: * must be the only item") got)
    [ ("Db.exec_sql", seq); ("Par_scan.exec_sql", par) ];
  Db.commit db txn;
  (* non-snapshot transactions are rejected *)
  let rw = Db.begin_txn db in
  (match Par_scan.exec_sql ~pool db rw "SELECT * FROM parts" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected rejection of a read-write txn");
  Db.abort db rw

(* random committed writes racing the snapshot: the frozen result set must
   match the sequential executor's on the same transaction, for any
   partitioning *)
let prop_par_scan_identical =
  QCheck2.Test.make ~name:"Par_scan = Db.exec for random tables/partitions/writes" ~count:20
    QCheck2.Gen.(
      quad (int_range 0 120) (int_range 1 13) (int_range 1 4) (int_range 0 9999))
    (fun (rows, partitions, domains, seed) ->
      let db = mk_db ~rows in
      let rng = Random.State.make [| seed |] in
      let snap = Db.begin_txn ~mode:`Snapshot db in
      (* committed writes AFTER the snapshot began: updates, deletes and
         inserts whose version entries the workers must resolve around *)
      let writes = Random.State.int rng 4 in
      for w = 0 to writes - 1 do
        Db.with_txn db (fun txn ->
            match Random.State.int rng 3 with
            | 0 when rows > 0 ->
              ignore
                (Db.update_where db txn "parts"
                   ~set:[ ("qty", Expr.Lit (Value.Int (Random.State.int rng 1000))) ]
                   ~where:
                     (Some
                        (Expr.Cmp
                           (Expr.Le, Expr.Col "part_id",
                            Expr.Lit (Value.Int (1 + Random.State.int rng rows)))))
                  : int)
            | 1 when rows > 0 ->
              ignore
                (Db.delete_where db txn "parts"
                   ~where:
                     (Some
                        (Expr.Cmp
                           (Expr.Eq, Expr.Col "part_id",
                            Expr.Lit (Value.Int (1 + Random.State.int rng rows)))))
                  : int)
            | _ ->
              let id = rows + 1 + w in
              ignore
                (Db.insert db txn "parts"
                   (Workload.gen_part (Dw_util.Prng.create ~seed:(seed + w)) ~id ~day:0)
                  : Heap_file.rid))
      done;
      Domain_pool.with_pool ~domains @@ fun pool ->
      let ok =
        List.for_all
          (fun sql ->
            let seq, par = exec_both ~pool ~partitions db snap sql in
            seq = par)
          par_queries
      in
      Db.commit db snap;
      (* and a fresh snapshot (which sees the writes) agrees too *)
      let snap2 = Db.begin_txn ~mode:`Snapshot db in
      let ok2 =
        List.for_all
          (fun sql ->
            let seq, par = exec_both ~pool ~partitions db snap2 sql in
            seq = par)
          par_queries
      in
      Db.commit db snap2;
      if not ok then
        QCheck2.Test.fail_reportf "seed %d: parallel diverged on the frozen snapshot" seed
      else if not ok2 then
        QCheck2.Test.fail_reportf "seed %d: parallel diverged on the post-write snapshot" seed
      else true)

(* readers in the pool while a writer commits on the main domain: every
   parallel result must equal the sequential result on the SAME txn (both
   run after the racing commits; the point is that striped pool frames,
   the mutexed version store and note-before-mutate keep the partition
   scans consistent while heap pages change under them) *)
let par_scan_with_live_writer () =
  let db = mk_db ~rows:300 in
  Domain_pool.with_pool ~domains:3 @@ fun pool ->
  for round = 1 to 5 do
    let snap = Db.begin_txn ~mode:`Snapshot db in
    let writer =
      Domain.spawn (fun () ->
          for i = 1 to 20 do
            Db.with_txn db (fun txn ->
                ignore
                  (Db.update_where db txn "parts"
                     ~set:[ ("qty", Expr.Lit (Value.Int (round * 1000 + i))) ]
                     ~where:
                       (Some
                          (Expr.Cmp
                             (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int (i * 10)))))
                    : int))
          done)
    in
    (* race the scans against the writer; correctness check follows *)
    List.iter
      (fun sql -> ignore (Par_scan.exec_sql ~partitions:6 ~pool db snap sql))
      par_queries;
    Domain.join writer;
    List.iter
      (fun sql ->
        let seq, par = exec_both ~pool ~partitions:6 db snap sql in
        check Alcotest.bool (Printf.sprintf "round %d: %s" round sql) true (seq = par))
      par_queries;
    Db.commit db snap
  done

let suite =
  [
    test "domain pool runs tasks in order" pool_runs_in_order;
    test "domain pool re-raises lowest-index error" pool_reraises_lowest_index_error;
    test "domain pool rejects work after shutdown" pool_rejects_after_shutdown;
    test "lock stripes co-locate a table with its rows" stripes_colocate_table_and_rows;
    test "cross-stripe deadlock detected" cross_stripe_deadlock_detected;
    test "striped acquires independent across domains" striped_acquires_stay_independent;
    test "buffer pool clamps stripes to capacity" buffer_pool_stripes_clamp_and_serve;
    test "parallel readers see every row once" parallel_readers_see_every_row;
    test "metrics survive concurrent mutation" metrics_survive_concurrent_mutation;
    test "metrics reset races observe safely" metrics_reset_races_observe;
    test "with_sink restores on exception" with_sink_restores_on_exception;
    test "par scan identical on the standard mix" par_scan_identity_basic;
    test "par scan error parity" par_scan_error_parity;
    test "par scan identical while a writer commits" par_scan_with_live_writer;
    QCheck_alcotest.to_alcotest prop_par_scan_identical;
  ]
