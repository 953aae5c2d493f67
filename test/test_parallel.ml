(* Tests for the multicore read path: Domain_pool semantics, the lock
   manager under domains (table-over-row conflicts, deadlock across
   tables, disjoint tables and contended rows from several domains), the
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

(* ---------- lock manager under domains ---------- *)

(* a table lock and a row lock of one table conflict, both ways, unless
   both are S; a row lock of another table conflicts with neither *)
let table_and_row_locks_conflict () =
  let lm = Lock_manager.create () in
  let outcome tx r m = Lock_manager.acquire lm tx r m in
  let granted = Lock_manager.Granted and blocked l = Lock_manager.Blocked l in
  List.iter
    (fun tname ->
      let row page = Lock_manager.Row (tname, { Heap_file.page; slot = page mod 7 }) in
      let table = Lock_manager.Table tname in
      let is what expected actual =
        check Alcotest.bool (tname ^ ": " ^ what) true (expected = actual)
      in
      is "1 X table" granted (outcome 1 table Lock_manager.X);
      List.iter
        (fun page ->
          is (Printf.sprintf "row (%d) S blocked by table X" page) (blocked [ 1 ])
            (outcome 2 (row page) Lock_manager.S))
        [ 0; 1; 17; 123 ];
      Lock_manager.release_all lm 1;
      Lock_manager.release_all lm 2;
      is "2 S row" granted (outcome 2 (row 17) Lock_manager.S);
      is "1 S table beside it" granted (outcome 1 table Lock_manager.S);
      is "3 X table blocked by both" (blocked [ 1; 2 ]) (outcome 3 table Lock_manager.X);
      is "3 X row blocked by table S" (blocked [ 1 ]) (outcome 3 (row 0) Lock_manager.X);
      let other_row = Lock_manager.Row (tname ^ "'", { Heap_file.page = 17; slot = 3 }) in
      is "other table's row free" granted (outcome 3 other_row Lock_manager.X);
      List.iter (Lock_manager.release_all lm) [ 1; 2; 3 ];
      check Alcotest.bool (tname ^ ": nothing held") true
        (List.for_all (fun tx -> Lock_manager.held_by lm tx = []) [ 1; 2; 3 ]))
    [ "parts"; "orders"; "a"; "b"; "c"; "d"; "e"; "f"; "g" ]

(* a wait-for cycle through two tables is detected *)
let deadlock_across_tables_detected () =
  let lm = Lock_manager.create () in
  let ra = Lock_manager.Table "a" and rb = Lock_manager.Table "b" in
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
   | _ -> Alcotest.fail "a cycle across two tables must be detected");
  Lock_manager.release_all lm 1;
  Lock_manager.release_all lm 2;
  check Alcotest.bool "no waiter left" false (Lock_manager.waiting lm 1)

let disjoint_tables_granted_across_domains () =
  (* concurrent writers on disjoint tables: every acquire must be granted
     and release must leave nothing behind *)
  let lm = Lock_manager.create () in
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

(* 4 domains race for X locks on a few shared rows of one table, two
   rows per attempt in either order (so waits can close cycles).  A
   blocked or deadlocked attempt gives up every lock and retries.  An
   owner cell per row, claimed after the grant and cleared before the
   release, must never find another holder, nor lose its claim while the
   locks are held; and every domain must finish its attempts within a
   bounded number of tries (a corrupted lock table can block forever). *)
let contended_rows_have_one_holder () =
  let lm = Lock_manager.create () in
  let domains = 4 and rows = 2 and attempts = 20000 in
  let budget = 500 * attempts in
  let owner = Array.init rows (fun _ -> Atomic.make 0) in
  let row i = Lock_manager.Row ("shared", { Heap_file.page = 0; slot = i }) in
  let started = Atomic.make 0 in
  let task d () =
    Atomic.incr started;
    while Atomic.get started < domains do
      Domain.cpu_relax ()
    done;
    let overlaps = ref 0 and done_ = ref 0 and tries = ref 0 in
    let claimed = ref [] in
    let claim i =
      if Atomic.compare_and_set owner.(i) 0 d then claimed := i :: !claimed else incr overlaps
    in
    let rec take = function
      | [] -> true
      | i :: rest -> (
          match Lock_manager.acquire lm d (row i) Lock_manager.X with
          | Lock_manager.Granted ->
            claim i;
            take rest
          | Lock_manager.Blocked _ | Lock_manager.Deadlock _ -> false)
    in
    while !done_ < attempts && !tries < budget do
      incr tries;
      let first = (d + !done_) mod rows in
      let second = (first + 1 + (!done_ mod (rows - 1))) mod rows in
      if take [ first; second ] then begin
        incr done_;
        for _ = 1 to 20 do
          Domain.cpu_relax ()
        done;
        List.iter (fun i -> if Atomic.get owner.(i) <> d then incr overlaps) !claimed
      end
      else Domain.cpu_relax ();
      List.iter (fun i -> Atomic.set owner.(i) 0) !claimed;
      claimed := [];
      Lock_manager.release_all lm d
    done;
    (!overlaps, !done_)
  in
  let results =
    Domain_pool.with_pool ~domains @@ fun pool ->
    Domain_pool.run_all pool (List.init domains (fun d -> task (d + 1)))
  in
  List.iteri
    (fun d (overlaps, done_) ->
      check Alcotest.int (Printf.sprintf "domain %d never shared a row" (d + 1)) 0 overlaps;
      check Alcotest.int (Printf.sprintf "domain %d finished" (d + 1)) attempts done_)
    results;
  for d = 1 to domains do
    check Alcotest.bool (Printf.sprintf "domain %d holds nothing" d) true
      (Lock_manager.held_by lm d = []);
    check Alcotest.bool (Printf.sprintf "domain %d waits on nothing" d) false
      (Lock_manager.waiting lm d)
  done;
  Array.iteri
    (fun i o -> check Alcotest.int (Printf.sprintf "row %d free" i) 0 (Atomic.get o))
    owner

let suite =
  [
    test "domain pool runs tasks in order" pool_runs_in_order;
    test "domain pool re-raises lowest-index error" pool_reraises_lowest_index_error;
    test "domain pool rejects work after shutdown" pool_rejects_after_shutdown;
    test "lock stripes co-locate a table with its rows" table_and_row_locks_conflict;
    test "cross-stripe deadlock detected" deadlock_across_tables_detected;
    test "striped acquires independent across domains" disjoint_tables_granted_across_domains;
    test "buffer pool clamps stripes to capacity" buffer_pool_stripes_clamp_and_serve;
    test "parallel readers see every row once" parallel_readers_see_every_row;
    test "metrics survive concurrent mutation" metrics_survive_concurrent_mutation;
    test "metrics reset races observe safely" metrics_reset_races_observe;
    test "with_sink restores on exception" with_sink_restores_on_exception;
    test "par scan identical on the standard mix" par_scan_identity_basic;
    test "par scan error parity" par_scan_error_parity;
    test "par scan identical while a writer commits" par_scan_with_live_writer;
    QCheck_alcotest.to_alcotest prop_par_scan_identical;
    test "lock manager: contended rows have one holder at a time" contended_rows_have_one_holder;
  ]
