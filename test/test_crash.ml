(* Crash-point recovery invariants, CI-bounded: exhaustive enumeration on
   a small source-DB workload, strided sweeps elsewhere, file shipping
   under a heavy transient-fault rate, and random-seed properties.  The
   deeper sweep is `dune build @crash` (test/crash_sweep.ml). *)

module Cs = Dw_experiments.Crash_sim
module Metrics = Dw_util.Metrics
module Vfs = Dw_storage.Vfs

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let no_failures name (r : Cs.report) =
  check Alcotest.bool (name ^ ": explored some crash points") true (r.Cs.explored > 0);
  check
    Alcotest.(list (pair int string))
    (name ^ ": every crash point recovers") [] r.Cs.failures

let db_exhaustive_small () = no_failures "db small" (Cs.explore ~spec:Cs.small_db_spec ())

let db_strided_standard () =
  no_failures "db standard" (Cs.explore ~spec:Cs.default_db_spec ~stride:8 ())

let db_grouped_exhaustive () =
  (* group commit holds commits pending between append and the group's
     one fsync; every event in between (including fail-stop AT the
     leader's fsync) must still recover to a transaction boundary *)
  no_failures "db group-commit"
    (Cs.explore ~spec:{ Cs.small_db_spec with Cs.group = 3 } ())

let queue_strided () = no_failures "queue" (Cs.explore_queue ~stride:4 ())

let queue_batched_exhaustive () =
  (* coalesced transport: crash mid-batch-append may keep only a
     frame-boundary prefix; crash mid-ack_run consumes all-or-nothing *)
  no_failures "queue batched" (Cs.explore_batched_queue ())

let single_shard_refresh () =
  (* one shard is one warehouse: the real integrator, valve-governed runs
     and a watermark mark, killed at every fourth event of its device and
     re-applied after recovery — redelivered runs land exactly once *)
  no_failures "1-shard partitioned refresh"
    (Dw_experiments.Exp_partition.explore_partitioned
       ~spec:{ Dw_experiments.Exp_partition.default_crash_spec with c_parts = 1 }
       ~stride:4 ())

(* the sweep itself, on a synthetic flow over two devices: five
   one-byte writes to the first, then four to the second, each a single
   event, so a crash at global point k leaves exactly k writes done *)
let synthetic_flow ~fail_at =
  let write vfs name =
    let f = Vfs.open_or_create vfs name in
    Vfs.write_at f ~off:(Vfs.size f) (Bytes.make 1 'x');
    Vfs.close f
  in
  {
    Cs.seed = 7;
    setup = (fun () -> (Vfs.in_memory (), Vfs.in_memory (), ref 0));
    devices = (fun (a, b, _) -> [ a; b ]);
    workload =
      (fun (a, b, done_) ~arm ->
        arm ();
        List.iter
          (fun (vfs, n) ->
            for _ = 1 to n do
              write vfs "f";
              incr done_
            done)
          [ (a, 5); (b, 4) ]);
    check =
      (fun (_, _, done_) outcome ->
        match outcome with
        | Some () -> Error "no crash"
        | None when fail_at !done_ -> Error (string_of_int !done_)
        | None -> Ok ());
  }

let sweep_numbers_points_across_devices () =
  let r = Cs.sweep (synthetic_flow ~fail_at:(fun k -> k = 7)) in
  check Alcotest.int "total events" 9 r.Cs.total_events;
  check Alcotest.int "explored at stride 1" 9 r.Cs.explored;
  check
    Alcotest.(list (pair int string))
    "the one failing point, on the second device" [ (7, "device 1 event 2: 7") ] r.Cs.failures;
  (* a check failing everywhere lists every explored point: each device
     is swept from its own first event, numbered after the devices before *)
  let r = Cs.sweep ~stride:3 (synthetic_flow ~fail_at:(fun _ -> true)) in
  check Alcotest.int "explored at stride 3" 4 r.Cs.explored;
  check
    Alcotest.(list int)
    "points at stride 3" [ 0; 3; 5; 8 ] (List.map fst r.Cs.failures);
  check
    Alcotest.(list string)
    "writes done before each point"
    [ "device 0 event 0: 0"; "device 0 event 3: 3"; "device 1 event 0: 5"; "device 1 event 3: 8" ]
    (List.map snd r.Cs.failures);
  check Alcotest.bool "every point crashed" true
    (List.assoc_opt "fault.crashes" r.Cs.fault_metrics = Some 4)

(* an exception out of a check is that point's failure, with its text,
   and the sweep goes on to the next point *)
let sweep_counts_a_raising_check () =
  let flow = synthetic_flow ~fail_at:(fun _ -> false) in
  let raising ((_, _, done_) as s) outcome =
    if !done_ = 4 then invalid_arg "duplicate key on recovery" else flow.Cs.check s outcome
  in
  let r = Cs.sweep { flow with Cs.check = raising } in
  check Alcotest.int "every point explored" 9 r.Cs.explored;
  check
    Alcotest.(list (pair int string))
    "the raising point is the one failure"
    [ (4, "device 0 event 4: check raised Invalid_argument(\"duplicate key on recovery\")") ]
    r.Cs.failures

let fault_counters_exported () =
  let r = Cs.explore ~spec:Cs.small_db_spec ~stride:4 () in
  let get name = match List.assoc_opt name r.Cs.fault_metrics with Some v -> v | None -> 0 in
  check Alcotest.bool "fail-stop crashes counted" true (get "fault.crashes" > 0);
  check Alcotest.bool "some crashing writes were torn" true (get "fault.torn_writes" > 0)

let flake_seeds_pinned () =
  (* regression: these (seed, crash point) pairs used to fail with
     "recovered db missing committed row" before Db.reopen deferred the
     attach-time index rebuild until after WAL recovery — the secondary
     index was built over a crash-inconsistent heap and served stale
     rids.  Keep them pinned so the fix cannot silently regress. *)
  List.iter
    (fun (seed, index) ->
      let spec = { Cs.small_db_spec with Cs.seed } in
      match Cs.point (Cs.db_flow spec) ~totals:(Metrics.create ()) ~device:0 index with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d, event %d: %s" seed index msg)
    [ (13, 22); (18, 22); (24, 22); (29, 23); (71, 23); (72, 22) ]

let ship_under_heavy_transient_faults () =
  (* >= 20% of destination writes and fsyncs fail transiently; bounded
     retry must absorb every fault and keep the copy byte-identical *)
  match Cs.ship_under_faults ~bytes:(64 * 1024) ~fault_p:0.25 ~seed:123 () with
  | Error e -> Alcotest.fail e
  | Ok (stats, identical) ->
    check Alcotest.bool "retried at least once" true (stats.Dw_transport.File_ship.retries > 0);
    check Alcotest.int "all bytes shipped" (64 * 1024) stats.Dw_transport.File_ship.bytes;
    check Alcotest.bool "byte-identical copy" true identical

(* random-seed properties: the explorers' invariants hold for arbitrary
   seeds and crash points, not just the curated specs *)

let prop_queue_random_crash_never_loses =
  QCheck2.Test.make ~name:"queue never loses an unacked message at a random crash point"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 80))
    (fun (qseed, index) ->
      let spec = { Cs.default_queue_spec with Cs.qseed } in
      match Cs.point (Cs.queue_flow spec) ~totals:(Metrics.create ()) ~device:0 index with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "seed %d, event %d: %s" qseed index msg)

let prop_db_random_crash_exact_rows =
  QCheck2.Test.make
    ~name:"recovery after a random fail-stop leaves exactly the committed rows" ~count:25
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 60))
    (fun (seed, index) ->
      let spec = { Cs.small_db_spec with Cs.seed } in
      match Cs.point (Cs.db_flow spec) ~totals:(Metrics.create ()) ~device:0 index with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "seed %d, event %d: %s" seed index msg)

let prop_grouped_db_random_crash =
  QCheck2.Test.make
    ~name:"group-commit recovery holds at random crash points and group sizes" ~count:25
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 60) (int_range 2 6))
    (fun (seed, index, group) ->
      let spec = { Cs.small_db_spec with Cs.seed; Cs.group = group } in
      match Cs.point (Cs.db_flow spec) ~totals:(Metrics.create ()) ~device:0 index with
      | Ok () -> true
      | Error msg ->
        QCheck2.Test.fail_reportf "seed %d, event %d, group %d: %s" seed index group msg)

let prop_batched_queue_random_crash =
  QCheck2.Test.make
    ~name:"batched queue keeps at-least-once and prefix-only tears at random crash points"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 60))
    (fun (bseed, index) ->
      let spec = { Cs.default_batched_queue_spec with Cs.bseed } in
      match Cs.point (Cs.batched_queue_flow spec) ~totals:(Metrics.create ()) ~device:0 index with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "seed %d, event %d: %s" bseed index msg)

let suite =
  [
    test "db crash points (small, exhaustive)" db_exhaustive_small;
    test "db crash points (standard, stride 8)" db_strided_standard;
    test "db crash points under group commit (exhaustive)" db_grouped_exhaustive;
    test "queue crash points (stride 4)" queue_strided;
    test "batched queue crash points (exhaustive)" queue_batched_exhaustive;
    test "1-shard partitioned refresh exactly-once on redelivery (stride 4)" single_shard_refresh;
    test "sweep numbers crash points across devices" sweep_numbers_points_across_devices;
    test "sweep counts a raising check and keeps sweeping" sweep_counts_a_raising_check;
    test "fault counters exported" fault_counters_exported;
    test "index-rebuild-before-recovery flake seeds stay green" flake_seeds_pinned;
    test "ship under 25% transient faults" ship_under_heavy_transient_faults;
    QCheck_alcotest.to_alcotest prop_queue_random_crash_never_loses;
    QCheck_alcotest.to_alcotest prop_db_random_crash_exact_rows;
    QCheck_alcotest.to_alcotest prop_grouped_db_random_crash;
    QCheck_alcotest.to_alcotest prop_batched_queue_random_crash;
  ]
