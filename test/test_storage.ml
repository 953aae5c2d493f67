(* Tests for Dw_storage: vfs backends, pages, buffer pool, heap files,
   B+tree (with a qcheck model test against Map). *)

module Vfs = Dw_storage.Vfs
module Page = Dw_storage.Page
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Btree = Dw_storage.Btree
module Metrics = Dw_util.Metrics
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- vfs ---------- *)

let vfs_mem_basics () =
  let vfs = Vfs.in_memory () in
  let f = Vfs.create vfs "a.dat" in
  let off = Vfs.append f (Bytes.of_string "hello") in
  check Alcotest.int "first append at 0" 0 off;
  ignore (Vfs.append f (Bytes.of_string " world") : int);
  check Alcotest.int "size" 11 (Vfs.size f);
  let data = Vfs.read_at f ~off:6 ~len:5 in
  check Alcotest.string "read" "world" (Bytes.to_string data);
  Vfs.write_at f ~off:0 (Bytes.of_string "HELLO");
  check Alcotest.string "overwrite" "HELLO" (Bytes.to_string (Vfs.read_at f ~off:0 ~len:5));
  Vfs.close f

let vfs_read_bounds () =
  let vfs = Vfs.in_memory () in
  let f = Vfs.create vfs "b.dat" in
  ignore (Vfs.append f (Bytes.of_string "abc") : int);
  (try
     ignore (Vfs.read_at f ~off:1 ~len:5);
     Alcotest.fail "expected out-of-range failure"
   with Invalid_argument _ -> ());
  Vfs.close f

let vfs_metrics_accounting () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let f = Vfs.create vfs "c.dat" in
  ignore (Vfs.append f (Bytes.make 100 'x') : int);
  ignore (Vfs.read_at f ~off:0 ~len:50);
  Vfs.fsync f;
  check Alcotest.int "write bytes" 100 (Metrics.get m "vfs.write_bytes");
  check Alcotest.int "read bytes" 50 (Metrics.get m "vfs.read_bytes");
  check Alcotest.int "fsyncs" 1 (Metrics.get m "vfs.fsyncs");
  Vfs.close f

let vfs_list_delete () =
  let vfs = Vfs.in_memory () in
  let f1 = Vfs.create vfs "x.dat" in
  let f2 = Vfs.create vfs "y.dat" in
  check (Alcotest.list Alcotest.string) "list" [ "x.dat"; "y.dat" ] (Vfs.list_files vfs);
  (* delete while open refuses *)
  (try
     Vfs.delete vfs "x.dat";
     Alcotest.fail "expected refusal"
   with Invalid_argument _ -> ());
  Vfs.close f1;
  Vfs.close f2;
  Vfs.delete vfs "x.dat";
  check (Alcotest.list Alcotest.string) "after delete" [ "y.dat" ] (Vfs.list_files vfs)

let vfs_disk_backend () =
  let dir = Filename.temp_file "dwvfs" "" in
  Sys.remove dir;
  let vfs = Vfs.on_disk dir in
  let f = Vfs.create vfs "t.dat" in
  ignore (Vfs.append f (Bytes.of_string "persist") : int);
  Vfs.fsync f;
  Vfs.close f;
  let f2 = Vfs.open_existing vfs "t.dat" in
  check Alcotest.string "disk roundtrip" "persist"
    (Bytes.to_string (Vfs.read_at f2 ~off:0 ~len:7));
  Vfs.close f2;
  Vfs.delete vfs "t.dat";
  Unix.rmdir dir

let vfs_truncate () =
  let vfs = Vfs.in_memory () in
  let f = Vfs.create vfs "t.dat" in
  ignore (Vfs.append f (Bytes.of_string "0123456789") : int);
  Vfs.truncate f 4;
  check Alcotest.int "size" 4 (Vfs.size f);
  check Alcotest.string "contents" "0123" (Bytes.to_string (Vfs.read_at f ~off:0 ~len:4));
  Vfs.close f

(* ---------- page ---------- *)

let page_insert_read_delete () =
  let page = Page.alloc () in
  Page.init page ~record_width:100;
  check Alcotest.int "capacity" (Page.max_records_per_page ~record_width:100)
    (Page.capacity page);
  let r1 = Bytes.make 100 'a' and r2 = Bytes.make 100 'b' in
  let s1 = Option.get (Page.insert page r1) in
  let s2 = Option.get (Page.insert page r2) in
  check Alcotest.int "used" 2 (Page.used_count page);
  check Alcotest.bytes "read r1" r1 (Page.read_slot page s1);
  check Alcotest.bytes "read r2" r2 (Page.read_slot page s2);
  Page.delete page s1;
  check Alcotest.int "after delete" 1 (Page.used_count page);
  (try
     ignore (Page.read_slot page s1);
     Alcotest.fail "expected free-slot failure"
   with Invalid_argument _ -> ());
  (* slot is reused *)
  let s3 = Option.get (Page.insert page (Bytes.make 100 'c')) in
  check Alcotest.int "slot reuse" s1 s3

let page_fills_to_capacity () =
  let page = Page.alloc () in
  Page.init page ~record_width:100;
  let cap = Page.capacity page in
  for _ = 1 to cap do
    match Page.insert page (Bytes.make 100 'x') with
    | Some _ -> ()
    | None -> Alcotest.fail "premature full"
  done;
  check Alcotest.bool "full" true (Page.insert page (Bytes.make 100 'x') = None)

let page_update_in_place () =
  let page = Page.alloc () in
  Page.init page ~record_width:10;
  let s = Option.get (Page.insert page (Bytes.make 10 'a')) in
  Page.write_slot page s (Bytes.make 10 'z');
  check Alcotest.bytes "updated" (Bytes.make 10 'z') (Page.read_slot page s)

(* ---------- buffer pool ---------- *)

let pool_hit_miss_evict () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:2 () in
  let f = Vfs.create vfs "pool.dat" in
  let p0 = Buffer_pool.append_page pool f (fun page -> Bytes.set page 0 'A') in
  let p1 = Buffer_pool.append_page pool f (fun page -> Bytes.set page 0 'B') in
  let p2 = Buffer_pool.append_page pool f (fun page -> Bytes.set page 0 'C') in
  (* p0 was evicted (capacity 2): reading it faults in and writes back
     happened *)
  Buffer_pool.with_page pool f p0 ~dirty:false (fun page ->
      check Alcotest.char "p0 persisted" 'A' (Bytes.get page 0));
  Buffer_pool.with_page pool f p1 ~dirty:false (fun page ->
      check Alcotest.char "p1" 'B' (Bytes.get page 0));
  Buffer_pool.with_page pool f p2 ~dirty:false (fun page ->
      check Alcotest.char "p2" 'C' (Bytes.get page 0));
  check Alcotest.bool "evictions happened" true (Metrics.get m "pool.evictions" > 0);
  check Alcotest.bool "writebacks happened" true (Metrics.get m "pool.writebacks" > 0);
  Buffer_pool.flush_all pool;
  Vfs.close f

let pool_dirty_flush () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~vfs ~capacity:4 () in
  let f = Vfs.create vfs "flush.dat" in
  let p0 = Buffer_pool.append_page pool f (fun page -> Bytes.set page 0 'x') in
  Buffer_pool.with_page pool f p0 ~dirty:true (fun page -> Bytes.set page 0 'y');
  Buffer_pool.flush_file pool f;
  (* read underlying file directly *)
  let raw = Vfs.read_at f ~off:(p0 * Page.size) ~len:1 in
  check Alcotest.char "flushed" 'y' (Bytes.get raw 0);
  Vfs.close f

(* regression for the victim-scan rewrite: eviction must pick the least
   recently *used* frame, with an intervening touch promoting a page out
   of victim position.  Observed through the miss counter: a page touched
   just before the eviction-triggering miss must still be resident. *)
let pool_lru_eviction_order () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:3 () in
  let f = Vfs.create vfs "lru.dat" in
  let pages =
    Array.init 4 (fun i ->
        Buffer_pool.append_page pool f (fun p -> Bytes.set p 0 (Char.chr (Char.code 'a' + i))))
  in
  let touch p = Buffer_pool.with_page pool f p ~dirty:false (fun _ -> ()) in
  (* appending 4 pages into 3 frames leaves pages 1,2,3 resident *)
  touch pages.(1);
  touch pages.(2);
  touch pages.(3);
  touch pages.(1);
  (* page 1 is now most recent and page 2 least: the next miss evicts 2 *)
  let misses0 = Metrics.get m "pool.misses" in
  touch pages.(0);
  check Alcotest.int "faulting page 0 misses" (misses0 + 1) (Metrics.get m "pool.misses");
  touch pages.(3);
  touch pages.(1);
  check Alcotest.int "recently used pages stayed resident" (misses0 + 1)
    (Metrics.get m "pool.misses");
  touch pages.(2);
  check Alcotest.int "the LRU page was the victim" (misses0 + 2) (Metrics.get m "pool.misses");
  Vfs.close f

(* a pool-thrashing sequential scan: every miss contributes one sample to
   the pool.miss latency histogram, so its count tracks the counter *)
let pool_miss_histogram () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:4 () in
  let f = Vfs.create vfs "thrash.dat" in
  let n = 32 in
  let pages =
    Array.init n (fun i ->
        Buffer_pool.append_page pool f (fun p -> Bytes.set p 0 (Char.chr i)))
  in
  for _round = 1 to 3 do
    Array.iteri
      (fun i p ->
        Buffer_pool.with_page pool f p ~dirty:false (fun page ->
            check Alcotest.char "page content survives thrash" (Char.chr i) (Bytes.get page 0)))
      pages
  done;
  check Alcotest.bool "workload actually thrashed" true (Metrics.get m "pool.misses" >= 3 * n);
  check Alcotest.int "one histogram sample per miss" (Metrics.get m "pool.misses")
    (Metrics.observed_count m "pool.miss");
  check Alcotest.bool "samples are non-negative durations" true
    (Metrics.observed_sum m "pool.miss" >= 0.0);
  Vfs.close f

let pool_invalidate_refill () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:4 () in
  let f = Vfs.create vfs "inv.dat" in
  let pages =
    Array.init 4 (fun i ->
        Buffer_pool.append_page pool f (fun p -> Bytes.set p 0 (Char.chr (Char.code '0' + i))))
  in
  Buffer_pool.flush_file pool f;
  Buffer_pool.invalidate_file pool f;
  let evictions0 = Metrics.get m "pool.evictions" in
  (* re-faulting after invalidate reuses the freed frames: no evictions *)
  Array.iteri
    (fun i p ->
      Buffer_pool.with_page pool f p ~dirty:false (fun page ->
          check Alcotest.char "reread from disk" (Char.chr (Char.code '0' + i))
            (Bytes.get page 0)))
    pages;
  check Alcotest.int "freed frames reused without eviction" evictions0
    (Metrics.get m "pool.evictions");
  Vfs.close f

let pool_out_of_range () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~vfs ~capacity:2 () in
  let f = Vfs.create vfs "r.dat" in
  (try
     Buffer_pool.with_page pool f 0 ~dirty:false (fun _ -> ());
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  Vfs.close f

(* ---------- heap file ---------- *)

let heap_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "payload"; ty = Value.Tstring 80; nullable = true };
    ]

let mk_heap () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~vfs ~capacity:16 () in
  let f = Vfs.create vfs "heap.dat" in
  Heap_file.create pool f heap_schema

let row id payload = [| Value.Int id; Value.Str payload |]

let heap_crud () =
  let heap = mk_heap () in
  let r1 = Heap_file.insert heap (row 1 "one") in
  let r2 = Heap_file.insert heap (row 2 "two") in
  check Alcotest.int "count" 2 (Heap_file.count heap);
  check Alcotest.bool "get r1" true (Tuple.equal (Heap_file.get heap r1) (row 1 "one"));
  ignore
    (Heap_file.update heap r2 (Dw_relation.Codec.encode_binary heap_schema (row 2 "TWO")) : bytes);
  check Alcotest.bool "updated" true (Tuple.equal (Heap_file.get heap r2) (row 2 "TWO"));
  ignore (Heap_file.delete heap r1 : bytes);
  check Alcotest.int "after delete" 1 (Heap_file.count heap);
  (try
     ignore (Heap_file.get heap r1);
     Alcotest.fail "expected failure on deleted rid"
   with Invalid_argument _ -> ())

let heap_many_pages () =
  let heap = mk_heap () in
  let n = 500 in
  let rids = Array.init n (fun i -> Heap_file.insert heap (row i (string_of_int i))) in
  check Alcotest.bool "multiple pages" true (Heap_file.page_count heap > 1);
  check Alcotest.int "count" n (Heap_file.count heap);
  Array.iteri
    (fun i rid ->
      check Alcotest.bool "readback" true
        (Tuple.equal (Heap_file.get heap rid) (row i (string_of_int i))))
    rids

let heap_slot_reuse_after_delete () =
  let heap = mk_heap () in
  let rids = Array.init 100 (fun i -> Heap_file.insert heap (row i "x")) in
  let pages_before = Heap_file.page_count heap in
  Array.iter (fun rid -> ignore (Heap_file.delete heap rid : bytes)) rids;
  for i = 100 to 199 do
    ignore (Heap_file.insert heap (row i "y") : Heap_file.rid)
  done;
  check Alcotest.int "pages stable" pages_before (Heap_file.page_count heap)

let heap_attach () =
  let vfs = Vfs.in_memory () in
  let pool = Buffer_pool.create ~vfs ~capacity:16 () in
  let f = Vfs.create vfs "heap2.dat" in
  let heap = Heap_file.create pool f heap_schema in
  for i = 0 to 49 do
    ignore (Heap_file.insert heap (row i "z") : Heap_file.rid)
  done;
  Heap_file.flush heap;
  let heap2 = Heap_file.attach pool f heap_schema in
  check Alcotest.int "reattached count" 50 (Heap_file.count heap2);
  (* inserts into the re-attached heap still work (free list rebuilt) *)
  ignore (Heap_file.insert heap2 (row 100 "new") : Heap_file.rid);
  check Alcotest.int "after insert" 51 (Heap_file.count heap2)

let heap_force_at () =
  let heap = mk_heap () in
  let r1 = Heap_file.insert heap (row 1 "a") in
  let encoded = Dw_relation.Codec.encode_binary heap_schema (row 9 "forced") in
  (* overwrite occupied slot *)
  Heap_file.force_at heap r1 (Some encoded);
  check Alcotest.bool "overwritten" true (Tuple.equal (Heap_file.get heap r1) (row 9 "forced"));
  (* idempotent clear *)
  Heap_file.force_at heap r1 None;
  Heap_file.force_at heap r1 None;
  check Alcotest.bool "cleared" false (Heap_file.exists_at heap r1);
  (* force into a page far beyond current end *)
  let far = { Heap_file.page = 7; slot = 0 } in
  Heap_file.force_at heap far (Some encoded);
  check Alcotest.bool "far slot exists" true (Heap_file.exists_at heap far);
  check Alcotest.bool "far readback" true (Tuple.equal (Heap_file.get heap far) (row 9 "forced"))

(* ---------- btree ---------- *)

let key i = [| Value.Int i |]

let btree_insert_find () =
  let t = Btree.create ~branching:4 () in
  for i = 0 to 99 do
    Btree.insert t (key i) (i * 10)
  done;
  check Alcotest.int "cardinal" 100 (Btree.cardinal t);
  for i = 0 to 99 do
    check (Alcotest.option Alcotest.int) "find" (Some (i * 10)) (Btree.find t (key i))
  done;
  check (Alcotest.option Alcotest.int) "absent" None (Btree.find t (key 1000));
  (match Btree.check_invariants t with
   | Ok () -> ()
   | Error e -> Alcotest.fail e)

let btree_replace () =
  let t = Btree.create () in
  Btree.insert t (key 1) 10;
  Btree.insert t (key 1) 20;
  check Alcotest.int "cardinal stays" 1 (Btree.cardinal t);
  check (Alcotest.option Alcotest.int) "replaced" (Some 20) (Btree.find t (key 1))

let btree_delete_rebalance () =
  let t = Btree.create ~branching:4 () in
  let n = 200 in
  for i = 0 to n - 1 do
    Btree.insert t (key i) i
  done;
  (* delete evens *)
  for i = 0 to n - 1 do
    if i mod 2 = 0 then check Alcotest.bool "removed" true (Btree.remove t (key i))
  done;
  check Alcotest.int "half left" (n / 2) (Btree.cardinal t);
  (match Btree.check_invariants t with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("after even deletes: " ^ e));
  for i = 0 to n - 1 do
    let expected = if i mod 2 = 0 then None else Some i in
    check (Alcotest.option Alcotest.int) "find after deletes" expected (Btree.find t (key i))
  done;
  (* delete the rest *)
  for i = 0 to n - 1 do
    if i mod 2 = 1 then ignore (Btree.remove t (key i) : bool)
  done;
  check Alcotest.int "empty" 0 (Btree.cardinal t);
  check Alcotest.int "depth 0" 0 (Btree.depth t)

let btree_range_scan () =
  let t = Btree.create ~branching:6 () in
  for i = 0 to 99 do
    Btree.insert t (key (i * 2)) i  (* even keys 0..198 *)
  done;
  let collect lo hi =
    let acc = ref [] in
    Btree.iter_range t ~lo ~hi (fun k _ ->
        match k.(0) with Value.Int i -> acc := i :: !acc | _ -> ());
    List.rev !acc
  in
  check (Alcotest.list Alcotest.int) "closed range" [ 10; 12; 14 ]
    (collect (Btree.Incl (key 10)) (Btree.Incl (key 14)));
  check (Alcotest.list Alcotest.int) "open range" [ 12 ]
    (collect (Btree.Excl (key 10)) (Btree.Excl (key 14)));
  check (Alcotest.list Alcotest.int) "unbounded hi" [ 196; 198 ]
    (collect (Btree.Incl (key 196)) Btree.Unbounded);
  check Alcotest.int "full scan" 100 (List.length (collect Btree.Unbounded Btree.Unbounded));
  (* lo between keys starts at next key *)
  check (Alcotest.list Alcotest.int) "between keys" [ 12 ]
    (collect (Btree.Incl (key 11)) (Btree.Incl (key 12)))

let btree_min_max () =
  let t = Btree.create () in
  check Alcotest.bool "empty min" true (Btree.min_binding t = None);
  for i = 5 to 50 do
    Btree.insert t (key i) i
  done;
  (match Btree.min_binding t with
   | Some (k, _) -> check Alcotest.bool "min" true (Tuple.equal k (key 5))
   | None -> Alcotest.fail "min");
  match Btree.max_binding t with
  | Some (k, _) -> check Alcotest.bool "max" true (Tuple.equal k (key 50))
  | None -> Alcotest.fail "max"

let btree_bulk_load_matches_incremental () =
  List.iter
    (fun n ->
      let bindings = List.init n (fun i -> (key (i * 3), i)) in
      let bulk = Btree.of_sorted ~branching:8 bindings in
      (match Btree.check_invariants bulk with
       | Ok () -> ()
       | Error e -> Alcotest.failf "invariants (n=%d): %s" n e);
      let incr = Btree.create ~branching:8 () in
      List.iter (fun (k, v) -> Btree.insert incr k v) bindings;
      check Alcotest.int "cardinal" (Btree.cardinal incr) (Btree.cardinal bulk);
      check Alcotest.bool (Printf.sprintf "same contents (n=%d)" n) true
        (List.for_all2
           (fun (k1, v1) (k2, v2) -> Tuple.equal k1 k2 && v1 = v2)
           (Btree.to_list incr) (Btree.to_list bulk));
      (* mutations after a bulk load keep working *)
      Btree.insert bulk (key 1) 999;
      if n > 0 then ignore (Btree.remove bulk (key 0) : bool);
      match Btree.check_invariants bulk with
      | Ok () -> ()
      | Error e -> Alcotest.failf "post-mutation invariants (n=%d): %s" n e)
    [ 0; 1; 5; 8; 9; 23; 24; 25; 100; 1000 ]

let btree_bulk_load_rejects_unsorted () =
  (try
     ignore (Btree.of_sorted [ (key 2, 0); (key 1, 1) ]);
     Alcotest.fail "expected unsorted rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Btree.of_sorted [ (key 1, 0); (key 1, 1) ]);
    Alcotest.fail "expected duplicate rejection"
  with Invalid_argument _ -> ()

let prop_btree_bulk_load =
  QCheck2.Test.make ~name:"btree bulk load sound for any size/branching" ~count:200
    QCheck2.Gen.(pair (int_range 0 400) (int_range 2 10))
    (fun (n, half_branching) ->
      let branching = 2 * half_branching in
      let bindings = List.init n (fun i -> (key i, i)) in
      let t = Btree.of_sorted ~branching bindings in
      (match Btree.check_invariants t with Ok () -> true | Error _ -> false)
      && Btree.cardinal t = n
      && List.for_all (fun (k, v) -> Btree.find t k = Some v) bindings)

(* qcheck: btree behaves like a Map over arbitrary op sequences *)

module KeyMap = Map.Make (struct
  type t = int

  let compare = compare
end)

type op = Add of int * int | Del of int | Find of int

let gen_ops =
  let open QCheck2.Gen in
  let gen_op =
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) (int_range 0 100) (int_range 0 1000));
        (2, map (fun k -> Del k) (int_range 0 100));
        (1, map (fun k -> Find k) (int_range 0 100));
      ]
  in
  list_size (int_range 0 400) gen_op

let prop_btree_model =
  QCheck2.Test.make ~name:"btree matches Map model" ~count:200 gen_ops (fun ops ->
      let t = Btree.create ~branching:4 () in
      let model = ref KeyMap.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Add (k, v) ->
            Btree.insert t (key k) v;
            model := KeyMap.add k v !model
          | Del k ->
            let removed = Btree.remove t (key k) in
            let existed = KeyMap.mem k !model in
            if removed <> existed then ok := false;
            model := KeyMap.remove k !model
          | Find k ->
            let got = Btree.find t (key k) in
            let expected = KeyMap.find_opt k !model in
            if got <> expected then ok := false)
        ops;
      !ok
      && Btree.cardinal t = KeyMap.cardinal !model
      && (match Btree.check_invariants t with Ok () -> true | Error _ -> false)
      && List.for_all2
           (fun (bk, bv) (mk, mv) -> Tuple.equal bk (key mk) && bv = mv)
           (Btree.to_list t) (KeyMap.bindings !model))

(* ---------- file and frame identity ---------- *)

(* an in-memory handle caches its byte store; re-creating the name must
   still show the new file through a handle opened before it *)
let vfs_handle_sees_recreated_file () =
  let vfs = Vfs.in_memory () in
  let old_h = Vfs.create vfs "r.dat" in
  ignore (Vfs.append old_h (Bytes.of_string "old contents") : int);
  check Alcotest.string "reads the first file" "old"
    (Bytes.to_string (Vfs.read_at old_h ~off:0 ~len:3));
  let new_h = Vfs.create vfs "r.dat" in
  check Alcotest.int "re-created empty" 0 (Vfs.size old_h);
  ignore (Vfs.append new_h (Bytes.of_string "new") : int);
  check Alcotest.string "old handle reads the new contents" "new"
    (Bytes.to_string (Vfs.read_at old_h ~off:0 ~len:3));
  check Alcotest.int "one id per name" (Vfs.id old_h) (Vfs.id new_h);
  let other = Vfs.create vfs "s.dat" in
  check Alcotest.bool "distinct names, distinct ids" true (Vfs.id other <> Vfs.id old_h);
  List.iter Vfs.close [ old_h; new_h; other ];
  Vfs.delete vfs "r.dat";
  let again = Vfs.create vfs "r.dat" in
  check Alcotest.int "id stable across delete" (Vfs.id new_h) (Vfs.id again);
  Vfs.close again

let pool_handles_share_frames () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:4 () in
  let a = Vfs.create vfs "shared.dat" in
  let p = Buffer_pool.append_page pool a (fun page -> Bytes.set page 0 'a') in
  let b = Vfs.open_existing vfs "shared.dat" in
  let hits0 = Metrics.get m "pool.hits" and misses0 = Metrics.get m "pool.misses" in
  Buffer_pool.with_page pool b p ~dirty:true (fun page ->
      check Alcotest.char "second handle sees the frame" 'a' (Bytes.get page 0);
      Bytes.set page 0 'b');
  Buffer_pool.with_page pool a p ~dirty:false (fun page ->
      check Alcotest.char "write through one handle, read through the other" 'b'
        (Bytes.get page 0));
  check Alcotest.int "both accesses hit" (hits0 + 2) (Metrics.get m "pool.hits");
  check Alcotest.int "no miss" misses0 (Metrics.get m "pool.misses");
  Vfs.close a;
  Vfs.close b

(* with two files in one pool, flushing or invalidating one file leaves
   the other's frames alone *)
let pool_file_ops_touch_own_frames () =
  let m = Metrics.create () in
  let vfs = Vfs.in_memory ~metrics:m () in
  let pool = Buffer_pool.create ~vfs ~capacity:8 () in
  let f = Vfs.create vfs "f.dat" and g = Vfs.create vfs "g.dat" in
  let fill file c = Buffer_pool.append_page pool file (fun page -> Bytes.set page 0 c) in
  let fp = [ fill f 'f'; fill f 'F' ] and gp = [ fill g 'g'; fill g 'G'; fill g 'H' ] in
  let wb0 = Metrics.get m "pool.writebacks" in
  Buffer_pool.flush_file pool f;
  check Alcotest.int "flush writes back only f's pages" (wb0 + 2)
    (Metrics.get m "pool.writebacks");
  check Alcotest.char "g not written" '\000'
    (Bytes.get (Vfs.read_at g ~off:(List.hd gp * Page.size) ~len:1) 0);
  Buffer_pool.flush_file pool f;
  check Alcotest.int "f now clean" (wb0 + 2) (Metrics.get m "pool.writebacks");
  Buffer_pool.invalidate_file pool f;
  let hits0 = Metrics.get m "pool.hits" and misses0 = Metrics.get m "pool.misses" in
  let touch file p = Buffer_pool.with_page pool file p ~dirty:false (fun _ -> ()) in
  List.iter (touch g) gp;
  check Alcotest.int "g still resident" (hits0 + 3) (Metrics.get m "pool.hits");
  check Alcotest.int "no g miss" misses0 (Metrics.get m "pool.misses");
  List.iter (touch f) fp;
  check Alcotest.int "f faulted back in" (misses0 + 2) (Metrics.get m "pool.misses");
  Buffer_pool.flush_file pool g;
  check Alcotest.int "g's dirty pages survived f's invalidate" (wb0 + 5)
    (Metrics.get m "pool.writebacks");
  Vfs.close f;
  Vfs.close g

(* one Disk handle shared by two domains: a reader of page 0 and a
   writer of page 1.  Each device read and write runs under the file's
   I/O lock, so no seek of one lands between the other's seek and
   transfer: every read returns page 0 and page 0 is never overwritten *)
let vfs_disk_handle_shared_across_domains () =
  let dir = Filename.temp_file "dwvfs" "" in
  Sys.remove dir;
  let vfs = Vfs.on_disk dir in
  let f = Vfs.create vfs "race.dat" in
  let a = Bytes.make Page.size 'a' and b = Bytes.make Page.size 'b' in
  Vfs.write_at f ~off:0 a;
  Vfs.write_at f ~off:Page.size b;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Vfs.write_at f ~off:Page.size b
        done)
  in
  let wrong = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join writer)
    (fun () ->
      for _ = 1 to 20_000 do
        if not (Bytes.equal (Vfs.read_at f ~off:0 ~len:Page.size) a) then incr wrong
      done);
  let page0 = Vfs.read_at f ~off:0 ~len:Page.size in
  Vfs.close f;
  Vfs.delete vfs "race.dat";
  Unix.rmdir dir;
  check Alcotest.int "reads that returned another page" 0 !wrong;
  check Alcotest.bool "page 0 never overwritten" true (Bytes.equal page0 a)

let suite =
  [
    test "vfs mem basics" vfs_mem_basics;
    test "vfs read bounds" vfs_read_bounds;
    test "vfs metrics accounting" vfs_metrics_accounting;
    test "vfs list/delete" vfs_list_delete;
    test "vfs disk backend" vfs_disk_backend;
    test "vfs truncate" vfs_truncate;
    test "page insert/read/delete" page_insert_read_delete;
    test "page fills to capacity" page_fills_to_capacity;
    test "page update in place" page_update_in_place;
    test "pool hit/miss/evict" pool_hit_miss_evict;
    test "pool dirty flush" pool_dirty_flush;
    test "pool lru eviction order" pool_lru_eviction_order;
    test "pool miss histogram" pool_miss_histogram;
    test "pool invalidate refill" pool_invalidate_refill;
    test "pool out of range" pool_out_of_range;
    test "heap crud" heap_crud;
    test "heap many pages" heap_many_pages;
    test "heap slot reuse" heap_slot_reuse_after_delete;
    test "heap attach" heap_attach;
    test "heap force_at" heap_force_at;
    test "btree insert/find" btree_insert_find;
    test "btree replace" btree_replace;
    test "btree delete rebalance" btree_delete_rebalance;
    test "btree range scan" btree_range_scan;
    test "btree min/max" btree_min_max;
    test "btree bulk load matches incremental" btree_bulk_load_matches_incremental;
    test "btree bulk load rejects unsorted" btree_bulk_load_rejects_unsorted;
    QCheck_alcotest.to_alcotest prop_btree_bulk_load;
    QCheck_alcotest.to_alcotest prop_btree_model;
    test "vfs handle sees a re-created file" vfs_handle_sees_recreated_file;
    test "pool frames shared across handles" pool_handles_share_frames;
    test "pool file ops touch only their file" pool_file_ops_touch_own_frames;
    test "a Disk handle is shared safely across domains" vfs_disk_handle_shared_across_domains;
  ]
