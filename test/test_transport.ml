(* Tests for Dw_transport: file shipping across vfs instances, persistent
   queue semantics incl. crash recovery (redelivery of unacked messages). *)

module Vfs = Dw_storage.Vfs
module File_ship = Dw_transport.File_ship
module Persistent_queue = Dw_transport.Persistent_queue

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let write_file vfs name contents =
  let f = Vfs.create vfs name in
  ignore (Vfs.append f (Bytes.of_string contents) : int);
  Vfs.close f

let read_file vfs name =
  let f = Vfs.open_existing vfs name in
  let s = Bytes.to_string (Vfs.read_at f ~off:0 ~len:(Vfs.size f)) in
  Vfs.close f;
  s

let ship_roundtrip () =
  let src = Vfs.in_memory () and dst = Vfs.in_memory () in
  let payload = String.concat "\n" (List.init 1000 (fun i -> Printf.sprintf "line-%d" i)) in
  write_file src "delta.asc" payload;
  (match
     File_ship.ship ~chunk_size:256 ~src ~src_name:"delta.asc" ~dst ~dst_name:"staged.asc" ()
   with
   | Ok stats ->
     check Alcotest.int "bytes" (String.length payload) stats.File_ship.bytes;
     check Alcotest.bool "chunked" true (stats.File_ship.chunks > 1)
   | Error e -> Alcotest.fail e);
  check Alcotest.string "identical" payload (read_file dst "staged.asc")

let ship_missing_source () =
  let src = Vfs.in_memory () and dst = Vfs.in_memory () in
  check Alcotest.bool "missing" true
    (Result.is_error (File_ship.ship ~src ~src_name:"nope" ~dst ~dst_name:"x" ()))

let ship_empty_file () =
  let src = Vfs.in_memory () and dst = Vfs.in_memory () in
  write_file src "empty" "";
  match File_ship.ship ~src ~src_name:"empty" ~dst ~dst_name:"empty2" () with
  | Ok stats -> check Alcotest.int "zero bytes" 0 stats.File_ship.bytes
  | Error e -> Alcotest.fail e

let ship_retries_transient_faults () =
  let src = Vfs.in_memory () and dst = Vfs.in_memory () in
  let payload = String.concat "" (List.init 2000 (fun i -> Printf.sprintf "row-%05d\n" i)) in
  write_file src "delta.asc" payload;
  Vfs.set_fault dst
    (Some (Vfs.Fault.make ~write_fail_p:0.3 ~fsync_fail_p:0.3 ~seed:99 ()));
  (match
     File_ship.ship ~chunk_size:512 ~max_retries:64 ~src ~src_name:"delta.asc" ~dst
       ~dst_name:"staged.asc" ()
   with
   | Ok stats ->
     check Alcotest.int "bytes" (String.length payload) stats.File_ship.bytes;
     check Alcotest.bool "absorbed transient faults" true (stats.File_ship.retries > 0)
   | Error e -> Alcotest.fail e);
  Vfs.set_fault dst None;
  check Alcotest.string "identical despite faults" payload (read_file dst "staged.asc")

let ship_gives_up_past_retry_budget () =
  let src = Vfs.in_memory () and dst = Vfs.in_memory () in
  write_file src "delta.asc" "payload";
  Vfs.set_fault dst (Some (Vfs.Fault.make ~write_fail_p:1.0 ~seed:7 ()));
  check Alcotest.bool "persistent fault reported" true
    (Result.is_error
       (File_ship.ship ~max_retries:3 ~src ~src_name:"delta.asc" ~dst ~dst_name:"x" ()))

let queue_fifo () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "a";
  Persistent_queue.enqueue q "b";
  Persistent_queue.enqueue q "c";
  check Alcotest.int "pending" 3 (Persistent_queue.pending q);
  check (Alcotest.option Alcotest.string) "peek a" (Some "a") (Persistent_queue.peek q);
  Persistent_queue.ack q;
  check (Alcotest.option Alcotest.string) "peek b" (Some "b") (Persistent_queue.peek q);
  Persistent_queue.ack q;
  Persistent_queue.ack q;
  check (Alcotest.option Alcotest.string) "drained" None (Persistent_queue.peek q);
  check Alcotest.int "pending 0" 0 (Persistent_queue.pending q);
  Persistent_queue.close q

let queue_ack_empty_raises () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  (try
     Persistent_queue.ack q;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  Persistent_queue.close q

let queue_crash_redelivery () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "batch1";
  Persistent_queue.enqueue q "batch2";
  ignore (Persistent_queue.peek q : string option);
  Persistent_queue.ack q;
  (* "crash": drop the handle without acking batch2, re-open *)
  ignore (Persistent_queue.peek q : string option);
  Persistent_queue.close q;
  let q2 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "one pending" 1 (Persistent_queue.pending q2);
  check (Alcotest.option Alcotest.string) "batch2 redelivered" (Some "batch2")
    (Persistent_queue.peek q2);
  check Alcotest.int "total" 2 (Persistent_queue.enqueued_total q2);
  Persistent_queue.close q2

let queue_binary_safe () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  let payload = String.init 256 Char.chr in
  Persistent_queue.enqueue q payload;
  check (Alcotest.option Alcotest.string) "binary payload" (Some payload)
    (Persistent_queue.peek q);
  Persistent_queue.close q

let queue_survives_torn_tail () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "ok";
  Persistent_queue.close q;
  (* simulate a torn enqueue *)
  let f = Vfs.open_existing vfs "dq.q" in
  ignore (Vfs.append f (Bytes.of_string "\x10\x00\x00\x00????") : int);
  Vfs.close f;
  let q2 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "clean messages only" 1 (Persistent_queue.pending q2);
  Persistent_queue.close q2

(* regression: the torn tail must be truncated on open, or a later
   enqueue appends after the garbage and is never delivered *)
let queue_enqueue_after_torn_tail () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "before";
  Persistent_queue.close q;
  let f = Vfs.open_existing vfs "dq.q" in
  ignore (Vfs.append f (Bytes.of_string "\x10\x00\x00\x00????") : int);
  Vfs.close f;
  let q2 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.bool "torn frame counted" true
    (Dw_util.Metrics.get (Vfs.metrics vfs) "queue.torn_frames" > 0);
  Persistent_queue.enqueue q2 "after";
  Persistent_queue.close q2;
  let q3 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "both reachable" 2 (Persistent_queue.pending q3);
  check (Alcotest.option Alcotest.string) "fifo kept" (Some "before")
    (Persistent_queue.peek q3);
  Persistent_queue.ack q3;
  check (Alcotest.option Alcotest.string) "new message delivered" (Some "after")
    (Persistent_queue.peek q3);
  Persistent_queue.close q3

(* a corrupted or torn sidecar resets the position: redelivery, not loss *)
let queue_corrupt_sidecar_redelivers () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "m1";
  Persistent_queue.enqueue q "m2";
  ignore (Persistent_queue.peek q : string option);
  Persistent_queue.ack q;
  Persistent_queue.close q;
  (* flip the stored offset without fixing the checksum *)
  let f = Vfs.open_existing vfs "dq.q.off" in
  Vfs.write_at f ~off:0 (Bytes.make 1 '\xFF');
  Vfs.close f;
  let q2 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.bool "reset counted" true
    (Dw_util.Metrics.get (Vfs.metrics vfs) "queue.offset_resets" > 0);
  check Alcotest.int "acked m1 redelivered rather than m2 lost" 2
    (Persistent_queue.pending q2);
  check (Alcotest.option Alcotest.string) "from the start" (Some "m1")
    (Persistent_queue.peek q2);
  Persistent_queue.close q2

let queue_torn_sidecar_redelivers () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  Persistent_queue.enqueue q "m1";
  Persistent_queue.enqueue q "m2";
  ignore (Persistent_queue.peek q : string option);
  Persistent_queue.ack q;
  Persistent_queue.close q;
  (* torn offset write: only 5 of 12 bytes survive *)
  let f = Vfs.open_existing vfs "dq.q.off" in
  Vfs.truncate f 5;
  Vfs.close f;
  let q2 = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "conservative reset" 2 (Persistent_queue.pending q2);
  Persistent_queue.close q2

(* end-to-end: op-deltas through the queue *)
let queue_ships_op_deltas () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  let ods =
    List.init 5 (fun i ->
        Dw_core.Op_delta.make ~txn_id:i
          [ Dw_workload.Workload.update_parts_stmt ~first_id:i ~size:3 ])
  in
  List.iter (fun od -> Persistent_queue.enqueue q (Dw_core.Op_delta.encode_line od)) ods;
  let rec drain acc =
    match Persistent_queue.peek q with
    | None -> List.rev acc
    | Some line ->
      Persistent_queue.ack q;
      (match Dw_core.Op_delta.decode_line line with
       | Ok od -> drain (od :: acc)
       | Error e -> Alcotest.fail e)
  in
  let received = drain [] in
  check Alcotest.int "all delivered" 5 (List.length received);
  List.iter2
    (fun (a : Dw_core.Op_delta.t) (b : Dw_core.Op_delta.t) ->
      check Alcotest.int "txn ids in order" a.Dw_core.Op_delta.txn_id b.Dw_core.Op_delta.txn_id)
    ods received;
  Persistent_queue.close q

(* ---------- jittered backoff ---------- *)

let ship_backoff_jitter_bounded () =
  let metrics = Dw_util.Metrics.create () in
  let src = Vfs.in_memory () and dst = Vfs.in_memory ~metrics () in
  let payload = String.concat "" (List.init 500 (fun i -> Printf.sprintf "row-%04d\n" i)) in
  write_file src "delta.asc" payload;
  Vfs.set_fault dst (Some (Vfs.Fault.make ~write_fail_p:0.4 ~fsync_fail_p:0.2 ~seed:7 ()));
  let backoff_s = 1e-6 and max_retries = 16 in
  let retries =
    match
      File_ship.ship ~chunk_size:128 ~max_retries ~backoff_s ~jitter_seed:5 ~src
        ~src_name:"delta.asc" ~dst ~dst_name:"staged.asc" ()
    with
    | Ok stats -> stats.File_ship.retries
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "faults absorbed" true (retries > 0);
  check Alcotest.string "identical despite retries" payload (read_file dst "staged.asc");
  (* every pause was observed, inside the equal-jitter envelope:
     [base/2, base] with base = backoff_s * 2^attempt *)
  match Dw_util.Metrics.summary metrics "ship.backoff" with
  | None -> Alcotest.fail "no ship.backoff histogram"
  | Some s ->
    check Alcotest.int "one observation per retry" retries s.Dw_util.Metrics.count;
    check Alcotest.bool "pause >= base/2" true (s.Dw_util.Metrics.vmin >= backoff_s /. 2.0);
    check Alcotest.bool "pause bounded by the doubled base" true
      (s.Dw_util.Metrics.vmax <= backoff_s *. (2.0 ** float_of_int max_retries))

let ship_backoff_deterministic_under_seed () =
  let run seed =
    let metrics = Dw_util.Metrics.create () in
    let src = Vfs.in_memory () and dst = Vfs.in_memory ~metrics () in
    write_file src "d" (String.make 4096 'x');
    Vfs.set_fault dst (Some (Vfs.Fault.make ~write_fail_p:0.4 ~seed:3 ()));
    match
      File_ship.ship ~chunk_size:256 ~max_retries:32 ~backoff_s:1e-6 ~jitter_seed:seed ~src
        ~src_name:"d" ~dst ~dst_name:"d2" ()
    with
    | Ok stats ->
      (stats.File_ship.retries,
       Option.map
         (fun (s : Dw_util.Metrics.histogram_summary) -> s.Dw_util.Metrics.vmax)
         (Dw_util.Metrics.summary metrics "ship.backoff"))
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "same seed, same pauses" true (run 11 = run 11);
  check Alcotest.bool "same fault plan either way" true (fst (run 11) = fst (run 12))

(* ---------- watermark frames ---------- *)

let frame_roundtrip () =
  let module Frame = Dw_transport.Frame in
  let cases =
    [
      Frame.Data "plain delta line";
      Frame.Data "tricky|payload:with\tseparators";
      Frame.Data "";
      Frame.Wm_low { run = "r1abc"; chunk = 0; nonce = 42 };
      Frame.Wm_high { run = "r1abc"; chunk = 17; nonce = 1041 };
    ]
  in
  List.iter
    (fun f ->
      match Frame.decode (Frame.encode f) with
      | Ok f' -> check Alcotest.bool "roundtrip" true (f = f')
      | Error e -> Alcotest.fail e)
    cases

let frame_rejects_malformed () =
  let module Frame = Dw_transport.Frame in
  List.iter
    (fun s -> check Alcotest.bool s true (Result.is_error (Frame.decode s)))
    [ ""; "garbage"; "wl|run|notanint|7"; "wh|run|3"; "w|x|1|2"; "dl:half-tagged" ]

(* a faulted fsync raises [Transient]; retrying the same call after the
   fault clears must neither skip a message (ack) nor append it twice
   (enqueue) *)
let queue_retries_are_idempotent () =
  let vfs = Vfs.in_memory () in
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  let fsync_fails () = Vfs.set_fault vfs (Some (Vfs.Fault.make ~fsync_fail_p:1.0 ~seed:1 ())) in
  let faulted f =
    fsync_fails ();
    (try
       f ();
       Alcotest.fail "expected Transient"
     with Vfs.Fault.Transient _ -> ());
    Vfs.set_fault vfs None;
    f ()
  in
  let peek = Alcotest.(option string) in
  faulted (fun () -> Persistent_queue.enqueue_batch q [ "a"; "b"; "c" ]);
  Persistent_queue.close q;
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "batch appended once" 3 (Persistent_queue.pending q);
  check peek "peek a" (Some "a") (Persistent_queue.peek q);
  faulted (fun () -> Persistent_queue.ack q);
  check Alcotest.int "one message acked" 2 (Persistent_queue.pending q);
  check peek "b not skipped" (Some "b") (Persistent_queue.peek q);
  faulted (fun () -> Persistent_queue.enqueue q "d");
  faulted (fun () -> Persistent_queue.ack_run q 2);
  check peek "d after the run" (Some "d") (Persistent_queue.peek q);
  Persistent_queue.close q;
  let q = Persistent_queue.open_ vfs ~name:"dq" in
  check Alcotest.int "reopened: only d pending" 1 (Persistent_queue.pending q);
  check Alcotest.int "four messages ever enqueued" 4 (Persistent_queue.enqueued_total q);
  check peek "reopened peek d" (Some "d") (Persistent_queue.peek q);
  Persistent_queue.close q

let suite =
  [
    test "ship roundtrip" ship_roundtrip;
    test "ship missing source" ship_missing_source;
    test "ship empty file" ship_empty_file;
    test "ship retries transient faults" ship_retries_transient_faults;
    test "ship gives up past retry budget" ship_gives_up_past_retry_budget;
    test "queue fifo" queue_fifo;
    test "queue ack empty raises" queue_ack_empty_raises;
    test "queue crash redelivery" queue_crash_redelivery;
    test "queue binary safe" queue_binary_safe;
    test "queue survives torn tail" queue_survives_torn_tail;
    test "queue enqueue after torn tail" queue_enqueue_after_torn_tail;
    test "queue corrupt sidecar redelivers" queue_corrupt_sidecar_redelivers;
    test "queue torn sidecar redelivers" queue_torn_sidecar_redelivers;
    test "queue ships op-deltas" queue_ships_op_deltas;
    test "ship backoff jitter bounded" ship_backoff_jitter_bounded;
    test "ship backoff deterministic under seed" ship_backoff_deterministic_under_seed;
    test "frame roundtrip" frame_roundtrip;
    test "frame rejects malformed" frame_rejects_malformed;
    test "queue retries are idempotent" queue_retries_are_idempotent;
  ]
