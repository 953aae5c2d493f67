(* Tests for Dw_util: PRNG determinism, metrics (counters, gauges,
   histograms, timers, spans, sink), JSON, clock, formatting. *)

module Prng = Dw_util.Prng
module Metrics = Dw_util.Metrics
module Sim_clock = Dw_util.Sim_clock
module Fmt_util = Dw_util.Fmt_util
module Json = Dw_util.Json

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  check Alcotest.bool "different streams" true (Prng.int64 a <> Prng.int64 b)

let prng_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in g 5 9 in
    check Alcotest.bool "in closed range" true (v >= 5 && v <= 9)
  done

let prng_split_independent () =
  let parent = Prng.create ~seed:3 in
  let child = Prng.split parent in
  (* child and parent produce different streams from here *)
  check Alcotest.bool "independent" true (Prng.int64 parent <> Prng.int64 child)

let prng_float_range () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = Prng.float g 2.5 in
    check Alcotest.bool "float range" true (f >= 0.0 && f < 2.5)
  done

let prng_shuffle_permutation () =
  let g = Prng.create ~seed:5 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 50 Fun.id) sorted

let prng_alpha_string () =
  let g = Prng.create ~seed:9 in
  let s = Prng.alpha_string g 64 in
  check Alcotest.int "length" 64 (String.length s);
  String.iter (fun c -> check Alcotest.bool "lowercase" true (c >= 'a' && c <= 'z')) s

let metrics_basic () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.add m "a" 4;
  Metrics.add m "b" 10;
  check Alcotest.int "a" 5 (Metrics.get m "a");
  check Alcotest.int "b" 10 (Metrics.get m "b");
  check Alcotest.int "absent" 0 (Metrics.get m "zzz")

let metrics_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.add m "x" 3;
  let before = Metrics.snapshot m in
  Metrics.add m "x" 2;
  Metrics.add m "y" 7;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "diff"
    [ ("x", 2); ("y", 7) ] d

let metrics_reset () =
  let m = Metrics.create () in
  Metrics.add m "x" 3;
  Metrics.reset m;
  check Alcotest.int "reset" 0 (Metrics.get m "x")

(* regression: reset used to zero counters in place but keep the keys, so
   a later snapshot of a registry shared across experiments still listed
   every stale name.  Reset must clear entries of every kind. *)
let metrics_reset_clears_entries () =
  let m = Metrics.create () in
  Metrics.add m "x" 3;
  Metrics.set_gauge m "g" 2.0;
  Metrics.observe m "h" 0.5;
  Metrics.with_span m "s" (fun () -> ());
  Metrics.reset m;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "snapshot empty" []
    (Metrics.snapshot m);
  check Alcotest.int "gauges empty" 0 (List.length (Metrics.gauges m));
  check Alcotest.int "histograms empty" 0 (List.length (Metrics.histograms m));
  check Alcotest.int "spans cleared" 0 (List.length (Metrics.spans m));
  check Alcotest.int "counter gone" 0 (Metrics.get m "x")

let metrics_gauges () =
  let m = Metrics.create () in
  Metrics.set_gauge m "pool.capacity" 64.0;
  Metrics.set_gauge m "pool.capacity" 128.0;
  Metrics.set_gauge m "a" 1.5;
  check (Alcotest.float 0.0) "last write wins" 128.0 (Metrics.gauge m "pool.capacity");
  check (Alcotest.float 0.0) "absent gauge" 0.0 (Metrics.gauge m "zz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "sorted"
    [ ("a", 1.5); ("pool.capacity", 128.0) ]
    (Metrics.gauges m)

let metrics_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.incr m "n";
  (try
     Metrics.observe m "n" 1.0;
     Alcotest.fail "observe on a counter should raise"
   with Invalid_argument _ -> ());
  Metrics.observe m "h" 1.0;
  (try
     Metrics.set_gauge m "h" 1.0;
     Alcotest.fail "set_gauge on a histogram should raise"
   with Invalid_argument _ -> ())

(* ---------- histograms ---------- *)

let hist_empty_and_single () =
  let m = Metrics.create () in
  check (Alcotest.float 0.0) "absent percentile" 0.0 (Metrics.percentile m "h" 0.5);
  check Alcotest.int "absent count" 0 (Metrics.observed_count m "h");
  check Alcotest.bool "absent summary" true (Metrics.summary m "h" = None);
  Metrics.observe m "h" 0.0123;
  (* one sample: every percentile is that exact value (min/max clamping) *)
  List.iter
    (fun q ->
      check (Alcotest.float 1e-15) "single sample exact" 0.0123 (Metrics.percentile m "h" q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  match Metrics.summary m "h" with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    check Alcotest.int "count" 1 s.Metrics.count;
    check (Alcotest.float 1e-15) "sum" 0.0123 s.Metrics.sum;
    check (Alcotest.float 1e-15) "min=max" s.Metrics.vmin s.Metrics.vmax

let hist_overflow_edges () =
  let m = Metrics.create () in
  (* far beyond the last bucket (gamma^1024 = 2^128): the index clamps to
     the overflow bucket but min/max stay exact, and a one-sample
     percentile clamps back to the observed value *)
  Metrics.observe m "big" 1e300;
  check (Alcotest.float 0.0) "overflow p50 exact" 1e300 (Metrics.percentile m "big" 0.5);
  check (Alcotest.float 0.0) "overflow max exact" 1e300 (Metrics.percentile m "big" 1.0);
  (* non-positive samples land in the underflow bucket; min stays exact *)
  Metrics.observe m "mix" (-5.0);
  Metrics.observe m "mix" 0.0;
  Metrics.observe m "mix" 2.0;
  check (Alcotest.float 0.0) "min exact" (-5.0) (Metrics.percentile m "mix" 0.0);
  check (Alcotest.float 0.0) "max exact" 2.0 (Metrics.percentile m "mix" 1.0);
  let p50 = Metrics.percentile m "mix" 0.5 in
  check Alcotest.bool "p50 within observed range" true (p50 >= -5.0 && p50 <= 2.0)

let hist_bucket_error_bound () =
  let m = Metrics.create () in
  for i = 1 to 1000 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  (* 8 buckets per doubling: a percentile is the upper bound of its
     bucket, at most gamma = 2^(1/8) ~ 1.09x above the true value *)
  List.iter
    (fun (q, true_v) ->
      let v = Metrics.percentile m "lat" q in
      check Alcotest.bool
        (Printf.sprintf "p%.0f within one bucket of %g (got %g)" (q *. 100.0) true_v v)
        true
        (v >= true_v && v <= true_v *. 1.0906))
    [ (0.5, 500.0); (0.95, 950.0); (0.99, 990.0) ];
  let p q = Metrics.percentile m "lat" q in
  check Alcotest.bool "percentiles monotone" true
    (p 0.0 <= p 0.5 && p 0.5 <= p 0.95 && p 0.95 <= p 0.99 && p 0.99 <= p 1.0)

(* ---------- timers and spans (sim clock: deterministic durations) ---------- *)

let timer_sim_clock () =
  let m = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock m clk;
  let v = Metrics.time m "op" (fun () -> Sim_clock.advance clk 3; 42) in
  check Alcotest.int "result passed through" 42 v;
  check Alcotest.int "count" 1 (Metrics.observed_count m "op");
  check (Alcotest.float 1e-9) "sum" 3.0 (Metrics.observed_sum m "op");
  check (Alcotest.float 1e-9) "one-sample p50" 3.0 (Metrics.percentile m "op" 0.5);
  (* a raising body still observes its duration *)
  (try Metrics.time m "op" (fun () -> Sim_clock.advance clk 5; failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "count after raise" 2 (Metrics.observed_count m "op");
  check (Alcotest.float 1e-9) "sum after raise" 8.0 (Metrics.observed_sum m "op")

let spans_nesting () =
  let m = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock m clk;
  Metrics.with_span m "outer" (fun () ->
      Sim_clock.advance clk 1;
      Metrics.with_span m "inner" (fun () ->
          Sim_clock.advance clk 2;
          Metrics.incr m "rows");
      Sim_clock.advance clk 1);
  check Alcotest.int "depth balanced" 0 (Metrics.span_depth m);
  (match Metrics.spans m with
   | [ inner; outer ] ->
     check Alcotest.string "inner name" "inner" inner.Metrics.span_name;
     check (Alcotest.option Alcotest.string) "inner parent" (Some "outer")
       inner.Metrics.span_parent;
     check (Alcotest.float 1e-9) "inner duration" 2.0 inner.Metrics.span_duration;
     check Alcotest.string "outer name" "outer" outer.Metrics.span_name;
     check (Alcotest.option Alcotest.string) "outer parent" None outer.Metrics.span_parent;
     check (Alcotest.float 1e-9) "outer duration" 4.0 outer.Metrics.span_duration
   | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* finishing also observes the duration into a histogram of the name *)
  check Alcotest.int "inner observed" 1 (Metrics.observed_count m "inner");
  check (Alcotest.float 1e-9) "inner observed sum" 2.0 (Metrics.observed_sum m "inner")

let span_finish_idempotent () =
  let m = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock m clk;
  let sp = Metrics.start_span m "once" in
  Sim_clock.advance clk 2;
  Metrics.finish_span sp;
  Metrics.finish_span sp;
  check Alcotest.int "one record" 1 (List.length (Metrics.spans m));
  check Alcotest.int "one observation" 1 (Metrics.observed_count m "once");
  check Alcotest.int "depth" 0 (Metrics.span_depth m)

(* property: arbitrarily nested with_span calls — some unwinding through
   exceptions — always leave the stack balanced and record one span per
   entered region: the rollup counts every one, the record ring keeps
   the newest [span_ring] (a generated list can hold 10,000 depths) *)
let prop_span_balance =
  QCheck.Test.make ~name:"span nesting stays balanced" ~count:100
    QCheck.(list (int_bound 5))
    (fun depths ->
      let m = Metrics.create () in
      let clk = Sim_clock.create () in
      Metrics.use_sim_clock m clk;
      List.iter
        (fun d ->
          let rec nest k =
            if k = 0 then Sim_clock.advance clk 1
            else Metrics.with_span m (Printf.sprintf "s%d" k) (fun () -> nest (k - 1))
          in
          if d land 1 = 1 then (
            (* odd depths raise out of the innermost frame *)
            try
              Metrics.with_span m "err" (fun () ->
                  nest d;
                  failwith "unwind")
            with Failure _ -> ())
          else nest d)
        depths;
      let expected =
        List.fold_left (fun acc d -> acc + d + (if d land 1 = 1 then 1 else 0)) 0 depths
      in
      Metrics.span_depth m = 0
      && List.length (Metrics.spans m) = min expected Metrics.span_ring
      && List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 (Metrics.span_rollup m) = expected)

(* ---------- recording sink ---------- *)

let metrics_sink_mirrors () =
  let s = Metrics.create () in
  Metrics.with_sink (Some s) (fun () ->
      let m = Metrics.create () in
      let clk = Sim_clock.create () in
      Metrics.use_sim_clock m clk;
      Metrics.incr m "c";
      Metrics.observe m "h" 0.25;
      Metrics.with_span m "sp" (fun () -> Sim_clock.advance clk 1);
      check Alcotest.int "counter mirrored" 1 (Metrics.get s "c");
      check Alcotest.int "histogram mirrored" 1 (Metrics.observed_count s "h");
      check Alcotest.int "span record mirrored" 1 (List.length (Metrics.spans s));
      (* mutating the sink itself stays local: no recursion *)
      Metrics.incr s "own";
      check Alcotest.int "sink-local counter" 1 (Metrics.get s "own"));
  let m2 = Metrics.create () in
  Metrics.incr m2 "c2";
  check Alcotest.int "not mirrored after unset" 0 (Metrics.get s "c2")

let metrics_to_json () =
  let m = Metrics.create () in
  let clk = Sim_clock.create () in
  Metrics.use_sim_clock m clk;
  Metrics.add m "n" 7;
  Metrics.set_gauge m "g" 1.5;
  Metrics.with_span m "work" (fun () -> Sim_clock.advance clk 2);
  let j = Metrics.to_json m in
  let get path =
    List.fold_left (fun j k -> Option.get (Json.member k j)) j path
  in
  check Alcotest.bool "counter" true (get [ "counters"; "n" ] = Json.Int 7);
  check Alcotest.bool "gauge" true (Json.to_number (get [ "gauges"; "g" ]) = Some 1.5);
  check Alcotest.bool "histogram count" true
    (Json.member "count" (get [ "histograms"; "work" ]) = Some (Json.Int 1));
  match Json.to_list (get [ "spans" ]) with
  | Some [ sp ] ->
    check Alcotest.bool "span name" true (Json.member "name" sp = Some (Json.String "work"));
    check Alcotest.bool "span count" true (Json.member "count" sp = Some (Json.Int 1))
  | _ -> Alcotest.fail "expected one span rollup entry"

(* ---------- json ---------- *)

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5; Json.Float 2.0 ]);
        ("s", Json.String "he\"llo\n\ttab\\");
        ("empty", Json.Obj []);
        ("nested", Json.Obj [ ("l", Json.List []) ]);
      ]
  in
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty doc) with
      | Ok j -> check Alcotest.bool "roundtrip equal" true (j = doc)
      | Error e -> Alcotest.failf "roundtrip parse error: %s" e)
    [ false; true ]

let json_special_floats () =
  (* JSON has no nan/inf: they serialize as null so documents re-parse *)
  check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf" "null" (Json.to_string (Json.Float Float.infinity))

let json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "" ]

let json_accessors () =
  match Json.of_string {|{"x": 3, "y": [1.5, "s"], "z": null}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j ->
    check Alcotest.bool "member x" true (Json.member "x" j = Some (Json.Int 3));
    check Alcotest.bool "member absent" true (Json.member "w" j = None);
    check Alcotest.bool "to_number int" true (Json.to_number (Json.Int 3) = Some 3.0);
    (match Json.member "y" j with
     | Some (Json.List [ f; s ]) ->
       check Alcotest.bool "float elem" true (Json.to_number f = Some 1.5);
       check Alcotest.bool "string elem" true (Json.to_str s = Some "s")
     | _ -> Alcotest.fail "y should be a 2-list")

let clock_basic () =
  let c = Sim_clock.create () in
  check Alcotest.int "t0" 0 (Sim_clock.now c);
  Sim_clock.advance c 5;
  Sim_clock.advance c 3;
  check Alcotest.int "t8" 8 (Sim_clock.now c)

let clock_spans () =
  let c = Sim_clock.create () in
  let r = Sim_clock.Span_recorder.create c in
  Sim_clock.advance c 10;
  Sim_clock.Span_recorder.open_span r;
  Sim_clock.advance c 4;
  Sim_clock.Span_recorder.close_span r;
  Sim_clock.advance c 100;
  Sim_clock.Span_recorder.open_span r;
  Sim_clock.advance c 6;
  Sim_clock.Span_recorder.close_span r;
  check Alcotest.int "total" 10 (Sim_clock.Span_recorder.total r);
  check Alcotest.int "count" 2 (Sim_clock.Span_recorder.count r)

let clock_open_span_counts () =
  let c = Sim_clock.create () in
  let r = Sim_clock.Span_recorder.create c in
  Sim_clock.Span_recorder.open_span r;
  Sim_clock.advance c 3;
  check Alcotest.int "open span total" 3 (Sim_clock.Span_recorder.total r);
  (* double open is a no-op *)
  Sim_clock.Span_recorder.open_span r;
  Sim_clock.advance c 2;
  Sim_clock.Span_recorder.close_span r;
  check Alcotest.int "total after close" 5 (Sim_clock.Span_recorder.total r)

let human_bytes () =
  check Alcotest.string "b" "100B" (Fmt_util.human_bytes 100);
  check Alcotest.string "kb" "1.5KB" (Fmt_util.human_bytes 1536);
  check Alcotest.string "mb" "2MB" (Fmt_util.human_bytes (2 * 1024 * 1024))

let human_duration () =
  check Alcotest.string "ms" "250ms" (Fmt_util.human_duration 0.25);
  check Alcotest.string "s" "2.50s" (Fmt_util.human_duration 2.5);
  check Alcotest.string "min" "2min 5s" (Fmt_util.human_duration 125.0);
  check Alcotest.string "hr" "1hr 8min" (Fmt_util.human_duration 4080.0)

let table_render () =
  let s = Fmt_util.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 4 (List.length lines);
  List.iter
    (fun line -> check Alcotest.bool "aligned" true (String.length line >= 6))
    lines

(* ---------- backoff ---------- *)

module Backoff = Dw_util.Backoff
module Breaker = Dw_util.Breaker

let backoff_deterministic () =
  let mk () = Backoff.create ~sleep:ignore ~base_s:0.5 ~seed:99 () in
  let a = mk () and b = mk () in
  for attempt = 0 to 9 do
    check (Alcotest.float 0.0) "same pause sequence" (Backoff.pause_s a ~attempt)
      (Backoff.pause_s b ~attempt)
  done

let backoff_equal_jitter_bounds () =
  (* attempt n pauses in [base/2 * 2^n, base * 2^n): half fixed, half
     uniform jitter — never sooner than half the nominal pause *)
  let p = Backoff.create ~sleep:ignore ~base_s:1.0 ~seed:3 () in
  for attempt = 0 to 6 do
    let base = 2.0 ** float_of_int attempt in
    let v = Backoff.pause_s p ~attempt in
    check Alcotest.bool "pause in [base/2, base)" true (v >= base /. 2.0 && v < base)
  done

let backoff_cap () =
  let p = Backoff.create ~sleep:ignore ~max_s:4.0 ~base_s:1.0 ~seed:5 () in
  for attempt = 0 to 20 do
    check Alcotest.bool "pause capped at max_s" true (Backoff.pause_s p ~attempt <= 4.0)
  done

let backoff_zero_base () =
  let slept = ref 0.0 in
  let p = Backoff.create ~sleep:(fun s -> slept := !slept +. s) ~base_s:0.0 ~seed:1 () in
  for attempt = 0 to 5 do
    check (Alcotest.float 0.0) "no pause" 0.0 (Backoff.wait p ~attempt)
  done;
  check (Alcotest.float 0.0) "never slept" 0.0 !slept

let backoff_wait_sleeps () =
  let slept = ref 0.0 in
  let p = Backoff.create ~sleep:(fun s -> slept := !slept +. s) ~base_s:0.25 ~seed:11 () in
  let p0 = Backoff.wait p ~attempt:0 in
  let p1 = Backoff.wait p ~attempt:1 in
  check (Alcotest.float 1e-9) "slept exactly the returned pauses" (p0 +. p1) !slept

let backoff_rejects_bad_args () =
  (match Backoff.create ~base_s:(-1.0) ~seed:1 () with
   | (_ : Backoff.t) -> Alcotest.fail "negative base accepted"
   | exception Invalid_argument _ -> ());
  let p = Backoff.create ~sleep:ignore ~base_s:1.0 ~seed:1 () in
  match Backoff.pause_s p ~attempt:(-1) with
  | (_ : float) -> Alcotest.fail "negative attempt accepted"
  | exception Invalid_argument _ -> ()

(* ---------- circuit breaker (fake clock) ---------- *)

let breaker_cfg =
  {
    Breaker.failure_threshold = 2;
    reset_timeout_s = 8.0;
    probe_successes = 1;
    max_reset_timeout_s = 64.0;
    seed = 21;
  }

let mk_breaker () =
  let now = ref 0.0 in
  let b = Breaker.create ~config:breaker_cfg ~clock:(fun () -> !now) () in
  (b, now)

let breaker_trips_at_threshold () =
  let b, _now = mk_breaker () in
  check Alcotest.bool "starts closed" true (Breaker.state b = Breaker.Closed);
  check Alcotest.bool "closed allows" true (Breaker.allow b);
  Breaker.record_failure b;
  check Alcotest.int "one consecutive failure" 1 (Breaker.consecutive_failures b);
  check Alcotest.bool "below threshold stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_success b;
  check Alcotest.int "success resets the count" 0 (Breaker.consecutive_failures b);
  Breaker.record_failure b;
  Breaker.record_failure b;
  check Alcotest.bool "threshold trips open" true (Breaker.state b = Breaker.Open);
  check Alcotest.int "one trip" 1 (Breaker.trips b);
  check Alcotest.bool "open refuses before the dwell" false (Breaker.allow b)

let breaker_dwell_then_probe_heals () =
  let b, now = mk_breaker () in
  Breaker.record_failure b;
  Breaker.record_failure b;
  (* first dwell is jittered in [4, 8): the full nominal dwell always
     admits the probe, time zero never does *)
  check Alcotest.bool "refused at trip time" false (Breaker.allow b);
  now := 8.0;
  check Alcotest.bool "probe admitted after the dwell" true (Breaker.allow b);
  check Alcotest.bool "half-open" true (Breaker.state b = Breaker.Half_open);
  check Alcotest.int "one probe" 1 (Breaker.probes b);
  Breaker.record_success b;
  check Alcotest.bool "probe success closes" true (Breaker.state b = Breaker.Closed)

let breaker_failed_probe_doubles_dwell () =
  let b, now = mk_breaker () in
  Breaker.record_failure b;
  Breaker.record_failure b;
  now := 8.0;
  check Alcotest.bool "probe admitted" true (Breaker.allow b);
  Breaker.record_failure b;
  check Alcotest.bool "failed probe reopens" true (Breaker.state b = Breaker.Open);
  check Alcotest.int "reopen counts as a trip" 2 (Breaker.trips b);
  (* second dwell is jittered in [8, 16): not elapsed just short of the
     doubled nominal floor, always elapsed at the doubled ceiling *)
  now := 8.0 +. 7.999;
  check Alcotest.bool "still refused inside the doubled dwell" false (Breaker.allow b);
  now := 8.0 +. 16.0;
  check Alcotest.bool "re-probe after the doubled dwell" true (Breaker.allow b);
  Breaker.record_success b;
  check Alcotest.bool "closes again" true (Breaker.state b = Breaker.Closed);
  (* closing resets the dwell backoff: the next trip dwells [4, 8) again *)
  Breaker.record_failure b;
  Breaker.record_failure b;
  now := !now +. 8.0;
  check Alcotest.bool "dwell backoff reset by the close" true (Breaker.allow b)

let breaker_reset_and_force_open () =
  let b, _now = mk_breaker () in
  Breaker.force_open b;
  check Alcotest.bool "force_open trips" true (Breaker.state b = Breaker.Open);
  check Alcotest.bool "refused while quarantined" false (Breaker.allow b);
  Breaker.reset b;
  check Alcotest.bool "reset closes" true (Breaker.state b = Breaker.Closed);
  check Alcotest.bool "allowed after reset" true (Breaker.allow b);
  check Alcotest.int "counts cleared" 0 (Breaker.consecutive_failures b)

(* ---------- metric handles ---------- *)

let handle_and_name_share_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "k" in
  check Alcotest.bool "absent until first use" false (List.mem_assoc "k" (Metrics.snapshot m));
  Metrics.bump c 2;
  Metrics.incr m "k";
  Metrics.bump c 1;
  check Alcotest.int "handle and name move one counter" 4 (Metrics.get m "k");
  let h = Metrics.hist m "h" in
  check Alcotest.int "histogram absent until first use" 0 (List.length (Metrics.histograms m));
  Metrics.record h 0.5;
  Metrics.observe m "h" 1.5;
  check Alcotest.int "handle and name feed one histogram" 2 (Metrics.observed_count m "h");
  check (Alcotest.float 1e-12) "summed" 2.0 (Metrics.observed_sum m "h")

(* a handle that kept its cell across a reset would count into the
   cleared entry: the key would stay absent and [get] would read 0 *)
let handle_survives_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "k" and h = Metrics.hist m "h" in
  Metrics.bump c 5;
  Metrics.record h 1.0;
  Metrics.reset m;
  check Alcotest.int "reset cleared the counter" 0 (Metrics.get m "k");
  Metrics.bump c 1;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "key re-created at 1"
    [ ("k", 1) ] (Metrics.snapshot m);
  Metrics.incr m "k";
  check Alcotest.int "name path sees the same cell" 2 (Metrics.get m "k");
  Metrics.record h 2.0;
  check Alcotest.int "histogram re-created" 1 (Metrics.observed_count m "h");
  check (Alcotest.float 0.0) "holds only the new sample" 2.0 (Metrics.observed_sum m "h")

let handle_mirrors_into_sink () =
  let s = Metrics.create () in
  Metrics.with_sink (Some s) (fun () ->
      let m = Metrics.create () in
      let c = Metrics.counter m "c" and h = Metrics.hist m "h" in
      Metrics.bump c 3;
      Metrics.incr m "c";
      Metrics.record h 0.25;
      Metrics.observe m "h" 0.75;
      check Alcotest.int "counter mirrored" 4 (Metrics.get s "c");
      check Alcotest.int "histogram mirrored" 2 (Metrics.observed_count s "h");
      check (Alcotest.float 0.0) "samples mirrored" 1.0 (Metrics.observed_sum s "h");
      (* a handle on the sink itself stays local: no recursion *)
      Metrics.bump (Metrics.counter s "own") 1;
      check Alcotest.int "sink-local counter" 1 (Metrics.get s "own"))

let handle_kind_clash () =
  let m = Metrics.create () in
  Metrics.incr m "n";
  Metrics.observe m "h" 1.0;
  (* building a handle touches nothing; its first use raises *)
  let wrong_hist = Metrics.hist m "n" and wrong_counter = Metrics.counter m "h" in
  (try
     Metrics.record wrong_hist 1.0;
     Alcotest.fail "recording into a counter should raise"
   with Invalid_argument _ -> ());
  (try
     Metrics.bump wrong_counter 1;
     Alcotest.fail "bumping a histogram should raise"
   with Invalid_argument _ -> ());
  check Alcotest.int "counter untouched" 1 (Metrics.get m "n");
  check Alcotest.int "histogram untouched" 1 (Metrics.observed_count m "h")

let handle_counts_exactly_across_domains () =
  let m = Metrics.create () in
  let c = Metrics.counter m "k" in
  let n = 100_000 in
  let work () =
    for _ = 1 to n do
      Metrics.bump c 1
    done;
    for _ = 1 to n do
      Metrics.incr m "k"
    done
  in
  let ds = List.init 2 (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  check Alcotest.int "every increment counted" (4 * n) (Metrics.get m "k")

let suite =
  [
    test "prng deterministic" prng_deterministic;
    test "prng seed sensitivity" prng_seed_sensitivity;
    test "prng bounds" prng_bounds;
    test "prng split independent" prng_split_independent;
    test "prng float range" prng_float_range;
    test "prng shuffle permutation" prng_shuffle_permutation;
    test "prng alpha string" prng_alpha_string;
    test "metrics basic" metrics_basic;
    test "metrics snapshot diff" metrics_snapshot_diff;
    test "metrics reset" metrics_reset;
    test "metrics reset clears entries" metrics_reset_clears_entries;
    test "metrics gauges" metrics_gauges;
    test "metrics kind mismatch" metrics_kind_mismatch;
    test "histogram empty/single sample" hist_empty_and_single;
    test "histogram overflow edges" hist_overflow_edges;
    test "histogram bucket error bound" hist_bucket_error_bound;
    test "timer with sim clock" timer_sim_clock;
    test "spans nesting" spans_nesting;
    test "span finish idempotent" span_finish_idempotent;
    QCheck_alcotest.to_alcotest prop_span_balance;
    test "metrics sink mirrors" metrics_sink_mirrors;
    test "metrics to_json" metrics_to_json;
    test "json roundtrip" json_roundtrip;
    test "json special floats" json_special_floats;
    test "json rejects malformed" json_rejects_malformed;
    test "json accessors" json_accessors;
    test "clock basic" clock_basic;
    test "clock spans" clock_spans;
    test "clock open span counts" clock_open_span_counts;
    test "human bytes" human_bytes;
    test "human duration" human_duration;
    test "table render" table_render;
    test "backoff deterministic under a seed" backoff_deterministic;
    test "backoff equal-jitter bounds" backoff_equal_jitter_bounds;
    test "backoff respects max_s" backoff_cap;
    test "backoff zero base never pauses" backoff_zero_base;
    test "backoff wait sleeps the drawn pause" backoff_wait_sleeps;
    test "backoff rejects bad arguments" backoff_rejects_bad_args;
    test "breaker trips at the failure threshold" breaker_trips_at_threshold;
    test "breaker dwell then probe heals" breaker_dwell_then_probe_heals;
    test "breaker failed probe doubles the dwell" breaker_failed_probe_doubles_dwell;
    test "breaker reset and force_open" breaker_reset_and_force_open;
    test "metric handle and name share a counter" handle_and_name_share_counter;
    test "metric handle re-resolves after reset" handle_survives_reset;
    test "metric handle mirrors into the sink" handle_mirrors_into_sink;
    test "metric handle kind clash raises on first use" handle_kind_clash;
    test "metric handle counts exactly across domains" handle_counts_exactly_across_domains;
  ]
