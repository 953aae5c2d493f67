(* dwperf smoke test: every workload at 1/50 size, with seed 1 once for
   one epoch and once under a budget that fits several, and with seed 2
   for one epoch.  The deterministic counts must repeat exactly, however
   many epochs a run holds; the seeds must generate different streams;
   the correctness gate must pass; and a run must report exactly the
   metric names and units BENCHMARK.json lists, so the document and the
   code cannot drift. *)

open Dwperf
module Json = Dw_util.Json

let div = 50

(* [seconds] 0 runs exactly one epoch *)
let run ?(seconds = 0.0) kind ~seed = Runner.run ~div kind ~seed ~seconds ~traced:true

let value metrics name =
  match List.find_opt (fun x -> x.Catalog.name = name) metrics with
  | Some x -> x.Catalog.value
  | None -> Alcotest.failf "metric %s missing" name

let deterministic =
  [
    "capture.bytes_per_txn"; "integrate.row_ops_per_txn"; "pipeline.shipped_bytes_per_txn";
    "wh.wal.appends_per_txn";
  ]

let first_statements kind ~seed =
  let s = Scenario.stream kind ~seed ~rows:(Scenario.shape ~div kind).Scenario.rows in
  List.concat (List.init 20 (fun _ -> List.map Dw_sql.Printer.to_string (Scenario.next s)))

(* (name, unit) of one section of BENCHMARK.json *)
let listed section =
  let doc = In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all in
  match Json.of_string doc with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok j ->
    let str k e = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_str) in
    List.map
      (fun e -> (str "name" e, str "unit" e))
      (Option.value ~default:[] (Option.bind (Json.member section j) Json.to_list))

let names metrics = List.map (fun x -> (x.Catalog.name, x.Catalog.unit_)) metrics

let check_workload kind () =
  let a = run kind ~seed:1 in
  let b = run kind ~seed:1 ~seconds:(4.0 *. a.Runner.raw_s) in
  Alcotest.(check bool) "the budget fits several epochs" true (b.Runner.epochs > 1);
  List.iter
    (fun r ->
      match r.Runner.gate with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: correctness gate: %s" (Scenario.name kind) e)
    [ a; b ];
  Alcotest.(check int) "no failures" 0 (Catalog.failed a);
  let la = Catalog.per_layer a and lb = Catalog.per_layer b in
  List.iter
    (fun name -> Alcotest.(check (float 0.0)) name (value la name) (value lb name))
    deterministic;
  Alcotest.(check bool)
    "seed 2 generates a different stream" false
    (first_statements kind ~seed:1 = first_statements kind ~seed:2);
  let c = run kind ~seed:2 in
  Alcotest.(check bool) "seed 2 passes the gate" true (c.Runner.gate = Ok ());
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics = BENCHMARK.json" (listed "end_to_end")
    (names (Catalog.end_to_end a));
  Alcotest.(check (list (pair string string)))
    "per-layer metrics = BENCHMARK.json" (listed "per_layer") (names la)

let verdict ~lower a b = Compare.verdict_name (Compare.verdict ~lower ~bound:0.1 a b)

let test_compare () =
  let a = [ 10.0; 10.2; 9.9; 10.1; 10.0 ] in
  Alcotest.(check string) "same" "unchanged" (verdict ~lower:true a a);
  Alcotest.(check string) "faster" "improved" (verdict ~lower:true a (List.map (( *. ) 0.8) a));
  Alcotest.(check string) "slower" "regressed" (verdict ~lower:true a (List.map (( *. ) 1.3) a));
  Alcotest.(check string) "higher is better" "improved" (verdict ~lower:false a (List.map (( *. ) 1.3) a));
  Alcotest.(check string) "noisy" "unresolved" (verdict ~lower:true [ 5.0; 10.0; 15.0; 8.0; 12.0 ] a);
  Alcotest.(check (list (float 1e-9)))
    "quartiles as Python's statistics.quantiles" [ 1.5; 3.0; 4.5 ]
    (let q1, q2, q3 = Samples.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
     [ q1; q2; q3 ])

let () =
  Alcotest.run "dwperf"
    [
      ( "workloads",
        List.map (fun k -> Alcotest.test_case (Scenario.name k) `Quick (check_workload k)) Scenario.all
      );
      ("compare", [ Alcotest.test_case "verdict rule" `Quick test_compare ]);
    ]
