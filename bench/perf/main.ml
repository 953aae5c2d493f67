(* dwperf: the end-to-end refresh benchmark (see bench/perf/README.md).

     dwperf run --workload NAME --seed N [--seconds S] [--trace 0|1]
     dwperf trace NAME [--seed N] [--seconds S] [--out FILE]
     dwperf compare A.json ... -- B.json ... [--bench BENCHMARK.json]

   [run] prints one result object as its last line: the end-to-end
   metrics, or with [--trace 1] the per-layer ones.  It exits non-zero,
   reporting no metrics, when the correctness gate fails. *)

open Dwperf
module Json = Dw_util.Json

let usage () =
  prerr_endline
    "usage: dwperf run --workload NAME --seed N [--seconds S] [--trace 0|1]\n\
    \       dwperf trace NAME [--seed N] [--seconds S] [--out FILE]\n\
    \       dwperf compare A.json ... -- B.json ... [--bench BENCHMARK.json]";
  exit 2

(* "--flag value" pairs and positional arguments *)
let rec parse flags pos = function
  | [] -> (flags, List.rev pos)
  | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
    parse ((String.sub f 2 (String.length f - 2), v) :: flags) pos rest
  | [ f ] when String.length f > 2 && String.sub f 0 2 = "--" -> usage ()
  | p :: rest -> parse flags (p :: pos) rest

let flag flags k = List.assoc_opt k flags

let int_flag flags k ~default =
  match flag flags k with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let kind_of s =
  match Scenario.of_name s with
  | Some k -> k
  | None ->
    Printf.eprintf "dwperf: unknown workload %S; workloads: %s\n" s
      (String.concat ", " (List.map Scenario.name Scenario.all));
    exit 2

let seconds flags =
  match Option.map float_of_string_opt (flag flags "seconds") with
  | None -> 15.0
  | Some (Some x) when x > 0.0 -> x
  | Some _ -> usage ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let trace_doc (r : Runner.result) ~overhead =
  Json.Obj
    [
      ("workload", Json.String (Scenario.name r.kind)); ("seed", Json.Int r.seed);
      ( "metrics",
        Json.Obj
          (List.map (fun (_, x) -> (x.Catalog.name, Json.Float x.Catalog.value)) (Catalog.layers r))
      );
      ("trace_overhead_frac", Json.Float overhead); ("spans", Json.List r.spans);
    ]

let summary (r : Runner.result) =
  Printf.printf
    "dwperf %s seed %d: %d epochs, %d txns committed, %d rounds, %d queries in %.2f s; gate %s\n"
    (Scenario.name r.kind) r.seed r.epochs r.committed (Samples.length r.round_s)
    (Samples.length r.query_s) r.raw_s
    (match r.gate with Ok () -> "ok" | Error e -> "FAILED: " ^ e)

let gate_or_exit (r : Runner.result) =
  match r.gate with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "dwperf: correctness gate failed on %s: %s\n" (Scenario.name r.kind) e;
    print_endline
      (Json.to_string
         (Catalog.result_json ~correct:false ~attempted:(Catalog.attempted r)
            ~failed:(Catalog.failed r) []));
    exit 1

let cmd_run flags =
  let kind = kind_of (Option.value ~default:"" (flag flags "workload")) in
  let seed = int_flag flags "seed" ~default:1 in
  let traced = int_flag flags "trace" ~default:0 <> 0 in
  let r = Runner.run kind ~seed ~seconds:(seconds flags) ~traced in
  summary r;
  gate_or_exit r;
  let metrics = if traced then Catalog.per_layer r else Catalog.end_to_end r in
  print_endline
    (Json.to_string
       (Catalog.result_json ~correct:true ~attempted:(Catalog.attempted r)
          ~failed:(Catalog.failed r) metrics))

(* untraced then traced, same seed and seconds: the per-layer table, its
   attribution and what tracing cost *)
let cmd_trace flags name =
  let kind = kind_of name in
  let seed = int_flag flags "seed" ~default:1 in
  let seconds = seconds flags in
  let plain = Runner.run kind ~seed ~seconds ~traced:false in
  summary plain;
  gate_or_exit plain;
  let traced = Runner.run kind ~seed ~seconds ~traced:true in
  summary traced;
  gate_or_exit traced;
  let tps = Catalog.txn_per_s in
  let overhead = 1.0 -. Catalog.ratio (tps traced) (tps plain) in
  Printf.printf "\n%-32s %16s  %s\n" "end-to-end (untraced)" "value" "unit";
  List.iter
    (fun x -> Printf.printf "%-32s %16.6g  %s\n" x.Catalog.name x.Catalog.value x.Catalog.unit_)
    (Catalog.end_to_end plain);
  Printf.printf "\n%-32s %16s  %s\n" "per layer (traced)" "value" "unit";
  List.iter
    (fun (in_json, x) ->
      Printf.printf "%-32s %16.6g  %s%s\n" x.Catalog.name x.Catalog.value x.Catalog.unit_
        (if in_json then "" else "  (trace table only)"))
    (Catalog.layers traced);
  Printf.printf "\ntrace_overhead_frac %.4f (1 - traced txn/s %.1f / untraced %.1f)\n" overhead
    (tps traced) (tps plain);
  Option.iter
    (fun path -> write_file path (Json.to_string (trace_doc traced ~overhead)))
    (flag flags "out")

let cmd_compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  let a, rest = split [] args in
  let flags, b = parse [] [] rest in
  let bench = Option.value ~default:"BENCHMARK.json" (flag flags "bench") in
  if a = [] || b = [] then usage ();
  let verdicts = Compare.run ~bench a b in
  if List.mem Compare.Regressed verdicts then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    let flags, _ = parse [] [] args in
    cmd_run flags
  | "trace" :: name :: args ->
    let flags, _ = parse [] [] args in
    cmd_trace flags name
  | "compare" :: args -> cmd_compare args
  | _ -> usage ()
