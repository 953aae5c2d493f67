(* dwbench — command-line driver for the delta-extraction experiment
   suite (cmdliner interface over Dw_experiments.Registry).

     dwbench run t1 t2 --scale 2
     dwbench run t3 w1 --json out.json   # machine-readable results
     dwbench stats t3                    # metrics tables after the run
     dwbench check out.json --baseline BENCH_dwbench.json   # the bench gate
     dwbench list *)

open Cmdliner
module E = Dw_experiments
module Metrics = Dw_util.Metrics
module Json = Dw_util.Json
module Fmt_util = Dw_util.Fmt_util

module Registry = E.Registry

let unknown_ids_error u = `Error (false, Registry.unknown_ids_message u)

(* Run each selected experiment under a fresh sink registry: every
   counter/histogram mutation and finished span anywhere in the process
   (the experiments build many private Vfs instances, each with its own
   registry) is mirrored into the sink, giving one merged per-experiment
   view.  Returns (id, wall seconds, captured registry) per experiment. *)
let run_captured ~scale ids =
  List.map
    (fun { Registry.id; run; _ } ->
      let sink = Metrics.create () in
      Metrics.with_sink (Some sink) (fun () ->
          let t0 = Unix.gettimeofday () in
          run ~scale;
          (id, Unix.gettimeofday () -. t0, sink)))
    (Registry.select ids)

let experiment_json (id, wall, sink) =
  match Metrics.to_json sink with
  | Json.Obj fields -> Json.Obj (("id", Json.String id) :: ("wall_s", Json.Float wall) :: fields)
  | j -> Json.Obj [ ("id", Json.String id); ("wall_s", Json.Float wall); ("metrics", j) ]

let write_json ~file ~scale ~quick results =
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("suite", Json.String "dwbench");
        ("scale", Json.Int scale);
        ("quick", Json.Bool quick);
        ("experiments", Json.List (List.map experiment_json results));
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d experiment%s)\n" file (List.length results)
    (if List.length results = 1 then "" else "s");
  (* gate what was just written: shape always, the whole gate table when
     the run covered the gated experiments.  A rejected document still
     lands on disk for inspection, but dwbench exits non-zero so CI
     cannot ship it. *)
  let strict =
    List.for_all
      (fun id -> List.exists (fun (i, _, _) -> i = id) results)
      E.Bench_gate.gated_ids
  in
  match E.Bench_gate.check ~strict doc with
  | Ok report ->
    print_string (E.Bench_gate.render report);
    if report.E.Bench_gate.failures > 0 then exit 1
  | Error msg ->
    Printf.eprintf "bench-gate: %s REJECTED: %s\n" file msg;
    exit 1

let print_stats (id, wall, sink) =
  Printf.printf "\n==== metrics: %s (wall %s) ====\n" id (Fmt_util.human_duration wall);
  let counters = Metrics.snapshot sink in
  if counters <> [] then begin
    print_newline ();
    print_string
      (Fmt_util.table ~header:[ "counter"; "value" ]
         ~rows:(List.map (fun (k, v) -> [ k; string_of_int v ]) counters))
  end;
  let gauges = Metrics.gauges sink in
  if gauges <> [] then begin
    print_newline ();
    print_string
      (Fmt_util.table ~header:[ "gauge"; "value" ]
         ~rows:(List.map (fun (k, v) -> [ k; Printf.sprintf "%.6g" v ]) gauges))
  end;
  let hists = Metrics.histograms sink in
  if hists <> [] then begin
    print_newline ();
    let d = Fmt_util.human_duration in
    print_string
      (Fmt_util.table
         ~header:[ "histogram"; "count"; "p50"; "p95"; "p99"; "max" ]
         ~rows:
           (List.map
              (fun (name, (s : Metrics.histogram_summary)) ->
                [ name; string_of_int s.count; d s.p50; d s.p95; d s.p99; d s.vmax ])
              hists))
  end;
  let rollup = Metrics.span_rollup sink in
  if rollup <> [] then begin
    print_newline ();
    print_string
      (Fmt_util.table
         ~header:[ "span"; "parent"; "count"; "total" ]
         ~rows:
           (List.map
              (fun (name, parent, n, total) ->
                [ name; Option.value parent ~default:"-"; string_of_int n;
                  Fmt_util.human_duration total ])
              rollup))
  end

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun { Registry.id; description; _ } -> Printf.printf "%-6s %s\n" id description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let ids_arg =
  let doc =
    Printf.sprintf "Experiment ids (%s or 'all')." (String.concat ", " Registry.ids)
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor (>= 1).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Shrink workloads ~25x and drop repetitions: same shapes, CI-sized runtimes. \
           Numbers from quick runs are not for quoting.")

let run_cmd =
  let doc = "Run selected experiments (or all)." in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write per-experiment metrics (counters, gauges, latency histograms, span \
             rollups) as JSON to $(docv).")
  in
  let run scale quick json ids =
    if scale < 1 then `Error (false, "--scale must be >= 1")
    else
      match Registry.unknown_ids ids with
      | _ :: _ as u -> unknown_ids_error u
      | [] ->
        E.Bench_support.set_quick quick;
        (match json with
         | None -> List.iter (fun x -> x.Registry.run ~scale) (Registry.select ids)
         | Some file ->
           let results = run_captured ~scale ids in
           write_json ~file ~scale ~quick results);
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ scale_arg $ quick_arg $ json_arg $ ids_arg))

let stats_cmd =
  let doc =
    "Run selected experiments and print their captured metrics: counter totals, gauges, \
     latency percentiles, and a trace-span rollup."
  in
  let run scale quick ids =
    if scale < 1 then `Error (false, "--scale must be >= 1")
    else
      match Registry.unknown_ids ids with
      | _ :: _ as u -> unknown_ids_error u
      | [] ->
        E.Bench_support.set_quick quick;
        let results = run_captured ~scale ids in
        List.iter print_stats results;
        `Ok ()
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ scale_arg $ quick_arg $ ids_arg))

let check_cmd =
  let doc =
    "Check a dwbench --json document against the bench gate table: required histograms \
     and gauges, their relations, and with --baseline their drift from a baseline run in \
     the same mode.  Exits non-zero when a gated key fails."
  in
  let doc_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let base_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"BASE" ~doc:"Also gate drift against the document $(docv).")
  in
  let read path =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> Ok doc
    | Error e -> Error (Printf.sprintf "%s does not parse: %s" path e)
    | exception Sys_error e -> Error e
  in
  let run path base =
    let checked =
      Result.bind (read path) (fun doc ->
          match base with
          | None -> E.Bench_gate.check doc
          | Some base -> Result.bind (read base) (fun baseline -> E.Bench_gate.check ~baseline doc))
    in
    match checked with
    | Error e -> `Error (false, e)
    | Ok report ->
      print_string (E.Bench_gate.render report);
      if report.E.Bench_gate.failures > 0 then exit 1;
      `Ok ()
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ doc_arg $ base_arg))

let () =
  let doc = "delta-extraction experiment suite (Ram & Do, ICDE 2000 reproduction)" in
  let info = Cmd.info "dwbench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; stats_cmd; check_cmd; list_cmd ]))
