(* The bench gate: one table, one row per gated key of a dwbench --json
   document.  [check] flattens the document (and the baseline, the same
   way) into histogram and gauge tables, then evaluates every row:
   presence, relations inside the document, drift against the baseline. *)

module Json = Dw_util.Json
module Fmt_util = Dw_util.Fmt_util

type kind = Histogram | Gauge
type cmp = Eq | Lt | Le | Gt | Ge
type operand = Const of float | Times of float * string
type relation = { cmp : cmp; rhs : operand; full_only : bool }
type drift = Exact | Lower_better of float | Higher_better of float
type row = { key : string; kind : kind; relations : relation list; drift : drift option }

let hist key = { key; kind = Histogram; relations = []; drift = None }
let gauge ?drift ?(rel = []) key = { key; kind = Gauge; relations = rel; drift }
let c x = Const x
let k key = Times (1.0, key)
let rel cmp rhs = { cmp; rhs; full_only = false }
let eq, lt, le, gt, ge = (rel Eq, rel Lt, rel Le, rel Gt, rel Ge)
let exact key = gauge key ~drift:Exact
let window key = gauge key ~drift:(Lower_better 3.0)

(* quick workloads are too small for stable parallel-speedup ratios *)
let full r = { r with full_only = true }

(* Relations hold deterministic results only (counter ratios, invariant
   flags, virtual-time work units) plus the w3 p95 contrast, whose gap is
   wide.  Drift: counts and work units are [Exact] (byte-identical across
   runs of the same code); wall-clock windows and throughput get loose
   regress-only bands, so CI runner noise and improvements never fail. *)
let table =
  [
    hist "wal.fsync"; hist "pool.miss"; hist "warehouse.refresh"; hist "wal.group_size";
    hist "warehouse.batch_size"; hist "w3.olap_latency_snapshot"; hist "w3.olap_latency_locking";
    hist "bootstrap.chunk_rows"; hist "w5.olap_latency_d1"; hist "w5.olap_latency_d4";
    hist "stage.bucket_ops"; hist "loadgen.latency_ms";
    (* t5: group >= 4 cuts fsyncs per txn at least 3x; batched transport
       and micro-batched refresh use strictly fewer fsyncs and txns *)
    gauge "t5.fsync_per_txn_g1" ~rel:[ ge (Times (3.0, "t5.fsync_per_txn_g4")) ] ~drift:Exact;
    gauge "t5.fsync_per_txn_g4" ~rel:[ gt (c 0.0) ] ~drift:Exact;
    gauge "t5.queue_fsync_per_msg_batched" ~rel:[ lt (k "t5.queue_fsync_per_msg_single") ]
      ~drift:Exact;
    gauge "t5.txns_batched" ~rel:[ lt (k "t5.txns_sequential") ] ~drift:Exact;
    exact "t5.fsync_per_txn_g16"; exact "t5.queue_fsync_per_msg_single"; exact "t5.ship_blocks";
    exact "t5.ship_msgs"; exact "t5.txns_sequential";
    window "t5.window_sequential_s"; window "t5.window_batched_s";
    (* w1: the paper's statement-count shape at 100-row transactions —
       Op-Delta runs one statement where the value delta runs one (delete)
       or two (update) per row, and the same count for inserts *)
    gauge "w1.statements_op_insert" ~rel:[ eq (k "w1.statements_value_insert") ] ~drift:Exact;
    gauge "w1.statements_op_delete" ~rel:[ lt (k "w1.statements_value_delete") ] ~drift:Exact;
    gauge "w1.statements_op_update" ~rel:[ lt (k "w1.statements_value_update") ] ~drift:Exact;
    exact "w1.statements_value_insert"; exact "w1.statements_value_delete";
    exact "w1.statements_value_update"; exact "w1.row_ops_value_insert";
    exact "w1.row_ops_value_delete"; exact "w1.row_ops_value_update";
    exact "w1.row_ops_op_insert"; exact "w1.row_ops_op_delete"; exact "w1.row_ops_op_update";
    (* both paths make the same view-backing writes: a value delta's
       DELETE + INSERT of one row nets to the one in-place update the
       Op-Delta's UPDATE makes *)
    gauge "w1.view_writes_op_insert" ~rel:[ eq (k "w1.view_writes_value_insert") ] ~drift:Exact;
    gauge "w1.view_writes_op_delete" ~rel:[ eq (k "w1.view_writes_value_delete") ] ~drift:Exact;
    gauge "w1.view_writes_op_update" ~rel:[ eq (k "w1.view_writes_value_update") ] ~drift:Exact;
    exact "w1.view_writes_value_insert"; exact "w1.view_writes_value_delete";
    exact "w1.view_writes_value_update";
    (* w3: snapshot readers are lock-free (scheduler-verified), locking
       readers are not, and it shows as a lower OLAP tail latency *)
    gauge "w3.olap_p95_snapshot_s" ~rel:[ lt (k "w3.olap_p95_locking_s") ];
    gauge "w3.lock_wait_count_snapshot" ~rel:[ eq (c 0.0) ];
    gauge "w3.reader_blocked_slices_snapshot" ~rel:[ eq (c 0.0) ];
    gauge "w3.reader_blocked_slices_locking" ~rel:[ ge (c 1.0) ];
    gauge "w3.olap_p95_locking_s"; gauge "w3.lock_wait_count_locking";
    gauge "w3.refresh_window_snapshot_s"; gauge "w3.refresh_window_locking_s";
    gauge "w3.batch_outage_s";
    (* w4: the crash sweep converged at every point, a resumed bootstrap
       re-does at most one chunk (a restart re-does all of them), and a
       second start under a live lease was refused; the sweep's point
       count is deterministic per mode *)
    gauge "w4.restart_chunks" ~rel:[ gt (k "w4.resume_extra_chunks") ];
    gauge "w4.resume_extra_chunks" ~rel:[ le (c 1.0) ];
    gauge "w4.lease_refused" ~rel:[ eq (c 1.0) ];
    gauge "w4.converged" ~rel:[ eq (c 1.0) ];
    gauge "w4.crash_points" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    (* w5: parallel OLAP returns exactly the sequential results, and at 4
       domains the scan is at least 2x the single-domain throughput *)
    gauge "w5.olap_qps_d1" ~drift:(Higher_better 0.75);
    gauge "w5.olap_qps_d4" ~drift:(Higher_better 0.75);
    window "w5.olap_p95_d1_s"; window "w5.olap_p95_d4_s";
    gauge "w5.speedup_d4" ~rel:[ gt (c 0.0); full (ge (c 2.0)) ] ~drift:(Higher_better 0.6);
    gauge "w5.identical" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "w5.partitions" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    (* t6: the partitioned refresh is identical to the sequential
       integrator and 4 partitions shrink the window at least 1.8x *)
    window "t6.window_p1_s"; window "t6.window_p4_s";
    gauge "t6.speedup_p4" ~rel:[ gt (c 0.0); full (ge (c 1.8)) ] ~drift:(Higher_better 0.6);
    gauge "t6.identical" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "t6.partitions" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    (* w6: under a flapping shard the breaker trips (flap + terminal
       outage) and probes, degraded reads never stall, the quarantined
       shard is rebuilt and re-admitted exactly once, `Fail_closed
       refuses, and the healed fleet equals the integrator and source *)
    gauge "w6.identical" ~rel:[ eq (c 1.0) ];
    gauge "w6.converged_with_source" ~rel:[ eq (c 1.0) ];
    gauge "w6.trips" ~rel:[ ge (c 2.0) ];
    gauge "w6.probes" ~rel:[ ge (c 1.0) ];
    gauge "w6.probe_failures" ~rel:[ ge (c 1.0) ];
    gauge "w6.recovered" ~rel:[ ge (c 1.0) ];
    gauge "w6.rebuilds" ~rel:[ eq (c 1.0) ];
    gauge "w6.readmitted" ~rel:[ eq (c 1.0) ];
    gauge "w6.degraded_reads" ~rel:[ ge (c 1.0) ];
    gauge "w6.fleet_stalls" ~rel:[ eq (c 0.0) ];
    gauge "w6.fail_closed_raised" ~rel:[ eq (c 1.0) ];
    gauge "w6.staleness_txns"; gauge "w6.recovery_s"; gauge "w6.delta_txns";
    (* t7: every arm but timestamp (blind to deletes) converges; the
       planner costs at most 1.15x the best static method and less than
       the worst in every phase; the mix shifts force a switch without a
       correctness fallback; the overload phase makes the valve shed *)
    gauge "t7.units_planned"; gauge "t7.units_trigger"; gauge "t7.units_log";
    gauge "t7.units_op_delta"; gauge "t7.units_snapshot"; gauge "t7.units_timestamp";
    exact "t7.planner_units"; exact "t7.best_static_units"; exact "t7.worst_static_units";
    gauge "t7.vs_best" ~rel:[ gt (c 0.0); le (c 1.15) ] ~drift:Exact;
    gauge "t7.below_worst" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "t7.identical" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "t7.statics_identical" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "t7.timestamp_diverged" ~rel:[ eq (c 1.0) ] ~drift:Exact;
    gauge "t7.switches" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    gauge "t7.fallbacks" ~rel:[ eq (c 0.0) ];
    gauge "t7.rounds" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    gauge "t7.offered" ~rel:[ ge (k "t7.admitted") ] ~drift:Exact;
    gauge "t7.admitted" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    gauge "t7.shed" ~rel:[ ge (c 1.0) ] ~drift:Exact;
    gauge "t7.slo_breaches" ~rel:[ ge (c 1.0) ];
    gauge "t7.slo_attainment" ~rel:[ gt (c 0.0); lt (c 1.0) ];
    gauge "t7.worst_p95_ms";
  ]

let gated_ids = [ "t3"; "w1"; "t5"; "w3"; "w4"; "w5"; "t6"; "w6"; "t7" ]

type outcome = { row : row; value : float option; base : float option; failure : string option }

type report = { summary : string; outcomes : outcome list; failures : int }

exception Reject of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Reject msg)) fmt

(* one document, flattened: its mode, experiment count, and the
   histograms and gauges of all its experiments *)
type flat = {
  quick : bool;
  experiments : int;
  hists : (string, unit) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let member name j =
  match Json.member name j with Some v -> v | None -> fail "missing key %S" name

let number ctx name j =
  match Json.to_number (member name j) with
  | Some v -> v
  | None -> fail "%s: %S is not a number" ctx name

let flatten doc =
  if Json.to_number (member "schema_version" doc) <> Some 1.0 then fail "schema_version is not 1";
  if Json.to_str (member "suite" doc) <> Some "dwbench" then fail "suite is not \"dwbench\"";
  let experiments =
    match Json.to_list (member "experiments" doc) with
    | Some [] -> fail "\"experiments\" is empty"
    | Some l -> l
    | None -> fail "\"experiments\" is not a list"
  in
  let hists = Hashtbl.create 32 and gauges = Hashtbl.create 128 in
  List.iter
    (fun e ->
      let id =
        match Json.to_str (member "id" e) with
        | Some s -> s
        | None -> fail "experiment \"id\" is not a string"
      in
      ignore (number id "wall_s" e : float);
      (match Json.member "counters" e with
       | Some (Json.Obj _) -> ()
       | _ -> fail "experiment %S: \"counters\" is not an object" id);
      (match Json.member "gauges" e with
       | Some (Json.Obj fields) ->
         List.iter
           (fun (name, v) ->
             match Json.to_number v with
             | Some x -> Hashtbl.replace gauges name x
             | None -> fail "experiment %S: gauge %S is not a number" id name)
           fields
       | Some _ -> fail "experiment %S: \"gauges\" is not an object" id
       | None -> ());
      match Json.member "histograms" e with
      | Some (Json.Obj fields) ->
        List.iter
          (fun (name, h) ->
            let ctx = Printf.sprintf "experiment %S histogram %S" id name in
            let count = number ctx "count" h in
            if count < 1.0 then fail "%s: empty (count = %g)" ctx count;
            List.iter
              (fun p -> ignore (number ctx p h : float))
              [ "sum"; "min"; "max"; "p50"; "p95"; "p99" ];
            Hashtbl.replace hists name ())
          fields
      | _ -> fail "experiment %S: \"histograms\" is not an object" id)
    experiments;
  let quick = match Json.member "quick" doc with Some (Json.Bool b) -> b | _ -> false in
  { quick; experiments = List.length experiments; hists; gauges }

let cmp_name = function Eq -> "=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let relation_text r =
  let rhs =
    match r.rhs with
    | Const x -> Printf.sprintf "%g" x
    | Times (1.0, key) -> key
    | Times (f, key) -> Printf.sprintf "%g x %s" f key
  in
  Printf.sprintf "%s %s%s" (cmp_name r.cmp) rhs (if r.full_only then " (full)" else "")

let drift_text = function
  | Exact -> "exact"
  | Lower_better t -> Printf.sprintf "<= +%.0f%%" (t *. 100.0)
  | Higher_better t -> Printf.sprintf ">= -%.0f%%" (t *. 100.0)

(* a missing operand fails its own row, not this one *)
let violated d v r =
  let holds x =
    match r.cmp with Eq -> v = x | Lt -> v < x | Le -> v <= x | Gt -> v > x | Ge -> v >= x
  in
  match r.rhs with
  | _ when r.full_only && d.quick -> None
  | Const x -> if holds x then None else Some (Printf.sprintf "%g, expected %s" v (relation_text r))
  | Times (f, key) -> (
      match Hashtbl.find_opt d.gauges key with
      | Some x when not (holds (f *. x)) ->
        Some (Printf.sprintf "%g, expected %s (%g)" v (relation_text r) (f *. x))
      | _ -> None)

let drifted drift ~base v =
  match drift with
  | Exact when v = base -> None
  | Lower_better t when v <= base *. (1.0 +. t) -> None
  | Higher_better t when v >= base *. (1.0 -. t) -> None
  | _ -> Some (Printf.sprintf "%g vs baseline %g, expected %s" v base (drift_text drift))

let evaluate d baseline row =
  let carries (f : flat) =
    match row.kind with
    | Histogram -> Hashtbl.mem f.hists row.key
    | Gauge -> Hashtbl.mem f.gauges row.key
  in
  let value = Hashtbl.find_opt d.gauges row.key in
  let base = Option.bind baseline (fun b -> Hashtbl.find_opt b.gauges row.key) in
  let failure =
    if not (carries d) then Some "missing"
    else if not (Option.fold baseline ~none:true ~some:carries) then
      Some "missing from the baseline"
    else
      match value with
      | None -> None
      | Some v -> (
          match List.find_map (violated d v) row.relations, row.drift, base with
          | (Some _ as f), _, _ -> f
          | None, Some rule, Some b -> drifted rule ~base:b v
          | None, _, _ -> None)
  in
  { row; value; base; failure }

let check ?(strict = true) ?baseline doc =
  try
    let d = flatten doc in
    let b =
      Option.map (fun b -> try flatten b with Reject m -> fail "baseline: %s" m) baseline
    in
    let mode (f : flat) = if f.quick then "quick" else "full" in
    Option.iter
      (fun b ->
        if b.quick <> d.quick then
          fail "mode mismatch: baseline is a %s run, document is a %s run" (mode b) (mode d))
      b;
    let outcomes = if strict then List.map (evaluate d b) table else [] in
    Ok
      {
        summary =
          Printf.sprintf "%d experiments, %d histograms, %d gauges" d.experiments
            (Hashtbl.length d.hists) (Hashtbl.length d.gauges);
        outcomes;
        failures = List.length (List.filter (fun o -> o.failure <> None) outcomes);
      }
  with Reject msg -> Error msg

let render r =
  let num = function Some v -> Printf.sprintf "%.6g" v | None -> "-" in
  let gate row =
    String.concat "; "
      (List.map relation_text row.relations @ Option.to_list (Option.map drift_text row.drift))
  in
  let shown =
    List.filter (fun o -> (o.row.drift <> None && o.base <> None) || o.failure <> None) r.outcomes
  in
  let table =
    if shown = [] then ""
    else
      Fmt_util.table
        ~header:[ "key"; "value"; "baseline"; "gate"; "verdict" ]
        ~rows:
          (List.map
             (fun o ->
               [ o.row.key; num o.value; num o.base; gate o.row;
                 (match o.failure with None -> "ok" | Some f -> "FAIL: " ^ f) ])
             shown)
      ^ "\n"
  in
  Printf.sprintf "%sbench-gate: %s; %d rows, %d failure%s\n" table r.summary
    (List.length r.outcomes) r.failures
    (if r.failures = 1 then "" else "s")
