(* dwperf compare: parent runs A against change runs B, per (workload,
   end-to-end metric), by the rule the benchmark is defined with.

   - improved: B beats A in at least nine tenths of the index-paired
     runs (ties count for neither) and the medians differ by more than
     A's own spread (its interquartile distance);
   - regressed: B's median is worse than A's by more than the metric's
     bound (a share of A's median, from BENCHMARK.json);
   - unresolved: neither, and A's spread is wider than the bound, unless
     every B run reads better than every A run;
   - unchanged: otherwise.

   Failure shares (failed / attempted over all runs) and the correctness
   flag are compared too.  A run file holds one run's standard output;
   its last line is the result object, and the workload is the file
   name up to its first '.', e.g. [update_opdelta.3.json]. *)

module Json = Dw_util.Json

type run = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let num j = Option.value ~default:0.0 (Option.bind j Json.to_number)

let load path =
  match Json.of_string (last_line (read_file path)) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j ->
    let metrics = match Json.member "metrics" j with Some (Json.Obj kvs) -> kvs | _ -> [] in
    Ok
      {
        workload = List.hd (String.split_on_char '.' (Filename.basename path));
        correct = Json.member "correct" j = Some (Json.Bool true);
        attempted = int_of_float (num (Json.member "attempted" j));
        failed = int_of_float (num (Json.member "failed" j));
        values = List.map (fun (k, v) -> (k, num (Json.member "value" v))) metrics;
      }

(* (name, better is lower, bound) of every end-to-end metric *)
let bounds bench =
  match Json.of_string (read_file bench) with
  | Error e -> failwith (bench ^ ": " ^ e)
  | Ok j ->
    List.map
      (fun e ->
        let str k = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_str) in
        (str "name", str "better" = "lower", num (Json.member "bound" e)))
      (Option.value ~default:[] (Option.bind (Json.member "end_to_end" j) Json.to_list))

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let verdict ~lower ~bound a b =
  (* positive = the change reads better *)
  let gain x y = if lower then x -. y else y -. x in
  let q1, ma, q3 = Samples.quartiles a in
  let _, mb, _ = Samples.quartiles b in
  let k = min (List.length a) (List.length b) in
  let pairs = List.combine (List.filteri (fun i _ -> i < k) a) (List.filteri (fun i _ -> i < k) b) in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.0) pairs) in
  let spread = q3 -. q1 in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b in
  if k > 0 && wins * 10 >= 9 * k && Float.abs (mb -. ma) > spread then Improved
  else if gain ma mb < -.(bound *. Float.abs ma) then Regressed
  else if spread > bound *. Float.abs ma && not all_better then Unresolved
  else Unchanged

let share runs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  float_of_int (sum (fun r -> r.failed)) /. float_of_int (max 1 (sum (fun r -> r.attempted)))

(* prints one row per (workload, metric); returns the verdicts *)
let run ~bench a_paths b_paths =
  let load_all paths = List.map (fun p -> match load p with Ok r -> r | Error e -> failwith e) paths in
  let a = load_all a_paths and b = load_all b_paths in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let row w name v fmt = Printf.printf "%-20s %-24s %s %s\n" w name fmt (verdict_name v) in
  Printf.printf "%-20s %-24s %-36s %-36s %-6s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "bound" "verdict";
  List.concat_map
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) a in
      let rb = List.filter (fun r -> r.workload = w) b in
      let metric_rows =
        List.filter_map
          (fun (name, lower, bound) ->
            let vals rs = List.filter_map (fun r -> List.assoc_opt name r.values) rs in
            match (vals ra, vals rb) with
            | [], _ | _, [] -> None
            | va, vb ->
              let v = verdict ~lower ~bound va vb in
              let show vs =
                let q1, md, q3 = Samples.quartiles vs in
                Printf.sprintf "%-36s" (Printf.sprintf "%.6g [%.6g, %.6g]" md q1 q3)
              in
              row w name v (Printf.sprintf "%s %s %-6.3g" (show va) (show vb) bound);
              Some v)
          (bounds bench)
      in
      let sa = share ra and sb = share rb in
      let fv = if sb > sa then Regressed else Unchanged in
      row w "failure_share" fv (Printf.sprintf "%-36.6g %-36.6g %-6s" sa sb "-");
      let cv = if List.for_all (fun r -> r.correct) rb then Unchanged else Regressed in
      row w "correct" cv (Printf.sprintf "%-36s %-36s %-6s" "-" "-" "-");
      metric_rows @ [ fv; cv ])
    workloads
