(* refresh_prof: where a dwperf refresh round spends its CPU.

     refresh_prof WORKLOAD [--seed N] [--seconds S] [--top N]

   Drives one of dwperf's single-warehouse workloads (update_opdelta,
   update_valuedelta, insert_mix_readers) through bench/perf's Scenario:
   the same seeded source transactions, a refresh round every
   [round_every] of them, a checkpoint every 25 rounds and a fresh
   system every epoch, as a dwperf run does.  The analyst domain of
   insert_mix_readers is not started, so the one busy domain is the one
   sampled and the process CPU time is its time.

   A CPU-time interval timer (ITIMER_PROF, 0.5 ms requested) raises
   SIGPROF; the handler keeps the OCaml call stack only while a refresh
   round runs.  The kernel delivers the signal on its scheduler tick, so
   the real interval is coarser than the requested one (about 3.9 ms on
   a 250 Hz kernel): a sample's weight is the measured in-round CPU time
   ([Sys.time] around every round) divided by the samples taken, never
   the nominal interval.  A sample lands at the next OCaml poll point,
   so time in C code is charged to its OCaml caller.

   Prints the in-round CPU per source transaction, raw and scaled by
   dwperf's speed probe (Speed) taken after every round, outside the
   sampled window, so runs on a host whose speed moved stay comparable.
   Then three rankings, each row with its share of the samples and its
   µs per source transaction, raw and scaled: inclusive (a function
   anywhere on the stack, counted once per sample), self (the innermost
   frame) and caller edges (caller -> callee, counted once per sample).
   Exits 1 if the workload's correctness gate fails. *)

open Dwperf

let usage () =
  prerr_endline
    "usage: refresh_prof WORKLOAD [--seed N] [--seconds S] [--top N]\n\
    \  WORKLOAD: update_opdelta | update_valuedelta | insert_mix_readers";
  exit 2

type options = { kind : Scenario.kind; seed : int; seconds : float; top : int }

let options () =
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_of_string v } rest
    | "--top" :: v :: rest -> go { o with top = int_of_string v } rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | name :: rest -> (
      match Scenario.of_name name with
      | Some Scenario.Partitioned_mix | None -> usage ()
      | Some kind -> (
          match go { kind; seed = 1; seconds = 15.0; top = 25 } rest with
          | o when o.seconds > 0.0 && o.top > 0 -> o
          | _ -> usage ()
          | exception Failure _ -> usage ()))
  | [] -> usage ()

(* ---------- sampling ---------- *)

let in_round = ref false
let stacks : Printexc.raw_backtrace list ref = ref []

let on_sigprof _ = if !in_round then stacks := Printexc.get_callstack 1024 :: !stacks

let start_timer () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0005; it_value = 0.0005 }
          : Unix.interval_timer_status)

let stop_timer () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 }
          : Unix.interval_timer_status);
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* a name without its library prefix: [Dw_engine__Db.f] is [Db.f] *)
let short name =
  let dot = Option.value ~default:(String.length name) (String.index_opt name '.') in
  let rec start i =
    if i < 0 then 0 else if name.[i] = '_' && name.[i + 1] = '_' then i + 2 else start (i - 1)
  in
  let s = start (dot - 2) in
  String.sub name s (String.length name - s)

(* a stack's function names, innermost first, without the handler's own
   frame and what called it *)
let frames raw =
  let names =
    match Printexc.backtrace_slots raw with
    | None -> []
    | Some slots -> List.filter_map Printexc.Slot.name (Array.to_list slots)
  in
  let rec after_handler = function
    | [] -> []
    | n :: rest when String.ends_with ~suffix:".on_sigprof" n -> rest
    | _ :: rest -> after_handler rest
  in
  List.map short (after_handler names)

(* ---------- the workload ---------- *)

type run = {
  mutable rounds : int;
  mutable txns : int;
  mutable cpu_s : float;  (** in-round CPU, raw *)
  mutable norm_s : float;  (** in-round CPU, speed-normalised as dwperf does *)
  mutable gate : string option;
}

let drive o =
  let r = { rounds = 0; txns = 0; cpu_s = 0.0; norm_s = 0.0; gate = None } in
  let last_probe = ref (Speed.probe ()) in
  let shape = Scenario.shape o.kind in
  let deadline = Unix.gettimeofday () +. o.seconds in
  let round sys =
    let c0 = Sys.time () in
    in_round := true;
    let res = Scenario.run_round sys in
    in_round := false;
    let cpu = Sys.time () -. c0 in
    let probe = Speed.probe () in
    r.cpu_s <- r.cpu_s +. cpu;
    r.norm_s <- r.norm_s +. (cpu *. Speed.scale !last_probe probe);
    last_probe := probe;
    r.rounds <- r.rounds + 1;
    if r.rounds mod Scenario.checkpoint_every = 0 then Scenario.checkpoint sys;
    match res with
    | Ok _ -> ()
    | Error e -> if r.gate = None then r.gate <- Some ("refresh round failed: " ^ e)
  in
  start_timer ();
  while Unix.gettimeofday () < deadline && r.gate = None do
    (* one epoch: a fresh system, [epoch_txns] transactions and their rounds *)
    let sys = Scenario.setup o.kind ~seed:o.seed in
    let stream = Scenario.stream o.kind ~seed:o.seed ~rows:shape.rows in
    let pending = ref 0 and issued = ref 0 in
    while !issued < shape.epoch_txns && Unix.gettimeofday () < deadline && r.gate = None do
      (match Scenario.commit sys (Scenario.next stream) with
       | Ok () -> r.txns <- r.txns + 1
       | Error e -> r.gate <- Some ("source transaction failed: " ^ e));
      incr issued;
      incr pending;
      if !pending = shape.round_every then begin
        round sys;
        pending := 0
      end
    done;
    if !pending > 0 then round sys;
    (match Scenario.check sys with
     | Ok () -> ()
     | Error e -> if r.gate = None then r.gate <- Some e);
    Scenario.teardown sys
  done;
  stop_timer ();
  r

(* ---------- report ---------- *)

let count tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let rank tbl =
  List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let report o r =
  let samples = List.map frames !stacks |> List.filter (fun s -> s <> []) in
  let n = List.length samples in
  let inclusive = Hashtbl.create 256 and self = Hashtbl.create 256 and edges = Hashtbl.create 256 in
  List.iter
    (fun stack ->
      count self (List.hd stack);
      List.iter (count inclusive) (List.sort_uniq String.compare stack);
      let rec pairs acc = function
        | callee :: (caller :: _ as rest) -> pairs ((caller, callee) :: acc) rest
        | [ _ ] | [] -> acc
      in
      List.iter (count edges) (List.sort_uniq compare (pairs [] stack)))
    samples;
  let txns = float_of_int (max 1 r.txns) in
  let per_sample cpu_s = if n = 0 then 0.0 else cpu_s *. 1e6 /. float_of_int n in
  let us_per_sample = per_sample r.cpu_s and norm_per_sample = per_sample r.norm_s in
  Printf.printf "refresh_prof %s seed %d: %d rounds, %d source transactions, %d samples in rounds\n"
    (Scenario.name o.kind) o.seed r.rounds r.txns n;
  Printf.printf "in-round CPU %.3f s = %.2f us per source transaction, %.0f us per sample\n"
    r.cpu_s (r.cpu_s *. 1e6 /. txns) us_per_sample;
  Printf.printf "speed-normalised (dwperf's scale) %.2f us per source transaction\n"
    (r.norm_s *. 1e6 /. txns);
  let print title rows label =
    Printf.printf "\n%s\n  %6s %8s %8s  %s\n" title "share" "us/txn" "norm" label;
    List.iteri
      (fun i (k, c) ->
        let c = float_of_int c in
        if i < o.top then
          Printf.printf "  %5.1f%% %8.2f %8.2f  %s\n"
            (100.0 *. c /. float_of_int (max 1 n))
            (c *. us_per_sample /. txns)
            (c *. norm_per_sample /. txns)
            k)
      rows
  in
  print "inclusive" (rank inclusive) "function";
  print "self" (rank self) "function";
  print "caller edges"
    (List.map (fun ((a, b), c) -> (a ^ " -> " ^ b, c)) (rank edges))
    "caller -> callee"

let () =
  let o = options () in
  let r = drive o in
  report o r;
  match r.gate with
  | None -> ()
  | Some e ->
    Printf.eprintf "refresh_prof: %s\n" e;
    exit 1
