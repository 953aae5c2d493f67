(* Instrumentation registry: counters, gauges, log-bucketed latency
   histograms, scoped timers and trace spans, all driven by a pluggable
   clock so deterministic tests can substitute a Sim_clock.

   Domain-safety: every registry carries one mutex guarding its entry
   table and span state, so concurrent domains can mutate and fold the
   same registry without torn histograms or Hashtbl corruption.  A
   counter's value is an [int Atomic.t] cell: the table lookup that
   finds it takes the mutex, the increment itself does not, so a
   {!counter} handle that already holds its cell bumps it lock-free.
   The recording sink is an Atomic and is always mirrored-into OUTSIDE
   the source registry's lock, so the only lock order is source -> sink
   and no cycle can form. *)

(* ---------- histogram bucketing ----------

   Log-spaced buckets: bucket [i] covers (gamma^(i-1), gamma^i] with
   gamma = 2^(1/8), i.e. 8 buckets per doubling, bounding the relative
   quantile error at ~4.4%.  Indices are clamped to [min_bucket,
   max_bucket] (under/overflow buckets) so arbitrary inputs cannot grow
   the table without bound; exact min/max are tracked separately and
   percentile results are clamped into [min, max], which also makes the
   one-sample and overflow edges exact. *)

let gamma = Float.pow 2.0 0.125
let log_gamma = Float.log gamma
let min_bucket = -1024 (* gamma^-1024 = 2^-128: below any real latency *)
let max_bucket = 1024

let bucket_of v =
  if v <= 0.0 then min_bucket
  else
    let i = int_of_float (Float.ceil (Float.log v /. log_gamma)) in
    if i < min_bucket then min_bucket else if i > max_bucket then max_bucket else i

let bucket_upper i = Float.pow gamma (float_of_int i)

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t;
}

type entry = Counter of int Atomic.t | Gauge of float ref | Histogram of histogram

type clock = unit -> float

type span_record = {
  span_name : string;
  span_parent : string option;
  span_start : float;
  span_duration : float;
}

(* one (name, parent) pair's completed spans *)
type span_total = { mutable n : int; mutable total : float }

type t = {
  entries : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  generation : int Atomic.t;  (* bumped by [reset]: handles re-resolve *)
  mutable clock : clock;
  mutable span_stack : open_span list;
  (* a long-lived registry finishes a span per refresh: it keeps the
     newest [span_ring] records and folds every one into [rollup] *)
  recent_spans : span_record Queue.t;
  rollup : (string * string option, span_total) Hashtbl.t;
  rollup_order : (string * string option) Queue.t;  (* first seen first *)
}

and open_span = {
  sp_reg : t;
  sp_name : string;
  sp_parent : string option;
  sp_start : float;
  mutable sp_finished : bool;
}

let default_clock = Unix.gettimeofday

let create () =
  { entries = Hashtbl.create 32; lock = Mutex.create (); generation = Atomic.make 0;
    clock = default_clock; span_stack = []; recent_spans = Queue.create ();
    rollup = Hashtbl.create 16; rollup_order = Queue.create () }

(* Registry locking discipline: [locked] guards every read or write of
   [entries]/span state; nothing inside a locked region may call another
   locked operation on the same registry, nor touch a different registry
   (mirroring happens after release). *)
let locked t f = Mutex.protect t.lock f

let set_clock t clock = t.clock <- clock
let use_sim_clock t clk = t.clock <- (fun () -> float_of_int (Sim_clock.now clk))
let now t = t.clock ()

(* ---------- the recording sink ----------

   When set, every counter/gauge/histogram mutation on ANY registry is
   mirrored into the sink (and finished spans are appended to it), so a
   bench harness can capture the union of per-Vfs registries an
   experiment creates internally without threading a registry through
   every constructor.  The cell is an Atomic so concurrent domains see a
   consistent sink; {!with_sink} restores the previous sink even when
   the thunk raises. *)

let the_sink : t option Atomic.t = Atomic.make None

let with_sink s f =
  let old = Atomic.exchange the_sink s in
  Fun.protect ~finally:(fun () -> Atomic.set the_sink old) f

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_entry t name make =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    let e = make () in
    Hashtbl.add t.entries name e;
    e

(* callers hold t.lock *)
let counter_ref t name =
  match find_entry t name (fun () -> Counter (Atomic.make 0)) with
  | Counter r -> r
  | e -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a counter" name (kind_name e))

let gauge_ref t name =
  match find_entry t name (fun () -> Gauge (ref 0.0)) with
  | Gauge r -> r
  | e -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a gauge" name (kind_name e))

let histogram_of t name =
  match
    find_entry t name (fun () ->
        Histogram
          { h_count = 0; h_sum = 0.0; h_min = Float.infinity; h_max = Float.neg_infinity;
            h_buckets = Hashtbl.create 16 })
  with
  | Histogram h -> h
  | e -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a histogram" name (kind_name e))

let mirror t f = match Atomic.get the_sink with Some s when s != t -> f s | Some _ | None -> ()

(* ---------- handles ----------

   A handle names one metric of one registry and caches the entry the
   name resolves to, tagged with the registry generation it was resolved
   in; a {!reset} bumps the generation, so the next use resolves afresh
   (re-creating the key) instead of counting into a detached cell.  The
   binding is an immutable value swapped whole, so a domain reading it
   never sees a cell from one resolution with the generation of another. *)

type 'a binding = Unbound | Bound of { gen : int; cell : 'a }

type counter = { c_reg : t; c_name : string; mutable c_bound : int Atomic.t binding }
type hist = { h_reg : t; h_name : string; mutable h_bound : histogram binding }

let counter t name = { c_reg = t; c_name = name; c_bound = Unbound }
let hist t name = { h_reg = t; h_name = name; h_bound = Unbound }

(* ---------- counters ---------- *)

let counter_cell c =
  let t = c.c_reg in
  match c.c_bound with
  | Bound b when b.gen = Atomic.get t.generation -> b.cell
  | Bound _ | Unbound ->
    locked t (fun () ->
        let cell = counter_ref t c.c_name in
        c.c_bound <- Bound { gen = Atomic.get t.generation; cell };
        cell)

(* the one counter mutation: bump the resolved cell, then mirror *)
let rec bump_cell t name cell n =
  ignore (Atomic.fetch_and_add cell n : int);
  match Atomic.get the_sink with Some s when s != t -> add s name n | Some _ | None -> ()

and add t name n = bump_cell t name (locked t (fun () -> counter_ref t name)) n

let incr t name = add t name 1
let bump c n = bump_cell c.c_reg c.c_name (counter_cell c) n

let get t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Counter r) -> Atomic.get r
      | Some _ | None -> 0)

(* ---------- gauges ---------- *)

let rec set_gauge t name v =
  locked t (fun () -> gauge_ref t name := v);
  mirror t (fun s -> set_gauge s name v)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with Some (Gauge r) -> !r | Some _ | None -> 0.0)

let gauges t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k e acc -> match e with Gauge r -> (k, !r) :: acc | _ -> acc)
        t.entries [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- histograms ---------- *)

(* callers hold t.lock *)
let record_unlocked h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  match Hashtbl.find_opt h.h_buckets i with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.add h.h_buckets i (ref 1)

(* callers hold t.lock, so the generation cannot move under the check *)
let hist_cell_unlocked hd =
  let t = hd.h_reg in
  match hd.h_bound with
  | Bound b when b.gen = Atomic.get t.generation -> b.cell
  | Bound _ | Unbound ->
    let cell = histogram_of t hd.h_name in
    hd.h_bound <- Bound { gen = Atomic.get t.generation; cell };
    cell

(* the one histogram mutation: record into the resolved histogram under
   the registry lock, then mirror *)
let rec observe_with t name resolve v =
  locked t (fun () -> record_unlocked (resolve ()) v);
  match Atomic.get the_sink with Some s when s != t -> observe s name v | Some _ | None -> ()

and observe t name v = observe_with t name (fun () -> histogram_of t name) v

(* [observe_with] for a handle, without its closures: this runs once per
   timed operation.  Resolving the handle raises if its name holds
   another kind of metric; the lock is released on that path too. *)
let record hd v =
  let t = hd.h_reg in
  Mutex.lock t.lock;
  (match record_unlocked (hist_cell_unlocked hd) v with
   | () -> Mutex.unlock t.lock
   | exception e ->
     Mutex.unlock t.lock;
     raise e);
  match Atomic.get the_sink with Some s when s != t -> observe s hd.h_name v | Some _ | None -> ()

let observed_count t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Histogram h) -> h.h_count
      | Some _ | None -> 0)

let observed_sum t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Histogram h) -> h.h_sum
      | Some _ | None -> 0.0)

(* callers hold the registry lock of the histogram's owner *)
let percentile_of_histogram h q =
  if h.h_count = 0 then 0.0
  else if q <= 0.0 then h.h_min
  else if q >= 1.0 then h.h_max
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let buckets =
      Hashtbl.fold (fun i r acc -> (i, !r) :: acc) h.h_buckets []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let rec walk seen = function
      | [] -> h.h_max
      | (i, c) :: rest -> if seen + c >= rank then bucket_upper i else walk (seen + c) rest
    in
    let v = walk 0 buckets in
    (* clamp the bucket upper bound into the observed range: exact for
       empty/one-sample/overflow edges, and never outside [min, max] *)
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

let percentile t name q =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Histogram h) -> percentile_of_histogram h q
      | Some _ | None -> 0.0)

type histogram_summary = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summary_of_histogram h =
  if h.h_count = 0 then
    { count = 0; sum = 0.0; vmin = 0.0; vmax = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      count = h.h_count;
      sum = h.h_sum;
      vmin = h.h_min;
      vmax = h.h_max;
      p50 = percentile_of_histogram h 0.50;
      p95 = percentile_of_histogram h 0.95;
      p99 = percentile_of_histogram h 0.99;
    }

let summary t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Histogram h) -> Some (summary_of_histogram h)
      | Some _ | None -> None)

let histograms t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k e acc ->
          match e with Histogram h -> (k, summary_of_histogram h) :: acc | _ -> acc)
        t.entries [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- scoped timers ---------- *)

type timer = { tm_reg : t; tm_name : string; tm_start : float }

let start_timer t name = { tm_reg = t; tm_name = name; tm_start = now t }

let stop_timer tm =
  let elapsed = now tm.tm_reg -. tm.tm_start in
  observe tm.tm_reg tm.tm_name elapsed;
  elapsed

let time t name f =
  let tm = start_timer t name in
  Fun.protect ~finally:(fun () -> ignore (stop_timer tm : float)) f

(* ---------- trace spans ---------- *)

type span = open_span

let start_span t name =
  let start = now t in
  locked t (fun () ->
      let parent = match t.span_stack with [] -> None | sp :: _ -> Some sp.sp_name in
      let sp =
        { sp_reg = t; sp_name = name; sp_parent = parent; sp_start = start; sp_finished = false }
      in
      t.span_stack <- sp :: t.span_stack;
      sp)

let span_ring = 1024

(* callers hold t.lock *)
let keep_span t r =
  Queue.add r t.recent_spans;
  if Queue.length t.recent_spans > span_ring then ignore (Queue.take t.recent_spans : span_record);
  let key = (r.span_name, r.span_parent) in
  match Hashtbl.find_opt t.rollup key with
  | Some s ->
    s.n <- s.n + 1;
    s.total <- s.total +. r.span_duration
  | None ->
    Hashtbl.add t.rollup key { n = 1; total = r.span_duration };
    Queue.add key t.rollup_order

let finish_span sp =
  let t = sp.sp_reg in
  let stop = now t in
  let recorded =
    locked t (fun () ->
        if sp.sp_finished then None
        else begin
          sp.sp_finished <- true;
          (* tolerate missed finishes below us: drop abandoned frames *)
          t.span_stack <-
            List.filter (fun other -> other != sp && not other.sp_finished) t.span_stack;
          let record =
            {
              span_name = sp.sp_name;
              span_parent = sp.sp_parent;
              span_start = sp.sp_start;
              span_duration = stop -. sp.sp_start;
            }
          in
          keep_span t record;
          Some record
        end)
  in
  match recorded with
  | None -> ()
  | Some record ->
    observe t sp.sp_name record.span_duration;
    mirror t (fun s -> locked s (fun () -> keep_span s record))

let with_span t name f =
  let sp = start_span t name in
  Fun.protect ~finally:(fun () -> finish_span sp) f

let spans t = locked t (fun () -> List.of_seq (Queue.to_seq t.recent_spans))
let span_depth t = locked t (fun () -> List.length t.span_stack)

(* ---------- snapshots, reset, rendering ---------- *)

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k e acc -> match e with Counter r -> (k, Atomic.get r) :: acc | _ -> acc)
        t.entries [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some v0 -> Hashtbl.replace tbl k (v0 + v)
      | None -> Hashtbl.add tbl k v)
    after;
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  (* clear entries outright: keeping zeroed keys pollutes later snapshots
     of a registry shared across experiments with stale counters *)
  locked t (fun () ->
      Hashtbl.reset t.entries;
      Atomic.incr t.generation;
      t.span_stack <- [];
      Queue.clear t.recent_spans;
      Hashtbl.reset t.rollup;
      Queue.clear t.rollup_order)

let span_rollup t =
  locked t (fun () ->
      List.of_seq
        (Seq.map
           (fun ((name, parent) as key) ->
             let s = Hashtbl.find t.rollup key in
             (name, parent, s.n, s.total))
           (Queue.to_seq t.rollup_order)))

let to_json t =
  let counters = List.map (fun (k, v) -> (k, Json.Int v)) (snapshot t) in
  let gauges_j = List.map (fun (k, v) -> (k, Json.Float v)) (gauges t) in
  let histo (k, s) =
    ( k,
      Json.Obj
        [
          ("count", Json.Int s.count);
          ("sum", Json.Float s.sum);
          ("min", Json.Float s.vmin);
          ("max", Json.Float s.vmax);
          ("p50", Json.Float s.p50);
          ("p95", Json.Float s.p95);
          ("p99", Json.Float s.p99);
        ] )
  in
  let span_j (name, parent, n, total) =
    Json.Obj
      [
        ("name", Json.String name);
        ("parent", match parent with Some p -> Json.String p | None -> Json.Null);
        ("count", Json.Int n);
        ("total", Json.Float total);
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges_j);
      ("histograms", Json.Obj (List.map histo (histograms t)));
      ( "spans",
        Json.List
          (List.map span_j
             (List.sort
                (fun (a, pa, _, _) (b, pb, _, _) -> compare (a, pa) (b, pb))
                (span_rollup t))) );
    ]
