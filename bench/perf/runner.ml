(* One dwperf run: repeated epochs of set-up, closed loop and check.

   An epoch builds a fresh source and warehouse (timed: set-up), drives
   a fixed number of source transactions through them, measures the
   heap they keep live, and runs the correctness gate.  A run repeats
   whole epochs with the same seed while the next one is expected to fit
   in the budget, so every epoch does the same work on the same state
   sizes however fast the host is, every count per transaction repeats
   exactly for a seed whatever the number of epochs, and set-up and the
   live heap are measured once per epoch.  The heap is compacted before
   each epoch.

   Inside an epoch the main domain alternates [round_every] source
   transactions with one refresh round, the last round draining the
   rest, so every transaction gets a freshness sample.  On the reader
   workload one analyst domain runs the standard OLAP mix in snapshot
   mode for the whole phase, so at most two domains are busy; the
   partitioned workload's two pool workers run only while the main
   domain waits on them.

   Every time sample is speed-normalised by the Speed probes taken
   before and after its batch (see speed.ml).  A traced run also reads
   the warehouse histogram sums around every round and keeps one span
   per transaction, round and query, with raw times. *)

module Db = Dw_engine.Db
module Json = Dw_util.Json
module Olap = Dw_warehouse.Olap
module Warehouse = Dw_warehouse.Warehouse
module Stage = Dw_etl.Stage
module Opdelta_capture = Dw_core.Opdelta_capture
module Pipeline = Dw_etl.Pipeline

type result = {
  kind : Scenario.kind;
  seed : int;
  traced : bool;
  setup_s : Samples.t;  (** one set-up per epoch *)
  live_mb : Samples.t;  (** the heap live at the end of each epoch's phase *)
  txn_s : Samples.t;  (** one source commit call, capture included *)
  round_s : Samples.t;  (** one refresh round *)
  fresh_s : Samples.t;  (** commit return to the return of the round applying it *)
  query_s : Samples.t;  (** one Olap.run on the analyst domain (raw) *)
  factors : Samples.t;  (** the speed scale factor of every batch *)
  probe : Probe.t;  (** registry and GC movement, summed over phases *)
  mutable epochs : int;
  mutable query_rows : int;
  mutable issued : int;  (** source transactions attempted *)
  mutable committed : int;  (** committed and applied by a successful round *)
  mutable txn_failed : int;
  mutable rounds_failed : int;
  mutable queries_failed : int;
  mutable statements : int;  (** statements in committed transactions *)
  mutable wall_s : float;  (** measured phases, normalised *)
  mutable raw_s : float;  (** measured phases, raw: the budget counts these *)
  mutable txn_busy_s : float;  (** commit calls, raw *)
  mutable round_busy_s : float;  (** refresh rounds, raw *)
  mutable captured_bytes : float;  (** Op-Delta bytes, or value-delta image bytes *)
  mutable shipped_bytes : int;
  mutable integration : Warehouse.stats;
  mutable stage : Stage.stats;
  mutable stage_s : float;  (** Stage.split, raw *)
  mutable refresh_s : float;  (** Partitioned.refresh, raw *)
  mutable spans : Json.t list;  (** newest first *)
  mutable gate : (unit, string) Stdlib.result;
}

let now = Unix.gettimeofday
let ms x = Json.Float (x *. 1000.0)

let add_stage (a : Stage.stats) (b : Stage.stats) =
  {
    Stage.txns = a.txns + b.txns;
    statements = a.statements + b.statements;
    routed = a.routed + b.routed;
    broadcast = a.broadcast + b.broadcast;
    split_rows = a.split_rows + b.split_rows;
  }

(* the analyst: the standard query mix in snapshot mode, closed loop,
   until told to stop (and at least once) *)
let analyst wh stop () =
  let queries = Array.of_list (Olap.standard_queries ~table:Scenario.table) in
  let runs = ref [] and rows = ref 0 and failed = ref 0 and i = ref 0 in
  while !i = 0 || not (Atomic.get stop) do
    let q = queries.(!i mod Array.length queries) in
    let a = now () in
    (match Olap.run wh q with
     | Ok r -> rows := !rows + r.Olap.rows
     | Error _ -> incr failed
     | exception _ -> incr failed);
    runs := (a, now ()) :: !runs;
    incr i
  done;
  (List.rev !runs, !rows, !failed)

(* bytes of value-delta images waiting in the trigger's delta table *)
let pending_image_bytes (sys : Scenario.system) =
  match Db.table_opt sys.src (Scenario.table ^ "__delta") with
  | None -> 0.0
  | Some tbl ->
    float_of_int
      (Dw_engine.Table.row_count tbl
      * Dw_relation.Schema.record_size (Dw_engine.Table.schema tbl))

let op_delta_bytes (sys : Scenario.system) =
  let cap =
    match sys.target with
    | Scenario.Pipe { pipe; _ } -> Pipeline.capture pipe
    | Scenario.Fleet { cap; _ } -> Some cap
  in
  Option.fold ~none:0.0 ~some:(fun c -> float_of_int (Opdelta_capture.captured_bytes c)) cap

let span kind id fields = Json.Obj ([ ("kind", Json.String kind); ("id", Json.Int id) ] @ fields)

(* one measured phase on [sys]: [txns] transactions and their rounds *)
let phase ?div r (sys : Scenario.system) ~txns ~origin =
  let shape = Scenario.shape ?div r.kind in
  let stream = Scenario.stream r.kind ~seed:r.seed ~rows:shape.rows in
  let whs = List.map Db.metrics (Scenario.warehouse_dbs sys) in
  let before = Probe.read ~src:(Db.metrics sys.src) ~whs in
  let op_bytes0 = op_delta_bytes sys in
  let stop = Atomic.make false in
  let reader =
    Option.map (fun wh -> Domain.spawn (analyst wh stop)) (Scenario.analyst_warehouse sys)
  in
  let issued = ref 0 and rounds = ref 0 in
  let t0 = now () in
  let speed = ref (Scenario.probe sys) in
  let at t = ms (t -. origin) in
  (* [n] source transactions, then the round applying them *)
  let batch n =
    let start = now () in
    let committed = ref [] and txn_raw = ref [] in
    for _ = 1 to n do
      let stmts = Scenario.next stream in
      incr issued;
      r.issued <- r.issued + 1;
      let a = now () in
      let ok = Scenario.commit sys stmts in
      let b = now () in
      txn_raw := (b -. a) :: !txn_raw;
      match ok with
      | Ok () ->
        r.statements <- r.statements + List.length stmts;
        committed := (r.issued, a, b) :: !committed
      | Error _ -> r.txn_failed <- r.txn_failed + 1
    done;
    let kids0 = if r.traced then Probe.child_sums whs else [] in
    if r.traced && r.kind = Scenario.Update_valuedelta then
      r.captured_bytes <- r.captured_bytes +. pending_image_bytes sys;
    let a = now () in
    let outcome = Scenario.run_round sys in
    let b = now () in
    incr rounds;
    let round_id = Samples.length r.round_s + 1 in
    let checkpoint_s =
      if !rounds mod Scenario.checkpoint_every = 0 then begin
        let c = now () in
        Scenario.checkpoint sys;
        now () -. c
      end
      else 0.0
    in
    let next = Scenario.probe sys in
    let f = Speed.scale !speed next in
    speed := next;
    Samples.add r.factors f;
    List.iter (fun x -> Samples.add r.txn_s (x *. f)) !txn_raw;
    Samples.add r.round_s ((b -. a) *. f);
    r.txn_busy_s <- List.fold_left ( +. ) r.txn_busy_s !txn_raw;
    r.round_busy_s <- r.round_busy_s +. (b -. a);
    r.wall_s <- r.wall_s +. ((b -. start +. checkpoint_s) *. f);
    (match outcome with
     | Error _ -> r.rounds_failed <- r.rounds_failed + 1
     | Ok (rd : Scenario.round) ->
       r.shipped_bytes <- r.shipped_bytes + rd.shipped_bytes;
       r.integration <- Warehouse.add_stats r.integration rd.integration;
       Option.iter (fun s -> r.stage <- add_stage r.stage s) rd.stage;
       r.stage_s <- r.stage_s +. rd.stage_s;
       r.refresh_s <- r.refresh_s +. rd.refresh_s;
       List.iter
         (fun (id, ta, tb) ->
           Samples.add r.fresh_s ((b -. tb) *. f);
           r.committed <- r.committed + 1;
           if r.traced then
             r.spans <-
               span "txn" id
                 [ ("start_ms", at ta); ("end_ms", at tb); ("round", Json.Int round_id) ]
               :: r.spans)
         (List.rev !committed));
    if r.traced then begin
      let kids1 = Probe.child_sums whs in
      let children = List.map2 (fun (k, x0) (_, x1) -> (k ^ "_ms", ms (x1 -. x0))) kids0 kids1 in
      r.spans <-
        span "round" round_id
          [
            ("start_ms", at a); ("end_ms", at b); ("speed_factor", Json.Float f);
            ("children", Json.Obj children);
          ]
        :: r.spans
    end
  in
  while !issued < txns do
    batch (min shape.round_every (txns - !issued))
  done;
  r.raw_s <- r.raw_s +. (now () -. t0);
  Atomic.set stop true;
  Option.iter
    (fun d ->
      let runs, rows, failed = Domain.join d in
      r.query_rows <- r.query_rows + rows;
      r.queries_failed <- r.queries_failed + failed;
      List.iter
        (fun (a, b) ->
          Samples.add r.query_s (b -. a);
          if r.traced then
            r.spans <-
              span "query" (Samples.length r.query_s) [ ("start_ms", at a); ("end_ms", at b) ]
              :: r.spans)
        runs)
    reader;
  let moved = Probe.diff ~before ~after:(Probe.read ~src:(Db.metrics sys.src) ~whs) in
  Hashtbl.iter (fun k v -> Probe.add r.probe k v) moved;
  if r.kind <> Scenario.Update_valuedelta then
    r.captured_bytes <- r.captured_bytes +. (op_delta_bytes sys -. op_bytes0)

(* the major heap live now, after a full collection: what the system
   retains, where the heap's size would depend on when the collector
   last ran *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* one epoch: compact, timed set-up, phase, live heap, correctness gate *)
let epoch ?div r ~txns ~origin =
  Gc.compact ();
  let p0 = Speed.probe () in
  let a = now () in
  let sys = Scenario.setup ?div r.kind ~seed:r.seed in
  let setup = now () -. a in
  Samples.add r.setup_s (setup *. Speed.scale p0 (Speed.probe ()));
  r.epochs <- r.epochs + 1;
  Fun.protect
    ~finally:(fun () -> Scenario.teardown sys)
    (fun () ->
      phase ?div r sys ~txns ~origin;
      Samples.add r.live_mb (live_mb ());
      match (r.gate, Scenario.check sys) with
      | Ok (), (Error _ as e) -> r.gate <- e
      | _ -> ())

(* whole epochs while the next is expected to end within [seconds] of
   measured phases; always at least one *)
let run ?div kind ~seed ~seconds ~traced =
  let r =
    {
      kind;
      seed;
      traced;
      setup_s = Samples.create ();
      live_mb = Samples.create ();
      txn_s = Samples.create ();
      round_s = Samples.create ();
      fresh_s = Samples.create ();
      query_s = Samples.create ();
      factors = Samples.create ();
      probe = Hashtbl.create 128;
      epochs = 0;
      query_rows = 0;
      issued = 0;
      committed = 0;
      txn_failed = 0;
      rounds_failed = 0;
      queries_failed = 0;
      statements = 0;
      wall_s = 0.0;
      raw_s = 0.0;
      txn_busy_s = 0.0;
      round_busy_s = 0.0;
      captured_bytes = 0.0;
      shipped_bytes = 0;
      integration = Warehouse.zero_stats;
      stage = { Stage.txns = 0; statements = 0; routed = 0; broadcast = 0; split_rows = 0 };
      stage_s = 0.0;
      refresh_s = 0.0;
      spans = [];
      gate = Ok ();
    }
  in
  let origin = now () in
  let txns = (Scenario.shape ?div kind).epoch_txns in
  epoch ?div r ~txns ~origin;
  while r.raw_s +. (r.raw_s /. float_of_int r.epochs) <= seconds do
    epoch ?div r ~txns ~origin
  done;
  r.spans <- List.rev r.spans;
  r
