module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Vfs = Dw_storage.Vfs
module Domain_pool = Dw_util.Domain_pool
module Metrics = Dw_util.Metrics
module Breaker = Dw_util.Breaker

(* ---------- shard health ---------- *)

type health = Healthy | Suspect | Quarantined | Rebuilding

let health_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"
  | Rebuilding -> "rebuilding"

let health_code = function Healthy -> 0 | Suspect -> 1 | Quarantined -> 2 | Rebuilding -> 3

type health_config = {
  breaker : Breaker.config;
  max_retries : int;
  refresh_timeout_s : float;
}

let default_health_config =
  { breaker = Breaker.default_config; max_retries = 2; refresh_timeout_s = infinity }

let validate_health_config c =
  if c.max_retries < 0 then invalid_arg "Partitioned: max_retries < 0";
  if not (c.refresh_timeout_s > 0.0) then invalid_arg "Partitioned: refresh_timeout_s <= 0"

(* per-shard circuit state.  All mutation happens on the caller's domain:
   the refresh does its breaker bookkeeping sequentially, before dispatch
   and after the pool barrier. *)
type shard_state = {
  breaker : Breaker.t;
  mutable health : health;
  mutable last_watermark : int;  (* best known; served when the shard is unreadable *)
  mutable last_error : string option;
}

type t = {
  spec : Partition.t;
  shards : Warehouse.t array;
  vfss : Vfs.t array;
  name : string;
  op_delay : float;
  pool_pages : int option;
  pool_stripes : int option;
  hcfg : health_config;
  hmetrics : Metrics.t;  (* fleet registry: health.* / breaker.* / degraded.*, breaker clock *)
  states : shard_state array;
  (* registration order, for rebuilding a shard from scratch *)
  mutable replicas : (string * Schema.t) list;
  mutable views : Spj_view.t list;
  mutable agg_views : Agg_view.t list;
}

let spec t = t.spec
let partitions t = Array.length t.shards
let shard t i = t.shards.(i)
let vfss t = t.vfss
let shard_health t i = t.states.(i).health
let healths t = Array.map (fun s -> s.health) t.states

let publish_health t =
  let healthy = ref 0 in
  Array.iteri
    (fun i s ->
      if s.health = Healthy then incr healthy;
      Metrics.set_gauge t.hmetrics
        (Printf.sprintf "health.shard%d" i)
        (float_of_int (health_code s.health)))
    t.states;
  Metrics.set_gauge t.hmetrics "health.healthy_shards" (float_of_int !healthy)

(* ---------- per-shard refresh watermark ---------- *)

(* A shard's applied-through source txn id is the [ops] of its mark row,
   keyed by the fact table; the row's other fields keep their empty
   values. *)
let watermark_of t wh = (Warehouse.mark wh (Partition.table t.spec)).Warehouse.ops

let put_watermark spec wh txn ops =
  Warehouse.put_mark wh txn (Partition.table spec)
    { Warehouse.day = -1; lsn = 0; snap = 0; trig = 0; ops }

let watermarks t = Array.map (watermark_of t) t.shards

(* ---------- construction ---------- *)

let mk_state t_hmetrics (hcfg : health_config) i =
  {
    breaker =
      Breaker.create
        ~config:{ hcfg.breaker with Breaker.seed = hcfg.breaker.Breaker.seed + i }
        ~clock:(fun () -> Metrics.now t_hmetrics)
        ();
    health = Healthy;
    last_watermark = 0;
    last_error = None;
  }

(* an empty shard [i] over [vfs]: its placement and a mark row with
   nothing applied *)
let fresh_shard ?pool_pages ?pool_stripes ~spec ~name ~vfs i =
  let wh =
    Warehouse.create ?pool_pages ?pool_stripes ~vfs ~name:(Printf.sprintf "%s_p%d" name i) ()
  in
  Partition.save (Warehouse.db wh) ~shard:i spec;
  Db.with_txn (Warehouse.db wh) (fun txn -> put_watermark spec wh txn 0);
  wh

let create ?pool_pages ?pool_stripes ?(op_delay = 0.0) ?(health = default_health_config)
    ?metrics ~spec ~name () =
  validate_health_config health;
  let n = Partition.partitions spec in
  let hmetrics = match metrics with Some m -> m | None -> Metrics.create () in
  let vfss = Array.init n (fun _ -> Vfs.in_memory ~op_delay ()) in
  let shards =
    Array.init n (fun i -> fresh_shard ?pool_pages ?pool_stripes ~spec ~name ~vfs:vfss.(i) i)
  in
  let t =
    {
      spec;
      shards;
      vfss;
      name;
      op_delay;
      pool_pages;
      pool_stripes;
      hcfg = health;
      hmetrics;
      states = Array.init n (fun i -> mk_state hmetrics health i);
      replicas = [];
      views = [];
      agg_views = [];
    }
  in
  publish_health t;
  t

let is_fact t table = String.equal table (Partition.table t.spec)

let add_replica t ~table ~schema =
  if is_fact t table then begin
    let key = Partition.key_column t.spec in
    if Schema.key_arity schema < 1 || (Schema.column schema 0).Schema.name <> key then
      invalid_arg
        (Printf.sprintf "Partitioned.add_replica: %s's leading key column must be %s" table
           key)
  end;
  Array.iter (fun wh -> Warehouse.add_replica wh ~table ~schema) t.shards;
  t.replicas <- t.replicas @ [ (table, schema) ]

let load_replica t ~table rows =
  if is_fact t table then begin
    let schema =
      match Db.table_opt (Warehouse.db t.shards.(0)) table with
      | Some tbl -> Table.schema tbl
      | None -> invalid_arg (Printf.sprintf "Partitioned.load_replica: no replica %s" table)
    in
    let buckets = Array.make (partitions t) [] in
    List.iter
      (fun row ->
        let p = Partition.route_row t.spec schema row in
        buckets.(p) <- row :: buckets.(p))
      rows;
    Array.iteri
      (fun i bucket -> Warehouse.load_replica t.shards.(i) ~table (List.rev bucket))
      buckets
  end
  else Array.iter (fun wh -> Warehouse.load_replica wh ~table rows) t.shards

let define_view t view =
  (match view with
   | Spj_view.Select_project _ -> ()
   | Spj_view.Join _ ->
     invalid_arg
       "Partitioned.define_view: join views need co-partitioned sides; only select-project \
        views are supported");
  Array.iter (fun wh -> Warehouse.define_view wh view) t.shards;
  t.views <- t.views @ [ view ]

let define_agg_view t view =
  Array.iter (fun wh -> Warehouse.define_agg_view wh view) t.shards;
  t.agg_views <- t.agg_views @ [ view ]

(* ---------- merging per-shard reads ---------- *)

let indices t = List.init (partitions t) Fun.id

(* sum multiplicities of identical output rows across shards (a base row
   lives on exactly one shard, but two shards' slices can project to the
   same view row) *)
let merge_counted rows_by_shard =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (row, count) ->
         match Hashtbl.find_opt tbl row with
         | Some c -> Hashtbl.replace tbl row (c + count)
         | None ->
           Hashtbl.add tbl row count;
           order := row :: !order))
    rows_by_shard;
  List.rev_map (fun row -> (row, Hashtbl.find tbl row)) !order
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let merge_agg_value fn a b =
  let add a b =
    match a, b with
    | Value.Int x, Value.Int y -> Value.Int (x + y)
    | Value.Float x, Value.Float y -> Value.Float (x +. y)
    | Value.Int x, Value.Float y | Value.Float y, Value.Int x ->
      Value.Float (float_of_int x +. y)
    | _ -> invalid_arg "Partitioned: non-numeric aggregate merge"
  in
  match fn with
  | Agg_view.Count | Agg_view.Sum _ -> add a b
  | Agg_view.Min _ -> if Value.compare a b <= 0 then a else b
  | Agg_view.Max _ -> if Value.compare a b >= 0 then a else b

(* merge per-shard slices of aggregate view [name]: group cardinalities
   and COUNT/SUM add, MIN/MAX compare *)
let merge_agg t name rows_by_shard =
  let adef =
    match List.find_opt (fun v -> String.equal v.Agg_view.name name) t.agg_views with
    | Some v -> v
    | None -> raise Not_found
  in
  let groups = List.length adef.Agg_view.group_by in
  let fns = List.map snd adef.Agg_view.aggregates in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (row, count) ->
         let key = Array.sub row 0 groups in
         match Hashtbl.find_opt tbl key with
         | None ->
           Hashtbl.add tbl key (row, count);
           order := key :: !order
         | Some (existing, c) ->
           let merged = Array.copy existing in
           List.iteri
             (fun j fn ->
               merged.(groups + j) <- merge_agg_value fn existing.(groups + j) row.(groups + j))
             fns;
           Hashtbl.replace tbl key (merged, c + count)))
    rows_by_shard;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

(* ---------- one shard's refresh ---------- *)

(* drop what the shard's watermark says is already applied, then run the
   valve over the rest.  The valve reads this shard's own lock.wait p95 —
   backpressure on one partition leaves the others' run lengths alone —
   and each run's transaction advances the watermark to the run's
   highest txn id.  Returns the stats and the watermark the last run
   committed (the bucket is in source commit order), so the caller never
   reads it back. *)
let refresh_shard t policy wh ods =
  let wm = watermark_of t wh in
  let top run = List.fold_left (fun acc od -> max acc od.Op_delta.txn_id) 0 run in
  let pending = List.filter (fun od -> od.Op_delta.txn_id > wm) ods in
  let stats =
    Warehouse.integrate_op_deltas ~policy
      ~mark:(fun txn run -> put_watermark t.spec wh txn (top run))
      wh pending
  in
  (stats, max wm (top pending))

let check_buckets t buckets =
  if Array.length buckets <> partitions t then
    invalid_arg
      (Printf.sprintf "Partitioned.refresh: %d buckets for %d partitions"
         (Array.length buckets) (partitions t))

(* ---------- crash re-adoption ---------- *)

(* re-adopt one shard's surviving bytes: reopen + recover the shard's
   warehouse, then verify the persisted placement belongs to this slot *)
let adopt_shard ?pool_pages ?pool_stripes ~replicas ~views ~agg_views ~spec ~name ~vfs i =
  let wh =
    Warehouse.reopen ?pool_pages ?pool_stripes
      ~extra:[ (Partition.spec_table, Partition.spec_schema) ]
      ~vfs ~name:(Printf.sprintf "%s_p%d" name i) ~replicas ~views ~agg_views ()
  in
  (match Partition.load (Warehouse.db wh) with
   | Some (shard, persisted) when shard = i && Partition.equal persisted spec -> ()
   | Some (shard, persisted) ->
     invalid_arg
       (Printf.sprintf "Partitioned.reopen: shard %d holds spec %s (shard %d), expected %s" i
          (Partition.to_string persisted) shard (Partition.to_string spec))
   | None ->
     invalid_arg (Printf.sprintf "Partitioned.reopen: shard %d has no persisted spec" i));
  wh

let reopen ?pool_pages ?pool_stripes ?(op_delay = 0.0) ?(health = default_health_config)
    ?metrics ~replicas ~views ~agg_views ~spec ~name ~vfss () =
  validate_health_config health;
  if Array.length vfss <> Partition.partitions spec then
    invalid_arg
      (Printf.sprintf "Partitioned.reopen: %d shard file systems for %d partitions"
         (Array.length vfss) (Partition.partitions spec));
  let hmetrics = match metrics with Some m -> m | None -> Metrics.create () in
  let shards =
    Array.mapi
      (fun i vfs ->
        Vfs.crash_reset vfs;
        adopt_shard ?pool_pages ?pool_stripes ~replicas ~views ~agg_views ~spec ~name ~vfs i)
      vfss
  in
  let t =
    {
      spec;
      shards;
      vfss;
      name;
      op_delay;
      pool_pages;
      pool_stripes;
      hcfg = health;
      hmetrics;
      states = Array.init (Array.length shards) (fun i -> mk_state hmetrics health i);
      replicas;
      views;
      agg_views;
    }
  in
  Array.iteri (fun i s -> s.last_watermark <- watermark_of t t.shards.(i)) t.states;
  publish_health t;
  t

(* ---------- breaker-driven health transitions ---------- *)

(* a failure was recorded against shard [i]; derive its health from the
   breaker and count trip transitions *)
let apply_failure t i msg =
  let s = t.states.(i) in
  let trips_before = Breaker.trips s.breaker in
  Breaker.record_failure s.breaker;
  Metrics.incr t.hmetrics "health.refresh_failures";
  if Breaker.trips s.breaker > trips_before then Metrics.incr t.hmetrics "breaker.trips";
  s.last_error <- Some msg;
  (match s.health with
   | Rebuilding -> ()  (* rebuild owns the shard; the breaker still learns *)
   | Healthy | Suspect | Quarantined ->
     s.health <-
       (match Breaker.state s.breaker with
        | Breaker.Open | Breaker.Half_open -> Quarantined
        | Breaker.Closed -> Suspect))

let apply_success t i =
  let s = t.states.(i) in
  Breaker.record_success s.breaker;
  s.last_error <- None;
  match Breaker.state s.breaker with
  | Breaker.Closed ->
    if s.health = Quarantined then Metrics.incr t.hmetrics "health.recovered";
    (match s.health with Rebuilding -> () | _ -> s.health <- Healthy)
  | Breaker.Half_open | Breaker.Open -> ()  (* more probes needed; stays quarantined *)

(* half-open probe admission: restart the shard's simulated process over
   its surviving bytes.  [Vfs.revive] keeps any sustained fault schedule
   armed, so a shard probed inside a flap's ON window crashes again right
   here — which is the probe failing, not an error of ours. *)
let probe_reopen t i =
  Metrics.incr t.hmetrics "breaker.probes";
  Vfs.revive t.vfss.(i);
  match
    adopt_shard ?pool_pages:t.pool_pages ?pool_stripes:t.pool_stripes ~replicas:t.replicas
      ~views:t.views ~agg_views:t.agg_views ~spec:t.spec ~name:t.name ~vfs:t.vfss.(i) i
  with
  | wh ->
    t.shards.(i) <- wh;
    Ok ()
  | exception Vfs.Fault.Crash { op; index } ->
    Error (Printf.sprintf "probe reopen crashed on %s at event %d" op index)
  | exception Vfs.Fault.Transient op -> Error ("probe reopen transient fault on " ^ op)

(* ---------- parallel refresh ---------- *)

let refresh ?(policy = Warehouse.default_batch_policy) ~pool t buckets =
  Warehouse.validate_batch_policy policy;
  check_buckets t buckets;
  let n = partitions t in
  (* sequential pre-pass: decide, per shard, attempt / skip / failed probe *)
  let plan =
    Array.init n (fun i ->
        let s = t.states.(i) in
        match s.health with
        | Rebuilding -> `Skip
        | Healthy | Suspect -> `Attempt
        | Quarantined ->
          if Breaker.allow s.breaker then
            match probe_reopen t i with
            | Ok () -> `Attempt
            | Error msg ->
              Metrics.incr t.hmetrics "breaker.probe_failures";
              `Probe_failed msg
          else `Skip)
  in
  (* parallel attempts: pool tasks touch only their own shard (its
     warehouse and registry) — never the breaker or the fleet registry,
     whose bookkeeping stays on this domain *)
  let attempts = List.filter (fun i -> plan.(i) = `Attempt) (indices t) in
  let task i () =
    (* the breaker's timeout check reads the fleet registry's clock, as
       its dwell does: deterministic under a Sim_clock *)
    let started = Metrics.now t.hmetrics in
    let retries = ref 0 in
    let rec go () =
      match refresh_shard t policy t.shards.(i) buckets.(i) with
      | applied -> Ok applied
      | exception Vfs.Fault.Transient _ when !retries < t.hcfg.max_retries ->
        incr retries;
        go ()
      | exception Vfs.Fault.Transient op ->
        Error
          (Printf.sprintf "transient fault on %s persisted after %d retries" op
             t.hcfg.max_retries)
      | exception Vfs.Fault.Crash { op; index } ->
        Error (Printf.sprintf "crash on %s at event %d" op index)
    in
    let result = go () in
    (result, !retries, Metrics.now t.hmetrics -. started)
  in
  let results = Array.make n None in
  List.iter2
    (fun i r -> results.(i) <- Some r)
    attempts
    (Domain_pool.run_all pool (List.map task attempts));
  (* sequential post-pass: breaker bookkeeping and health transitions *)
  let stats = ref Warehouse.zero_stats in
  Array.iteri
    (fun i plan ->
      match plan with
      | `Skip -> Metrics.incr t.hmetrics "health.refresh_skipped"
      | `Probe_failed msg -> apply_failure t i msg
      | `Attempt -> (
        let result, retries, elapsed = Option.get results.(i) in
        if retries > 0 then Metrics.add t.hmetrics "health.retries" retries;
        match result with
        | Ok (s, wm) ->
          stats := Warehouse.add_stats !stats s;
          t.states.(i).last_watermark <- wm;
          (* post-hoc timeout breach: the work applied (and stays
             applied — the watermark advanced), but a shard this slow
             counts against its breaker like a failure *)
          if elapsed >= t.hcfg.refresh_timeout_s then begin
            Metrics.incr t.hmetrics "health.timeout_breaches";
            apply_failure t i
              (Printf.sprintf "refresh took %.3fs (timeout %.3fs)" elapsed
                 t.hcfg.refresh_timeout_s)
          end
          else apply_success t i
        | Error msg -> apply_failure t i msg))
    plan;
  publish_health t;
  !stats

(* ---------- merged reads ---------- *)

type read_policy = [ `Fail_closed | `Degraded ]

type coverage = {
  shards : int;
  served : int list;
  skipped : (int * health) list;
  watermarks : int array;
  max_watermark : int;
}

exception Unhealthy of (int * health) list

let serving t i = match t.states.(i).health with
  | Healthy | Suspect -> true
  | Quarantined | Rebuilding -> false

(* run [f i] over the serving shards; a shard that faults mid-read is
   recorded against its breaker and moved to the skipped set.  Under
   [`Fail_closed] any skipped shard (pre-existing or new) aborts the
   read; under [`Degraded] only an empty serving set does, so [served]
   is never empty. *)
let read_checked (type a) ~policy t (f : int -> a) : (int * a) list * (int * health) list =
  let served = ref [] and skipped = ref [] in
  List.iter
    (fun i ->
      if serving t i then begin
        match f i with
        | v -> served := (i, v) :: !served
        | exception (Vfs.Fault.Crash _ | Vfs.Fault.Transient _) ->
          Metrics.incr t.hmetrics "degraded.read_failures";
          apply_failure t i "read fault";
          skipped := (i, t.states.(i).health) :: !skipped
      end
      else skipped := (i, t.states.(i).health) :: !skipped)
    (indices t);
  let served = List.rev !served and skipped = List.rev !skipped in
  if skipped <> [] then publish_health t;
  (match policy with
   | `Fail_closed -> if skipped <> [] then raise (Unhealthy skipped)
   | `Degraded -> if served = [] then raise (Unhealthy skipped));
  if skipped <> [] then begin
    Metrics.incr t.hmetrics "degraded.reads";
    Metrics.add t.hmetrics "degraded.skipped_shards" (List.length skipped)
  end;
  (served, skipped)

let coverage_of (t : t) ~served ~skipped =
  let wms =
    Array.mapi
      (fun i s ->
        (* best-effort: a shard can serve its scan from cached pages and
           still fault on the watermark probe (a snapshot read of its mark
           row logs nothing, but can miss the pool) — fall back to its
           last known watermark rather than failing the read *)
        if List.mem i served then
          match watermark_of t t.shards.(i) with
          | wm ->
            s.last_watermark <- wm;
            wm
          | exception (Vfs.Fault.Crash _ | Vfs.Fault.Transient _) -> s.last_watermark
        else s.last_watermark)
      t.states
  in
  {
    shards = partitions t;
    served;
    skipped;
    watermarks = wms;
    max_watermark = Array.fold_left max 0 wms;
  }

(* each merged read: its rows, the shards that served them, the skipped *)
let read_replica ~policy t table =
  if is_fact t table then begin
    let served, skipped =
      read_checked ~policy t (fun i -> Warehouse.replica_rows t.shards.(i) table)
    in
    (List.sort Tuple.compare (List.concat_map snd served), List.map fst served, skipped)
  end
  else begin
    (* replicated table: the first serving shard that reads without a
       fault answers for the fleet; the ones after it are not read *)
    let answer = ref None in
    let served, skipped =
      read_checked ~policy t (fun i ->
          if Option.is_none !answer then answer := Some (Warehouse.replica_rows t.shards.(i) table))
    in
    (List.sort Tuple.compare (Option.get !answer), List.map fst served, skipped)
  end

let read_view ~policy t name =
  let served, skipped =
    read_checked ~policy t (fun i -> Warehouse.view_rows t.shards.(i) name)
  in
  (merge_counted (List.map snd served), List.map fst served, skipped)

let read_agg_view ~policy t name =
  let served, skipped =
    read_checked ~policy t (fun i -> Warehouse.agg_view_rows t.shards.(i) name)
  in
  (merge_agg t name (List.map snd served), List.map fst served, skipped)

(* the plain reads are the checked ones under [`Fail_closed], without the
   coverage probe (and so without its I/O) *)
let plain read t name =
  let rows, _, _ = read ~policy:`Fail_closed t name in
  rows

let checked read ~policy t name =
  let rows, served, skipped = read ~policy t name in
  (rows, coverage_of t ~served ~skipped)

let replica_rows t table = plain read_replica t table
let view_rows t name = plain read_view t name
let agg_view_rows t name = plain read_agg_view t name
let replica_rows_checked ?(policy = `Fail_closed) t table = checked read_replica ~policy t table
let view_rows_checked ?(policy = `Fail_closed) t name = checked read_view ~policy t name
let agg_view_rows_checked ?(policy = `Fail_closed) t name = checked read_agg_view ~policy t name

(* ---------- quarantined-shard rebuild ---------- *)

let fleet_watermark t =
  List.fold_left
    (fun acc i -> if serving t i then max acc (watermark_of t t.shards.(i)) else acc)
    0 (indices t)

let begin_rebuild t i =
  let s = t.states.(i) in
  (match s.health with
   | Quarantined -> ()
   | h ->
     invalid_arg
       (Printf.sprintf "Partitioned.begin_rebuild: shard %d is %s, not quarantined" i
          (health_to_string h)));
  let replicated = List.filter (fun (table, _) -> not (is_fact t table)) t.replicas in
  let donor = List.find_opt (fun j -> j <> i && serving t j) (indices t) in
  if replicated <> [] && donor = None then
    invalid_arg "Partitioned.begin_rebuild: no serving donor shard for replicated tables";
  (* fresh device, empty shard — the quarantined bytes are abandoned *)
  let vfs = Vfs.in_memory ~op_delay:t.op_delay () in
  let wh =
    fresh_shard ?pool_pages:t.pool_pages ?pool_stripes:t.pool_stripes ~spec:t.spec
      ~name:t.name ~vfs i
  in
  List.iter
    (fun (table, schema) ->
      Warehouse.add_replica wh ~table ~schema;
      if not (is_fact t table) then
        Warehouse.load_replica wh ~table
          (Warehouse.replica_rows t.shards.(Option.get donor) table))
    t.replicas;
  List.iter (Warehouse.define_view wh) t.views;
  List.iter (Warehouse.define_agg_view wh) t.agg_views;
  (* the donor copy is bulk-unlogged; checkpoint so a kill during the
     rebuild can still recover the dimension rows from the heap *)
  Db.checkpoint (Warehouse.db wh);
  t.vfss.(i) <- vfs;
  t.shards.(i) <- wh;
  s.health <- Rebuilding;
  s.last_error <- None;
  Metrics.incr t.hmetrics "health.rebuilds";
  publish_health t;
  wh

let reattach_rebuilding t i =
  let s = t.states.(i) in
  if s.health <> Rebuilding then
    invalid_arg
      (Printf.sprintf "Partitioned.reattach_rebuilding: shard %d is %s" i
         (health_to_string s.health));
  Vfs.crash_reset t.vfss.(i);
  t.shards.(i) <-
    adopt_shard ?pool_pages:t.pool_pages ?pool_stripes:t.pool_stripes ~replicas:t.replicas
      ~views:t.views ~agg_views:t.agg_views ~spec:t.spec ~name:t.name ~vfs:t.vfss.(i) i

let readmit t i ~watermark =
  let s = t.states.(i) in
  if s.health <> Rebuilding then
    invalid_arg
      (Printf.sprintf "Partitioned.readmit: shard %d is %s, not rebuilding" i
         (health_to_string s.health));
  let db = Warehouse.db t.shards.(i) in
  (* spec verification: the bytes being re-admitted must carry this
     slot's placement (catches re-admitting the wrong shard's rebuild) *)
  (match Partition.load db with
   | Some (shard, persisted) when shard = i && Partition.equal persisted t.spec -> ()
   | _ -> invalid_arg (Printf.sprintf "Partitioned.readmit: shard %d spec mismatch" i));
  (* the rebuilt shard must have caught up: re-admitting behind the
     serving fleet would roll merged reads backwards *)
  let fleet = fleet_watermark t in
  if watermark < fleet then
    invalid_arg
      (Printf.sprintf "Partitioned.readmit: shard %d watermark %d behind fleet %d" i
         watermark fleet);
  Db.with_txn db (fun txn -> put_watermark t.spec t.shards.(i) txn watermark);
  s.last_watermark <- watermark;
  s.last_error <- None;
  Breaker.reset s.breaker;
  s.health <- Healthy;
  Metrics.incr t.hmetrics "health.readmitted";
  publish_health t
