module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Heap_file = Dw_storage.Heap_file
module Codec = Dw_relation.Codec
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Metrics = Dw_util.Metrics

(* A registered view keeps its per-row functions compiled from the
   definition (see [view_state_of], [agg_state_of]), so upkeep does no
   column-name lookup per row. *)
type view_state = {
  def : Spj_view.t;
  backing : string;
  out_schema : Schema.t;
  back_schema : Schema.t;
  keyed : bool;  (* [keyed_layout out_schema]: rows stored as is, no [__count] *)
  project : Tuple.t -> Tuple.t option;  (* [Spj_view.project_sp def]; select-project only *)
}

type agg_state = {
  adef : Agg_view.t;
  abacking : string;
  aout_schema : Schema.t;
  aback_schema : Schema.t;
  passes : Tuple.t -> bool;
  group_key : Tuple.t -> Tuple.t;
  init_group : Tuple.t -> Tuple.t;
  apply_insert : current:Tuple.t -> Tuple.t -> Tuple.t;
  apply_delete : current:Tuple.t -> Tuple.t -> Agg_view.delete_outcome;
}

(* the open run of refresh transaction [txid]: the row events, newest
   first, of its consecutive integrator statements on replica [table],
   not yet maintained into the views; [ctx] names the integrator *)
type run = { txid : int; table : string; ctx : string; mutable events : Trigger.event list }

(* view-backing writes by kind, SPJ and aggregate views alike *)
type view_writes = { inserts : Metrics.counter; updates : Metrics.counter; deletes : Metrics.counter }

type t = {
  db : Db.t;
  replicas : (string, Schema.t) Hashtbl.t;
  views : (string, view_state) Hashtbl.t;  (* view name -> state *)
  agg_views : (string, agg_state) Hashtbl.t;
  by_source : (string, string list ref) Hashtbl.t;  (* source table -> view names *)
  agg_by_source : (string, string list ref) Hashtbl.t;
  mutable row_ops : int;  (* replica row events plus view-row and group writes *)
  mutable statements : int;  (* counted by [exec] *)
  mutable runs : run list;  (* at most one per refresh transaction *)
  writes : view_writes;
}

let of_db db =
  (* the warehouse resolves keyed predicates through the pk index, unlike
     the paper's scan-bound operational sources *)
  Db.set_plan_mode db `Index_preferred;
  {
    db;
    replicas = Hashtbl.create 8;
    views = Hashtbl.create 8;
    agg_views = Hashtbl.create 8;
    by_source = Hashtbl.create 8;
    agg_by_source = Hashtbl.create 8;
    row_ops = 0;
    statements = 0;
    runs = [];
    writes =
      (let m = Db.metrics db in
       {
         inserts = Metrics.counter m "warehouse.view_writes.insert";
         updates = Metrics.counter m "warehouse.view_writes.update";
         deletes = Metrics.counter m "warehouse.view_writes.delete";
       });
  }

let create ?pool_pages ?pool_stripes ~vfs ~name () =
  of_db (Db.create ?pool_pages ?pool_stripes ~vfs ~name ())

let db t = t.db

let views_on t source =
  match Hashtbl.find_opt t.by_source source with
  | Some cell -> List.filter_map (Hashtbl.find_opt t.views) !cell
  | None -> []

(* the output columns and their key, plus a [__count] column: an
   aggregate view's group cardinality, or the multiplicity of an SPJ view
   row whose key spans the whole row *)
let counted_schema out_schema =
  Schema.make ~key_arity:(Schema.key_arity out_schema)
    (Schema.columns out_schema
     @ [ { Schema.name = "__count"; ty = Value.Tint; nullable = false } ])

(* The one layout rule for SPJ views.  A key-preserving view
   ([Spj_view.output_schema] keys it by a proper prefix of its row, the
   source key) has one row per key: it is stored as is, and a changed row
   is one in-place write.  Every other view is counted. *)
let keyed_layout out_schema = Schema.key_arity out_schema < Schema.arity out_schema

let backing_schema out_schema =
  if keyed_layout out_schema then out_schema else counted_schema out_schema

let count_of back_schema row =
  match row.(Schema.arity back_schema - 1) with
  | Value.Int n -> n
  | _ -> invalid_arg "Warehouse: corrupt __count"

let with_count out_row count = Array.append out_row [| Value.Int count |]

(* the three view-backing writes, each counted once in [row_ops] and in
   its [warehouse.view_writes.*] counter.  An update or delete writes the
   [(rid, image)] one key probe found, under the backing table's X lock:
   no further lock request and no heap re-read. *)
let insert_view_row t txn backing row =
  t.row_ops <- t.row_ops + 1;
  Metrics.bump t.writes.inserts 1;
  ignore (Db.insert_row t.db txn backing row : Heap_file.rid)

let update_view_row t txn backing found row =
  t.row_ops <- t.row_ops + 1;
  Metrics.bump t.writes.updates 1;
  Db.update_row t.db txn backing found row

let delete_view_row t txn backing found =
  t.row_ops <- t.row_ops + 1;
  Metrics.bump t.writes.deletes 1;
  Db.delete_row t.db txn backing found

let violated vs what row =
  invalid_arg
    (Printf.sprintf "Warehouse: view %s %s %s" (Spj_view.name vs.def) what (Tuple.to_string row))

(* adjust one counted view row's multiplicity inside the current
   transaction *)
let adjust t txn vs out_row delta =
  match Db.find_by_key t.db txn vs.backing out_row with
  | Some ((_, existing) as found) ->
    let c = count_of vs.back_schema existing + delta in
    if c < 0 then violated vs "multiplicity below zero for" out_row
    else if c = 0 then delete_view_row t txn vs.backing found
    else update_view_row t txn vs.backing found (with_count out_row c)
  | None ->
    if delta < 0 then violated vs "removing absent row" out_row
    else if delta > 0 then insert_view_row t txn vs.backing (with_count out_row delta)

(* One write for one key of a keyed view: [leave] is the image the run
   removed from the key, which must be the stored row, and [enter] the
   image it put there.  An image entering an occupied key with nothing
   leaving it fails the backing table's duplicate-key check. *)
let write_key t txn vs leave enter =
  match leave, enter with
  | None, None -> ()
  | None, Some row -> insert_view_row t txn vs.backing row
  | Some old, _ -> (
      match Db.find_by_key t.db txn vs.backing (Tuple.key vs.back_schema old) with
      | Some ((_, stored) as found) when Tuple.equal stored old -> (
          match enter with
          | Some row -> update_view_row t txn vs.backing found row
          | None -> delete_view_row t txn vs.backing found)
      | Some _ -> violated vs "leaving image differs from the stored row:" old
      | None -> violated vs "removing absent row" old)

let same_key vs a b =
  let rec go i = i = Schema.key_arity vs.back_schema || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* [row] falls under another key than the pending [leave]/[enter] *)
let new_key vs leave enter row =
  match leave, enter with
  | Some r, _ | None, Some r -> not (same_key vs r row)
  | None, None -> false

let other_side_rows t vs source =
  match vs.def with
  | Spj_view.Select_project _ -> []
  | Spj_view.Join { left_table; right_table; _ } ->
    let other = if source = left_table then right_table else left_table in
    let rows = ref [] in
    Table.scan (Db.table t.db other) (fun _ row -> rows := row :: !rows);
    !rows

let side_of vs source =
  match vs.def with
  | Spj_view.Select_project _ -> Spj_view.L
  | Spj_view.Join { left_table; _ } ->
    if source = left_table then Spj_view.L else Spj_view.R

(* Apply (view row, ±n) changes as one net multiplicity change per view
   row: equal rows merge after a sort, and a row whose changes cancel is
   not touched at all. *)
let rec adjust_merged t txn vs = function
  | (out, d) :: (out', d') :: rest when Tuple.equal out out' ->
    adjust_merged t txn vs ((out, d + d') :: rest)
  | (out, d) :: rest ->
    if d <> 0 then adjust t txn vs out d;
    adjust_merged t txn vs rest
  | [] -> ()

(* The keyed form: the same netting, then the rows of one key (adjacent
   after the sort, the key being a prefix) make one write.  A key takes
   at most one leaving and one entering image. *)
let rec write_keys t txn vs leave enter = function
  | (out, d) :: (out', d') :: rest when Tuple.equal out out' ->
    write_keys t txn vs leave enter ((out, d + d') :: rest)
  | (_, 0) :: rest -> write_keys t txn vs leave enter rest
  | (out, _) :: _ as changes when new_key vs leave enter out ->
    write_key t txn vs leave enter;
    write_keys t txn vs None None changes
  | (out, -1) :: rest when Option.is_none leave -> write_keys t txn vs (Some out) enter rest
  | (out, 1) :: rest when Option.is_none enter -> write_keys t txn vs leave (Some out) rest
  | (out, d) :: _ ->
    violated vs (if d > 0 then "two images enter the key of" else "two images leave the key of") out
  | [] -> write_key t txn vs leave enter

(* sort (row, _) pairs by row, equal rows kept in list order; a list of
   fewer than two is returned as it is, since [List.stable_sort] would
   still allocate its closures — a run of one row event pays
   nothing for being set-oriented *)
let sort_by_row = function
  | ([] | [ _ ]) as l -> l
  | l -> List.stable_sort (fun (a, _) (b, _) -> Tuple.compare a b) l

(* A run with changes for a view X-locks its backing table, as the run's
   statements lock the replica: every row lock after it is implied, so a
   refresh transaction asks the lock manager once per table it writes. *)
let adjust_net t txn vs = function
  | [] -> ()
  | changes ->
    Db.lock_table t.db txn vs.backing;
    if vs.keyed then write_keys t txn vs None None (sort_by_row changes)
    else adjust_merged t txn vs (sort_by_row changes)

(* prepend view rows, each with multiplicity change [d] *)
let rec signed d acc = function [] -> acc | out :: rest -> signed d ((out, d) :: acc) rest

let sp_contributions vs row = match vs.project row with Some out -> [ out ] | None -> []

(* the SPJ delta rules over row events: a before image contributes −1
   and an after image +1 per view row it produces *)
let rec spj_changes contributions acc = function
  | [] -> acc
  | Trigger.Inserted (_, after) :: rest ->
    spj_changes contributions (signed 1 acc (contributions after)) rest
  | Trigger.Deleted (_, before) :: rest ->
    spj_changes contributions (signed (-1) acc (contributions before)) rest
  | Trigger.Updated (_, before, after) :: rest ->
    let acc = signed (-1) acc (contributions before) in
    spj_changes contributions (signed 1 acc (contributions after)) rest

(* a join view reads its other side once per run: the run, confined to
   [source], left it unchanged *)
let maintain_spj t txn source events vs =
  let contributions =
    match vs.def with
    | Spj_view.Select_project _ -> sp_contributions vs
    | Spj_view.Join _ ->
      let other_rows = other_side_rows t vs source in
      let contribution = Spj_view.join_contribution vs.def (side_of vs source) in
      fun row -> contribution row ~other_rows
  in
  adjust_net t txn vs (spj_changes contributions [] events)

(* ---------- aggregate view maintenance ---------- *)

let agg_views_on t source =
  match Hashtbl.find_opt t.agg_by_source source with
  | Some cell -> List.filter_map (Hashtbl.find_opt t.agg_views) !cell
  | None -> []

let agg_count_of back_schema row =
  match row.(Schema.arity back_schema - 1) with
  | Value.Int n -> n
  | _ -> invalid_arg "Warehouse: corrupt agg __count"

let agg_out_of ast row = Array.sub row 0 (Schema.arity ast.aout_schema)

let replica_rows_now t table =
  let rows = ref [] in
  Table.scan (Db.table t.db table) (fun _ row -> rows := row :: !rows);
  !rows

(* what one row event does to one group *)
type agg_step =
  | Enter of Tuple.t
  | Leave of Tuple.t
  | Move of Tuple.t * Tuple.t  (* before, after: an update within the group *)

(* a group's state while a run's steps fold into it *)
type agg_group =
  | Absent
  | Present of Tuple.t * int  (* output row, cardinality *)
  | Rescan  (* a MIN/MAX extremum left: recompute after the run *)

let enter ast row acc =
  if ast.passes row then (ast.group_key row, Enter row) :: acc
  else acc

let leave ast row acc =
  if ast.passes row then (ast.group_key row, Leave row) :: acc
  else acc

(* (group, step) per row event, in event order *)
let rec agg_steps ast = function
  | [] -> []
  | Trigger.Inserted (_, after) :: rest -> enter ast after (agg_steps ast rest)
  | Trigger.Deleted (_, before) :: rest -> leave ast before (agg_steps ast rest)
  | Trigger.Updated (_, before, after) :: rest -> (
      let later = agg_steps ast rest in
      match leave ast before [], enter ast after [] with
      | [ (g, _) ], [ (g', _) ] when Tuple.equal g g' -> (g, Move (before, after)) :: later
      | left, entered -> left @ entered @ later)

(* the same transitions row-at-a-time maintenance made, in event order,
   so COUNT and SUM see the same sequence of adds and subtracts *)
let agg_fold ast group state step =
  match state, step with
  | Rescan, _ -> Rescan
  | Absent, Enter row -> Present (ast.init_group row, 1)
  | Present (out, n), Enter row -> Present (ast.apply_insert ~current:out row, n + 1)
  | Absent, (Leave _ | Move _) ->
    invalid_arg
      (Printf.sprintf "Warehouse: agg view %s missing group %s" ast.adef.Agg_view.name
         (Tuple.to_string group))
  | Present (_, n), Leave _ when n <= 1 -> Absent
  | Present (out, n), Leave row -> (
      match ast.apply_delete ~current:out row with
      | Agg_view.Updated out -> Present (out, n - 1)
      | Agg_view.Needs_rescan -> Rescan)
  | Present (out, n), Move (before, after) -> (
      match ast.apply_delete ~current:out before with
      | Agg_view.Updated out -> Present (ast.apply_insert ~current:out after, n)
      | Agg_view.Needs_rescan -> Rescan)

(* Read each touched group once, fold its run of steps, write it once.
   A group marked [Rescan] is recomputed from the replica at the end of
   the run. *)
let rec agg_write_runs t txn ast = function
  | [] -> ()
  | (group, _) :: _ as steps ->
    let existing = Db.find_by_key t.db txn ast.abacking group in
    let initial =
      match existing with
      | Some (_, row) -> Present (agg_out_of ast row, agg_count_of ast.aback_schema row)
      | None -> Absent
    in
    agg_fold_run t txn ast group existing initial steps

and agg_fold_run t txn ast group existing state = function
  | (g, step) :: rest when g == group || Tuple.equal g group ->
    agg_fold_run t txn ast group existing (agg_fold ast group state step) rest
  | rest ->
    let final =
      match state with
      | Rescan -> (
          let replica_rows = replica_rows_now t ast.adef.Agg_view.table in
          match Agg_view.recompute_group ast.adef ~group ~replica_rows with
          | Some (out, n) -> Present (out, n)
          | None -> Absent)
      | Absent | Present _ -> state
    in
    (match existing, final with
     | Some found, Present (out, n) -> update_view_row t txn ast.abacking found (with_count out n)
     | None, Present (out, n) -> insert_view_row t txn ast.abacking (with_count out n)
     | Some found, (Absent | Rescan) -> delete_view_row t txn ast.abacking found
     | None, (Absent | Rescan) -> ());
    agg_write_runs t txn ast rest

(* A stable sort of the steps in event order keeps each group's run in
   event order.  This loop and [maintain_spjs] recurse rather than
   [List.iter] a partial application: a write outside a run maintains
   one row event, and the closure would be an allocation per event. *)
let rec maintain_aggs t txn events = function
  | [] -> ()
  | ast :: rest ->
    (match agg_steps ast events with
     | [] -> ()
     | steps ->
       Db.lock_table t.db txn ast.abacking;
       agg_write_runs t txn ast (sort_by_row steps));
    maintain_aggs t txn events rest

let rec maintain_spjs t txn source events = function
  | [] -> ()
  | vs :: rest ->
    maintain_spj t txn source events vs;
    maintain_spjs t txn source events rest

(* Maintain every view over [table] for one run's row events, in event
   order, inside [txn]: the set-oriented form of the delta rules, so each
   view row or aggregate group the run touches is read and written once
   however many rows moved through it. *)
let maintain_views t table txn events =
  t.row_ops <- t.row_ops + List.length events;
  maintain_spjs t txn table events (views_on t table);
  maintain_aggs t txn events (agg_views_on t table)

(* ---------- runs ---------- *)

let statement_failed ~ctx e = invalid_arg (Printf.sprintf "Warehouse.%s: %s" ctx e)

let rec run_of id = function [] -> None | r :: rest -> if r.txid = id then Some r else run_of id rest
let drop_run t txn = t.runs <- List.filter (fun r -> r.txid <> Db.txid txn) t.runs

(* Close [txn]'s open run, if any, and maintain the views from its
   events.  Only the run's table changed while it was open, so a join
   view's other side is the one every event of the run saw. *)
let flush_run t txn =
  match run_of (Db.txid txn) t.runs with
  | None -> ()
  | Some r -> (
      drop_run t txn;
      match r.events with
      | [] -> ()
      | events -> (
          try maintain_views t r.table txn (List.rev events)
          with Invalid_argument e -> statement_failed ~ctx:r.ctx e))

(* ---------- registration ---------- *)

(* The replica trigger: a row event on the table of its transaction's
   open run joins the run (the run is tagged with its transaction, so
   another session's write is not swept into it).  A write to another
   replica table first maintains that transaction's run; any write
   outside a run is maintained at once, as a one-event run. *)
let on_row_event t table (ctx : Db.trigger_ctx) event =
  let txn = ctx.Db.ctx_txn in
  match run_of (Db.txid txn) t.runs with
  | Some r when String.equal r.table table -> r.events <- event :: r.events
  | _ ->
    flush_run t txn;
    maintain_views t table txn [ event ]

let install_replica t ~table schema =
  Hashtbl.add t.replicas table schema;
  Db.add_trigger t.db ~table
    {
      Trigger.name = "maintain_views__" ^ table;
      on = [ Trigger.On_insert; Trigger.On_delete; Trigger.On_update ];
      action = on_row_event t table;
    }

let add_replica t ~table ~schema =
  if Hashtbl.mem t.replicas table then
    invalid_arg (Printf.sprintf "Warehouse.add_replica: %s exists" table);
  ignore (Db.create_table t.db ~name:table schema : Table.t);
  install_replica t ~table schema

let load_replica t ~table rows =
  let tbl = Db.table t.db table in
  let schema = Table.schema tbl in
  List.iter
    (fun row ->
      ignore (Table.raw_insert_blind tbl (Codec.encode_binary schema row) : Heap_file.rid))
    rows;
  Table.rebuild_indexes tbl

let replica_rows t table =
  let rows = ref [] in
  Table.scan (Db.table t.db table) (fun _ row -> rows := row :: !rows);
  List.rev !rows

(* every view kind names its own backing table, so a view name must be
   free in both registries — a view registered over another kind's table
   would maintain the wrong rows into it *)
let check_view_name t ctx name =
  if Hashtbl.mem t.views name || Hashtbl.mem t.agg_views name then
    invalid_arg (Printf.sprintf "Warehouse.%s: %s exists" ctx name)

let check_valid ctx = function
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Warehouse.%s: %s" ctx e)

let index_source index source name =
  match Hashtbl.find_opt index source with
  | Some cell -> cell := name :: !cell
  | None -> Hashtbl.add index source (ref [ name ])

(* bulk-fill a freshly created backing table (unlogged, like load_replica) *)
let materialize t name back_schema rows =
  let tbl = Db.table t.db name in
  List.iter
    (fun row ->
      ignore (Table.raw_insert_blind tbl (Codec.encode_binary back_schema row) : Heap_file.rid))
    rows;
  Table.rebuild_indexes tbl

let counted rows = List.map (fun (row, count) -> with_count row count) rows

let view_state_of view =
  let out_schema = Spj_view.output_schema view in
  {
    def = view;
    backing = Spj_view.name view;
    out_schema;
    back_schema = backing_schema out_schema;
    keyed = keyed_layout out_schema;
    project = Spj_view.project_sp view;
  }

(* hook a view into trigger maintenance over its backing table *)
let register_view t vs =
  let name = Spj_view.name vs.def in
  Hashtbl.add t.views name vs;
  List.iter (fun source -> index_source t.by_source source name) (Spj_view.source_tables vs.def)

let register_agg_view t view =
  let name = view.Agg_view.name in
  Hashtbl.add t.agg_views name
    {
      adef = view;
      abacking = name;
      aout_schema = Agg_view.output_schema view;
      aback_schema = counted_schema (Agg_view.output_schema view);
      passes = Agg_view.passes view;
      group_key = Agg_view.group_key view;
      init_group = Agg_view.init_group view;
      apply_insert = Agg_view.apply_insert view;
      apply_delete = Agg_view.apply_delete view;
    };
  index_source t.agg_by_source view.Agg_view.table name

let recompute_view t name =
  match Hashtbl.find_opt t.views name with
  | None -> raise Not_found
  | Some vs -> Spj_view.eval vs.def ~rows_of:(replica_rows t)

let define_view t view =
  let name = Spj_view.name view in
  check_view_name t "define_view" name;
  check_valid "define_view" (Spj_view.validate view);
  List.iter
    (fun source ->
      if not (Hashtbl.mem t.replicas source) then
        invalid_arg
          (Printf.sprintf "Warehouse.define_view: no replica for source table %s" source))
    (Spj_view.source_tables view);
  let vs = view_state_of view in
  ignore (Db.create_table t.db ~name vs.back_schema : Table.t);
  register_view t vs;
  (* materialize from current replica contents *)
  let rows = Spj_view.eval view ~rows_of:(replica_rows t) in
  materialize t name vs.back_schema (if vs.keyed then List.map fst rows else counted rows)

let view_rows t name =
  match Hashtbl.find_opt t.views name with
  | None -> raise Not_found
  | Some vs ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        if vs.keyed then rows := (row, 1) :: !rows
        else
          let out = Array.sub row 0 (Schema.arity vs.out_schema) in
          rows := (out, count_of vs.back_schema row) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let define_agg_view t view =
  let name = view.Agg_view.name in
  check_view_name t "define_agg_view" name;
  check_valid "define_agg_view" (Agg_view.validate view);
  if not (Hashtbl.mem t.replicas view.Agg_view.table) then
    invalid_arg
      (Printf.sprintf "Warehouse.define_agg_view: no replica for %s" view.Agg_view.table);
  let aback_schema = counted_schema (Agg_view.output_schema view) in
  ignore (Db.create_table t.db ~name aback_schema : Table.t);
  register_agg_view t view;
  materialize t name aback_schema
    (counted (Agg_view.eval view ~rows:(replica_rows t view.Agg_view.table)))

let agg_view_rows t name =
  match Hashtbl.find_opt t.agg_views name with
  | None -> raise Not_found
  | Some ast ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        rows := (agg_out_of ast row, agg_count_of ast.aback_schema row) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let recompute_agg_view t name =
  match Hashtbl.find_opt t.agg_views name with
  | None -> raise Not_found
  | Some ast -> Agg_view.eval ast.adef ~rows:(replica_rows t ast.adef.Agg_view.table)

type stats = { txns : int; statements : int; row_ops : int; duration : float }

let zero_stats = { txns = 0; statements = 0; row_ops = 0; duration = 0.0 }

let add_stats a b =
  {
    txns = a.txns + b.txns;
    statements = a.statements + b.statements;
    row_ops = a.row_ops + b.row_ops;
    duration = a.duration +. b.duration;
  }

(* ---------- the refresh transaction and the statement executor ---------- *)

(* One warehouse refresh transaction, the scaffold every integrator
   shares: the [warehouse.refresh] span, [body], its last run's view
   upkeep, then [mark] inside one [Db.with_txn] (so a progress record
   commits or rolls back with the data), and the statement, row-op and
   registry-clock deltas as stats.  A raise drops the open run: the
   rollback discards its rows. *)
let refresh_txn (t : t) ~mark body =
  let metrics = Db.metrics t.db in
  Metrics.with_span metrics "warehouse.refresh" @@ fun () ->
  let start = Metrics.now metrics in
  let statements0 = t.statements and row_ops0 = t.row_ops in
  Db.with_txn t.db (fun txn ->
      match
        body txn;
        flush_run t txn
      with
      | () -> mark txn
      | exception e ->
        drop_run t txn;
        raise e);
  {
    txns = 1;
    statements = t.statements - statements0;
    row_ops = t.row_ops - row_ops0;
    duration = Metrics.now metrics -. start;
  }

(* Every statement an integrator executes runs here: [apply] is its one
   engine call on replica [table].  Errors read as [Db.exec_sql] reports
   them.  The statement joins its transaction's run when it writes the
   run's table; otherwise the run is maintained and a new one opens.
   Views are maintained once per run, not per statement, so a value
   delta's one-row statements into one group rewrite it once. *)
let statement (t : t) txn ~ctx ~table apply =
  t.statements <- t.statements + 1;
  (match run_of (Db.txid txn) t.runs with
   | Some r when String.equal r.table table -> ()
   | _ ->
     flush_run t txn;
     t.runs <- { txid = Db.txid txn; table; ctx; events = [] } :: t.runs);
  match apply () with
  | result -> result
  | exception Invalid_argument e -> statement_failed ~ctx e
  | exception Not_found -> statement_failed ~ctx (Printf.sprintf "unknown table %s" table)

(* Per the paper (Section 4.1), a value delta integrates as SQL-level
   operations: an INSERT per insert image, a keyed DELETE per delete
   image, and both per update.  The differential file is data, so each
   record is applied as the typed row it is, as the paper's Loader writes
   rows: through the key index, one statement under the table X lock.
   A value delta of x updates costs 2x statements and row writes where
   the Op-Delta costs one UPDATE. *)
let integrate_value_delta ?(mark = ignore) (t : t) delta =
  let ctx = "integrate_value_delta" in
  let table = delta.Delta.table in
  let schema = delta.Delta.schema in
  let insert ?upsert txn row =
    statement t txn ~ctx ~table (fun () ->
        ignore (Db.insert ?upsert t.db txn table row : Heap_file.rid))
  in
  let delete txn before =
    statement t txn ~ctx ~table (fun () ->
        ignore (Db.delete_key t.db txn table (Tuple.key schema before) : int))
  in
  refresh_txn t ~mark (fun txn ->
      List.iter
        (function
          | Delta.Insert after -> insert txn after
          | Delta.Delete before -> delete txn before
          | Delta.Update (before, after) ->
            delete txn before;
            insert txn after
          | Delta.Upsert after -> insert ~upsert:true txn after)
        delta.Delta.changes)

(* ---------- Op-Delta integration ---------- *)

type batch_policy = {
  max_batch : int;
  min_batch : int;
  lock_wait_p95_s : float;
}

let default_batch_policy = { max_batch = 16; min_batch = 1; lock_wait_p95_s = 0.010 }

let validate_batch_policy p =
  if p.min_batch < 1 then invalid_arg "Warehouse: batch_policy.min_batch < 1";
  if p.max_batch < p.min_batch then
    invalid_arg "Warehouse: batch_policy.max_batch < min_batch";
  if not (p.lock_wait_p95_s >= 0.0) then
    invalid_arg "Warehouse: batch_policy.lock_wait_p95_s < 0"

let integrate_op_deltas ?policy ?(mark = fun _ _ -> ()) (t : t) ods =
  (* a run of whole, consecutive source transactions is ONE warehouse
     transaction, every statement re-executed from its AST in source
     commit order: one execution per source statement, not per affected
     row.  A statement that arrived as text was parsed once where it was
     received ([Op_delta.decode_line]); a fleet's never was text. *)
  let apply run =
    refresh_txn t
      ~mark:(fun txn -> mark txn run)
      (fun txn ->
        List.iter
          (fun od ->
            List.iter
              (fun { Op_delta.stmt; _ } ->
                statement t txn ~ctx:"integrate_op_deltas" ~table:(Dw_sql.Ast.table_of stmt)
                  (fun () -> ignore (Db.exec t.db txn stmt : Db.exec_result)))
              od.Op_delta.ops)
          run)
  in
  match policy with
  | None -> List.fold_left (fun acc od -> add_stats acc (apply [ od ])) zero_stats ods
  | Some policy ->
    validate_batch_policy policy;
    let metrics = Db.metrics t.db in
    (* the valve: open at max, shrink multiplicatively when reader
       lock-waits climb, recover additively when they subside *)
    let target = ref policy.max_batch in
    let rec go acc run len = function
      | od :: rest when len < !target -> go acc (od :: run) (len + 1) rest
      | _ when len = 0 -> acc
      | rest ->
        Metrics.observe metrics "warehouse.batch_size" (float_of_int len);
        let acc = add_stats acc (apply (List.rev run)) in
        let p95 = Metrics.percentile metrics "lock.wait" 0.95 in
        if p95 > policy.lock_wait_p95_s then target := max policy.min_batch (!target / 2)
        else target := min policy.max_batch (!target + 1);
        Metrics.set_gauge metrics "warehouse.batch_size_target" (float_of_int !target);
        go acc [] 0 rest
    in
    go zero_stats [] 0 ods

(* ---------- progress rows: extraction marks and bootstrap runs ---------- *)

(* a progress table's engine, creating the table empty on first use *)
let progress_db t table schema =
  if Db.table_opt t.db table = None then
    ignore (Db.create_table t.db ~name:table schema : Table.t);
  t.db

let not_null (name, ty) = { Schema.name; ty; nullable = false }

(* a snapshot read: no lock, nothing logged *)
let snapshot_find db table key =
  let txn = Db.begin_txn ~mode:`Snapshot db in
  match Db.find_by_key db txn table key with
  | row ->
    Db.commit db txn;
    row
  | exception e ->
    Db.abort db txn;
    raise e

type mark = { day : int; lsn : int; snap : int; trig : int; ops : int }

let marks_table = "__extract_marks"

let marks_schema =
  Schema.make
    (List.map not_null
       [ ("table_name", Value.Tstring 40); ("day", Value.Tint); ("lsn", Value.Tint);
         ("snap", Value.Tint); ("trig", Value.Tint); ("ops", Value.Tint) ])

let mark t table =
  let db = progress_db t marks_table marks_schema in
  match snapshot_find db marks_table [| Value.Str table |] with
  | Some (_, [| _; Value.Int day; Value.Int lsn; Value.Int snap; Value.Int trig; Value.Int ops |])
    ->
    { day; lsn; snap; trig; ops }
  | Some _ -> invalid_arg "Warehouse.mark: malformed mark row"
  | None -> { day = -1; lsn = 0; snap = 0; trig = 0; ops = 0 }

let put_mark t txn table m =
  let db = progress_db t marks_table marks_schema in
  ignore
    (Db.insert_row ~upsert:true db txn marks_table
       [| Value.Str table; Value.Int m.day; Value.Int m.lsn; Value.Int m.snap; Value.Int m.trig;
          Value.Int m.ops |]
      : Heap_file.rid)

type bootstrap_state = Bootstrapping | Complete

type bootstrap = {
  table : string;
  run_id : string;
  state : bootstrap_state;
  next_key : int;
  chunks_done : int;
  rows_loaded : int;
  last_txn : int;
  lease_owner : string;
  lease_expiry : float;
}

let runs_table = "__bootstrap_state"

let runs_schema =
  Schema.make
    (List.map not_null
       [ ("table_name", Value.Tstring 40); ("run_id", Value.Tstring 16); ("state", Value.Tint);
         ("next_key", Value.Tint); ("chunks_done", Value.Tint); ("rows_loaded", Value.Tint);
         ("last_txn", Value.Tint); ("lease_owner", Value.Tstring 16);
         ("lease_expiry", Value.Tfloat) ])

let bootstrap_of_row = function
  | Some
      ( _,
        [| Value.Str table; Value.Str run_id; Value.Int state; Value.Int next_key;
           Value.Int chunks_done; Value.Int rows_loaded; Value.Int last_txn;
           Value.Str lease_owner; Value.Float lease_expiry |] ) ->
    let state =
      match state with
      | 0 -> Bootstrapping
      | 1 -> Complete
      | n -> invalid_arg (Printf.sprintf "Warehouse.bootstrap: unknown state %d" n)
    in
    Some
      { table; run_id; state; next_key; chunks_done; rows_loaded; last_txn; lease_owner;
        lease_expiry }
  | Some _ -> invalid_arg "Warehouse.bootstrap: malformed run row"
  | None -> None

let bootstrap t table =
  if Db.table_opt t.db runs_table = None then None
  else bootstrap_of_row (snapshot_find t.db runs_table [| Value.Str table |])

let lock_bootstrap t txn table =
  let db = progress_db t runs_table runs_schema in
  bootstrap_of_row (Db.find_by_key db txn runs_table [| Value.Str table |])

let put_bootstrap t txn b =
  let db = progress_db t runs_table runs_schema in
  ignore
    (Db.insert_row ~upsert:true db txn runs_table
       [| Value.Str b.table; Value.Str b.run_id;
          Value.Int (match b.state with Bootstrapping -> 0 | Complete -> 1);
          Value.Int b.next_key; Value.Int b.chunks_done; Value.Int b.rows_loaded;
          Value.Int b.last_txn; Value.Str b.lease_owner; Value.Float b.lease_expiry |]
      : Heap_file.rid)

(* ---------- re-adoption after a crash ---------- *)

(* Every check runs before the device is touched: [Db.reopen] writes
   (torn-tail truncation, recovery), and it would start a never-created
   table empty, so a view that never existed must fail here. *)
let reopen ?pool_pages ?pool_stripes ?(extra = []) ~vfs ~name ~replicas ~views ~agg_views () =
  let agg_name (v : Agg_view.t) = v.Agg_view.name in
  let data = List.map fst replicas @ List.map Spj_view.name views @ List.map agg_name agg_views in
  let rec check_unique seen = function
    | [] -> ()
    | n :: rest ->
      if List.mem n seen then invalid_arg (Printf.sprintf "Warehouse.reopen: %s exists" n);
      check_unique (n :: seen) rest
  in
  (* the progress tables are the warehouse's own: adopted whenever they exist *)
  let extra =
    List.filter
      (fun (table, _) -> Db.has_table_file ~vfs ~name table)
      [ (marks_table, marks_schema); (runs_table, runs_schema) ]
    @ extra
  in
  check_unique [] (data @ List.map fst extra);
  List.iter (fun v -> check_valid "reopen" (Spj_view.validate v)) views;
  List.iter (fun v -> check_valid "reopen" (Agg_view.validate v)) agg_views;
  List.iter
    (fun table ->
      if not (Db.has_table_file ~vfs ~name table) then
        invalid_arg (Printf.sprintf "Warehouse.reopen: no table %s on the device" table))
    data;
  let views = List.map view_state_of views in
  let tables =
    List.map (fun (table, schema) -> (table, schema, None)) replicas
    @ List.map (fun vs -> (vs.backing, vs.back_schema, None)) views
    @ List.map
        (fun v -> (agg_name v, counted_schema (Agg_view.output_schema v), None))
        agg_views
    @ List.map (fun (table, schema) -> (table, schema, None)) extra
  in
  let db, (_ : Dw_txn.Recovery.stats) =
    Db.reopen ?pool_pages ?pool_stripes ~vfs ~name ~tables ()
  in
  let t = of_db db in
  List.iter (fun (table, schema) -> install_replica t ~table schema) replicas;
  List.iter (register_view t) views;
  List.iter (register_agg_view t) agg_views;
  t
