module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
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

type view_state = {
  def : Spj_view.t;
  backing : string;
  out_schema : Schema.t;
  back_schema : Schema.t;
}

type agg_state = {
  adef : Agg_view.t;
  abacking : string;
  aout_schema : Schema.t;
  aback_schema : Schema.t;
}

type t = {
  db : Db.t;
  replicas : (string, Schema.t) Hashtbl.t;
  views : (string, view_state) Hashtbl.t;  (* view name -> state *)
  agg_views : (string, agg_state) Hashtbl.t;
  viewonly : (string, view_state) Hashtbl.t;
  by_source : (string, string list ref) Hashtbl.t;  (* source table -> view names *)
  agg_by_source : (string, string list ref) Hashtbl.t;
  mutable row_ops : int;  (* counted across integrations via triggers *)
  mutable statements : int;  (* counted by [exec] *)
}

let attach ~db () =
  (* the warehouse resolves keyed predicates through the pk index, unlike
     the paper's scan-bound operational sources *)
  Db.set_plan_mode db `Index_preferred;
  {
    db;
    replicas = Hashtbl.create 8;
    views = Hashtbl.create 8;
    agg_views = Hashtbl.create 8;
    viewonly = Hashtbl.create 8;
    by_source = Hashtbl.create 8;
    agg_by_source = Hashtbl.create 8;
    row_ops = 0;
    statements = 0;
  }

let create ?pool_pages ?pool_stripes ~vfs ~name () =
  attach ~db:(Db.create ?pool_pages ?pool_stripes ~vfs ~name ()) ()

let db t = t.db

let views_on t source =
  match Hashtbl.find_opt t.by_source source with
  | Some cell -> List.filter_map (Hashtbl.find_opt t.views) !cell
  | None -> []

let backing_schema out_schema =
  Schema.make ~key_arity:(Schema.arity out_schema)
    (Schema.columns out_schema
     @ [ { Schema.name = "__count"; ty = Value.Tint; nullable = false } ])

(* aggregate backing: the key is only the group columns *)
let backing_schema_keyed out_schema =
  Schema.make ~key_arity:(Schema.key_arity out_schema)
    (Schema.columns out_schema
     @ [ { Schema.name = "__count"; ty = Value.Tint; nullable = false } ])

let count_of back_schema row =
  match row.(Schema.arity back_schema - 1) with
  | Value.Int n -> n
  | _ -> invalid_arg "Warehouse: corrupt __count"

let with_count out_row count = Array.append out_row [| Value.Int count |]

(* adjust one view row's multiplicity inside the current transaction *)
let adjust t txn vs out_row delta =
  t.row_ops <- t.row_ops + 1;
  match Db.find_by_key t.db txn vs.backing out_row with
  | Some (rid, existing) ->
    let c = count_of vs.back_schema existing + delta in
    if c < 0 then
      invalid_arg
        (Printf.sprintf "Warehouse: view %s multiplicity below zero for %s"
           (Spj_view.name vs.def) (Tuple.to_string out_row))
    else if c = 0 then Db.delete_rid t.db txn vs.backing rid
    else Db.update_rid t.db txn vs.backing rid (with_count out_row c)
  | None ->
    if delta < 0 then
      invalid_arg
        (Printf.sprintf "Warehouse: view %s removing absent row %s" (Spj_view.name vs.def)
           (Tuple.to_string out_row))
    else if delta > 0 then
      ignore (Db.insert_row t.db txn vs.backing (with_count out_row delta) : Heap_file.rid)

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

let contributions t vs source row =
  match vs.def with
  | Spj_view.Select_project _ -> (
      match Spj_view.project_sp vs.def row with Some out -> [ out ] | None -> [])
  | Spj_view.Join _ ->
    Spj_view.join_contribution vs.def (side_of vs source) row
      ~other_rows:(other_side_rows t vs source)

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

let agg_apply_insert t txn ast row =
  if Agg_view.passes ast.adef row then begin
    t.row_ops <- t.row_ops + 1;
    let group = Agg_view.group_key ast.adef row in
    match Db.find_by_key t.db txn ast.abacking group with
    | Some (rid, existing) ->
      let count = agg_count_of ast.aback_schema existing in
      let out = Agg_view.apply_insert ast.adef ~current:(agg_out_of ast existing) row in
      Db.update_rid t.db txn ast.abacking rid (with_count out (count + 1))
    | None ->
      ignore
        (Db.insert_row t.db txn ast.abacking
           (with_count (Agg_view.init_group ast.adef row) 1)
          : Heap_file.rid)
  end

let agg_apply_delete t txn ast row =
  if Agg_view.passes ast.adef row then begin
    t.row_ops <- t.row_ops + 1;
    let group = Agg_view.group_key ast.adef row in
    match Db.find_by_key t.db txn ast.abacking group with
    | None ->
      invalid_arg
        (Printf.sprintf "Warehouse: agg view %s missing group %s" ast.adef.Agg_view.name
           (Tuple.to_string group))
    | Some (rid, existing) ->
      let count = agg_count_of ast.aback_schema existing in
      if count <= 1 then Db.delete_rid t.db txn ast.abacking rid
      else begin
        match Agg_view.apply_delete ast.adef ~current:(agg_out_of ast existing) row with
        | Agg_view.Updated out -> Db.update_rid t.db txn ast.abacking rid (with_count out (count - 1))
        | Agg_view.Needs_rescan -> (
            (* the trigger is AFTER: the replica no longer holds [row] *)
            let detail = replica_rows_now t ast.adef.Agg_view.table in
            match Agg_view.recompute_group ast.adef ~group ~replica_rows:detail with
            | Some (out, n) -> Db.update_rid t.db txn ast.abacking rid (with_count out n)
            | None -> Db.delete_rid t.db txn ast.abacking rid)
      end
  end

(* refresh one whole group from replica detail (used for updates, where
   incremental delete-then-insert would see the post-update replica twice) *)
let agg_refresh_group t txn ast group =
  t.row_ops <- t.row_ops + 1;
  let detail = replica_rows_now t ast.adef.Agg_view.table in
  let current = Db.find_by_key t.db txn ast.abacking group in
  match Agg_view.recompute_group ast.adef ~group ~replica_rows:detail, current with
  | Some (out, n), Some (rid, _) -> Db.update_rid t.db txn ast.abacking rid (with_count out n)
  | Some (out, n), None ->
    ignore (Db.insert_row t.db txn ast.abacking (with_count out n) : Heap_file.rid)
  | None, Some (rid, _) -> Db.delete_rid t.db txn ast.abacking rid
  | None, None -> ()

(* Updates run incrementally: remove the before-row's contribution and add
   the after-row's.  Only a MIN/MAX extremum leaving its group forces a
   group refresh — and that refresh reads the post-update replica, so the
   incremental insert of the after-row must be skipped when it landed in
   the refreshed group. *)
let agg_apply_update t txn ast ~before ~after =
  let passes = Agg_view.passes ast.adef in
  let before_in = passes before and after_in = passes after in
  let g_before = if before_in then Some (Agg_view.group_key ast.adef before) else None in
  let g_after = if after_in then Some (Agg_view.group_key ast.adef after) else None in
  match g_before, g_after with
  | None, None -> ()
  | None, Some _ -> agg_apply_insert t txn ast after
  | Some group, after_opt -> (
      let same_group =
        match after_opt with Some g -> Tuple.equal g group | None -> false
      in
      t.row_ops <- t.row_ops + 1;
      match Db.find_by_key t.db txn ast.abacking group with
      | None ->
        invalid_arg
          (Printf.sprintf "Warehouse: agg view %s missing group %s" ast.adef.Agg_view.name
             (Tuple.to_string group))
      | Some (rid, existing) -> (
          let count = agg_count_of ast.aback_schema existing in
          match Agg_view.apply_delete ast.adef ~current:(agg_out_of ast existing) before with
          | Agg_view.Updated out ->
            if same_group then
              (* fold the after-row straight back in; cardinality unchanged *)
              Db.update_rid t.db txn ast.abacking rid
                (with_count (Agg_view.apply_insert ast.adef ~current:out after) count)
            else begin
              (if count <= 1 then Db.delete_rid t.db txn ast.abacking rid
               else Db.update_rid t.db txn ast.abacking rid (with_count out (count - 1)));
              match after_opt with
              | Some _ -> agg_apply_insert t txn ast after
              | None -> ()
            end
          | Agg_view.Needs_rescan ->
            (* the post-update replica already holds the after-row: a
               refresh of [group] absorbs it when same_group, otherwise
               the after-row's own group still needs its insert *)
            agg_refresh_group t txn ast group;
            if not same_group then
              match after_opt with
              | Some _ -> agg_apply_insert t txn ast after
              | None -> ()))

let maintain_views t source (ctx : Db.trigger_ctx) event =
  let apply row delta =
    List.iter
      (fun vs ->
        List.iter (fun out -> adjust t ctx.Db.ctx_txn vs out delta) (contributions t vs source row))
      (views_on t source)
  in
  let apply_agg row delta =
    List.iter
      (fun ast ->
        if delta > 0 then agg_apply_insert t ctx.Db.ctx_txn ast row
        else agg_apply_delete t ctx.Db.ctx_txn ast row)
      (agg_views_on t source)
  in
  match event with
  | Trigger.Inserted (_, after) ->
    t.row_ops <- t.row_ops + 1;
    apply after 1;
    apply_agg after 1
  | Trigger.Deleted (_, before) ->
    t.row_ops <- t.row_ops + 1;
    apply before (-1);
    apply_agg before (-1)
  | Trigger.Updated (_, before, after) ->
    t.row_ops <- t.row_ops + 1;
    apply before (-1);
    apply after 1;
    List.iter
      (fun ast -> agg_apply_update t ctx.Db.ctx_txn ast ~before ~after)
      (agg_views_on t source)

(* ---------- registration ---------- *)

let replica_schema t ctx table =
  match Hashtbl.find_opt t.replicas table with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Warehouse.%s: %s is not a replica" ctx table)

let install_replica t ~table schema =
  Hashtbl.add t.replicas table schema;
  Db.add_trigger t.db ~table
    {
      Trigger.name = "maintain_views__" ^ table;
      on = [ Trigger.On_insert; Trigger.On_delete; Trigger.On_update ];
      action = (fun ctx event -> maintain_views t table ctx event);
    }

let add_replica t ~table ~schema =
  if Hashtbl.mem t.replicas table then
    invalid_arg (Printf.sprintf "Warehouse.add_replica: %s exists" table);
  ignore (Db.create_table t.db ~name:table schema : Table.t);
  install_replica t ~table schema

let attach_replica t ~table =
  if Hashtbl.mem t.replicas table then
    invalid_arg (Printf.sprintf "Warehouse.attach_replica: %s already attached" table);
  match Db.table_opt t.db table with
  | None -> invalid_arg (Printf.sprintf "Warehouse.attach_replica: no table %s" table)
  | Some tbl -> install_replica t ~table (Table.schema tbl)

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
   free in all three registries — an attach that found another kind's
   table would maintain the wrong rows into it *)
let check_view_name t ctx name =
  if Hashtbl.mem t.views name || Hashtbl.mem t.agg_views name || Hashtbl.mem t.viewonly name
  then invalid_arg (Printf.sprintf "Warehouse.%s: %s exists" ctx name)

let check_valid ctx = function
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Warehouse.%s: %s" ctx e)

let check_backing t ctx name =
  if Db.table_opt t.db name = None then
    invalid_arg (Printf.sprintf "Warehouse.%s: no backing table %s" ctx name)

let index_source index source name =
  match Hashtbl.find_opt index source with
  | Some cell -> cell := name :: !cell
  | None -> Hashtbl.add index source (ref [ name ])

(* bulk-fill a freshly created backing table (unlogged, like load_replica) *)
let materialize t name back_schema contents =
  let tbl = Db.table t.db name in
  List.iter
    (fun (row, count) ->
      ignore
        (Table.raw_insert_blind tbl (Codec.encode_binary back_schema (with_count row count))
          : Heap_file.rid))
    contents;
  Table.rebuild_indexes tbl

let view_backing_schema view = backing_schema (Spj_view.output_schema view)
let agg_view_backing_schema view = backing_schema_keyed (Agg_view.output_schema view)

(* hook a view into trigger maintenance over its backing table *)
let register_view t view =
  let name = Spj_view.name view in
  Hashtbl.add t.views name
    {
      def = view;
      backing = name;
      out_schema = Spj_view.output_schema view;
      back_schema = view_backing_schema view;
    };
  List.iter (fun source -> index_source t.by_source source name) (Spj_view.source_tables view)

let register_agg_view t view =
  let name = view.Agg_view.name in
  Hashtbl.add t.agg_views name
    {
      adef = view;
      abacking = name;
      aout_schema = Agg_view.output_schema view;
      aback_schema = agg_view_backing_schema view;
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
  let back_schema = view_backing_schema view in
  ignore (Db.create_table t.db ~name back_schema : Table.t);
  register_view t view;
  (* materialize from current replica contents *)
  materialize t name back_schema (Spj_view.eval view ~rows_of:(replica_rows t))

(* register an existing view's definition without creating or
   materializing its backing table — the resume path after a crash, where
   the backing table's bytes were recovered by Db.reopen and only the
   in-memory registration was lost *)
let attach_view t view =
  let name = Spj_view.name view in
  check_view_name t "attach_view" name;
  check_valid "attach_view" (Spj_view.validate view);
  check_backing t "attach_view" name;
  register_view t view

let view_rows t name =
  match Hashtbl.find_opt t.views name with
  | None -> raise Not_found
  | Some vs ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        let count = count_of vs.back_schema row in
        let out = Array.sub row 0 (Schema.arity vs.out_schema) in
        rows := (out, count) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let define_agg_view t view =
  let name = view.Agg_view.name in
  check_view_name t "define_agg_view" name;
  check_valid "define_agg_view" (Agg_view.validate view);
  if not (Hashtbl.mem t.replicas view.Agg_view.table) then
    invalid_arg
      (Printf.sprintf "Warehouse.define_agg_view: no replica for %s" view.Agg_view.table);
  let aback_schema = agg_view_backing_schema view in
  ignore (Db.create_table t.db ~name aback_schema : Table.t);
  register_agg_view t view;
  materialize t name aback_schema
    (Agg_view.eval view ~rows:(replica_rows t view.Agg_view.table))

let attach_agg_view t view =
  let name = view.Agg_view.name in
  check_view_name t "attach_agg_view" name;
  check_valid "attach_agg_view" (Agg_view.validate view);
  check_backing t "attach_agg_view" name;
  register_agg_view t view

let agg_view_rows t name =
  match Hashtbl.find_opt t.agg_views name with
  | None -> raise Not_found
  | Some ast ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        rows := (agg_out_of ast row, agg_count_of ast.aback_schema row) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let agg_view_def t name =
  Option.map (fun ast -> ast.adef) (Hashtbl.find_opt t.agg_views name)

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
   shares: the [warehouse.refresh] span, [body] then [mark] inside one
   [Db.with_txn] (so a progress record commits or rolls back with the
   data), and the statement, row-op and registry-clock deltas as stats. *)
let refresh_txn (t : t) ~mark body =
  let metrics = Db.metrics t.db in
  Metrics.with_span metrics "warehouse.refresh" @@ fun () ->
  let start = Metrics.now metrics in
  let statements0 = t.statements and row_ops0 = t.row_ops in
  let result =
    Db.with_txn t.db (fun txn ->
        let result = body txn in
        mark txn;
        result)
  in
  ( result,
    {
      txns = 1;
      statements = t.statements - statements0;
      row_ops = t.row_ops - row_ops0;
      duration = Metrics.now metrics -. start;
    } )

(* Every statement an integrator executes runs one way: printed to SQL
   text and re-parsed, the full statement path whose per-statement cost
   the paper's comparison (one statement per Op-Delta operation, one or
   two per value-delta record) is about. *)
let exec (t : t) txn ~ctx stmt =
  t.statements <- t.statements + 1;
  match Db.exec_sql t.db txn (Dw_sql.Printer.to_string stmt) with
  | Ok result -> result
  | Error e -> invalid_arg (Printf.sprintf "Warehouse.%s: %s" ctx e)

(* Per the paper (Section 4.1), a value delta integrates as SQL
   statements: one INSERT per captured insert image, one keyed DELETE per
   delete image, and a keyed DELETE (before image) plus an INSERT (after
   image) per update.  The statements run through the normal executor, so
   a value delta of x updates costs 2x statement executions where the
   Op-Delta costs one. *)
let key_predicate schema tuple =
  let preds =
    List.init (Schema.key_arity schema) (fun i ->
        let col = (Schema.column schema i).Schema.name in
        Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Lit tuple.(i)))
  in
  match Expr.conj preds with Some p -> p | None -> assert false

let insert_stmt table tuple =
  Dw_sql.Ast.Insert { table; columns = None; rows = [ Array.to_list tuple ] }

let delete_stmt table schema tuple =
  Dw_sql.Ast.Delete { table; where = Some (key_predicate schema tuple) }

let update_stmt table schema tuple =
  (* SET every non-key column to the after image's literal *)
  let sets =
    List.filteri (fun i _ -> i >= Schema.key_arity schema) (Schema.columns schema)
    |> List.map (fun c ->
           (c.Schema.name, Expr.Lit tuple.(Schema.index_of schema c.Schema.name)))
  in
  Dw_sql.Ast.Update { table; sets; where = Some (key_predicate schema tuple) }

(* update-or-insert by key *)
let upsert_row t txn ~ctx schema ~table tuple =
  match exec t txn ~ctx (update_stmt table schema tuple) with
  | Db.Affected 0 -> ignore (exec t txn ~ctx (insert_stmt table tuple) : Db.exec_result)
  | Db.Affected _ | Db.Rows _ | Db.Created -> ()

let integrate_value_delta (t : t) delta =
  let ctx = "integrate_value_delta" in
  let table = delta.Delta.table in
  let schema = delta.Delta.schema in
  (* the differential file is data; each record becomes SQL text run
     through the full statement path (parse included), which is where the
     per-record statement overhead of the paper's value path comes from *)
  let run txn stmt = ignore (exec t txn ~ctx stmt : Db.exec_result) in
  snd
    (refresh_txn t ~mark:ignore (fun txn ->
         List.iter
           (function
             | Delta.Insert after -> run txn (insert_stmt table after)
             | Delta.Delete before -> run txn (delete_stmt table schema before)
             | Delta.Update (before, after) ->
               run txn (delete_stmt table schema before);
               run txn (insert_stmt table after)
             | Delta.Upsert after -> upsert_row t txn ~ctx schema ~table after)
           delta.Delta.changes))

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
     transaction, every statement re-executed in source commit order —
     op-deltas arrive as SQL text, one parse per source statement, not
     per affected row *)
  let apply run =
    snd
      (refresh_txn t
         ~mark:(fun txn -> mark txn run)
         (fun txn ->
           List.iter
             (fun od ->
               List.iter
                 (fun (op : Op_delta.op) ->
                   ignore
                     (exec t txn ~ctx:"integrate_op_deltas" op.Op_delta.stmt : Db.exec_result))
                 od.Op_delta.ops)
             run))
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

(* ---------- replica-less (view-only) maintenance ---------- *)

let define_viewonly_view t view =
  (match view with
   | Spj_view.Select_project _ -> ()
   | Spj_view.Join _ ->
     invalid_arg
       "Warehouse.define_viewonly_view: join views are not self-maintainable without replicas");
  let name = Spj_view.name view in
  check_view_name t "define_viewonly_view" name;
  check_valid "define_viewonly_view" (Spj_view.validate view);
  let out_schema = Spj_view.output_schema view in
  let back_schema = backing_schema out_schema in
  ignore (Db.create_table t.db ~name back_schema : Table.t);
  Hashtbl.add t.viewonly name { def = view; backing = name; out_schema; back_schema }

let viewonly_views_for t source =
  Hashtbl.fold
    (fun _ vs acc ->
      if List.mem source (Spj_view.source_tables vs.def) then vs :: acc else acc)
    t.viewonly []

let viewonly_view_rows t name =
  match Hashtbl.find_opt t.viewonly name with
  | None -> raise Not_found
  | Some vs ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        let count = count_of vs.back_schema row in
        let out = Array.sub row 0 (Schema.arity vs.out_schema) in
        rows := (out, count) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

(* build the inserted tuples an INSERT statement describes, in the source
   schema's column order (the same resolution Db.insert_values performs) *)
let tuples_of_insert schema columns rows =
  List.map
    (fun row ->
      match columns with
      | None ->
        if List.length row <> Schema.arity schema then
          invalid_arg "Warehouse: INSERT arity mismatch in view-only integration";
        Array.of_list row
      | Some cols ->
        let tuple = Array.make (Schema.arity schema) Value.Null in
        (try List.iter2 (fun col v -> tuple.(Schema.index_of schema col) <- v) cols row
         with Invalid_argument _ ->
           invalid_arg "Warehouse: INSERT columns/values mismatch in view-only integration");
        tuple)
    rows

let viewonly_after_image schema sets before =
  List.fold_left
    (fun tuple (col, e) ->
      Tuple.set schema tuple col (Dw_relation.Expr.eval schema before e))
    before sets

let integrate_op_delta_viewonly (t : t) od =
  let module Ast = Dw_sql.Ast in
  snd
    (refresh_txn t ~mark:ignore (fun txn ->
         List.iter
           (fun (op : Op_delta.op) ->
             t.statements <- t.statements + 1;
             let stmt = op.Op_delta.stmt in
             let source = Ast.table_of stmt in
             let views = viewonly_views_for t source in
             if views <> [] then begin
               let source_schema =
                 match List.nth_opt views 0 with
                 | Some vs -> (
                     match vs.def with
                     | Spj_view.Select_project { schema; _ } -> schema
                     | Spj_view.Join _ -> assert false)
                 | None -> assert false
               in
               let adjust_rows rows delta =
                 List.iter
                   (fun row ->
                     List.iter
                       (fun vs ->
                         match Spj_view.project_sp vs.def row with
                         | Some out -> adjust t txn vs out delta
                         | None -> ())
                       views)
                   rows
               in
               match stmt with
               | Ast.Insert { columns; rows; _ } ->
                 adjust_rows (tuples_of_insert source_schema columns rows) 1
               | Ast.Delete _ ->
                 (* an empty image list is also what a zero-row DELETE looks
                    like, so it cannot be rejected — hybrid capture is the
                    caller's responsibility (see mli) *)
                 adjust_rows op.Op_delta.before_images (-1)
               | Ast.Update { sets; _ } ->
                 adjust_rows op.Op_delta.before_images (-1);
                 adjust_rows
                   (List.map (viewonly_after_image source_schema sets) op.Op_delta.before_images)
                   1
               | Ast.Select _ | Ast.Create_table _ -> ()
             end)
           od.Op_delta.ops))

(* ---------- bootstrap (chunked online load) support ---------- *)

let int_key schema tuple =
  if Schema.key_arity schema <> 1 then
    invalid_arg "Warehouse: bootstrap apply needs a single-column primary key";
  match tuple.(0) with
  | Value.Int k -> k
  | _ -> invalid_arg "Warehouse: bootstrap apply needs an INT primary key"

let integrate_op_delta_images (t : t) ~table ~mark od =
  let ctx = "integrate_op_delta_images" in
  let module Ast = Dw_sql.Ast in
  let schema = replica_schema t ctx table in
  let touched = ref [] in
  let touch tuple = touched := int_key schema tuple :: !touched in
  fst
    (refresh_txn t ~mark (fun txn ->
         List.iter
           (fun (op : Op_delta.op) ->
             if String.equal (Ast.table_of op.Op_delta.stmt) table then
               match op.Op_delta.stmt with
               | Ast.Insert { columns; rows; _ } ->
                 List.iter
                   (fun tuple ->
                     touch tuple;
                     upsert_row t txn ~ctx schema ~table tuple)
                   (tuples_of_insert schema columns rows)
               | Ast.Update { sets; _ } ->
                 List.iter
                   (fun before ->
                     let after = viewonly_after_image schema sets before in
                     touch after;
                     upsert_row t txn ~ctx schema ~table after)
                   op.Op_delta.before_images
               | Ast.Delete _ ->
                 List.iter
                   (fun before ->
                     touch before;
                     ignore (exec t txn ~ctx (delete_stmt table schema before) : Db.exec_result))
                   op.Op_delta.before_images
               | Ast.Select _ | Ast.Create_table _ -> ())
           od.Op_delta.ops;
         List.rev !touched))

let load_chunk (t : t) ~table ~skip ~mark rows =
  let ctx = "load_chunk" in
  let schema = replica_schema t ctx table in
  fst
    (refresh_txn t ~mark (fun txn ->
         List.fold_left
           (fun loaded tuple ->
             if skip (int_key schema tuple) then loaded
             else begin
               upsert_row t txn ~ctx schema ~table tuple;
               loaded + 1
             end)
           0 rows))
