module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr

type agg_fn = Count | Sum of string | Min of string | Max of string

type t = {
  name : string;
  table : string;
  schema : Schema.t;
  filter : Expr.t option;
  group_by : string list;
  aggregates : (string * agg_fn) list;
}

let col_of = function Count -> None | Sum c | Min c | Max c -> Some c

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.group_by = [] then err "agg view %s: empty GROUP BY" t.name
  else if t.aggregates = [] then err "agg view %s: no aggregates" t.name
  else begin
    let missing =
      List.filter (fun c -> not (Schema.mem t.schema c)) t.group_by
      @ List.filter_map
          (fun (_, fn) ->
            match col_of fn with
            | Some c when not (Schema.mem t.schema c) -> Some c
            | Some _ | None -> None)
          t.aggregates
    in
    let filter_missing =
      match t.filter with
      | None -> []
      | Some e -> List.filter (fun c -> not (Schema.mem t.schema c)) (Expr.columns e)
    in
    match missing @ filter_missing with
    | c :: _ -> err "agg view %s: unknown column %s" t.name c
    | [] ->
      let out_names = t.group_by @ List.map fst t.aggregates in
      let dups =
        List.filter (fun n -> List.length (List.filter (( = ) n) out_names) > 1) out_names
      in
      (match dups with
       | d :: _ -> err "agg view %s: duplicate output column %s" t.name d
       | [] ->
         let bad_sum =
           List.find_opt
             (fun (_, fn) ->
               match fn with
               | Sum c -> (
                   match (Schema.column t.schema (Schema.index_of t.schema c)).Schema.ty with
                   | Value.Tint | Value.Tfloat -> false
                   | Value.Tbool | Value.Tdate | Value.Tstring _ -> true)
               | Count | Min _ | Max _ -> false)
             t.aggregates
         in
         (match bad_sum with
          | Some (out, _) -> err "agg view %s: SUM over non-numeric column (%s)" t.name out
          | None -> Ok ()))
  end

let output_schema t =
  let group_cols =
    List.map
      (fun c ->
        let col = Schema.column t.schema (Schema.index_of t.schema c) in
        { Schema.name = c; ty = col.Schema.ty; nullable = false })
      t.group_by
  in
  let agg_cols =
    List.map
      (fun (out, fn) ->
        let ty =
          match fn with
          | Count -> Value.Tint
          | Sum c | Min c | Max c ->
            (Schema.column t.schema (Schema.index_of t.schema c)).Schema.ty
        in
        { Schema.name = out; ty; nullable = false })
      t.aggregates
  in
  Schema.make ~key_arity:(List.length group_cols) (group_cols @ agg_cols)

(* Functions over [t] compile when staged: a partial application
   resolves column names and the filter once.  A column that is not in
   the schema raises [Not_found] only when it is read. *)
let passes t =
  match t.filter with None -> fun _ -> true | Some e -> Expr.compile_pred t.schema e

let getter t c = Expr.compile t.schema (Expr.Col c)

let group_key t =
  let cols = Array.of_list (List.map (getter t) t.group_by) in
  fun row -> Array.map (fun get -> get row) cols

let agg_value t fn =
  match fn with
  | Count -> fun rows -> Value.Int (List.length rows)
  | Sum c ->
    let get = getter t c in
    fun rows -> List.fold_left (fun acc row -> Value.add acc (get row)) (Value.Int 0) rows
  | Min c -> (
      let get = getter t c in
      function
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun acc row ->
            let v = get row in
            if Value.compare v acc < 0 then v else acc)
          (get first) rest)
  | Max c -> (
      let get = getter t c in
      function
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun acc row ->
            let v = get row in
            if Value.compare v acc > 0 then v else acc)
          (get first) rest)

module GroupMap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let output_row t =
  let aggs = List.map (fun (_, fn) -> agg_value t fn) t.aggregates in
  fun group rows -> Array.append group (Array.of_list (List.map (fun agg -> agg rows) aggs))

let eval t ~rows =
  let passes = passes t and group_key = group_key t and output_row = output_row t in
  let passing = List.filter passes rows in
  let groups =
    List.fold_left
      (fun acc row ->
        GroupMap.update (group_key row)
          (function None -> Some [ row ] | Some l -> Some (row :: l))
          acc)
      GroupMap.empty passing
  in
  GroupMap.bindings groups
  |> List.map (fun (group, members) -> (output_row group members, List.length members))

(* incremental transitions *)

(* each aggregate's output slot and its source column's getter *)
type slot_fn =
  | S_count
  | S_sum of (Tuple.t -> Value.t)
  | S_min of (Tuple.t -> Value.t)
  | S_max of (Tuple.t -> Value.t)

let slot_fns t =
  let base = List.length t.group_by in
  List.mapi
    (fun i (_, fn) ->
      ( base + i,
        match fn with
        | Count -> S_count
        | Sum c -> S_sum (getter t c)
        | Min c -> S_min (getter t c)
        | Max c -> S_max (getter t c) ))
    t.aggregates

let init_group t =
  let group_key = group_key t and output_row = output_row t in
  fun row -> output_row (group_key row) [ row ]

let apply_insert t =
  let slots = slot_fns t in
  fun ~current row ->
    let out = Array.copy current in
    List.iter
      (fun (slot, fn) ->
        match fn with
        | S_count -> out.(slot) <- Value.add out.(slot) (Value.Int 1)
        | S_sum get -> out.(slot) <- Value.add out.(slot) (get row)
        | S_min get ->
          let v = get row in
          if Value.compare v out.(slot) < 0 then out.(slot) <- v
        | S_max get ->
          let v = get row in
          if Value.compare v out.(slot) > 0 then out.(slot) <- v)
      slots;
    out

type delete_outcome = Updated of Tuple.t | Needs_rescan

let apply_delete t =
  let slots = slot_fns t in
  fun ~current row ->
    let out = Array.copy current in
    let rescan = ref false in
    List.iter
      (fun (slot, fn) ->
        match fn with
        | S_count -> out.(slot) <- Value.sub out.(slot) (Value.Int 1)
        | S_sum get -> out.(slot) <- Value.sub out.(slot) (get row)
        | S_min get -> if Value.compare (get row) out.(slot) <= 0 then rescan := true
        | S_max get -> if Value.compare (get row) out.(slot) >= 0 then rescan := true)
      slots;
    if !rescan then Needs_rescan else Updated out

let recompute_group t ~group ~replica_rows =
  let passes = passes t and group_key = group_key t in
  let members =
    List.filter (fun row -> passes row && Tuple.equal (group_key row) group) replica_rows
  in
  match members with
  | [] -> None
  | _ -> Some (output_row t group members, List.length members)
