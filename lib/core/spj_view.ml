module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr

type side = L | R

type projection = { out_name : string; from_side : side; from_col : string }

type t =
  | Select_project of {
      name : string;
      table : string;
      schema : Schema.t;
      filter : Expr.t option;
      project : projection list;
    }
  | Join of {
      name : string;
      left_table : string;
      left_schema : Schema.t;
      right_table : string;
      right_schema : Schema.t;
      on : (string * string) list;
      left_filter : Expr.t option;
      right_filter : Expr.t option;
      project : projection list;
    }

let name = function Select_project { name; _ } | Join { name; _ } -> name

let source_tables = function
  | Select_project { table; _ } -> [ table ]
  | Join { left_table; right_table; _ } -> [ left_table; right_table ]

let check_cols schema expr_opt cols =
  let missing = List.filter (fun c -> not (Schema.mem schema c)) cols in
  let expr_missing =
    match expr_opt with
    | None -> []
    | Some e -> List.filter (fun c -> not (Schema.mem schema c)) (Expr.columns e)
  in
  missing @ expr_missing

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match t with
  | Select_project { project = []; _ } | Join { project = []; _ } ->
    err "view %s: empty projection" (name t)
  | Select_project { schema; filter; project; _ } -> (
      match check_cols schema filter (List.map (fun p -> p.from_col) project) with
      | [] -> Ok ()
      | c :: _ -> err "view %s: unknown column %s" (name t) c)
  | Join { left_schema; right_schema; on; left_filter; right_filter; project; _ } -> (
      if on = [] then err "view %s: join without equi-join columns" (name t)
      else
        let lcols =
          List.map fst on
          @ List.filter_map (fun p -> if p.from_side = L then Some p.from_col else None) project
        in
        let rcols =
          List.map snd on
          @ List.filter_map (fun p -> if p.from_side = R then Some p.from_col else None) project
        in
        match
          check_cols left_schema left_filter lcols @ check_cols right_schema right_filter rcols
        with
        | [] ->
          (* join key types must match *)
          let mismatched =
            List.filter
              (fun (lc, rc) ->
                (Schema.column left_schema (Schema.index_of left_schema lc)).Schema.ty
                <> (Schema.column right_schema (Schema.index_of right_schema rc)).Schema.ty)
              on
          in
          (match mismatched with
           | [] -> Ok ()
           | (lc, rc) :: _ -> err "view %s: join key type mismatch %s/%s" (name t) lc rc)
        | c :: _ -> err "view %s: unknown column %s" (name t) c)

(* the projection begins with the source's primary-key columns, in key
   order: each source row gives a view row with its own key *)
let preserves_key schema project =
  let rec go i = function
    | _ when i = Schema.key_arity schema -> true
    | p :: rest -> p.from_col = (Schema.column schema i).Schema.name && go (i + 1) rest
    | [] -> false
  in
  go 0 project

let output_schema t =
  let col_of schema p =
    let src = Schema.column schema (Schema.index_of schema p.from_col) in
    { Schema.name = p.out_name; ty = src.Schema.ty; nullable = src.Schema.nullable }
  in
  match t with
  | Select_project { schema; project; _ } ->
    let key_arity =
      if preserves_key schema project then Schema.key_arity schema else List.length project
    in
    Schema.make ~key_arity (List.map (col_of schema) project)
  | Join { left_schema; right_schema; project; _ } ->
    Schema.make ~key_arity:(List.length project)
      (List.map
         (fun p -> col_of (match p.from_side with L -> left_schema | R -> right_schema) p)
         project)

(* Views compile when staged: a partial application resolves column
   names and filters once.  A column that is not in the schema raises
   [Not_found] only when it is read. *)
let passes schema = function None -> fun _ -> true | Some e -> Expr.compile_pred schema e
let getter schema col = Expr.compile schema (Expr.Col col)

let project_sp t =
  match t with
  | Select_project { schema; filter; project; _ } ->
    let keep = passes schema filter in
    let cols = Array.of_list (List.map (fun p -> getter schema p.from_col) project) in
    fun tuple -> if keep tuple then Some (Array.map (fun get -> get tuple) cols) else None
  | Join _ -> fun _ -> invalid_arg "Spj_view.project_sp: join view"

(* a join view's filters, equi-join test and projection, compiled *)
type join_fns = {
  left_pass : Tuple.t -> bool;
  right_pass : Tuple.t -> bool;
  joins : Tuple.t -> Tuple.t -> bool;  (* left row, right row *)
  row : Tuple.t -> Tuple.t -> Tuple.t;
}

let join_fns ~left_schema ~right_schema ~on ~left_filter ~right_filter project =
  let on = List.map (fun (lc, rc) -> (getter left_schema lc, getter right_schema rc)) on in
  let cols =
    Array.of_list
      (List.map
         (fun p ->
           match p.from_side with
           | L -> (L, getter left_schema p.from_col)
           | R -> (R, getter right_schema p.from_col))
         project)
  in
  {
    left_pass = passes left_schema left_filter;
    right_pass = passes right_schema right_filter;
    joins = (fun l r -> List.for_all (fun (gl, gr) -> Value.equal (gl l) (gr r)) on);
    row = (fun l r -> Array.map (function L, get -> get l | R, get -> get r) cols);
  }

let join_contribution t side =
  match t with
  | Select_project _ ->
    fun _ ~other_rows:_ -> invalid_arg "Spj_view.join_contribution: select-project view"
  | Join { left_schema; right_schema; on; left_filter; right_filter; project; _ } -> (
      let j = join_fns ~left_schema ~right_schema ~on ~left_filter ~right_filter project in
      match side with
      | L ->
        fun tuple ~other_rows ->
          if not (j.left_pass tuple) then []
          else
            other_rows
            |> List.filter (fun r -> j.right_pass r && j.joins tuple r)
            |> List.map (fun r -> j.row tuple r)
      | R ->
        fun tuple ~other_rows ->
          if not (j.right_pass tuple) then []
          else
            other_rows
            |> List.filter (fun l -> j.left_pass l && j.joins l tuple)
            |> List.map (fun l -> j.row l tuple))

module RowMap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let bag_of_list rows =
  List.fold_left
    (fun acc row ->
      RowMap.update row (function None -> Some 1 | Some n -> Some (n + 1)) acc)
    RowMap.empty rows

let eval t ~rows_of =
  let rows =
    match t with
    | Select_project { table; _ } ->
      List.filter_map (project_sp t) (rows_of table)
    | Join { left_table; right_table; left_schema; right_schema; on; left_filter; right_filter;
             project; _ } ->
      let j = join_fns ~left_schema ~right_schema ~on ~left_filter ~right_filter project in
      let lefts = List.filter j.left_pass (rows_of left_table) in
      let rights = List.filter j.right_pass (rows_of right_table) in
      List.concat_map
        (fun l -> List.filter_map (fun r -> if j.joins l r then Some (j.row l r) else None) rights)
        lefts
  in
  RowMap.bindings (bag_of_list rows)
