module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Ast = Dw_sql.Ast
module Heap_file = Dw_storage.Heap_file
module Version_store = Dw_txn.Version_store
module Domain_pool = Dw_util.Domain_pool
module Db = Dw_engine.Db
module Table = Dw_engine.Table

let default_partitions = 8

module RowMap = Map.Make (struct
  type t = Value.t array

  let compare a b = Tuple.compare a b
end)

(* Per-(group, select-item) partial aggregate state, computed by one
   partition's worker over its own rows and merged by the coordinator in
   the sequential evaluation order.  [P_vals] keeps the non-null operand
   values as an ordered list because SUM/AVG fold with [Value.add], and
   float addition is not associative: the merged list must be folded once,
   in the exact order the single-domain executor would have used. *)
type item_partial =
  | P_none  (* Item / invalid combinations: resolved or raised at finalize *)
  | P_count of int
  | P_vals of Value.t list
  | P_extreme of Value.t option

type group_partial = {
  p_rep : Tuple.t option;  (* head row in sequential group order *)
  p_aggs : item_partial list;  (* one per select item *)
}

type worker_result =
  | R_rows of Tuple.t list  (* non-aggregate: matched rows, rid-ascending *)
  | R_groups of group_partial RowMap.t

let check_columns schema expr =
  List.iter
    (fun col ->
      if not (Schema.mem schema col) then
        invalid_arg (Printf.sprintf "unknown column %s" col))
    (Expr.columns expr)

(* contiguous page ranges covering [0, pages), sizes differing by <= 1 *)
let ranges ~pages ~parts =
  let base = pages / parts and rem = pages mod parts in
  let rec go i start acc =
    if i = parts then List.rev acc
    else
      let len = base + if i < rem then 1 else 0 in
      go (i + 1) (start + len) ((start, start + len) :: acc)
  in
  go 0 0 []

(* One partition's share of the snapshot scan: the heap pass over its page
   range, then the version-chain pass restricted to rids in that range.
   Rows in pages appended after planning are provably invisible at the
   snapshot CSN (pages only grow, and DML notes its version entry before
   touching the heap), so skipping them loses nothing. *)
let scan_partition ~vstore ~heap ~tname ~schema ~where ~csn ~from_page ~to_page =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let keep = match where with None -> fun _ -> true | Some e -> Expr.compile_pred schema e in
  let consider rid current =
    if not (Hashtbl.mem seen rid) then begin
      Hashtbl.add seen rid ();
      let visible =
        match Version_store.resolve vstore ~table:tname ~rid ~csn with
        | `Current -> current
        | `Image tuple -> Some tuple
        | `Absent -> None
      in
      match visible with
      | Some tuple when keep tuple -> acc := (rid, tuple) :: !acc
      | Some _ | None -> ()
    end
  in
  Heap_file.iter_pages heap ~from_page ~to_page (fun rid tuple -> consider rid (Some tuple));
  Version_store.iter_table vstore ~table:tname (fun rid ->
      if
        rid.Heap_file.page >= from_page
        && rid.Heap_file.page < to_page
        && not (Hashtbl.mem seen rid)
      then consider rid (Heap_file.get_opt heap rid));
  List.sort (fun (a, _) (b, _) -> Heap_file.rid_compare a b) !acc

(* partial aggregates over one partition's group rows, rows already in
   sequential per-group order (ascending rid for the global group,
   descending rid for GROUP BY groups — matching Db.exec_aggregate) *)
let item_partials schema items rows =
  List.map
    (fun item ->
      match item with
      | Ast.Agg (Ast.Count_star, _, _) -> P_count (List.length rows)
      | Ast.Agg (fn, Some e, _) -> (
          let eval = Expr.compile schema e in
          let vals =
            List.filter_map
              (fun row ->
                let v = eval row in
                if Value.is_null v then None else Some v)
              rows
          in
          match fn with
          | Ast.Count_star -> assert false
          | Ast.Count -> P_count (List.length vals)
          | Ast.Sum | Ast.Avg -> P_vals vals
          | Ast.Min -> (
              match vals with
              | [] -> P_extreme None
              | v :: vs ->
                P_extreme
                  (Some (List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)))
          | Ast.Max -> (
              match vals with
              | [] -> P_extreme None
              | v :: vs ->
                P_extreme
                  (Some (List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs))))
      | Ast.Agg (_, None, _) | Ast.Star | Ast.Item _ -> P_none)
    items

(* [a] comes earlier than [b] in the sequential evaluation order.  A later
   extreme replaces the accumulator only when strictly better — exactly the
   element-wise fold rule, so ties keep the earlier representative (and its
   exact Value payload, which matters when Int and Float compare equal). *)
let merge_item item a b =
  match (item, a, b) with
  | _, P_none, P_none -> P_none
  | _, P_count m, P_count n -> P_count (m + n)
  | _, P_vals xs, P_vals ys -> P_vals (xs @ ys)
  | Ast.Agg (Ast.Min, _, _), P_extreme x, P_extreme y -> (
      match (x, y) with
      | None, v | v, None -> P_extreme v
      | Some xv, Some yv -> P_extreme (if Value.compare yv xv < 0 then Some yv else Some xv))
  | Ast.Agg (Ast.Max, _, _), P_extreme x, P_extreme y -> (
      match (x, y) with
      | None, v | v, None -> P_extreme v
      | Some xv, Some yv -> P_extreme (if Value.compare yv xv > 0 then Some yv else Some xv))
  | _, _, _ -> assert false (* partial shapes are determined by the item *)

let merge_group items a b =
  {
    p_rep = (match a.p_rep with Some _ -> a.p_rep | None -> b.p_rep);
    p_aggs = List.map2 (fun item (x, y) -> merge_item item x y) items (List.combine a.p_aggs b.p_aggs);
  }

let output_names items =
  List.mapi
    (fun i item ->
      match item with
      | Ast.Star -> invalid_arg "SELECT: * not allowed with aggregates/GROUP BY"
      | Ast.Item (_, Some alias) | Ast.Agg (_, _, Some alias) -> alias
      | Ast.Item (Expr.Col c, None) -> c
      | Ast.Item (_, None) | Ast.Agg (_, _, None) -> Printf.sprintf "col%d" i)
    items

let order_rows_by ~names ~order_by rows =
  if order_by = [] then rows
  else begin
    let idx_of name =
      match List.find_index (fun n -> n = name) names with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "ORDER BY: unknown output column %s" name)
    in
    let idxs = List.map idx_of order_by in
    List.sort
      (fun (a : Value.t array) b ->
        let rec go = function
          | [] -> 0
          | i :: rest ->
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then c else go rest
        in
        go idxs)
      rows
  end

let finalize_group schema group_by items p =
  List.map2
    (fun item partial ->
      match (item, partial) with
      | Ast.Star, _ -> assert false (* output_names raised already *)
      | Ast.Agg (Ast.Count_star, _, _), P_count n -> Value.Int n
      | Ast.Agg (fn, Some _, _), partial -> (
          match (fn, partial) with
          | Ast.Count, P_count n -> Value.Int n
          | Ast.Sum, P_vals vs -> List.fold_left Value.add (Value.Int 0) vs
          | Ast.Avg, P_vals vs -> (
              match vs with
              | [] -> Value.Null
              | vs ->
                let total = List.fold_left Value.add (Value.Int 0) vs in
                Value.div
                  (match total with Value.Int n -> Value.Float (float_of_int n) | v -> v)
                  (Value.Float (float_of_int (List.length vs))))
          | (Ast.Min | Ast.Max), P_extreme e -> (
              match e with None -> Value.Null | Some v -> v)
          | _, _ -> assert false)
      | Ast.Agg (_, None, _), _ -> invalid_arg "aggregate without argument"
      | Ast.Item (Expr.Col c, _), _ when List.mem c group_by -> (
          match p.p_rep with
          | Some row -> row.(Schema.index_of schema c)
          | None -> Value.Null)
      | Ast.Item _, _ ->
        invalid_arg "SELECT with GROUP BY: non-aggregate items must be grouping columns")
    items p.p_aggs
  |> Array.of_list

let exec ?(partitions = default_partitions) ~pool db txn stmt =
  if partitions < 1 then invalid_arg "Par_scan.exec: partitions must be >= 1";
  match stmt with
  | Ast.Select { items; table = tname; where; group_by; order_by } ->
    if Db.txn_mode txn <> `Snapshot then
      invalid_arg "Par_scan.exec: requires a `Snapshot transaction";
    let tbl = Db.table db tname in
    let schema = Table.schema tbl in
    (match where with Some e -> check_columns schema e | None -> ());
    let has_agg =
      List.exists (function Ast.Agg _ -> true | Ast.Star | Ast.Item _ -> false) items
    in
    let aggregate = has_agg || group_by <> [] in
    (* validate GROUP BY / item shapes before fanning out, so workers can
       group as they scan; the exceptions match Db.exec_aggregate's *)
    let group_idxs =
      if aggregate then begin
        List.iter
          (fun col ->
            if not (Schema.mem schema col) then
              invalid_arg (Printf.sprintf "GROUP BY: unknown column %s" col))
          group_by;
        List.map (Schema.index_of schema) group_by
      end
      else []
    in
    let names = if aggregate then output_names items else [] in
    let csn = Db.snapshot_csn txn in
    let vstore = Db.version_store db in
    let heap = Table.heap tbl in
    let pages = Heap_file.page_count heap in
    let worker (from_page, to_page) () =
      let matched =
        scan_partition ~vstore ~heap ~tname ~schema ~where ~csn ~from_page ~to_page
      in
      let rows_asc = List.map snd matched in
      if not aggregate then R_rows rows_asc
      else begin
        let groups =
          if group_by = [] then
            (* single global group over ascending rows, present even when
               empty — mirrors RowMap.singleton in the sequential path *)
            RowMap.singleton [||] rows_asc
          else
            List.fold_left
              (fun acc tuple ->
                let key = Array.of_list (List.map (fun i -> tuple.(i)) group_idxs) in
                RowMap.update key
                  (function None -> Some [ tuple ] | Some l -> Some (tuple :: l))
                  acc)
              RowMap.empty rows_asc
        in
        R_groups
          (RowMap.map
             (fun rows ->
               {
                 p_rep = (match rows with row :: _ -> Some row | [] -> None);
                 p_aggs = item_partials schema items rows;
               })
             groups)
      end
    in
    let results =
      Domain_pool.run_all pool (List.map worker (ranges ~pages ~parts:partitions))
    in
    if not aggregate then begin
      let tuples =
        List.concat_map (function R_rows rows -> rows | R_groups _ -> assert false) results
      in
      let tuples =
        if order_by = [] then tuples
        else
          let idxs = List.map (Schema.index_of schema) order_by in
          List.sort
            (fun (a : Tuple.t) b ->
              let rec go = function
                | [] -> 0
                | i :: rest ->
                  let c = Value.compare a.(i) b.(i) in
                  if c <> 0 then c else go rest
              in
              go idxs)
            tuples
      in
      let columns, project =
        match items with
        | [ Ast.Star ] ->
          ( List.map (fun c -> c.Schema.name) (Schema.columns schema),
            fun (tuple : Tuple.t) -> Array.copy tuple )
        | items ->
          let names =
            List.mapi
              (fun i item ->
                match item with
                | Ast.Star -> "*"
                | Ast.Item (_, Some alias) | Ast.Agg (_, _, Some alias) -> alias
                | Ast.Item (Expr.Col c, None) -> c
                | Ast.Item (_, None) | Ast.Agg (_, _, None) -> Printf.sprintf "col%d" i)
              items
          in
          let evals =
            List.map
              (fun item ->
                match item with
                | Ast.Star -> fun _ -> invalid_arg "SELECT: * must be the only item"
                | Ast.Agg _ -> fun _ -> assert false
                | Ast.Item (e, _) -> Expr.compile schema e)
              items
          in
          (names, fun tuple -> Array.of_list (List.map (fun eval -> eval tuple) evals))
      in
      Db.Rows { columns; rows = List.map project tuples }
    end
    else begin
      (* merge partition partials in the sequential evaluation order: the
         global group accumulates rows ascending (partition 0 first); GROUP
         BY groups accumulate by prepending, so the highest partition's
         rows come first *)
      let part_maps =
        List.map (function R_groups m -> m | R_rows _ -> assert false) results
      in
      let ordered = if group_by = [] then part_maps else List.rev part_maps in
      let merged =
        List.fold_left
          (fun acc pmap ->
            RowMap.fold
              (fun key p acc ->
                RowMap.update key
                  (function None -> Some p | Some prev -> Some (merge_group items prev p))
                  acc)
              pmap acc)
          RowMap.empty ordered
      in
      let out_rows =
        RowMap.fold (fun _key p acc -> finalize_group schema group_by items p :: acc) merged []
      in
      let out_rows = List.rev out_rows in
      let out_rows = order_rows_by ~names ~order_by out_rows in
      Db.Rows { columns = names; rows = out_rows }
    end
  | Ast.Create_table _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ ->
    invalid_arg "Par_scan: only SELECT statements are supported"

let exec_sql ?partitions ~pool db txn input =
  match Dw_sql.Parser.parse input with
  | Error e -> Error e
  | Ok stmt -> (
      match exec ?partitions ~pool db txn stmt with
      | result -> Ok result
      | exception Invalid_argument msg -> Error msg
      | exception Not_found -> Error (Printf.sprintf "unknown table %s" (Ast.table_of stmt)))
