module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Ast = Dw_sql.Ast
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Vfs = Dw_storage.Vfs
module Heap_file = Dw_storage.Heap_file
module Ascii_util = Dw_engine.Ascii_util

type sink = To_db_table of string | To_file of string

exception Not_self_maintainable of string

let chunk_size = 240

let capture_schema =
  Schema.make
    [
      { Schema.name = "__seq"; ty = Value.Tint; nullable = false };
      { Schema.name = "txn"; ty = Value.Tint; nullable = false };
      { Schema.name = "part"; ty = Value.Tint; nullable = false };
      { Schema.name = "payload"; ty = Value.Tstring chunk_size; nullable = false };
    ]

type t = {
  db : Db.t;
  sink : sink;
  views : Spj_view.t list;
  replicas : bool;
  capture_images : bool;  (* force hybrid before-image capture *)
  mutable seq : int;
  mutable captured : Op_delta.t list;  (* newest first *)
  mutable captured_count : int;  (* length of [captured] *)
  mutable captured_bytes : int;
}

let create ?(views = []) ?(replicas = true) ?(capture_images = false) db ~sink =
  (match sink with
   | To_db_table name -> (
       match Db.table_opt db name with
       | Some _ -> ()
       | None -> ignore (Db.create_table db ~name capture_schema : Table.t))
   | To_file name ->
     if not (Vfs.exists (Db.vfs db) name) then
       Vfs.close (Vfs.create (Db.vfs db) name));
  { db; sink; views; replicas; capture_images; seq = 0; captured = []; captured_count = 0;
    captured_bytes = 0 }

let captures_images t = t.capture_images

let schema_of t table = Option.map Table.schema (Db.table_opt t.db table)

(* before images: the rows the statement is about to affect *)
let before_images_of t txn stmt =
  match stmt with
  | Ast.Update { table; where; _ } | Ast.Delete { table; where; _ } ->
    Db.select t.db txn table ?where ()
  | Ast.Insert _ | Ast.Select _ | Ast.Create_table _ -> []

(* The source engine stamps the timestamp column implicitly on UPDATE; the
   captured statement must carry that assignment explicitly or replaying
   it elsewhere would leave stale stamps.  (INSERT statements already
   carry the full tuple, which the source stamps to the same day.) *)
let reify_timestamp t stmt =
  match stmt with
  | Ast.Update ({ table; sets; _ } as u) -> (
      match Db.table_opt t.db table with
      | None -> stmt
      | Some tbl -> (
          match Table.ts_column tbl with
          | Some ts_col when not (List.mem_assoc ts_col sets) ->
            Ast.Update
              {
                u with
                sets =
                  sets @ [ (ts_col, Dw_relation.Expr.Lit (Value.Date (Db.current_day t.db))) ];
              }
          | Some _ | None -> stmt))
  | Ast.Insert ({ table; columns; rows } as i) -> (
      (* the source overwrites the timestamp literal the client supplied;
         rewrite the captured rows to the value the source will store *)
      match Db.table_opt t.db table with
      | None -> stmt
      | Some tbl -> (
          match Table.ts_column tbl with
          | None -> stmt
          | Some ts_col ->
            let schema = Table.schema tbl in
            let stamp = Value.Date (Db.current_day t.db) in
            let col_names =
              match columns with
              | Some cols -> cols
              | None ->
                List.map (fun c -> c.Dw_relation.Schema.name) (Dw_relation.Schema.columns schema)
            in
            (match List.find_index (fun c -> c = ts_col) col_names with
             | None -> stmt
             | Some idx ->
               let rows =
                 List.map (List.mapi (fun i v -> if i = idx then stamp else v)) rows
               in
               Ast.Insert { i with rows })))
  | Ast.Delete _ | Ast.Select _ | Ast.Create_table _ -> stmt

let write_to_sink t txn od =
  let line = Op_delta.encode_line ~schema_of:(schema_of t) od in
  match t.sink with
  | To_file name ->
    let file = Vfs.open_or_create (Db.vfs t.db) name in
    ignore (Vfs.append file (Bytes.of_string (line ^ "\n")) : int);
    Vfs.close file
  | To_db_table name ->
    (* chunk the line into transactionally-inserted capture rows *)
    let len = String.length line in
    let parts = max 1 ((len + chunk_size - 1) / chunk_size) in
    for part = 0 to parts - 1 do
      let chunk = String.sub line (part * chunk_size) (min chunk_size (len - (part * chunk_size))) in
      t.seq <- t.seq + 1;
      ignore
        (Db.insert t.db txn name
           [| Value.Int t.seq; Value.Int od.Op_delta.txn_id; Value.Int part; Value.Str chunk |]
          : Heap_file.rid)
    done

let exec_txn t stmts =
  (* reject configurations that cannot be maintained from any capture *)
  List.iter
    (fun stmt ->
      match Self_maintain.requirement ~views:t.views ~replicas:t.replicas stmt with
      | `Not_self_maintainable reason -> raise (Not_self_maintainable reason)
      | `Op_only | `Op_with_before_images -> ())
    stmts;
  let txn = Db.begin_txn t.db in
  let run () =
    let ops_rev = ref [] in
    let results_rev = ref [] in
    List.iter
      (fun stmt ->
        let stmt = reify_timestamp t stmt in
        let images =
          if t.capture_images then before_images_of t txn stmt
          else
            match Self_maintain.requirement ~views:t.views ~replicas:t.replicas stmt with
            | `Op_with_before_images -> before_images_of t txn stmt
            | `Op_only | `Not_self_maintainable _ -> []
        in
        let result = Db.exec t.db txn stmt in
        ops_rev := (stmt, images) :: !ops_rev;
        results_rev := result :: !results_rev)
      stmts;
    let od = Op_delta.with_before_images ~txn_id:(Db.txid txn) (List.rev !ops_rev) in
    write_to_sink t txn od;
    (od, List.rev !results_rev)
  in
  (* any failure before the commit rolls the transaction back, as
     [Db.with_txn] does: a transaction left open would pin version-store
     GC and be listed in every checkpoint.  A crash skips the rollback,
     since the simulated process is dead.  A commit that fails finishes
     its transaction itself. *)
  match run () with
  | exception Invalid_argument msg ->
    Db.abort t.db txn;
    Error msg
  | exception Not_found ->
    Db.abort t.db txn;
    Error "unknown table"
  | exception (Vfs.Fault.Crash _ as e) -> raise e
  | exception e ->
    Db.abort t.db txn;
    raise e
  | od, results ->
    Db.commit t.db txn;
    t.captured <- od :: t.captured;
    t.captured_count <- t.captured_count + 1;
    t.captured_bytes <- t.captured_bytes + Op_delta.size_bytes ~schema_of:(schema_of t) od;
    Ok results

let capture_units ~statements ~image_rows = float_of_int (statements + image_rows)
let work_units ~statements = float_of_int statements

(* the newest [captured_count - since] entries are a prefix of the
   newest-first list: take them, then put them in commit order *)
let captured ?(since = 0) t =
  let rec take n acc = function
    | od :: rest when n > 0 -> take (n - 1) (od :: acc) rest
    | _ -> acc
  in
  take (t.captured_count - since) [] t.captured

let captured_count t = t.captured_count
let captured_bytes t = t.captured_bytes

let read_sink t =
  let decode_lines lines =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match Op_delta.decode_line ~schema_of:(schema_of t) line with
          | Ok od -> go (od :: acc) rest
          | Error e -> Error e)
    in
    go [] lines
  in
  match t.sink with
  | To_file name ->
    let lines = ref [] in
    (match Ascii_util.iter_lines (Db.vfs t.db) name ~f:(fun l -> lines := l :: !lines) with
     | Ok _ -> decode_lines (List.rev !lines)
     | Error e -> Error e)
  | To_db_table name -> (
      match Db.table_opt t.db name with
      | None -> Error (Printf.sprintf "capture table %s missing" name)
      | Some tbl ->
        let rows = ref [] in
        Table.scan tbl (fun _ row -> rows := row :: !rows);
        let rows =
          List.sort
            (fun a b ->
              match a.(0), b.(0) with
              | Value.Int x, Value.Int y -> compare x y
              | _ -> 0)
            !rows
        in
        (* reassemble: part = 0 starts a new line *)
        let lines = ref [] in
        let current = Buffer.create 256 in
        let flush_current () =
          if Buffer.length current > 0 then begin
            lines := Buffer.contents current :: !lines;
            Buffer.clear current
          end
        in
        List.iter
          (fun row ->
            let part = match row.(2) with Value.Int p -> p | _ -> 0 in
            let payload = match row.(3) with Value.Str s -> s | _ -> "" in
            if part = 0 then flush_current ();
            Buffer.add_string current payload)
          rows;
        flush_current ();
        decode_lines (List.rev !lines))
