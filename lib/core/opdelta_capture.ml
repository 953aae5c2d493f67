module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Ast = Dw_sql.Ast
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Vfs = Dw_storage.Vfs
module Wal = Dw_txn.Wal
module Log_record = Dw_txn.Log_record

type sink = To_db_table of string | To_file of string

let chunk_size = 240

let capture_schema =
  Schema.make
    [
      { Schema.name = "__seq"; ty = Value.Tint; nullable = false };
      { Schema.name = "txn"; ty = Value.Tint; nullable = false };
      { Schema.name = "part"; ty = Value.Tint; nullable = false };
      { Schema.name = "payload"; ty = Value.Tstring chunk_size; nullable = false };
    ]

(* a sink as written: a file, whose positions are byte offsets, or a
   capture table's position log *)
type store = File of string | Log of Capture_table.t

type t = {
  db : Db.t;
  store : store;
  capture_images : bool;  (* before images for every UPDATE and DELETE *)
  mutable captured : Op_delta.t list;  (* newest first *)
  mutable captured_bytes : int;
  mutable withdrawn : int list;  (* file lines withdrawn, markers not yet appended *)
}

(* A file line is appended before its transaction commits.  When the
   commit does not stand, a marker line [!<txn id>] withdraws the
   nearest line of that transaction before it. *)
let marker txn_id = Printf.sprintf "!%d\n" txn_id

let line_txn line =
  let id = match String.index_opt line '\t' with Some i -> String.sub line 0 i | None -> line in
  int_of_string_opt id

(* the file's lines past [after] with their positions, withdrawn ones
   dropped *)
let file_lines vfs name ~after ~withdrawn =
  let file = Vfs.open_existing vfs name in
  let size = Vfs.size file in
  let data =
    if size <= after then "" else Bytes.to_string (Vfs.read_at file ~off:after ~len:(size - after))
  in
  Vfs.close file;
  let rec drop tx = function
    | [] -> []
    | ((_, line) as l) :: rest -> if line_txn line = Some tx then rest else l :: drop tx rest
  in
  let rec split acc start =
    match String.index_from_opt data start '\n' with
    | None -> List.rev (List.fold_left (fun acc tx -> drop tx acc) acc withdrawn)
    | Some nl ->
      let line = String.sub data start (nl - start) in
      let acc =
        if String.starts_with ~prefix:"!" line then
          match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
          | Some tx -> drop tx acc
          | None -> acc
        else (after + nl + 1, line) :: acc
      in
      split acc (nl + 1)
  in
  split [] 0

(* the transactions the source log shows without a commit record, left
   by a crash or a failed commit *)
let uncommitted db =
  let state = Hashtbl.create 16 in
  Wal.iter_all (Db.wal db) (fun _ r ->
      match r.Log_record.body with
      | Log_record.Commit -> Hashtbl.replace state r.Log_record.tx true
      | Log_record.Begin | Log_record.Abort -> Hashtbl.replace state r.Log_record.tx false
      | Log_record.Insert _ | Log_record.Delete _ | Log_record.Update _ ->
        if not (Hashtbl.mem state r.Log_record.tx) then Hashtbl.replace state r.Log_record.tx false
      | Log_record.Checkpoint _ -> ());
  fun tx -> Hashtbl.find_opt state tx = Some false

(* after a restart: cut a torn last line (a crash mid-append), then
   withdraw the lines of transactions the source log shows without a
   commit record (a crash between a line's append and its commit) *)
let recover_file db name =
  let vfs = Db.vfs db in
  let file = Vfs.open_or_create vfs name in
  let size = Vfs.size file in
  let data = Bytes.to_string (Vfs.read_at file ~off:0 ~len:size) in
  let whole = match String.rindex_opt data '\n' with Some i -> i + 1 | None -> 0 in
  if whole < size then Vfs.truncate file whole;
  (match file_lines vfs name ~after:0 ~withdrawn:[] with
   | [] -> ()
   | lines ->
     let txns = List.filter_map (fun (_, line) -> line_txn line) lines in
     let losers = List.sort_uniq compare (List.filter (uncommitted db) txns) in
     if losers <> [] then
       ignore (Vfs.append file (Bytes.of_string (String.concat "" (List.map marker losers))) : int));
  Vfs.close file

let create ?(capture_images = false) db ~sink =
  let store =
    match sink with
    | To_db_table name -> Log (Capture_table.attach db ~name capture_schema)
    | To_file name ->
      recover_file db name;
      File name
  in
  { db; store; capture_images; captured = []; captured_bytes = 0; withdrawn = [] }

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
          | None -> stmt
          | Some ts_col ->
            (* the source stamps every updated row, whatever the client
               set: capture the value the source stores *)
            let stamp = Dw_relation.Expr.Lit (Value.Date (Db.current_day t.db)) in
            let sets = List.filter (fun (c, _) -> not (String.equal c ts_col)) sets in
            Ast.Update { u with sets = sets @ [ (ts_col, stamp) ] }))
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

let write_to_sink t txn od line =
  match t.store with
  | File name ->
    (* the write-ahead rule for the file: the transaction's buffered log
       frames reach the device before its line does, so a restart that
       finds the line finds the transaction in the log and withdraws the
       line unless the log shows its commit *)
    Wal.write_out (Db.wal t.db);
    (* markers a failed append left behind go ahead of the line *)
    let markers = String.concat "" (List.rev_map marker t.withdrawn) in
    let file = Vfs.open_or_create (Db.vfs t.db) name in
    ignore (Vfs.append file (Bytes.of_string (markers ^ line ^ "\n")) : int);
    Vfs.close file;
    t.withdrawn <- []
  | Log log ->
    (* chunk the line into transactionally-inserted capture rows *)
    let len = String.length line in
    let parts = max 1 ((len + chunk_size - 1) / chunk_size) in
    for part = 0 to parts - 1 do
      let chunk = String.sub line (part * chunk_size) (min chunk_size (len - (part * chunk_size))) in
      Capture_table.insert t.db txn log
        [| Value.Null; Value.Int od.Op_delta.txn_id; Value.Int part; Value.Str chunk |]
    done

(* a file line whose transaction did not commit: mark it withdrawn, on
   the file when the append succeeds and ahead of the next line if not *)
let withdraw t txn_id =
  match t.store with
  | Log _ -> ()
  | File name -> (
      t.withdrawn <- txn_id :: t.withdrawn;
      let file = Vfs.open_or_create (Db.vfs t.db) name in
      match Vfs.append file (Bytes.of_string (String.concat "" (List.rev_map marker t.withdrawn))) with
      | (_ : int) ->
        Vfs.close file;
        t.withdrawn <- []
      | exception (Vfs.Fault.Transient _) -> Vfs.close file)

let exec_txn t stmts =
  let txn = Db.begin_txn t.db in
  let run () =
    let ops_rev = ref [] in
    let results_rev = ref [] in
    List.iter
      (fun stmt ->
        let stmt = reify_timestamp t stmt in
        let images = if t.capture_images then before_images_of t txn stmt else [] in
        let result = Db.exec t.db txn stmt in
        ops_rev := (stmt, images) :: !ops_rev;
        results_rev := result :: !results_rev)
      stmts;
    let od = Op_delta.with_before_images ~txn_id:(Db.txid txn) (List.rev !ops_rev) in
    (* the line and [Op_delta.size_bytes] from one print of each statement *)
    let line, size = Op_delta.encode_line_sized ~schema_of:(schema_of t) od in
    write_to_sink t txn od line;
    (od, size, List.rev !results_rev)
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
  | od, size, results -> (
      let record () =
        t.captured <- od :: t.captured;
        t.captured_bytes <- t.captured_bytes + size
      in
      match Db.commit t.db txn with
      | () ->
        record ();
        Ok results
      | exception (Vfs.Fault.Crash _ as e) -> raise e
      | exception e ->
        if Db.committed txn then record () else withdraw t od.Op_delta.txn_id;
        raise e)

let work_units ~statements = float_of_int statements
let captured t = List.rev t.captured
let captured_bytes t = t.captured_bytes

(* the lines past [after], each with its position: a file line's is the
   offset just past its newline; a table line is reassembled from its
   chunk rows (part 0 starts a line) and takes its last chunk's *)
let lines t ~after =
  match t.store with
  | File name -> file_lines (Db.vfs t.db) name ~after ~withdrawn:t.withdrawn
  | Log log ->
    let done_ = ref [] and current = Buffer.create 256 and pos = ref after in
    let flush () =
      if Buffer.length current > 0 then begin
        done_ := (!pos, Buffer.contents current) :: !done_;
        Buffer.clear current
      end
    in
    ignore
      (Capture_table.read t.db log ~after (fun row ->
           let part = match row.(2) with Value.Int p -> p | _ -> 0 in
           let payload = match row.(3) with Value.Str s -> s | _ -> "" in
           if part = 0 then flush ();
           Buffer.add_string current payload;
           pos := Capture_table.position row)
        : int);
    flush ();
    List.rev !done_

let read_sink t =
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Op_delta.decode_line ~schema_of:(schema_of t) line with
        | Ok od -> decode (od :: acc) rest
        | Error e -> Error e)
  in
  decode [] (List.map snd (lines t ~after:0))
