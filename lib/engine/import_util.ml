module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Codec = Dw_relation.Codec
module Vfs = Dw_storage.Vfs
module Page = Dw_storage.Page
module Heap_file = Dw_storage.Heap_file

type stats = { rows : int; staged_bytes : int; txns : int }

(* rows per commit batch *)
let batch_rows = 1000

let import_table db ~src ~table =
  match Export_util.read_header (Db.vfs db) src with
  | Error e -> Error e
  | Ok (dump_schema, _count) ->
    (match Db.table_opt db table with
     | None -> Error (Printf.sprintf "no such table %s" table)
     | Some tbl when not (Schema.equal (Table.schema tbl) dump_schema) ->
       Error "schema mismatch between dump and destination table"
     | Some tbl ->
       let schema = Table.schema tbl in
       let width = Schema.record_size schema in
       let vfs = Db.vfs db in
       (* phase 1: stage through the utility's internal pages *)
       let staging_name = src ^ ".import-staging" in
       let staging = Vfs.create vfs staging_name in
       let page_buf = Bytes.create Page.size in
       let per_page = Page.size / width in
       let in_page = ref 0 in
       let staged = ref 0 in
       let flush_page () =
         if !in_page > 0 then begin
           ignore (Vfs.append staging page_buf : int);
           staged := !staged + Page.size;
           Bytes.fill page_buf 0 Page.size '\000';
           in_page := 0
         end
       in
       let result =
         Export_util.iter_records vfs src ~f:(fun tuple ->
             Codec.encode_binary_into schema tuple page_buf (!in_page * width);
             incr in_page;
             if !in_page >= per_page then flush_page ())
       in
       (match result with
        | Error e ->
          Vfs.close staging;
          Vfs.delete vfs staging_name;
          Error e
        | Ok rows ->
          flush_page ();
          Vfs.fsync staging;
          (* phase 2: read staging pages back, insert transactionally *)
          let staging_size = Vfs.size staging in
          let txns = ref 0 in
          let inserted = ref 0 in
          let txn = ref (Db.begin_txn db) in
          incr txns;
          (* like the commercial utility: each staged record becomes an
             INSERT statement that goes through the full SQL path *)
          let insert_tuple tuple =
            let stmt =
              Dw_sql.Printer.to_string
                (Dw_sql.Ast.Insert { table; columns = None; rows = [ Array.to_list tuple ] })
            in
            (match Db.exec_sql db !txn stmt with
             | Ok _ -> ()
             | Error e -> failwith ("Import_util: " ^ e));
            incr inserted;
            if !inserted mod batch_rows = 0 then begin
              Db.commit db !txn;
              txn := Db.begin_txn db;
              incr txns
            end
          in
          let pos = ref 0 in
          let remaining = ref rows in
          while !pos < staging_size && !remaining > 0 do
            let page = Vfs.read_at staging ~off:!pos ~len:Page.size in
            staged := !staged + Page.size;
            let n = min per_page !remaining in
            for i = 0 to n - 1 do
              insert_tuple (Codec.decode_binary schema page (i * width))
            done;
            remaining := !remaining - n;
            pos := !pos + Page.size
          done;
          Db.commit db !txn;
          Vfs.close staging;
          Vfs.delete vfs staging_name;
          Db.flush_all db;
          Ok { rows = !inserted; staged_bytes = !staged; txns = !txns }))
