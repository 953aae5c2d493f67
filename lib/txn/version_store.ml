module Tuple = Dw_relation.Tuple
module Heap_file = Dw_storage.Heap_file

type entry = {
  mutable superseded_at : int;  (* commit CSN of the superseding writer; max_int while pending *)
  mutable writer : int;         (* txid while pending; -1 once published *)
  image : Tuple.t option;       (* None = the row did not exist before *)
}

let pending_csn = max_int

type t = {
  (* table -> rid -> chain, newest entry first (descending superseded_at,
     with at most one pending entry at the head — writers hold X locks,
     so two transactions never have unpublished writes to the same rid) *)
  tables : (string, (Heap_file.rid, entry list ref) Hashtbl.t) Hashtbl.t;
  (* writer txid -> the pending entries it noted, with their rids: publish
     stamps each entry directly, discard unlinks it from its chain *)
  by_tx : (int, (string * Heap_file.rid * entry) list ref) Hashtbl.t;
  mutable live : int;
  (* one mutex over the whole store: parallel snapshot readers resolve
     against it while a writer domain notes/publishes, and chain/entry
     mutation is cheap relative to the page work around it *)
  lock : Mutex.t;
}

let create () =
  { tables = Hashtbl.create 8; by_tx = Hashtbl.create 8; live = 0; lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

let table_tbl t table =
  match Hashtbl.find_opt t.tables table with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 32 in
    Hashtbl.add t.tables table tbl;
    tbl

let note t ~tx ~table ~rid ~image =
  locked t @@ fun () ->
  let tbl = table_tbl t table in
  let chain =
    match Hashtbl.find_opt tbl rid with
    | Some chain -> chain
    | None ->
      let chain = ref [] in
      Hashtbl.add tbl rid chain;
      chain
  in
  let already_noted =
    match !chain with
    | head :: _ -> head.superseded_at = pending_csn && head.writer = tx
    | [] -> false
  in
  if not already_noted then begin
    let entry = { superseded_at = pending_csn; writer = tx; image } in
    chain := entry :: !chain;
    t.live <- t.live + 1;
    let cell =
      match Hashtbl.find_opt t.by_tx tx with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.add t.by_tx tx cell;
        cell
    in
    cell := (table, rid, entry) :: !cell
  end

let publish t ~tx ~csn =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.by_tx tx with
  | None -> ()
  | Some cell ->
    (* a pending entry stays its chain's head until published or
       discarded, so no chain lookup is needed to find it *)
    List.iter
      (fun (_, _, e) ->
        e.superseded_at <- csn;
        e.writer <- -1)
      !cell;
    Hashtbl.remove t.by_tx tx

let discard t ~tx =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.by_tx tx with
  | None -> ()
  | Some cell ->
    List.iter
      (fun (table, rid, _) ->
        match Hashtbl.find_opt t.tables table with
        | None -> ()
        | Some tbl -> (
            match Hashtbl.find_opt tbl rid with
            | Some chain -> (
                match !chain with
                | head :: rest when head.writer = tx ->
                  t.live <- t.live - 1;
                  if rest = [] then Hashtbl.remove tbl rid else chain := rest
                | _ -> ())
            | None -> ()))
      !cell;
    Hashtbl.remove t.by_tx tx

let resolve t ~table ~rid ~csn =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tables table with
  | None -> `Current
  | Some tbl -> (
      match Hashtbl.find_opt tbl rid with
      | None -> `Current
      | Some chain ->
        (* newest-first, superseded_at strictly descending: the visible
           version is the oldest entry still superseded after [csn] *)
        let rec go best = function
          | [] -> best
          | e :: rest -> if e.superseded_at > csn then go (Some e) rest else best
        in
        (match go None !chain with
         | None -> `Current
         | Some { image = Some tuple; _ } -> `Image tuple
         | Some { image = None; _ } -> `Absent))

let iter_table t ~table f =
  (* snapshot the rid set under the lock, call back outside it: [f]
     typically resolves (which re-locks) or touches buffer-pool pages *)
  let rids =
    locked t (fun () ->
        match Hashtbl.find_opt t.tables table with
        | None -> []
        | Some tbl -> Hashtbl.fold (fun rid _ acc -> rid :: acc) tbl [])
  in
  List.iter f rids

let entries t = locked t (fun () -> t.live)

let gc t ~horizon =
  locked t @@ fun () ->
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _table tbl ->
      let doomed = ref [] in
      Hashtbl.iter
        (fun rid chain ->
          let keep, drop =
            List.partition
              (fun e -> e.superseded_at = pending_csn || e.superseded_at > horizon)
              !chain
          in
          if drop <> [] then begin
            dropped := !dropped + List.length drop;
            if keep = [] then doomed := rid :: !doomed else chain := keep
          end)
        tbl;
      List.iter (Hashtbl.remove tbl) !doomed)
    t.tables;
  t.live <- t.live - !dropped;
  !dropped

let drop_table t ~table =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.tables table with
   | None -> ()
   | Some tbl ->
     Hashtbl.iter (fun _ chain -> t.live <- t.live - List.length !chain) tbl;
     Hashtbl.remove t.tables table);
  (* forget the dropped table's rids in writers' publish lists *)
  Hashtbl.iter
    (fun _ cell -> cell := List.filter (fun (tname, _, _) -> tname <> table) !cell)
    t.by_tx

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.tables;
  Hashtbl.reset t.by_tx;
  t.live <- 0
