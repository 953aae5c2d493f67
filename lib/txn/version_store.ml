module Tuple = Dw_relation.Tuple
module Heap_file = Dw_storage.Heap_file

type entry = {
  mutable superseded_at : int;  (* commit CSN of the superseding writer; max_int while pending *)
  mutable writer : int;         (* txid while pending; [published], then [unlinked] *)
  image : Tuple.t option;       (* None = the row did not exist before *)
}

let pending_csn = max_int
let published = -1

(* off its chain: retired by gc, discarded, or its table dropped.  A
   writer's publish or discard and a batch's retirement skip it *)
let unlinked = -2

(* rid -> chain, newest entry first (descending superseded_at, with at
   most one pending entry at the head — writers hold X locks, so two
   transactions never have unpublished writes to the same rid) *)
type rids = (Heap_file.rid, entry list ref) Hashtbl.t

(* one noted write, holding its chain and its table's rid map so that
   publish, discard and gc reach the entry without a lookup *)
type write = { entry : entry; chain : entry list ref; rids : rids; rid : Heap_file.rid }

type t = {
  tables : (string, rids) Hashtbl.t;
  (* writer txid -> the pending writes it noted *)
  by_tx : (int, write list ref) Hashtbl.t;
  (* one batch per published transaction, tagged with its CSN, oldest
     first: publish runs under the caller's CSN bump, so the CSNs rise.
     Empty whenever [live] is 0, so a caller may skip gc on an empty store *)
  batches : (int * write list) Queue.t;
  mutable live : int;
  (* one mutex over the whole store: parallel snapshot readers resolve
     against it while a writer domain notes/publishes, and chain/entry
     mutation is cheap relative to the page work around it *)
  lock : Mutex.t;
}

let create () =
  { tables = Hashtbl.create 8; by_tx = Hashtbl.create 8; batches = Queue.create (); live = 0;
    lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

(* with no live entry left, every queued write is unlinked *)
let settle t = if t.live = 0 then Queue.clear t.batches

let table_tbl t table =
  match Hashtbl.find_opt t.tables table with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 32 in
    Hashtbl.add t.tables table tbl;
    tbl

let note t ~tx ~table ~rid ~image =
  locked t @@ fun () ->
  let rids = table_tbl t table in
  let chain =
    match Hashtbl.find_opt rids rid with
    | Some chain -> chain
    | None ->
      let chain = ref [] in
      Hashtbl.add rids rid chain;
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
    cell := { entry; chain; rids; rid } :: !cell
  end

let publish t ~tx ~csn =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.by_tx tx with
  | None -> ()
  | Some cell ->
    Hashtbl.remove t.by_tx tx;
    List.iter
      (fun w ->
        if w.entry.writer = tx then begin
          w.entry.superseded_at <- csn;
          w.entry.writer <- published
        end)
      !cell;
    Queue.add (csn, !cell) t.batches;
    settle t

let discard t ~tx =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.by_tx tx with
  | None -> ()
  | Some cell ->
    Hashtbl.remove t.by_tx tx;
    List.iter
      (fun w ->
        if w.entry.writer = tx then begin
          w.entry.writer <- unlinked;
          t.live <- t.live - 1;
          (* a pending entry stays its chain's head until published or
             discarded *)
          match !(w.chain) with
          | [ _ ] -> Hashtbl.remove w.rids w.rid
          | _ :: rest -> w.chain := rest
          | [] -> ()
        end)
      !cell;
    settle t

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
  (* batches retire oldest first, so a chain's entries superseded at or
     below [horizon] are its tail and all retire in this pass: the first
     of them reached cuts the whole tail, the others find themselves
     unlinked *)
  let rec keep = function
    | e :: rest when e.superseded_at = pending_csn || e.superseded_at > horizon -> e :: keep rest
    | tail ->
      List.iter
        (fun e ->
          e.writer <- unlinked;
          incr dropped)
        tail;
      []
  in
  let retire w =
    if w.entry.writer <> unlinked then
      match keep !(w.chain) with
      | [] -> Hashtbl.remove w.rids w.rid
      | kept -> w.chain := kept
  in
  let rec pass () =
    match Queue.peek_opt t.batches with
    | Some (csn, writes) when csn <= horizon ->
      ignore (Queue.take t.batches : int * write list);
      List.iter retire writes;
      pass ()
    | _ -> ()
  in
  pass ();
  t.live <- t.live - !dropped;
  settle t;
  !dropped

let drop_table t ~table =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tables table with
  | None -> ()
  | Some rids ->
    Hashtbl.remove t.tables table;
    Hashtbl.iter
      (fun _ chain ->
        List.iter
          (fun e ->
            e.writer <- unlinked;
            t.live <- t.live - 1)
          !chain)
      rids;
    settle t

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.tables;
  Hashtbl.reset t.by_tx;
  Queue.clear t.batches;
  t.live <- 0
