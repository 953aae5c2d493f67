module Tuple = Dw_relation.Tuple
module Heap_file = Dw_storage.Heap_file

(* chains are keyed by the rid packed into one int, page above the slot
   ([Page.size] bounds a slot below 2^16), so a scan probes a page's
   slots without building a rid per slot *)
let slot_bits = 16

let key page slot = (page lsl slot_bits) lor slot
let key_of (r : Heap_file.rid) = key r.page r.slot

module Rid_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash k = (((k lsr slot_bits) * 65599) + (k land ((1 lsl slot_bits) - 1))) land max_int
end)

type entry = {
  mutable superseded_at : int;  (* commit CSN of the superseding writer; max_int while pending *)
  mutable writer : int;         (* txid while pending; [published], then [unlinked] *)
  image : Tuple.t option;       (* None = the row did not exist before *)
  (* where the entry was noted, so that publish, discard and gc reach
     its chain without a lookup *)
  chain : entry list ref;
  tbl : table;
  key : int;  (* [key_of] its rid *)
}

(* one table's chains: rid -> chain, newest entry first (descending
   superseded_at, with at most one pending entry at the head — writers
   hold X locks, so two transactions never have unpublished writes to
   the same rid).  [epoch] moves whenever an entry leaves a chain other
   than by gc (a discard, a drop, a clear): a reader holding a heap
   image read at an older epoch reads the heap again *)
and table = {
  rids : entry list ref Rid_tbl.t;
  (* per heap page, the chains of its slots (0 past the end): a scan
     resolving a page with none, most pages while writers touch a few,
     probes no slot *)
  mutable pages : int array;
  mutable epoch : int;
}

let pending_csn = max_int
let published = -1

(* off its chain: retired by gc, discarded, or its table dropped.  A
   writer's publish or discard and a batch's retirement skip it *)
let unlinked = -2

type t = {
  tables : (string, table) Hashtbl.t;
  (* writer txid -> the pending entries it noted; the last writer's
     cell is kept at hand, as a writer notes row after row *)
  by_tx : (int, entry list ref) Hashtbl.t;
  mutable last_tx : int;
  mutable last_cell : entry list ref;
  (* one batch per published transaction, tagged with its CSN, oldest
     first: publish runs under the caller's CSN bump, so the CSNs rise.
     Empty whenever [live] is 0, so a caller may skip gc on an empty store *)
  batches : (int * entry list) Queue.t;
  mutable live : int;
  (* one mutex over the whole store: parallel snapshot readers resolve
     against it while a writer domain notes/publishes, and chain/entry
     mutation is cheap relative to the page work around it *)
  lock : Mutex.t;
}

let create () =
  { tables = Hashtbl.create 8; by_tx = Hashtbl.create 8; last_tx = unlinked; last_cell = ref [];
    batches = Queue.create (); live = 0; lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

(* with no live entry left, every queued entry is unlinked *)
let settle t = if t.live = 0 then Queue.clear t.batches

let table_tbl t table =
  match Hashtbl.find_opt t.tables table with
  | Some tbl -> tbl
  | None ->
    let tbl = { rids = Rid_tbl.create 32; pages = [||]; epoch = 0 } in
    Hashtbl.add t.tables table tbl;
    tbl

let table t name = locked t (fun () -> table_tbl t name)

(* a chain enters or leaves [tbl] *)
let chain_added tbl key chain =
  Rid_tbl.add tbl.rids key chain;
  let page = key lsr slot_bits in
  if page >= Array.length tbl.pages then begin
    let pages = Array.make (max 64 (2 * (page + 1))) 0 in
    Array.blit tbl.pages 0 pages 0 (Array.length tbl.pages);
    tbl.pages <- pages
  end;
  tbl.pages.(page) <- tbl.pages.(page) + 1

let chain_removed tbl key =
  Rid_tbl.remove tbl.rids key;
  let page = key lsr slot_bits in
  tbl.pages.(page) <- tbl.pages.(page) - 1

(* [tx]'s pending entries, created empty on its first note *)
let writes_of t tx =
  if tx <> t.last_tx then begin
    t.last_cell <-
      (match Hashtbl.find_opt t.by_tx tx with
       | Some cell -> cell
       | None ->
         let cell = ref [] in
         Hashtbl.add t.by_tx tx cell;
         cell);
    t.last_tx <- tx
  end;
  t.last_cell

(* [tx]'s pending entries, taken from the store *)
let take_writes t tx =
  if tx = t.last_tx then begin
    t.last_tx <- unlinked;
    t.last_cell <- ref []
  end;
  let cell = Hashtbl.find_opt t.by_tx tx in
  Hashtbl.remove t.by_tx tx;
  cell

(* under the lock *)
let note_in t tbl cell ~tx rid image =
  let key = key_of rid in
  let chain =
    match Rid_tbl.find_opt tbl.rids key with
    | Some chain -> chain
    | None ->
      let chain = ref [] in
      chain_added tbl key chain;
      chain
  in
  let already_noted =
    match !chain with
    | head :: _ -> head.superseded_at = pending_csn && head.writer = tx
    | [] -> false
  in
  if not already_noted then begin
    let entry = { superseded_at = pending_csn; writer = tx; image; chain; tbl; key } in
    chain := entry :: !chain;
    t.live <- t.live + 1;
    cell := entry :: !cell
  end

let note t ~tx ~table ~rid ~image =
  locked t @@ fun () -> note_in t (table_tbl t table) (writes_of t tx) ~tx rid image

(* the hottest call: a refresh notes every row it writes.  [note_in]
   raises nothing, so the lock needs no handler *)
let note_rows t tbl ~tx rows =
  let rec go cell = function
    | [] -> ()
    | (rid, image) :: rest ->
      note_in t tbl cell ~tx rid (Some image);
      go cell rest
  in
  if rows <> [] then begin
    Mutex.lock t.lock;
    go (writes_of t tx) rows;
    Mutex.unlock t.lock
  end

let note_insert t tbl ~tx insert =
  locked t @@ fun () ->
  let ((rid, _) as inserted) = insert () in
  note_in t tbl (writes_of t tx) ~tx rid None;
  inserted

let publish t ~tx ~csn =
  locked t @@ fun () ->
  match take_writes t tx with
  | None -> ()
  | Some cell ->
    List.iter
      (fun e ->
        if e.writer = tx then begin
          e.superseded_at <- csn;
          e.writer <- published
        end)
      !cell;
    Queue.add (csn, !cell) t.batches;
    settle t

let discard t ~tx =
  locked t @@ fun () ->
  match take_writes t tx with
  | None -> ()
  | Some cell ->
    List.iter
      (fun e ->
        if e.writer = tx then begin
          e.writer <- unlinked;
          t.live <- t.live - 1;
          e.tbl.epoch <- e.tbl.epoch + 1;
          (* a pending entry stays its chain's head until published or
             discarded *)
          match !(e.chain) with
          | [ _ ] -> chain_removed e.tbl e.key
          | _ :: rest -> e.chain := rest
          | [] -> ()
        end)
      !cell;
    settle t

(* under the lock: the entry a snapshot at [csn] reads the rid packed
   in [key] through, if any — newest-first, superseded_at strictly
   descending, so the visible version is the oldest entry still
   superseded after [csn] *)
let visible tbl key ~csn =
  match Rid_tbl.find_opt tbl.rids key with
  | None -> None
  | Some chain ->
    let rec go best = function
      | [] -> best
      | e :: rest -> if e.superseded_at > csn then go (Some e) rest else best
    in
    go None !chain

let resolve t ~table ~rid ~csn =
  locked t @@ fun () ->
  match
    Option.bind (Hashtbl.find_opt t.tables table) (fun tbl -> visible tbl (key_of rid) ~csn)
  with
  | None -> `Current
  | Some { image = Some tuple; _ } -> `Image tuple
  | Some { image = None; _ } -> `Absent

let epoch t tbl = locked t (fun () -> tbl.epoch)

let read t tbl ~csn ~epoch heap rid current =
  locked t @@ fun () ->
  match visible tbl (key_of rid) ~csn with
  | Some e -> e.image
  | None -> if tbl.epoch = epoch then current else Heap_file.get_opt heap rid

let read_page t tbl ~csn ~epoch heap ~page versions =
  locked t @@ fun () ->
  let moved = tbl.epoch <> epoch in
  if (not moved) && (page >= Array.length tbl.pages || tbl.pages.(page) = 0) then
    Array.fill versions 0 (Array.length versions) None
  else
    for slot = 0 to Array.length versions - 1 do
      versions.(slot) <-
        (match visible tbl (key page slot) ~csn with
         | Some e -> Some e.image
         | None -> if moved then Some (Heap_file.get_opt heap { page; slot }) else None)
    done;
  tbl.epoch

(* snapshot the rid set under the lock, call back outside it: [f]
   typically resolves (which re-locks) or touches buffer-pool pages *)
let iter_rids t tbl f =
  let mask = (1 lsl slot_bits) - 1 in
  List.iter
    (fun k -> f { Heap_file.page = k lsr slot_bits; slot = k land mask })
    (locked t (fun () -> Rid_tbl.fold (fun k _ acc -> k :: acc) tbl.rids []))

let iter_table t ~table f =
  Option.iter (fun tbl -> iter_rids t tbl f) (locked t (fun () -> Hashtbl.find_opt t.tables table))

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
  let retire e =
    if e.writer <> unlinked then
      match keep !(e.chain) with
      | [] -> chain_removed e.tbl e.key
      | kept -> e.chain := kept
  in
  let rec pass () =
    match Queue.peek_opt t.batches with
    | Some (csn, entries) when csn <= horizon ->
      ignore (Queue.take t.batches : int * entry list);
      List.iter retire entries;
      pass ()
    | _ -> ()
  in
  pass ();
  t.live <- t.live - !dropped;
  settle t;
  !dropped

(* under the lock: unlink every entry of [tbl] and empty it *)
let empty_table t tbl =
  Rid_tbl.iter
    (fun _ chain ->
      List.iter
        (fun e ->
          e.writer <- unlinked;
          t.live <- t.live - 1)
        !chain)
    tbl.rids;
  Rid_tbl.reset tbl.rids;
  Array.fill tbl.pages 0 (Array.length tbl.pages) 0;
  tbl.epoch <- tbl.epoch + 1

let drop_table t ~table =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tables table with
  | None -> ()
  | Some tbl ->
    Hashtbl.remove t.tables table;
    empty_table t tbl;
    settle t

let clear t =
  locked t @@ fun () ->
  (* each table's handle stays the one the store consults: a table's
     owner may hold it across the clear *)
  Hashtbl.iter (fun _ tbl -> empty_table t tbl) t.tables;
  Hashtbl.reset t.by_tx;
  t.last_tx <- unlinked;
  t.last_cell <- ref [];
  Queue.clear t.batches;
  t.live <- 0
