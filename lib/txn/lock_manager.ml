type txid = int

type resource = Table of string | Row of string * Dw_storage.Heap_file.rid
type mode = S | X
type outcome = Granted | Blocked of txid list | Deadlock of txid list

(* per-(table, txid) row-lock tally, so a Table-lock request can find
   conflicting row locks in O(#transactions) instead of O(#locks) *)
type tally = { mutable s_rows : int; mutable x_rows : int }

module Metrics = Dw_util.Metrics

(* Striping: lock state is sharded by TABLE NAME hash, so a [Table t]
   lock and every [Row (t, _)] lock land in the same stripe — the
   coarse-over-fine conflict check (table lock vs row tallies) never has
   to look outside one stripe, and independent tables contend on
   independent mutexes.  The wait-for graph stays GLOBAL under its own
   mutex: a deadlock cycle can span tables in different stripes, and a
   per-stripe graph would miss it.  No operation holds a stripe mutex
   and the wait mutex at the same time, so no lock-order cycle exists. *)

type stripe = {
  locks : (resource, (txid, mode) Hashtbl.t) Hashtbl.t;
  held : (txid, (resource, unit) Hashtbl.t) Hashtbl.t;
  row_tally : (string, (txid, tally) Hashtbl.t) Hashtbl.t;
  stripe_lock : Mutex.t;
}

type t = {
  stripes : stripe array;
  wait_for : (txid, txid list) Hashtbl.t;  (* waiter -> blockers *)
  waiters : int Atomic.t;  (* >= entries in [wait_for]; changed under [wait_lock] *)
  wait_lock : Mutex.t;
  (* [lock.acquires], [lock.deadlocks], [lock.blocks], resolved once *)
  acquires : Metrics.counter;
  deadlocks : Metrics.counter;
  blocks : Metrics.counter;
}

let default_stripes = 8

let create ?metrics ?(stripes = default_stripes) () =
  if stripes < 1 then invalid_arg "Lock_manager.create: stripes < 1";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    stripes =
      Array.init stripes (fun _ ->
          { locks = Hashtbl.create 64; held = Hashtbl.create 16;
            row_tally = Hashtbl.create 16; stripe_lock = Mutex.create () });
    wait_for = Hashtbl.create 16;
    waiters = Atomic.make 0;
    wait_lock = Mutex.create ();
    acquires = Metrics.counter metrics "lock.acquires";
    deadlocks = Metrics.counter metrics "lock.deadlocks";
    blocks = Metrics.counter metrics "lock.blocks";
  }

let stripe_count t = Array.length t.stripes

let table_of_resource = function Table tname | Row (tname, _) -> tname

let stripe_index t tname = Hashtbl.hash tname mod Array.length t.stripes
let stripe_of t resource = stripe_index t (table_of_resource resource)
let stripe_for t resource = t.stripes.(stripe_of t resource)

let locked m f = Mutex.protect m f

(* ---------- per-stripe state (callers hold sp.stripe_lock) ---------- *)

let holders_tbl sp resource =
  match Hashtbl.find_opt sp.locks resource with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 4 in
    Hashtbl.add sp.locks resource tbl;
    tbl

let holders_unlocked sp resource =
  match Hashtbl.find_opt sp.locks resource with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun tx mode acc -> (tx, mode) :: acc) tbl []

let holders t resource =
  let sp = stripe_for t resource in
  locked sp.stripe_lock (fun () -> holders_unlocked sp resource)

let compatible a b = a = S && b = S

let tally_tbl sp tname =
  match Hashtbl.find_opt sp.row_tally tname with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add sp.row_tally tname tbl;
    tbl

let tally_for sp tname tx =
  let tbl = tally_tbl sp tname in
  match Hashtbl.find_opt tbl tx with
  | Some tally -> tally
  | None ->
    let tally = { s_rows = 0; x_rows = 0 } in
    Hashtbl.add tbl tx tally;
    tally

(* conflicting holders of [resource] in [mode], from [tx]'s viewpoint,
   including coarse-grained conflicts between table and row locks — all
   within [resource]'s stripe, because a table and its rows share one *)
let conflicts sp tx resource mode =
  let direct =
    holders_unlocked sp resource
    |> List.filter (fun (other, held_mode) -> other <> tx && not (compatible mode held_mode))
    |> List.map fst
  in
  let coarse =
    match resource with
    | Row (tname, _) ->
      (* a row lock conflicts with another transaction's table lock unless
         both are S *)
      holders_unlocked sp (Table tname)
      |> List.filter (fun (other, held_mode) -> other <> tx && not (compatible mode held_mode))
      |> List.map fst
    | Table tname -> (
        (* a table lock conflicts with other transactions' row locks in the
           table (unless both S) *)
        match Hashtbl.find_opt sp.row_tally tname with
        | None -> []
        | Some tbl ->
          Hashtbl.fold
            (fun other tally acc ->
              if other = tx then acc
              else if tally.x_rows > 0 then other :: acc
              else if tally.s_rows > 0 && mode = X then other :: acc
              else acc)
            tbl [])
  in
  List.sort_uniq compare (direct @ coarse)

let record_held sp tx resource =
  let set =
    match Hashtbl.find_opt sp.held tx with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 16 in
      Hashtbl.add sp.held tx set;
      set
  in
  if not (Hashtbl.mem set resource) then Hashtbl.replace set resource ()

(* would granting make [waiter] wait on someone who (transitively) waits
   on [waiter]?  Callers hold t.wait_lock. *)
let closes_cycle t waiter blockers =
  let visited = Hashtbl.create 16 in
  let rec reachable from =
    if from = waiter then true
    else if Hashtbl.mem visited from then false
    else begin
      Hashtbl.add visited from ();
      match Hashtbl.find_opt t.wait_for from with
      | None -> false
      | Some next -> List.exists reachable next
    end
  in
  List.exists reachable blockers

let bump_tally sp tx resource ~old_mode ~new_mode =
  match resource with
  | Table _ -> ()
  | Row (tname, _) ->
    let tally = tally_for sp tname tx in
    (match old_mode with
     | Some S -> tally.s_rows <- tally.s_rows - 1
     | Some X -> tally.x_rows <- tally.x_rows - 1
     | None -> ());
    (match new_mode with
     | S -> tally.s_rows <- tally.s_rows + 1
     | X -> tally.x_rows <- tally.x_rows + 1)

(* The wait-for entries, with [waiters] raised before an entry is added
   and lowered after one is removed, so it never reads below the number
   of entries.  Callers hold t.wait_lock. *)
let set_waiting t tx blockers =
  if not (Hashtbl.mem t.wait_for tx) then Atomic.incr t.waiters;
  Hashtbl.replace t.wait_for tx blockers

let clear_waiting t tx =
  if Hashtbl.mem t.wait_for tx then begin
    Hashtbl.remove t.wait_for tx;
    Atomic.decr t.waiters
  end

(* A grant ends [tx]'s wait.  Only [tx]'s own acquire adds its entry, and
   that acquire raised [waiters] before returning [Blocked], so a zero
   read here means [tx] has no entry and the global mutex can be
   skipped. *)
let granted t tx =
  if Atomic.get t.waiters > 0 then locked t.wait_lock (fun () -> clear_waiting t tx);
  Granted

let held_mode sp tx resource =
  match Hashtbl.find_opt sp.locks resource with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl tx

let acquire t tx resource mode =
  Metrics.bump t.acquires 1;
  let sp = stripe_for t resource in
  let blockers =
    locked sp.stripe_lock (fun () ->
        match held_mode sp tx resource, mode with
        | Some X, _ | Some S, S ->
          (* re-entry at the held mode or weaker: granted locks are
             pairwise compatible, so nothing can conflict and nothing
             changes *)
          []
        | old_mode, _ ->
          (* a first request, or an S -> X upgrade *)
          let blockers = conflicts sp tx resource mode in
          if blockers = [] then begin
            Hashtbl.replace (holders_tbl sp resource) tx mode;
            bump_tally sp tx resource ~old_mode ~new_mode:mode;
            record_held sp tx resource
          end;
          blockers)
  in
  match blockers with
  | [] -> granted t tx
  | _ ->
    locked t.wait_lock (fun () ->
        if closes_cycle t tx blockers then begin
          Metrics.bump t.deadlocks 1;
          Deadlock blockers
        end
        else begin
          Metrics.bump t.blocks 1;
          set_waiting t tx blockers;
          Blocked blockers
        end)

let release_all t tx =
  Array.iter
    (fun sp ->
      locked sp.stripe_lock (fun () ->
          match Hashtbl.find_opt sp.held tx with
          | None -> ()
          | Some set ->
            Hashtbl.iter
              (fun resource () ->
                (match Hashtbl.find_opt sp.locks resource with
                 | Some tbl ->
                   Hashtbl.remove tbl tx;
                   if Hashtbl.length tbl = 0 then Hashtbl.remove sp.locks resource
                 | None -> ());
                match resource with
                | Row (tname, _) -> (
                    match Hashtbl.find_opt sp.row_tally tname with
                    | Some tbl -> Hashtbl.remove tbl tx
                    | None -> ())
                | Table _ -> ())
              set;
            Hashtbl.remove sp.held tx))
    t.stripes;
  locked t.wait_lock (fun () ->
      clear_waiting t tx;
      (* drop this tx from other waiters' blocker lists *)
      let updates =
        Hashtbl.fold
          (fun waiter blockers acc ->
            if List.mem tx blockers then
              (waiter, List.filter (fun b -> b <> tx) blockers) :: acc
            else acc)
          t.wait_for []
      in
      List.iter
        (fun (waiter, blockers) ->
          if blockers = [] then clear_waiting t waiter
          else Hashtbl.replace t.wait_for waiter blockers)
        updates)

let held_by t tx =
  Array.to_list t.stripes
  |> List.concat_map (fun sp ->
         locked sp.stripe_lock (fun () ->
             match Hashtbl.find_opt sp.held tx with
             | Some set -> Hashtbl.fold (fun r () acc -> r :: acc) set []
             | None -> []))

let waiting t tx = locked t.wait_lock (fun () -> Hashtbl.mem t.wait_for tx)
