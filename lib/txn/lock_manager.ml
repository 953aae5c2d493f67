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

(* the transactions granted one resource, with their modes: few, usually
   one, so a list rather than a table per resource *)
type holders = { mutable granted : (txid * mode) list }

(* one table's lock state: the holders of its [Table] lock, and the row
   lock tally of each transaction holding row locks in it *)
type table_state = { table_holders : holders; tallies : (txid, tally) Hashtbl.t }

type stripe = {
  tables : (string, table_state) Hashtbl.t;
  rows : (resource, holders) Hashtbl.t;  (* [Row] resources only *)
  held : (txid, resource list ref) Hashtbl.t;  (* each resource once *)
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
          { tables = Hashtbl.create 16; rows = Hashtbl.create 64; held = Hashtbl.create 16;
            stripe_lock = Mutex.create () });
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

(* lookups use [Hashtbl.find], whose miss raises a constant: no option
   is allocated *)
let table_state sp tname =
  match Hashtbl.find sp.tables tname with
  | ts -> ts
  | exception Not_found ->
    let ts = { table_holders = { granted = [] }; tallies = Hashtbl.create 8 } in
    Hashtbl.add sp.tables tname ts;
    ts

let holders_cell sp resource =
  match resource with
  | Table tname -> (table_state sp tname).table_holders
  | Row _ -> (
      match Hashtbl.find sp.rows resource with
      | h -> h
      | exception Not_found ->
        let h = { granted = [] } in
        Hashtbl.add sp.rows resource h;
        h)

let holders_unlocked sp resource =
  match resource with
  | Table tname -> (
      match Hashtbl.find sp.tables tname with
      | ts -> ts.table_holders.granted
      | exception Not_found -> [])
  | Row _ -> ( match Hashtbl.find sp.rows resource with h -> h.granted | exception Not_found -> [])

let compatible a b = a = S && b = S

let tally_for sp tname tx =
  let tbl = (table_state sp tname).tallies in
  match Hashtbl.find tbl tx with
  | tally -> tally
  | exception Not_found ->
    let tally = { s_rows = 0; x_rows = 0 } in
    Hashtbl.add tbl tx tally;
    tally

(* prepend the holders in [granted] that conflict with [tx] asking for
   [mode]; nothing is allocated when none does *)
let rec add_conflicts tx mode acc = function
  | [] -> acc
  | (other, held_mode) :: rest ->
    let acc = if other <> tx && not (compatible mode held_mode) then other :: acc else acc in
    add_conflicts tx mode acc rest

(* conflicting holders of [resource] in [mode], from [tx]'s viewpoint,
   including coarse-grained conflicts between table and row locks — all
   within [resource]'s stripe, because a table and its rows share one *)
let conflicts sp tx resource mode =
  let direct = add_conflicts tx mode [] (holders_unlocked sp resource) in
  let all =
    match resource with
    | Row (tname, _) -> (
        (* a row lock conflicts with another transaction's table lock
           unless both are S *)
        match Hashtbl.find sp.tables tname with
        | ts -> add_conflicts tx mode direct ts.table_holders.granted
        | exception Not_found -> direct)
    | Table tname -> (
        (* a table lock conflicts with other transactions' row locks in the
           table (unless both S) *)
        match Hashtbl.find sp.tables tname with
        | exception Not_found -> direct
        | ts ->
          Hashtbl.fold
            (fun other tally acc ->
              if other = tx then acc
              else if tally.x_rows > 0 then other :: acc
              else if tally.s_rows > 0 && mode = X then other :: acc
              else acc)
            ts.tallies direct)
  in
  match all with [] | [ _ ] -> all | _ -> List.sort_uniq compare all

(* [tx] was granted [resource] for the first time *)
let record_held sp tx resource =
  match Hashtbl.find sp.held tx with
  | held -> held := resource :: !held
  | exception Not_found -> Hashtbl.add sp.held tx (ref [ resource ])

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

let rec mode_in tx = function
  | [] -> None
  | (other, m) :: rest -> if other = tx then Some m else mode_in tx rest

let held_mode sp tx resource = mode_in tx (holders_unlocked sp resource)

(* [tx] now holds [resource] in [mode]: an upgrade replaces its entry *)
let grant h tx ~old_mode mode =
  match old_mode with
  | None -> h.granted <- (tx, mode) :: h.granted
  | Some _ -> h.granted <- List.map (fun (o, m) -> if o = tx then (o, mode) else (o, m)) h.granted

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
            grant (holders_cell sp resource) tx ~old_mode mode;
            bump_tally sp tx resource ~old_mode ~new_mode:mode;
            if old_mode = None then record_held sp tx resource
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
          | Some held ->
            let drop h = h.granted <- List.filter (fun (o, _) -> o <> tx) h.granted in
            List.iter
              (fun resource ->
                match resource with
                | Table tname -> (
                    match Hashtbl.find_opt sp.tables tname with
                    | Some ts -> drop ts.table_holders
                    | None -> ())
                | Row (tname, _) -> (
                    (match Hashtbl.find_opt sp.rows resource with
                     | Some h ->
                       drop h;
                       if h.granted = [] then Hashtbl.remove sp.rows resource
                     | None -> ());
                    match Hashtbl.find_opt sp.tables tname with
                    | Some ts -> Hashtbl.remove ts.tallies tx
                    | None -> ()))
              !held;
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
             | Some held -> !held
             | None -> []))

let waiting t tx = locked t.wait_lock (fun () -> Hashtbl.mem t.wait_for tx)
