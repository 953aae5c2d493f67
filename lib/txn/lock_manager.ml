type txid = int

type resource = Table of string | Row of string * Dw_storage.Heap_file.rid
type mode = S | X
type outcome = Granted | Blocked of txid list | Deadlock of txid list

(* per-(table, txid) row-lock tally, so a Table-lock request can find
   conflicting row locks in O(#transactions) instead of O(#locks) *)
type tally = { mutable s_rows : int; mutable x_rows : int }

module Metrics = Dw_util.Metrics

(* the transactions granted one resource, with their modes: few, usually
   one, so a list rather than a table per resource *)
type holders = { mutable granted : (txid * mode) list }

(* one table's lock state: the holders of its [Table] lock, and the row
   lock tally of each transaction holding row locks in it *)
type table_state = { table_holders : holders; tallies : (txid, tally) Hashtbl.t }

(* Every operation runs under the one mutex [lock]: the conflict check,
   the grant and the wait-for update of an acquire happen in one
   critical section.  The engine calls in from one writer domain per
   database (snapshot transactions never do), so the mutex is never
   contended there. *)
type t = {
  tables : (string, table_state) Hashtbl.t;
  rows : (resource, holders) Hashtbl.t;  (* [Row] resources only *)
  held : (txid, resource list ref) Hashtbl.t;  (* each resource once *)
  wait_for : (txid, txid list) Hashtbl.t;  (* waiter -> blockers *)
  lock : Mutex.t;
  (* [lock.acquires], [lock.deadlocks], [lock.blocks], resolved once *)
  acquires : Metrics.counter;
  deadlocks : Metrics.counter;
  blocks : Metrics.counter;
}

let create ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    tables = Hashtbl.create 16;
    rows = Hashtbl.create 64;
    held = Hashtbl.create 16;
    wait_for = Hashtbl.create 16;
    lock = Mutex.create ();
    acquires = Metrics.counter metrics "lock.acquires";
    deadlocks = Metrics.counter metrics "lock.deadlocks";
    blocks = Metrics.counter metrics "lock.blocks";
  }

let locked t f = Mutex.protect t.lock f

(* ---------- lock state (callers hold t.lock) ---------- *)

(* lookups use [Hashtbl.find], whose miss raises a constant: no option
   is allocated *)
let table_state t tname =
  match Hashtbl.find t.tables tname with
  | ts -> ts
  | exception Not_found ->
    let ts = { table_holders = { granted = [] }; tallies = Hashtbl.create 8 } in
    Hashtbl.add t.tables tname ts;
    ts

let holders_cell t resource =
  match resource with
  | Table tname -> (table_state t tname).table_holders
  | Row _ -> (
      match Hashtbl.find t.rows resource with
      | h -> h
      | exception Not_found ->
        let h = { granted = [] } in
        Hashtbl.add t.rows resource h;
        h)

let holders_unlocked t resource =
  match resource with
  | Table tname -> (
      match Hashtbl.find t.tables tname with
      | ts -> ts.table_holders.granted
      | exception Not_found -> [])
  | Row _ -> ( match Hashtbl.find t.rows resource with h -> h.granted | exception Not_found -> [])

let compatible a b = a = S && b = S

let tally_for t tname tx =
  let tbl = (table_state t tname).tallies in
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
   including coarse-grained conflicts between table and row locks *)
let conflicts t tx resource mode =
  let direct = add_conflicts tx mode [] (holders_unlocked t resource) in
  let all =
    match resource with
    | Row (tname, _) -> (
        (* a row lock conflicts with another transaction's table lock
           unless both are S *)
        match Hashtbl.find t.tables tname with
        | ts -> add_conflicts tx mode direct ts.table_holders.granted
        | exception Not_found -> direct)
    | Table tname -> (
        (* a table lock conflicts with other transactions' row locks in the
           table (unless both S) *)
        match Hashtbl.find t.tables tname with
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
let record_held t tx resource =
  match Hashtbl.find t.held tx with
  | held -> held := resource :: !held
  | exception Not_found -> Hashtbl.add t.held tx (ref [ resource ])

(* would granting make [waiter] wait on someone who (transitively) waits
   on [waiter]? *)
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

let bump_tally t tx resource ~old_mode ~new_mode =
  match resource with
  | Table _ -> ()
  | Row (tname, _) ->
    let tally = tally_for t tname tx in
    (match old_mode with
     | Some S -> tally.s_rows <- tally.s_rows - 1
     | Some X -> tally.x_rows <- tally.x_rows - 1
     | None -> ());
    (match new_mode with
     | S -> tally.s_rows <- tally.s_rows + 1
     | X -> tally.x_rows <- tally.x_rows + 1)

(* a grant ends [tx]'s wait *)
let granted t tx =
  Hashtbl.remove t.wait_for tx;
  Granted

let rec mode_in tx = function
  | [] -> None
  | (other, m) :: rest -> if other = tx then Some m else mode_in tx rest

(* [tx] now holds [resource] in [mode]: an upgrade replaces its entry *)
let grant h tx ~old_mode mode =
  match old_mode with
  | None -> h.granted <- (tx, mode) :: h.granted
  | Some _ -> h.granted <- List.map (fun (o, m) -> if o = tx then (o, mode) else (o, m)) h.granted

let acquire t tx resource mode =
  Metrics.bump t.acquires 1;
  locked t (fun () ->
      match mode_in tx (holders_unlocked t resource), mode with
      | Some X, _ | Some S, S ->
        (* re-entry at the held mode or weaker: granted locks are
           pairwise compatible, so nothing can conflict and nothing
           changes *)
        granted t tx
      | old_mode, _ -> (
          (* a first request, or an S -> X upgrade *)
          match conflicts t tx resource mode with
          | [] ->
            grant (holders_cell t resource) tx ~old_mode mode;
            bump_tally t tx resource ~old_mode ~new_mode:mode;
            if old_mode = None then record_held t tx resource;
            granted t tx
          | blockers when closes_cycle t tx blockers ->
            Metrics.bump t.deadlocks 1;
            Deadlock blockers
          | blockers ->
            Metrics.bump t.blocks 1;
            Hashtbl.replace t.wait_for tx blockers;
            Blocked blockers))

let release t tx resource =
  let drop h = h.granted <- List.filter (fun (o, _) -> o <> tx) h.granted in
  match resource with
  | Table tname -> (
      match Hashtbl.find_opt t.tables tname with
      | Some ts -> drop ts.table_holders
      | None -> ())
  | Row (tname, _) -> (
      (match Hashtbl.find_opt t.rows resource with
       | Some h ->
         drop h;
         if h.granted = [] then Hashtbl.remove t.rows resource
       | None -> ());
      match Hashtbl.find_opt t.tables tname with
      | Some ts -> Hashtbl.remove ts.tallies tx
      | None -> ())

let release_all t tx =
  locked t (fun () ->
      (match Hashtbl.find_opt t.held tx with
       | None -> ()
       | Some held ->
         List.iter (release t tx) !held;
         Hashtbl.remove t.held tx);
      if Hashtbl.length t.wait_for > 0 then begin
        Hashtbl.remove t.wait_for tx;
        (* drop this tx from other waiters' blocker lists; a waiter left
           with none waits no more *)
        Hashtbl.filter_map_inplace
          (fun _ blockers ->
            if List.mem tx blockers then
              match List.filter (fun b -> b <> tx) blockers with [] -> None | l -> Some l
            else Some blockers)
          t.wait_for
      end)

let held_by t tx =
  locked t (fun () -> match Hashtbl.find_opt t.held tx with Some held -> !held | None -> [])

let waiting t tx = locked t (fun () -> Hashtbl.mem t.wait_for tx)
