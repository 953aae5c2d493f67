module Heap_file = Dw_storage.Heap_file
module Metrics = Dw_util.Metrics

type stats = {
  records_scanned : int;
  winners : int;
  losers : int;
  redone : int;
  undone : int;
  max_txid : int;
}

type tx_state = Active | Committed | Aborted

let run ~wal ~resolve =
  let m = Wal.metrics wal in
  Metrics.with_span m "recovery" @@ fun () ->
  (* analysis *)
  let states : (int, tx_state) Hashtbl.t = Hashtbl.create 32 in
  let scanned = ref 0 and max_txid = ref 0 in
  Metrics.with_span m "recovery.analysis" (fun () ->
      Wal.iter_all wal (fun _ record ->
          incr scanned;
          if record.Log_record.tx > !max_txid then max_txid := record.tx;
          match record.Log_record.body with
          | Log_record.Begin -> Hashtbl.replace states record.tx Active
          | Log_record.Commit -> Hashtbl.replace states record.tx Committed
          | Log_record.Abort -> Hashtbl.replace states record.tx Aborted
          | Log_record.Insert _ | Log_record.Delete _ | Log_record.Update _ ->
            if not (Hashtbl.mem states record.tx) then Hashtbl.replace states record.tx Active
          | Log_record.Checkpoint _ -> ()));
  let state tx = match Hashtbl.find_opt states tx with Some s -> s | None -> Active in
  let winners = Hashtbl.fold (fun _ s n -> if s = Committed then n + 1 else n) states 0 in
  let losers =
    Hashtbl.fold (fun _ s n -> if s = Active || s = Aborted then n + 1 else n) states 0
  in
  (* redo committed; remember the highest committed LSN per (table, rid)
     so the undo pass cannot clobber a slot a winner later reused *)
  let redone = ref 0 in
  let committed_touch : (string * Heap_file.rid, int) Hashtbl.t = Hashtbl.create 64 in
  let touch table rid lsn =
    match Hashtbl.find_opt committed_touch (table, rid) with
    | Some l when l >= lsn -> ()
    | Some _ | None -> Hashtbl.replace committed_touch (table, rid) lsn
  in
  Metrics.with_span m "recovery.redo" (fun () ->
      Wal.iter_all wal (fun lsn record ->
          if state record.Log_record.tx = Committed then
            match record.Log_record.body with
            | Log_record.Insert { table; rid; after } ->
              touch table rid lsn;
              (match resolve table with
               | Some heap ->
                 Heap_file.force_at heap rid (Some after);
                 incr redone
               | None -> ())
            | Log_record.Delete { table; rid; _ } ->
              touch table rid lsn;
              (match resolve table with
               | Some heap ->
                 Heap_file.force_at heap rid None;
                 incr redone
               | None -> ())
            | Log_record.Update { table; rid; after; _ } ->
              touch table rid lsn;
              (match resolve table with
               | Some heap ->
                 Heap_file.force_at heap rid (Some after);
                 incr redone
               | None -> ())
            | Log_record.Begin | Log_record.Commit | Log_record.Abort
            | Log_record.Checkpoint _ -> ()));
  (* undo losers, reverse order.  A loser record whose rid was later
     rewritten by a committed transaction is skipped: under strict 2PL
     the winner can only have acquired the rid after the loser's
     rollback completed (e.g. in a previous incarnation, before a second
     crash), so the redone winner image is the correct final state. *)
  let loser_dml = ref [] in
  let undone = ref 0 in
  Metrics.with_span m "recovery.undo" (fun () ->
      Wal.iter_all wal (fun lsn record ->
          match state record.Log_record.tx with
          | Active | Aborted -> (
              match record.Log_record.body with
              | Log_record.Insert _ | Log_record.Delete _ | Log_record.Update _ ->
                loser_dml := (lsn, record) :: !loser_dml
              | Log_record.Begin | Log_record.Commit | Log_record.Abort
              | Log_record.Checkpoint _ ->
                ())
          | Committed -> ());
      let superseded table rid lsn =
        match Hashtbl.find_opt committed_touch (table, rid) with
        | Some winner_lsn -> winner_lsn > lsn
        | None -> false
      in
      List.iter
        (fun (lsn, record) ->
          match record.Log_record.body with
          | Log_record.Insert { table; rid; _ } ->
            (match resolve table with
             | Some heap when not (superseded table rid lsn) ->
               Heap_file.force_at heap rid None;
               incr undone
             | Some _ | None -> ())
          | Log_record.Delete { table; rid; before } ->
            (match resolve table with
             | Some heap when not (superseded table rid lsn) ->
               Heap_file.force_at heap rid (Some before);
               incr undone
             | Some _ | None -> ())
          | Log_record.Update { table; rid; before; _ } ->
            (match resolve table with
             | Some heap when not (superseded table rid lsn) ->
               Heap_file.force_at heap rid (Some before);
               incr undone
             | Some _ | None -> ())
          | Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.Checkpoint _ ->
            ())
        !loser_dml);
  {
    records_scanned = !scanned;
    winners;
    losers;
    redone = !redone;
    undone = !undone;
    max_txid = !max_txid;
  }
