module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics

type lsn = int

type segment = {
  base : lsn;
  sname : string;
  mutable closed : bool;
}

(* the log buffer's fixed size: frames wait in it until one Vfs write
   carries them all to the device.  Bounded so a long transaction (a
   bulk load) does not hold its whole log in memory *)
let buffer_size = 65536

type t = {
  vfs : Vfs.t;
  name : string;
  archive : bool;
  mutable segments : segment list;  (* oldest first; last is current *)
  mutable current : Vfs.file;
  mutable next : lsn;  (* the device's end plus [buffered] *)
  buf : Bytes.t;  (* frames not yet written, from offset 0 *)
  mutable buffered : int;
  (* guards [buf], [buffered], [next] and [current]: a buffer-pool
     write-back on a reader domain can write the buffer out *)
  lock : Mutex.t;
  append_hist : Metrics.hist;  (* [wal.append], one sample per log write *)
}

(* each segment with the LSN it ends at: a closed segment ends where
   the next one begins, and the current one has no end yet *)
let rec with_ends = function
  | [] -> []
  | [ seg ] -> [ (seg, max_int) ]
  | a :: (b :: _ as rest) -> (a, b.base) :: with_ends rest

let segment_name name base = Printf.sprintf "%s.%012d" name base

let parse_segment_name name fname =
  let prefix = name ^ "." in
  let pl = String.length prefix in
  (* only the fixed-width decimal suffixes [segment_name] writes are
     segments; [int_of_string_opt] alone would also accept 0x/0o/0b
     prefixes, sign characters and '_' separators, adopting stray files
     like "wal.0x01" on re-open *)
  let sl = String.length fname - pl in
  if sl >= 12 && String.sub fname 0 pl = prefix then begin
    let suffix = String.sub fname pl sl in
    if String.for_all (fun c -> c >= '0' && c <= '9') suffix then int_of_string_opt suffix
    else None
  end
  else None

(* Scan a segment file for its valid record prefix and truncate anything
   after it.  A crash can tear the last append; if the garbage tail were
   left in place, later appends would land after it and be unreachable to
   iteration (which stops at the first undecodable record).  Truncating on
   re-open restores the invariant that a segment is a clean prefix of
   records.  Returns the valid length. *)
let truncate_torn_tail vfs file =
  let len = Vfs.size file in
  let data = if len = 0 then Bytes.create 0 else Vfs.read_at file ~off:0 ~len in
  let rec go off =
    if off >= len then off
    else match Log_record.decode data ~off with Ok (_, next) -> go next | Error _ -> off
  in
  let valid = go 0 in
  if valid < len then begin
    Vfs.truncate file valid;
    Metrics.incr (Vfs.metrics vfs) "wal.torn_segments";
    Metrics.add (Vfs.metrics vfs) "wal.torn_bytes" (len - valid)
  end;
  valid

let create vfs ~name ~archive =
  let append_hist = Metrics.hist (Vfs.metrics vfs) "wal.append" in
  (* adopt any segments already present (re-open after crash) *)
  let existing =
    Vfs.list_files vfs
    |> List.filter_map (fun f ->
           match parse_segment_name name f with Some base -> Some (base, f) | None -> None)
    |> List.sort compare
  in
  match existing with
  | [] ->
    let sname = segment_name name 0 in
    let current = Vfs.create vfs sname in
    {
      vfs;
      name;
      archive;
      segments = [ { base = 0; sname; closed = false } ];
      current;
      next = 0;
      buf = Bytes.create buffer_size;
      buffered = 0;
      lock = Mutex.create ();
      append_hist;
    }
  | segs ->
    let segments =
      List.map (fun (base, sname) -> { base; sname; closed = true }) segs
    in
    (* every adopted segment may carry a torn tail from the crash that
       orphaned it; truncate each one back to its last whole record *)
    List.iter
      (fun seg ->
        let file = Vfs.open_existing vfs seg.sname in
        ignore (truncate_torn_tail vfs file : int);
        Vfs.close file)
      segments;
    let last = List.nth segments (List.length segments - 1) in
    last.closed <- false;
    let current = Vfs.open_existing vfs last.sname in
    {
      vfs;
      name;
      archive;
      segments;
      current;
      next = last.base + Vfs.size current;
      buf = Bytes.create buffer_size;
      buffered = 0;
      lock = Mutex.create ();
      append_hist;
    }

let archive_enabled t = t.archive
let metrics t = Vfs.metrics t.vfs
let next_lsn t = t.next

let locked t f = Mutex.protect t.lock f

(* callers hold [t.lock].  A transient fault leaves the buffer as it
   was, so a later write-out retries it *)
let write_buffer t =
  if t.buffered > 0 then begin
    ignore (Vfs.append ~hist:t.append_hist ~len:t.buffered t.current t.buf : int);
    t.buffered <- 0
  end

let write_out t = locked t (fun () -> write_buffer t)

let append t record =
  let len = Log_record.frame_length record in
  locked t (fun () ->
      if t.buffered + len > buffer_size then write_buffer t;
      let lsn = t.next in
      if len <= buffer_size then
        t.buffered <- t.buffered + Log_record.encode_into record t.buf ~off:t.buffered
      else
        (* a frame larger than the whole buffer goes out on its own *)
        ignore (Vfs.append ~hist:t.append_hist t.current (Log_record.encode record) : int);
      t.next <- lsn + len;
      lsn)

let retract t lsn =
  locked t (fun () ->
      let start = t.next - t.buffered in
      if lsn < start || lsn > t.next then invalid_arg "Wal.retract: frame already written";
      t.buffered <- lsn - start;
      t.next <- lsn)

let flush t =
  locked t (fun () ->
      write_buffer t;
      Metrics.time (Vfs.metrics t.vfs) "wal.fsync" (fun () -> Vfs.fsync t.current))

(* callers hold [t.lock] *)
let rotate t =
  write_buffer t;
  Vfs.fsync t.current;
  Vfs.close t.current;
  (match t.segments with
   | [] -> assert false
   | segs ->
     let last = List.nth segs (List.length segs - 1) in
     last.closed <- true);
  let sname = segment_name t.name t.next in
  let current = Vfs.create t.vfs sname in
  t.segments <- t.segments @ [ { base = t.next; sname; closed = false } ];
  t.current <- current

let checkpoint t ~active =
  let lsn = append t { Log_record.tx = 0; body = Log_record.Checkpoint active } in
  flush t;
  locked t (fun () -> rotate t);
  if not t.archive then begin
    (* recycling policy: delete every closed segment except the one holding
       the checkpoint record itself (recovery needs the checkpoint) *)
    let holds_ckpt seg next_base = seg.base <= lsn && lsn < next_base in
    let to_delete =
      List.filter
        (fun (seg, next_base) -> seg.closed && not (holds_ckpt seg next_base))
        (with_ends t.segments)
      |> List.map fst
    in
    List.iter (fun seg -> Vfs.delete t.vfs seg.sname) to_delete;
    t.segments <- List.filter (fun seg -> not (List.memq seg to_delete)) t.segments
  end;
  lsn

let iter_segment t seg ~from f =
  let file =
    if seg.closed then Vfs.open_existing t.vfs seg.sname
    else t.current
  in
  let len = Vfs.size file in
  let data = if len = 0 then Bytes.create 0 else Vfs.read_at file ~off:0 ~len in
  let rec go off =
    if off < len then
      match Log_record.decode data ~off with
      | Ok (record, next_off) ->
        let lsn = seg.base + off in
        if lsn >= from then f lsn record;
        go next_off
      | Error _ -> ()  (* torn tail: stop *)
  in
  go 0;
  if seg.closed then Vfs.close file

(* a segment that ends at or before [from] holds no record to visit and
   is not read *)
let iter_from t from f =
  write_out t;
  List.iter
    (fun (seg, ends) -> if ends > from then iter_segment t seg ~from f)
    (with_ends t.segments)
let iter_all t f = iter_from t 0 f

let archived_segments t =
  t.segments |> List.filter (fun seg -> seg.closed) |> List.map (fun seg -> seg.sname)

let prune_archived t ~upto =
  let deletable =
    with_ends t.segments
    |> List.filter (fun (seg, next_base) -> seg.closed && next_base <= upto)
    |> List.map fst
  in
  List.iter (fun seg -> Vfs.delete t.vfs seg.sname) deletable;
  t.segments <- List.filter (fun seg -> not (List.memq seg deletable)) t.segments;
  List.length deletable

let segment_bytes t =
  write_out t;
  List.fold_left
    (fun acc seg ->
      if seg.closed then
        let file = Vfs.open_existing t.vfs seg.sname in
        let n = Vfs.size file in
        Vfs.close file;
        acc + n
      else acc + Vfs.size t.current)
    0 t.segments
