module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Checksum = Dw_util.Checksum

(* log frame: [u32 len][u32 fnv1a][payload]
   sidecar:   [u64 read_off][u32 fnv1a of the 8 offset bytes] *)

type t = {
  metrics : Metrics.t;
  log : Vfs.file;
  offset_file : Vfs.file;
  mutable read_off : int;   (* offset of the oldest unacked frame *)
  mutable peeked : (string * int) option;  (* payload, next offset *)
  mutable pending : int;
  mutable enqueued : int;
}

let frame payload =
  let len = String.length payload in
  let out = Bytes.create (8 + len) in
  Bytes.set_int32_le out 0 (Int32.of_int len);
  Bytes.set_int32_le out 4 (Int32.of_int (Checksum.fnv1a payload));
  Bytes.blit_string payload 0 out 8 len;
  out

let encode_frames payloads =
  let buf = Buffer.create 256 in
  List.iter (fun p -> Buffer.add_bytes buf (frame p)) payloads;
  Buffer.to_bytes buf

let decode_frames bytes =
  let size = Bytes.length bytes in
  let rec go off acc =
    if off = size then Ok (List.rev acc)
    else if off + 8 > size then Error (Printf.sprintf "torn frame header at %d" off)
    else begin
      let len = Int32.to_int (Bytes.get_int32_le bytes off) in
      let csum = Int32.to_int (Bytes.get_int32_le bytes (off + 4)) land 0xFFFFFFFF in
      if len < 0 || off + 8 + len > size then
        Error (Printf.sprintf "torn frame body at %d" off)
      else
        let payload = Bytes.sub_string bytes (off + 8) len in
        if Checksum.fnv1a payload <> csum then
          Error (Printf.sprintf "checksum mismatch at %d" off)
        else go (off + 8 + len) (payload :: acc)
    end
  in
  go 0 []

let read_frame log off =
  let size = Vfs.size log in
  if off + 8 > size then None
  else begin
    let header = Vfs.read_at log ~off ~len:8 in
    let len = Int32.to_int (Bytes.get_int32_le header 0) in
    let csum = Int32.to_int (Bytes.get_int32_le header 4) land 0xFFFFFFFF in
    if len < 0 || off + 8 + len > size then None
    else
      (* [Vfs.read_at] returns a fresh buffer nothing else holds *)
      let payload = Bytes.unsafe_to_string (Vfs.read_at log ~off:(off + 8) ~len) in
      if Checksum.fnv1a payload <> csum then None else Some (payload, off + 8 + len)
  end

let count_from log off =
  let rec go off n total =
    match read_frame log off with
    | None -> (n, total)
    | Some (_, next) -> go next (n + 1) (total + 1)
  in
  go off 0 0

(* a crash mid-enqueue can leave a torn frame at the tail; truncate it so a
   later enqueue cannot land after garbage and become invisible to the
   reader.  Returns the set of valid frame boundaries, for validating the
   recovered read offset. *)
let repair_log vfs log =
  let size = Vfs.size log in
  let rec go off boundaries =
    match read_frame log off with
    | Some (_, next) -> go next (next :: boundaries)
    | None -> (off, boundaries)
  in
  let valid_end, boundaries = go 0 [ 0 ] in
  if valid_end < size then begin
    Vfs.truncate log valid_end;
    Metrics.incr (Vfs.metrics vfs) "queue.torn_frames";
    Metrics.add (Vfs.metrics vfs) "queue.torn_bytes" (size - valid_end)
  end;
  boundaries

(* The sidecar is only trusted when it is whole (12 bytes), checksums
   cleanly, and points at a frame boundary of the repaired log.  Anything
   else — short file from a torn write, flipped bits, an offset into the
   middle of a frame — falls back to 0: every retained message is
   redelivered, which at-least-once delivery permits; advancing past
   unconsumed messages (loss) is what must never happen. *)
let recover_read_off vfs offset_file ~boundaries =
  if Vfs.size offset_file < 12 then 0
  else begin
    let b = Vfs.read_at offset_file ~off:0 ~len:12 in
    let off = Int64.to_int (Bytes.get_int64_le b 0) in
    let csum = Int32.to_int (Bytes.get_int32_le b 8) land 0xFFFFFFFF in
    if Checksum.fnv1a ~len:8 (Bytes.unsafe_to_string b) = csum && List.mem off boundaries then off
    else begin
      Metrics.incr (Vfs.metrics vfs) "queue.offset_resets";
      0
    end
  end

let open_ vfs ~name =
  let log = Vfs.open_or_create vfs (name ^ ".q") in
  let offset_file = Vfs.open_or_create vfs (name ^ ".q.off") in
  let boundaries = repair_log vfs log in
  let read_off = recover_read_off vfs offset_file ~boundaries in
  let pending, _ = count_from log read_off in
  let enqueued_before, _ = count_from log 0 in
  { metrics = Vfs.metrics vfs; log; offset_file; read_off; peeked = None; pending;
    enqueued = enqueued_before }

(* Append frames durably.  A transient write or fsync fault truncates
   them back before it re-raises, so a retried enqueue appends once. *)
let append_frames t bytes =
  Metrics.time t.metrics "queue.enqueue" (fun () ->
      let size = Vfs.size t.log in
      try
        ignore (Vfs.append t.log bytes : int);
        Vfs.fsync t.log
      with Vfs.Fault.Transient _ as e ->
        Vfs.truncate t.log size;
        raise e)

let enqueue t payload =
  append_frames t (frame payload);
  t.pending <- t.pending + 1;
  t.enqueued <- t.enqueued + 1

let enqueue_batch t payloads =
  match payloads with
  | [] -> ()
  | _ ->
    let n = List.length payloads in
    append_frames t (encode_frames payloads);
    Metrics.observe t.metrics "queue.batch_size" (float_of_int n);
    t.pending <- t.pending + n;
    t.enqueued <- t.enqueued + n

let peek t =
  match t.peeked with
  | Some (payload, _) -> Some payload
  | None -> (
      match read_frame t.log t.read_off with
      | None -> None
      | Some (payload, next) ->
        t.peeked <- Some (payload, next);
        Some payload)

let write_offset t off =
  let b = Bytes.create 12 in
  Bytes.set_int64_le b 0 (Int64.of_int off);
  Bytes.set_int32_le b 8 (Int32.of_int (Checksum.fnv1a ~len:8 (Bytes.to_string b)));
  Vfs.write_at t.offset_file ~off:0 b;
  Vfs.fsync t.offset_file

(* [ack] and [ack_run] move the in-memory cursor only once the new
   offset is durable, so an ack retried after a faulted fsync writes the
   same offset again instead of acknowledging the next message too *)
let ack t =
  Metrics.time t.metrics "queue.ack" (fun () ->
      let next =
        match t.peeked with
        | Some (_, next) -> next
        | None -> (
            match read_frame t.log t.read_off with
            | None -> invalid_arg "Persistent_queue.ack: queue is empty"
            | Some (_, next) -> next)
      in
      write_offset t next;
      t.peeked <- None;
      t.read_off <- next;
      t.pending <- t.pending - 1)

let peek_run t ~max =
  if max < 1 then invalid_arg "Persistent_queue.peek_run: max < 1";
  let rec go off n acc =
    if n = max then List.rev acc
    else
      match read_frame t.log off with
      | None -> List.rev acc
      | Some (payload, next) -> go next (n + 1) (payload :: acc)
  in
  go t.read_off 0 []

let ack_run t n =
  if n < 0 then invalid_arg "Persistent_queue.ack_run: n < 0";
  if n > t.pending then invalid_arg "Persistent_queue.ack_run: n > pending";
  if n > 0 then
    Metrics.time t.metrics "queue.ack" (fun () ->
        let rec advance off k =
          if k = 0 then off
          else
            match read_frame t.log off with
            | None -> invalid_arg "Persistent_queue.ack_run: log shorter than pending"
            | Some (_, next) -> advance next (k - 1)
        in
        let next = advance t.read_off n in
        write_offset t next;
        t.peeked <- None;
        t.read_off <- next;
        t.pending <- t.pending - n;
        Metrics.observe t.metrics "queue.ack_run" (float_of_int n))

let pending t = t.pending
let enqueued_total t = t.enqueued

let close t =
  Vfs.close t.log;
  Vfs.close t.offset_file
