module Checksum = Dw_util.Checksum

type txid = int
type rid = Dw_storage.Heap_file.rid

type body =
  | Begin
  | Commit
  | Abort
  | Insert of { table : string; rid : rid; after : bytes }
  | Delete of { table : string; rid : rid; before : bytes }
  | Update of { table : string; rid : rid; before : bytes; after : bytes }
  | Purge of { table : string; rids : rid list }
  | Checkpoint of txid list

type t = { tx : txid; body : body }

(* payload serialisation: [encode] sizes the whole frame up front and
   every [put_*] writes one field in place, returning the next offset.
   [Int32.of_int] keeps the low 32 bits, so a u32 field is the value
   modulo 2^32, little-endian. *)

let put_u32 out pos v =
  Bytes.set_int32_le out pos (Int32.of_int v);
  pos + 4

let put_i64 out pos v =
  Bytes.set_int64_le out pos (Int64.of_int v);
  pos + 8

let put_bytes out pos b =
  let n = Bytes.length b in
  let pos = put_u32 out pos n in
  Bytes.blit b 0 out pos n;
  pos + n

let put_string out pos s =
  let n = String.length s in
  let pos = put_u32 out pos n in
  Bytes.blit_string s 0 out pos n;
  pos + n

let put_rid out pos (rid : rid) =
  put_u32 out (put_u32 out pos rid.Dw_storage.Heap_file.page) rid.Dw_storage.Heap_file.slot

let tag_of_body = function
  | Begin -> 0
  | Commit -> 1
  | Abort -> 2
  | Insert _ -> 3
  | Delete _ -> 4
  | Update _ -> 5
  | Checkpoint _ -> 6
  | Purge _ -> 7

(* bytes after the tag and tx: length-prefixed table name, an 8-byte
   rid and length-prefixed images; a purge's table name, count and
   rids; a checkpoint's count and txids *)
let body_length = function
  | Begin | Commit | Abort -> 0
  | Insert { table; after = image; _ } | Delete { table; before = image; _ } ->
    4 + String.length table + 8 + 4 + Bytes.length image
  | Update { table; before; after; _ } ->
    4 + String.length table + 8 + 4 + Bytes.length before + 4 + Bytes.length after
  | Purge { table; rids } -> 4 + String.length table + 4 + (8 * List.length rids)
  | Checkpoint active -> 4 + (8 * List.length active)

let frame_length t = 8 + 1 + 8 + body_length t.body

let encode_into t out ~off =
  (* [u32 total][u32 checksum] header, then the payload: u8 tag, i64 tx, body *)
  let total = frame_length t in
  if off < 0 || off > Bytes.length out - total then invalid_arg "Log_record.encode_into";
  let (_ : int) = put_u32 out off total in
  Bytes.set out (off + 8) (Char.chr (tag_of_body t.body));
  let pos = put_i64 out (off + 9) t.tx in
  let pos =
    match t.body with
    | Begin | Commit | Abort -> pos
    | Insert { table; rid; after = image } | Delete { table; rid; before = image } ->
      put_bytes out (put_rid out (put_string out pos table) rid) image
    | Update { table; rid; before; after } ->
      put_bytes out (put_bytes out (put_rid out (put_string out pos table) rid) before) after
    | Purge { table; rids } ->
      List.fold_left (put_rid out) (put_u32 out (put_string out pos table) (List.length rids)) rids
    | Checkpoint active ->
      List.fold_left (put_i64 out) (put_u32 out pos (List.length active)) active
  in
  assert (pos = off + total);
  (* the string view lives only for the hash, before the field is written *)
  let csum = Checksum.fnv1a ~off:(off + 8) ~len:(total - 8) (Bytes.unsafe_to_string out) in
  let (_ : int) = put_u32 out (off + 4) csum in
  total

let encode t =
  let out = Bytes.create (frame_length t) in
  let (_ : int) = encode_into t out ~off:0 in
  out

exception Bad of string

let decode buf ~off =
  try
    let remaining = Bytes.length buf - off in
    if remaining < 8 then raise (Bad "truncated frame header");
    let total = Int32.to_int (Bytes.get_int32_le buf off) in
    if total < 9 || off + total > Bytes.length buf then raise (Bad "bad frame length");
    let csum = Int32.to_int (Bytes.get_int32_le buf (off + 4)) land 0xFFFFFFFF in
    let plen = total - 8 in
    if Checksum.fnv1a ~off:(off + 8) ~len:plen (Bytes.unsafe_to_string buf) <> csum then
      raise (Bad "checksum mismatch");
    let pos = ref (off + 8) in
    let limit = off + total in
    let u8 () =
      if !pos >= limit then raise (Bad "truncated payload");
      let v = Char.code (Bytes.get buf !pos) in
      incr pos;
      v
    in
    let u32 () =
      if !pos + 4 > limit then raise (Bad "truncated payload");
      let v =
        Char.code (Bytes.get buf !pos)
        lor (Char.code (Bytes.get buf (!pos + 1)) lsl 8)
        lor (Char.code (Bytes.get buf (!pos + 2)) lsl 16)
        lor (Char.code (Bytes.get buf (!pos + 3)) lsl 24)
      in
      pos := !pos + 4;
      v
    in
    let i64 () =
      if !pos + 8 > limit then raise (Bad "truncated payload");
      let v = Int64.to_int (Bytes.get_int64_le buf !pos) in
      pos := !pos + 8;
      v
    in
    let bytes_fld () =
      let n = u32 () in
      if !pos + n > limit then raise (Bad "truncated bytes field");
      let b = Bytes.sub buf !pos n in
      pos := !pos + n;
      b
    in
    let string_fld () = Bytes.to_string (bytes_fld ()) in
    let rid_fld () : rid =
      let page = u32 () in
      let slot = u32 () in
      { Dw_storage.Heap_file.page; slot }
    in
    let tag = u8 () in
    let tx = i64 () in
    let body =
      match tag with
      | 0 -> Begin
      | 1 -> Commit
      | 2 -> Abort
      | 3 ->
        let table = string_fld () in
        let rid = rid_fld () in
        let after = bytes_fld () in
        Insert { table; rid; after }
      | 4 ->
        let table = string_fld () in
        let rid = rid_fld () in
        let before = bytes_fld () in
        Delete { table; rid; before }
      | 5 ->
        let table = string_fld () in
        let rid = rid_fld () in
        let before = bytes_fld () in
        let after = bytes_fld () in
        Update { table; rid; before; after }
      | 6 ->
        let n = u32 () in
        let active = List.init n (fun _ -> i64 ()) in
        Checkpoint active
      | 7 ->
        let table = string_fld () in
        let n = u32 () in
        if n > (limit - !pos) / 8 then raise (Bad "truncated rid list");
        let rids = List.init n (fun _ -> rid_fld ()) in
        Purge { table; rids }
      | n -> raise (Bad (Printf.sprintf "unknown tag %d" n))
    in
    Ok ({ tx; body }, off + total)
  with Bad msg -> Error msg

let pp ppf t =
  let rid_str (r : rid) = Dw_storage.Heap_file.rid_to_string r in
  match t.body with
  | Begin -> Format.fprintf ppf "BEGIN tx=%d" t.tx
  | Commit -> Format.fprintf ppf "COMMIT tx=%d" t.tx
  | Abort -> Format.fprintf ppf "ABORT tx=%d" t.tx
  | Insert { table; rid; after } ->
    Format.fprintf ppf "INSERT tx=%d %s%s (%dB)" t.tx table (rid_str rid) (Bytes.length after)
  | Delete { table; rid; before } ->
    Format.fprintf ppf "DELETE tx=%d %s%s (%dB)" t.tx table (rid_str rid) (Bytes.length before)
  | Update { table; rid; before; after } ->
    Format.fprintf ppf "UPDATE tx=%d %s%s (%d->%dB)" t.tx table (rid_str rid)
      (Bytes.length before) (Bytes.length after)
  | Purge { table; rids } -> Format.fprintf ppf "PURGE tx=%d %s (%d rids)" t.tx table (List.length rids)
  | Checkpoint active ->
    Format.fprintf ppf "CHECKPOINT active=[%s]"
      (String.concat ";" (List.map string_of_int active))
