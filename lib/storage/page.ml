let size = 4096

let alloc () = Bytes.make size '\000'

type slot = int

let header_fixed = 4

let max_records_per_page ~record_width =
  (* capacity c must satisfy: 4 + (c+7)/8 + c*width <= size.
     Solve by starting from the no-bitmap bound and decreasing. *)
  if record_width <= 0 then invalid_arg "Page.max_records_per_page: width <= 0";
  let rec fit c =
    if c = 0 then 0
    else if header_fixed + ((c + 7) / 8) + (c * record_width) <= size then c
    else fit (c - 1)
  in
  fit ((size - header_fixed) / record_width)

let init page ~record_width =
  let cap = max_records_per_page ~record_width in
  if cap = 0 then invalid_arg "Page.init: record too wide for a page";
  Bytes.fill page 0 size '\000';
  Bytes.set_uint16_le page 0 record_width;
  Bytes.set_uint16_le page 2 cap

let record_width page = Bytes.get_uint16_le page 0
let capacity page = Bytes.get_uint16_le page 2

let bitmap_off = header_fixed
let bitmap_len page = (capacity page + 7) / 8
let records_off page = bitmap_off + bitmap_len page

let check_slot page slot =
  if slot < 0 || slot >= capacity page then
    invalid_arg (Printf.sprintf "Page: slot %d out of range (capacity %d)" slot (capacity page))

let is_used page slot =
  check_slot page slot;
  let byte = Char.code (Bytes.get page (bitmap_off + (slot / 8))) in
  byte land (1 lsl (slot mod 8)) <> 0

let set_used page slot used =
  let pos = bitmap_off + (slot / 8) in
  let byte = Char.code (Bytes.get page pos) in
  let bit = 1 lsl (slot mod 8) in
  let byte' = if used then byte lor bit else byte land lnot bit in
  Bytes.set page pos (Char.chr byte')

(* The bitmap is read a byte at a time: a table gives each byte's
   population count and the index of its lowest clear bit.  Bits past
   [capacity] in the last byte are never set by this module and are
   masked off all the same. *)
let popcount = String.init 256 (fun b ->
    let rec go b n = if b = 0 then n else go (b land (b - 1)) (n + 1) in
    Char.chr (go b 0))

let lowest_clear = String.init 256 (fun b ->
    let rec go i = if i = 8 || b land (1 lsl i) = 0 then i else go (i + 1) in
    Char.chr (go 0))

(* bitmap byte [i], with the bits of slots at or past [cap] cleared *)
let bitmap_byte page cap i =
  let byte = Char.code (Bytes.get page (bitmap_off + i)) in
  let past = (8 * (i + 1)) - cap in
  if past > 0 then byte land ((1 lsl (8 - past)) - 1) else byte

let used_count page =
  let cap = capacity page in
  let n = ref 0 in
  for i = 0 to ((cap + 7) / 8) - 1 do
    n := !n + Char.code popcount.[bitmap_byte page cap i]
  done;
  !n

let slot_off page slot = records_off page + (slot * record_width page)

let find_free page =
  let cap = capacity page in
  let len = (cap + 7) / 8 in
  let rec go i =
    if i >= len then None
    else
      let byte = Char.code (Bytes.get page (bitmap_off + i)) in
      if byte = 0xff then go (i + 1)
      else
        let slot = (8 * i) + Char.code lowest_clear.[byte] in
        if slot < cap then Some slot else None
  in
  go 0

let insert page record =
  let width = record_width page in
  if Bytes.length record <> width then
    invalid_arg
      (Printf.sprintf "Page.insert: record is %d bytes, page takes %d" (Bytes.length record) width);
  match find_free page with
  | None -> None
  | Some slot ->
    Bytes.blit record 0 page (slot_off page slot) width;
    set_used page slot true;
    Some slot

let write_slot page slot record =
  check_slot page slot;
  if not (is_used page slot) then invalid_arg "Page.write_slot: slot is free";
  let width = record_width page in
  if Bytes.length record <> width then invalid_arg "Page.write_slot: width mismatch";
  Bytes.blit record 0 page (slot_off page slot) width

let read_slot page slot =
  check_slot page slot;
  if not (is_used page slot) then invalid_arg "Page.read_slot: slot is free";
  Bytes.sub page (slot_off page slot) (record_width page)

let delete page slot =
  check_slot page slot;
  if not (is_used page slot) then invalid_arg "Page.delete: slot already free";
  set_used page slot false

let force_use page slot =
  check_slot page slot;
  set_used page slot true

let iter_used page f =
  for slot = 0 to capacity page - 1 do
    if is_used page slot then f slot (read_slot page slot)
  done
