(* every WAL and queue frame is hashed, so the loop runs in C
   (checksum_stubs.c); the range is checked here *)
external fnv1a_range : string -> int -> int -> int = "dw_fnv1a" [@@noalloc]

let fnv1a ?(off = 0) ?len s =
  let len = match len with Some len -> len | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Checksum.fnv1a";
  fnv1a_range s off len
