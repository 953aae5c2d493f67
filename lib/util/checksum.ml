(* The low 32 bits of a product depend only on the low 32 bits of its
   factors (and likewise for [lxor]), so the hash is masked once at the
   end instead of per byte. *)
let fnv1a ?(off = 0) ?len s =
  let len = match len with Some len -> len | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Checksum.fnv1a";
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h land 0xFFFFFFFF
