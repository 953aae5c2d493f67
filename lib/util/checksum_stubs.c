/* 32-bit FNV-1a over [len] bytes at [off] of an OCaml string; the
   OCaml side checks the range.  It allocates nothing and never raises,
   so the external is [@@noalloc]. */
#include <stdint.h>
#include <caml/mlvalues.h>

value dw_fnv1a(value s, value off, value len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(off);
  const unsigned char *end = p + Long_val(len);
  uint32_t h = 0x811c9dc5u;
  while (p < end) h = (h ^ *p++) * 0x01000193u;
  return Val_long(h);
}
