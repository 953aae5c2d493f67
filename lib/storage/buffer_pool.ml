module Metrics = Dw_util.Metrics

(* Frames live in fixed arrays; replacement order is an intrusive doubly
   linked LRU list over frame indices (head = most recent, tail = victim),
   so a miss picks its victim in O(1) instead of scanning every frame.
   Invariant: a frame is on the LRU list iff [valid], on the free list
   otherwise.

   Striping: the pool is split into [stripes] independently-mutexed
   sub-pools, each owning its share of the frame budget; a page maps to
   a stripe by (file name, page) hash, so parallel scan domains faulting
   different pages contend only when they hash together.  One stripe
   (the default) is byte-for-byte the old single-LRU behaviour, which
   the eviction-order regression tests rely on, and skips the hash.

   Within a stripe a frame is keyed by one int packing the file's
   {!Vfs.id} with the page number, so a hit hashes and compares an int
   rather than a (name, page) pair.  [with_page] holds the
   stripe mutex for the whole callback: the frame bytes are owned by the
   caller until it returns.  A cold read ([copy_page]) of a page that is
   not cached reads the device outside it; the file's I/O lock ({!Vfs})
   orders that read against a write-back of the same page. *)

(* [Vfs.id] in the high bits, the page number in the low [page_bits] *)
let page_bits = 32

let key_of file pno = (Vfs.id file lsl page_bits) lor pno
let page_of key = key land ((1 lsl page_bits) - 1)
let file_id_of key = key lsr page_bits

module Key_table = Hashtbl.Make (Int)

type frame = {
  mutable key : int;  (* [key_of] file, page *)
  data : bytes;
  mutable dirty : bool;
  mutable valid : bool;
  mutable file : Vfs.file option;
  mutable prev : int;  (* towards MRU; -1 = none *)
  mutable next : int;  (* towards LRU; -1 = none *)
}

type stripe = {
  frames : frame array;
  table : int Key_table.t;  (* key -> frame index *)
  mutable mru : int;   (* -1 when the list is empty *)
  mutable lru : int;
  mutable free : int list;  (* invalid frames *)
  stripe_lock : Mutex.t;
}

(* the pool's metrics, resolved once *)
type handles = {
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  writebacks : Metrics.counter;
  miss_hist : Metrics.hist;
}

type t = {
  vfs : Vfs.t;
  h : handles;
  stripes : stripe array;
  (* file growth must be serialised across stripes: page numbers are
     allocated from the current file size *)
  append_lock : Mutex.t;
  (* runs before every dirty page goes to the device: the write-ahead
     rule under steal, installed by the page's log owner *)
  mutable before_write_back : unit -> unit;
}

let mk_stripe capacity =
  {
    frames =
      Array.init capacity (fun _ ->
          { key = -1; data = Bytes.create Page.size; dirty = false; valid = false;
            file = None; prev = -1; next = -1 });
    table = Key_table.create (capacity * 2);
    mru = -1;
    lru = -1;
    free = List.init capacity Fun.id;
    stripe_lock = Mutex.create ();
  }

let create ?(stripes = 1) ~vfs ~capacity () =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  if stripes < 1 then invalid_arg "Buffer_pool.create: stripes < 1";
  let n = min stripes capacity (* every stripe gets at least one frame *) in
  let base = capacity / n and rem = capacity mod n in
  let m = Vfs.metrics vfs in
  {
    vfs;
    h =
      { hits = Metrics.counter m "pool.hits"; misses = Metrics.counter m "pool.misses";
        evictions = Metrics.counter m "pool.evictions";
        writebacks = Metrics.counter m "pool.writebacks"; miss_hist = Metrics.hist m "pool.miss" };
    stripes = Array.init n (fun i -> mk_stripe (base + if i < rem then 1 else 0));
    append_lock = Mutex.create ();
    before_write_back = ignore;
  }

let set_write_back_hook t hook = t.before_write_back <- hook

let stripe_count t = Array.length t.stripes

let capacity t = Array.fold_left (fun acc sp -> acc + Array.length sp.frames) 0 t.stripes

let page_count _t file = Vfs.size file / Page.size

let stripe_for t file pno =
  match t.stripes with
  | [| sp |] -> sp
  | stripes -> stripes.(Hashtbl.hash (Vfs.name file, pno) mod Array.length stripes)

let locked m f = Mutex.protect m f

(* ---- LRU list primitives (callers hold sp.stripe_lock) ---- *)

let unlink sp i =
  let f = sp.frames.(i) in
  (match f.prev with -1 -> sp.mru <- f.next | p -> sp.frames.(p).next <- f.next);
  (match f.next with -1 -> sp.lru <- f.prev | n -> sp.frames.(n).prev <- f.prev);
  f.prev <- -1;
  f.next <- -1

let push_mru sp i =
  let f = sp.frames.(i) in
  f.prev <- -1;
  f.next <- sp.mru;
  (match sp.mru with -1 -> () | m -> sp.frames.(m).prev <- i);
  sp.mru <- i;
  if sp.lru = -1 then sp.lru <- i

let touch sp i =
  if sp.mru <> i then begin
    unlink sp i;
    push_mru sp i
  end

let write_back t frame =
  match frame.file with
  | Some file when frame.dirty ->
    t.before_write_back ();
    Vfs.write_at file ~off:(page_of frame.key * Page.size) frame.data;
    frame.dirty <- false;
    Metrics.bump t.h.writebacks 1
  | Some _ | None -> ()

(* an invalid frame if one exists, otherwise the least recently used *)
let victim sp =
  match sp.free with
  | i :: rest ->
    sp.free <- rest;
    i
  | [] -> sp.lru

(* a miss: evict the victim (writing it back if dirty), read the page *)
let fault_in t sp file pno key =
  let idx = victim sp in
  let frame = sp.frames.(idx) in
  if frame.valid then begin
    write_back t frame;
    Key_table.remove sp.table frame.key;
    Metrics.bump t.h.evictions 1;
    unlink sp idx
  end;
  (* the frame is off every list: a failed read leaves it free *)
  frame.valid <- false;
  frame.file <- None;
  (match Vfs.read_into file ~off:(pno * Page.size) frame.data with
   | () -> ()
   | exception e ->
     let bt = Printexc.get_raw_backtrace () in
     sp.free <- idx :: sp.free;
     Printexc.raise_with_backtrace e bt);
  frame.key <- key;
  frame.valid <- true;
  frame.dirty <- false;
  frame.file <- Some file;
  Key_table.replace sp.table key idx;
  push_mru sp idx;
  frame

(* one [pool.miss] sample around [read] *)
let timed_miss t read =
  Metrics.bump t.h.misses 1;
  let m = Vfs.metrics t.vfs in
  let started = Metrics.now m in
  match read () with
  | v ->
    Metrics.record t.h.miss_hist (Metrics.now m -. started);
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Metrics.record t.h.miss_hist (Metrics.now m -. started);
    Printexc.raise_with_backtrace e bt

let load t sp file pno =
  let key = key_of file pno in
  match Key_table.find_opt sp.table key with
  | Some idx ->
    Metrics.bump t.h.hits 1;
    touch sp idx;
    sp.frames.(idx)
  | None -> timed_miss t (fun () -> fault_in t sp file pno key)

let check_page t file pno =
  if pno < 0 || pno >= page_count t file then
    invalid_arg
      (Printf.sprintf "Buffer_pool.with_page: page %d outside file %s (%d pages)" pno
         (Vfs.name file) (page_count t file))

let with_page t file pno ~dirty f =
  check_page t file pno;
  let sp = stripe_for t file pno in
  locked sp.stripe_lock (fun () ->
      let frame = load t sp file pno in
      if dirty then frame.dirty <- true;
      f frame.data)

(* a cached page is copied under its stripe lock and keeps its place;
   one that is not is read from the device after the lock is released.
   It was not cached when the lock was held, so the device held its
   newest image then, and any image written back since is newer: the
   copy is the page as it stood at some moment of the call, never torn
   (the file's I/O lock orders the read against write-backs) *)
let copy_page t file pno buf =
  check_page t file pno;
  let sp = stripe_for t file pno in
  let cached =
    locked sp.stripe_lock (fun () ->
        match Key_table.find_opt sp.table (key_of file pno) with
        | Some idx ->
          Bytes.blit sp.frames.(idx).data 0 buf 0 Page.size;
          true
        | None -> false)
  in
  if cached then Metrics.bump t.h.hits 1
  else timed_miss t (fun () -> Vfs.read_into file ~off:(pno * Page.size) buf)

let append_page t file init =
  locked t.append_lock (fun () ->
      let pno = page_count t file in
      (* materialise the page on disk so page_count stays consistent *)
      Vfs.write_at file ~off:(pno * Page.size) (Bytes.make Page.size '\000');
      let sp = stripe_for t file pno in
      locked sp.stripe_lock (fun () ->
          let frame = load t sp file pno in
          frame.dirty <- true;
          init frame.data);
      pno)

let flush_file t file =
  let fid = Vfs.id file in
  Array.iter
    (fun sp ->
      locked sp.stripe_lock (fun () ->
          Array.iter
            (fun frame ->
              if frame.valid && file_id_of frame.key = fid then write_back t frame)
            sp.frames))
    t.stripes

let flush_all t =
  Array.iter
    (fun sp ->
      locked sp.stripe_lock (fun () ->
          Array.iter (fun frame -> if frame.valid then write_back t frame) sp.frames))
    t.stripes

let invalidate_file t file =
  let fid = Vfs.id file in
  Array.iter
    (fun sp ->
      locked sp.stripe_lock (fun () ->
          Array.iteri
            (fun i frame ->
              if frame.valid && file_id_of frame.key = fid then begin
                Key_table.remove sp.table frame.key;
                frame.valid <- false;
                frame.dirty <- false;
                frame.file <- None;
                unlink sp i;
                sp.free <- i :: sp.free
              end)
            sp.frames))
    t.stripes
