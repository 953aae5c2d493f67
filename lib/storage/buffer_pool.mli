(** Buffer pool: a fixed number of page frames cached over a {!Vfs.t}, with
    LRU eviction and dirty-page write-back.

    Victim selection is O(1): frames are threaded on an intrusive doubly
    linked LRU list (plus a free list of invalid frames), so a miss never
    scans the frame array.

    Metric names (in the pool's own metrics registry, which is the Vfs
    registry): counters [pool.hits], [pool.misses], [pool.evictions],
    [pool.writebacks]; latency histogram [pool.miss] (one sample per miss,
    covering victim selection, write-back and the page read).

    {b Striping}: the frame budget can be split into independently-mutexed
    stripes keyed by (file, page) hash so parallel scan domains fault
    pages without serialising on one latch; [stripes = 1] (the default)
    preserves the classic single global LRU order exactly. *)

type t

val create : ?stripes:int -> vfs:Vfs.t -> capacity:int -> unit -> t
(** [capacity] is the number of frames (>= 1), divided as evenly as
    possible over [stripes] (default 1) independently-locked sub-pools,
    each with its own LRU list; [stripes] is clamped to [capacity] so
    every stripe owns at least one frame. *)

val set_write_back_hook : t -> (unit -> unit) -> unit
(** Run the hook before every write-back of a dirty page (eviction,
    {!flush_file}, {!flush_all}), under that page's stripe lock.  A
    database installs its log's write-out here, so no page reaches the
    device before the log frames that describe it (the write-ahead rule
    under steal).  The hook must not use the pool. *)

val stripe_count : t -> int
(** Number of stripes actually created (after clamping). *)

val capacity : t -> int
(** Total frame count across all stripes. *)

val page_count : t -> Vfs.file -> int
(** Number of pages currently in the file (size / page size). *)

val with_page : t -> Vfs.file -> int -> dirty:bool -> (bytes -> 'a) -> 'a
(** [with_page t file pno ~dirty f] runs [f] on the frame holding page
    [pno] of [file], faulting it in if needed (a hit moves the frame to
    the MRU end, a miss enters there).  If [dirty] the frame is marked
    dirty and written back on eviction or {!flush}.  The bytes must not
    be retained after [f] returns.  Raises [Invalid_argument] if [pno]
    is outside the file. *)

val copy_page : t -> Vfs.file -> int -> bytes -> unit
(** [copy_page t file pno buf] copies page [pno] into [buf] (at least
    {!Page.size} bytes) without claiming the cache: a {e cold read}.  A
    cached page is copied under its stripe lock and keeps its place in
    the LRU order; a page that is not cached is read from the device
    into [buf] after the lock is released ({!Vfs.read_into}), and no
    frame is taken, so nothing is evicted or written back.  The copy is
    the page as it stood at some moment during the call.  It counts a
    [pool.hits] or a [pool.misses] (with its [pool.miss] sample), never
    a [pool.evictions] or a [pool.writebacks].  A snapshot scan reads
    its heap this way, so an OLAP scan larger than the pool neither
    evicts the pages a refresh uses nor waits on their write-backs.
    Raises [Invalid_argument] if [pno] is outside the file. *)

val append_page : t -> Vfs.file -> (bytes -> unit) -> int
(** Extend the file by one zeroed page, run the initialiser on it in the
    cache (marked dirty), and return its page number. *)

val flush_file : t -> Vfs.file -> unit
(** Write back all dirty frames belonging to the file. *)

val flush_all : t -> unit

val invalidate_file : t -> Vfs.file -> unit
(** Drop all frames of the file without write-back (used after external
    rewrites of the underlying file, e.g. recovery). *)
