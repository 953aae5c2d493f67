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

val with_page : ?cold:bool -> t -> Vfs.file -> int -> dirty:bool -> (bytes -> 'a) -> 'a
(** [with_page t file pno ~dirty f] runs [f] on the frame holding page
    [pno] of [file], faulting it in if needed.  If [dirty] the frame is
    marked dirty and written back on eviction or {!flush}.  The bytes must
    not be retained after [f] returns.  Raises [Invalid_argument] if [pno]
    is outside the file.

    [~cold:true] reads the page without claiming the cache: a hit does not
    move its frame, and a miss enters at the LRU end, so the next miss of
    the stripe takes that frame first.  A full scan read cold (a snapshot
    reader's heap pass) therefore cycles through one frame once the pool
    is full, and leaves the pages other callers use where they were.
    Both count in [pool.hits] and [pool.misses] as warm reads do.  Every
    other read is warm (the default): a hit moves the frame to the MRU
    end, and a miss enters there. *)

val append_page : t -> Vfs.file -> (bytes -> unit) -> int
(** Extend the file by one zeroed page, run the initialiser on it in the
    cache (marked dirty), and return its page number. *)

val flush_file : t -> Vfs.file -> unit
(** Write back all dirty frames belonging to the file. *)

val flush_all : t -> unit

val invalidate_file : t -> Vfs.file -> unit
(** Drop all frames of the file without write-back (used after external
    rewrites of the underlying file, e.g. recovery). *)
