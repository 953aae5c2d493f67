(** In-memory multi-version store: before-image chains keyed by heap rid,
    giving snapshot-isolation reads without any locks.

    The heap always holds the {e newest} version of a row (possibly an
    uncommitted one — the engine updates in place under 2PL).  Whenever a
    writer modifies a row, it {!note}s the row's {e before image} here;
    at WAL commit the writer's entries are {!publish}ed under the
    transaction's commit sequence number (CSN).  A published entry with
    [superseded_at = c] records "this image was the committed state of
    the row until the transaction that committed at CSN [c] replaced
    it"; an entry whose image is [None] records that the row did not
    exist before [c] (an insert).

    A snapshot reader at CSN [s] resolves a rid by taking the {e oldest}
    chain entry with [superseded_at > s] (pending entries count as
    [+inf]): its image is the row's state as of [s].  If no such entry
    exists, the heap's current tuple is already the right version
    ([`Current]).

    Chains are bounded by {!gc}: an entry superseded at or below the
    oldest active reader's snapshot CSN can never be resolved again
    (future readers start at the current CSN) and is dropped.  GC
    retires versions in commit order: each {!publish} queues the
    transaction's entries as one batch tagged with its CSN, and {!gc}
    pops batches oldest first, so a pass costs what it frees and a
    reader pinning old versions costs memory, not work per commit.  The store
    is process-local and deliberately {e not} persisted: crash recovery
    rebuilds committed state in the heaps and restarts the store empty
    ({!clear}), which is always safe because an empty store makes every
    rid resolve to [`Current].

    {b Noted before visible.}  A row a snapshot reader can see in the
    heap always has its entry here first: an update or delete notes the
    before image before it writes the slot, and an insert runs its heap
    insert inside {!note_insert}, under the store lock, and notes the
    new rid before the lock is released.  So a reader that finds a row
    in the heap and no chain for it has found a committed row, as long
    as no entry left that chain in between: an abort's {!discard} (after
    its undo pass has put the heap back), {!drop_table} and {!clear}
    move the table's epoch, and {!read} reads the heap again when the
    epoch moved since the reader's heap pass began.

    {b Lock order.}  The store lock is taken before a buffer-pool page
    latch or a key index's latch ({!note_insert}'s heap and index
    insert, {!read}'s and {!read_page}'s heap re-read), and after [Db]'s
    transaction-table lock (publication under the CSN bump).  No path
    takes the store lock while it holds a page or index latch.

    Chains are keyed by the rid packed into one int, and each table
    counts its chains per heap page, so a scan resolving a page's slots
    ({!read_page}) builds no rid per slot and probes none on a page
    without chains. *)

module Tuple = Dw_relation.Tuple
module Heap_file = Dw_storage.Heap_file

type t

val create : unit -> t
(** An empty store. *)

type table
(** One table's chains: the handle a writer notes and a reader resolves
    through without naming the table again. *)

val table : t -> string -> table
(** The handle of a table's chains, created empty on first use.  It
    stays the one the store consults until {!drop_table} of that name;
    {!clear} empties it in place. *)

val note :
  t -> tx:int -> table:string -> rid:Heap_file.rid -> image:Tuple.t option -> unit
(** Record the pre-statement image of [(table, rid)] on behalf of writer
    [tx] ([None] = the row did not exist).  Only the {e first} write of a
    transaction to a given rid matters — if [tx] already holds the
    pending head entry of the chain, the call is a no-op, so the chain
    keeps the image from before the transaction. *)

val note_rows : t -> table -> tx:int -> (Heap_file.rid * Tuple.t) list -> unit
(** {!note} of each [(rid, before image)] under one acquisition of the
    store lock: a statement notes all its victims before its first heap
    write. *)

val note_insert :
  t -> table -> tx:int -> (unit -> Heap_file.rid * 'a) -> Heap_file.rid * 'a
(** [note_insert t tbl ~tx insert] runs [insert] (a heap insert that
    returns the new rid) under the store lock and notes the rid as
    absent before the lock is released, so no snapshot reader sees the
    new row without its entry.  If [insert] raises, nothing is noted. *)

val publish : t -> tx:int -> csn:int -> unit
(** Stamp every pending entry of [tx] with commit sequence number [csn],
    making the images visible to readers with snapshots below [csn].
    Called at WAL commit, so publication is atomic per transaction:
    readers either see all of a transaction's before-images superseded
    or none.  [csn] must exceed every CSN published before it (Db
    publishes under its CSN bump): {!gc} retires batches in this order. *)

val discard : t -> tx:int -> unit
(** Drop every pending entry of [tx] (abort path: the undo log restores
    the heap, so the noted before-images describe nothing). *)

val resolve :
  t -> table:string -> rid:Heap_file.rid -> csn:int ->
  [ `Current | `Image of Tuple.t | `Absent ]
(** The version of [(table, rid)] visible to a snapshot at [csn]:
    [`Current] — the heap's present content (including "row absent") is
    the right answer; [`Image tuple] — the row existed with this content;
    [`Absent] — the row did not exist at [csn]. *)

val epoch : t -> table -> int
(** The table's epoch, which moves when an entry leaves a chain other
    than by {!gc}.  A snapshot reader takes it before it reads the heap
    and hands it to {!read}. *)

val read :
  t -> table -> csn:int -> epoch:int -> Heap_file.t -> Heap_file.rid -> Tuple.t option ->
  Tuple.t option
(** [read t tbl ~csn ~epoch heap rid current]: the row at [rid] a
    snapshot at [csn] sees, where [current] is what the reader found in
    [heap] at [rid] after taking [epoch]: the chain's image (or
    absence) if an entry covers [csn], else [current], or the heap read
    again under the store lock if the epoch has moved since.  One lock
    per call. *)

val read_page :
  t -> table -> csn:int -> epoch:int -> Heap_file.t -> page:int -> Tuple.t option option array ->
  int
(** [read_page t tbl ~csn ~epoch heap ~page versions] resolves every slot
    of heap page [page] that [versions] has room for, under one lock, for
    a reader that copied the page after taking [epoch]: [versions.(slot)]
    becomes [Some image] where the chain's entry covering [csn] gives the
    row ([Some None]: absent), or the heap read again under the lock if
    the epoch has moved since; else [None], the copy's slot is the
    snapshot's row.  Free slots are resolved too.  Returns the epoch
    under the same lock, the one to hand the next page's call. *)

val iter_table : t -> table:string -> (Heap_file.rid -> unit) -> unit
(** Every rid of [table] that currently has a chain.  Snapshot scans
    union these with the heap's rids so rows deleted (or moved out of an
    index range) after the snapshot are still found. *)

val iter_rids : t -> table -> (Heap_file.rid -> unit) -> unit
(** {!iter_table} through the handle. *)

val entries : t -> int
(** Live entries across all chains (pending + published), O(1). *)

val drop_table : t -> table:string -> unit
(** Remove every chain of [table] (the table itself is being dropped; a
    later table of the same name must not inherit stale versions). *)

val gc : t -> horizon:int -> int
(** Drop published entries with [superseded_at <= horizon] — [horizon]
    is the oldest active snapshot CSN (or the newest committed CSN when
    no reader is active).  Pending entries are never dropped.  Returns
    the number of entries removed.  Retires published batches oldest
    first and stops at the first one above [horizon], visiting no table
    or chain that retires nothing: the cost is the entries freed plus
    the newer entries of the chains they leave. *)

val clear : t -> unit
(** Empty the store (crash recovery / re-attach).  Every {!table}
    handle stays valid and empty. *)
