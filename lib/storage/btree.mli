(** In-memory B+tree keyed by tuples ({!Dw_relation.Tuple.compare} order).

    Used as the table index structure (primary-key index, and the optional
    index on the [last_modified] timestamp column that the timestamp-based
    extractor can exploit).  Leaves are chained, so range scans are
    sequential.  Deletion rebalances (borrow from sibling, else merge), so
    the depth bound holds under arbitrary workloads.

    {!insert}, {!remove}, {!remove_range}, {!find} and {!iter_range} hold
    the tree's latch, so a lock-free reader on another domain never sees
    a node half rewritten by a writer. *)

module Tuple = Dw_relation.Tuple

type 'a t

val create : ?branching:int -> unit -> 'a t
(** [branching] is the maximum number of keys per node (default 32,
    minimum 4, must be even). *)

val of_sorted : ?branching:int -> (Tuple.t * 'a) list -> 'a t
(** Bulk-load from strictly key-ascending bindings — O(n), packed leaves
    (used by index rebuilds after bulk loads).  Raises [Invalid_argument]
    if the input is not strictly ascending. *)

val insert : 'a t -> Tuple.t -> 'a -> unit
(** Replaces the binding if the key is already present. *)

val find : 'a t -> Tuple.t -> 'a option
val mem : 'a t -> Tuple.t -> bool

val remove : 'a t -> Tuple.t -> bool
(** [true] iff the key was present. *)

val cardinal : 'a t -> int

type bound =
  | Unbounded
  | Incl of Tuple.t
  | Excl of Tuple.t

val iter_range : 'a t -> lo:bound -> hi:bound -> (Tuple.t -> 'a -> unit) -> unit
(** In ascending key order.  The in-range bindings are copied under the
    latch; the callback runs after it is released. *)

val remove_range : 'a t -> lo:bound -> hi:bound -> int
(** Removes every binding in the range and returns how many there were.
    The tree is rebuilt from the keys outside the range, packed as
    {!of_sorted} packs them, in time linear in the tree: for removing
    most of a tree, such as a position log's purged prefix. *)

val to_list : 'a t -> (Tuple.t * 'a) list
val min_binding : 'a t -> (Tuple.t * 'a) option
val max_binding : 'a t -> (Tuple.t * 'a) option

val depth : 'a t -> int
(** Height of the tree (0 for empty); exposed for tests. *)

val check_invariants : 'a t -> (unit, string) result
(** Structural validation: key ordering, separator correctness, node fill
    bounds, uniform leaf depth, leaf chain completeness.  For tests. *)
