(** Ordered secondary indexes: sorted access and range scans.

    The hash indexes of {!Table} answer only exact-match probes; ordered
    indexes answer range and prefix queries — what the TPC-C access paths
    need for "the last 20 orders of the district" (stock-level) and "the
    oldest undelivered order" (delivery).

    The implementation is a size-balanced binary search tree over
    [(index key, primary key)] pairs, keyed lexicographically: O(log n)
    insert/remove, O(log n + k) range extraction.  It is deliberately a
    plain persistent-node structure wrapped in a mutable root — simple to
    verify, and the workloads here never need better constants. *)

type t

val create : name:string -> key_of:(Value.t array -> Value.t list) -> t
(** [key_of] projects a row to its index key (any column list). *)

val name : t -> string
(** The index's name (unique within its table). *)

val size : t -> int
(** Number of entries. *)

val copy : t -> t
(** An independent index with the same name, projection and entries.  It
    shares the tree: nodes are never written, so an insert or remove on
    either side builds new nodes along one path and leaves the other side's
    tree as it was. *)

val insert : t -> pk:Value.t list -> Value.t array -> unit
(** Add one row's entry. *)

val remove : t -> pk:Value.t list -> Value.t array -> unit
(** Remove the entry of a row (given the row as it was indexed). *)

val min_entry : t -> ?above:Value.t list -> unit -> (Value.t list * Value.t list) option
(** Smallest [(index key, pk)], optionally restricted to keys strictly above
    [above]. *)

val max_entry : t -> (Value.t list * Value.t list) option
(** Largest [(index key, pk)] entry. *)

val range :
  t -> ?lo:Value.t list -> ?hi:Value.t list -> unit -> (Value.t list * Value.t list) list
(** Entries with [lo <= key <= hi] (missing bound = unbounded), in ascending
    key order.  Bounds compare lexicographically, so a shorter [lo]/[hi]
    acts as a prefix bound. *)

val prefix : t -> Value.t list -> (Value.t list * Value.t list) list
(** Entries whose index key starts with the given prefix, ascending. *)

val fold_ascending : t -> init:'a -> f:('a -> Value.t list -> Value.t list -> 'a) -> 'a
(** Fold [f acc index_key pk] over every entry in ascending key order. *)

val invariant_ok : t -> bool
(** BST ordering and size bookkeeping hold (test hook). *)
