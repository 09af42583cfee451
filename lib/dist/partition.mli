(** One isolated ACC instance owning a contiguous range of a workload's
    partition keys (TPC-C's warehouses).

    Each partition has its own database, lock-service backend, WAL, and
    executor; partitions share nothing.  A transaction whose footprint stays
    inside one partition's range runs on that partition exactly as on a
    single-node system; anything else goes through {!Coordinator}. *)

type t

val make : id:int -> lo:int -> hi:int -> Acc_txn.Executor.t -> t
(** [make ~id ~lo ~hi eng] wraps an executor as partition [id] owning
    warehouses [lo..hi] (inclusive).  Raises [Invalid_argument] on a
    negative id or an empty/invalid range. *)

val id : t -> int
val engine : t -> Acc_txn.Executor.t
val owns : t -> int -> bool
(** [owns t w] — does warehouse [w] fall in this partition's range? *)

(** {1 Transaction-id bands}

    {!Dist_driver.build} starts each partition's executor at [txn_base id],
    giving every transaction in a distributed run a globally unique id.
    The span layer and [acc-trace-profile] recover the partition from the
    id alone ([--txn-band]); single-node runs (ids starting at 1) all map
    to partition 0. *)

val txn_stride : int
(** Ids per band ([2{^24}]). *)

val txn_base : int -> int
(** [txn_base id = id * txn_stride]. *)

val partition_of_txn : int -> int
(** Inverse of the band assignment. *)

val ranges : warehouses:int -> partitions:int -> (int * int) list
(** Contiguous near-equal split of warehouses [1..warehouses] into
    [partitions] ranges (earlier partitions absorb the remainder).  Raises
    [Invalid_argument] if [partitions < 1] or there are fewer warehouses
    than partitions. *)
