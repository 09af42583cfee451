(** Per-partition branch programs for cross-partition TPC-C transactions.

    A cross-partition [payment] splits into a home branch (warehouse and
    district ytd) and a remote-customer branch (customer update + history
    insert); a cross-partition [new_order] into a home branch (the full
    four-step decomposition with remote stock draws skipped) and one
    remote-stock branch per remote partition.  Every branch is an ordinary
    ACC program instance with a compensating step, so the two-phase-commit
    abort path is compensation replay. *)

(** {1 Static branch definitions} *)

val workload : Acc_core.Program.workload
(** The single-node workload plus the four branch types: what a partition
    engine serves, and what {!Acc_core.Replay} finds each branch's
    compensating body in.  The home branches declare
    {!Txns.new_order_compensate} and {!Txns.payment_compensate}; the remote
    branches declare their own: the remote-customer branch takes back the
    customer update and deletes the history row, and the remote-stock
    branch restocks the first [completed] draws its work area lists. *)

val semantics : Acc_lock.Mode.semantics

(** {1 Routing} *)

val partitions_of_input : part_of:(int -> int) -> Txns.input -> int list
(** Sorted, deduplicated partition ids the input touches.  [part_of] maps a
    warehouse id to its partition id.  A singleton means the transaction is
    warehouse-local to one partition and needs no coordinator. *)

val branches :
  Txns.env -> part_of:(int -> int) -> Txns.input -> (int * Acc_core.Program.instance) list
(** Branch instances of a cross-partition input, home branch first, keyed by
    partition id.  Raises [Invalid_argument] for inherently local types. *)
