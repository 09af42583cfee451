(** Crash-time completion of pending compensations (§3.4) for the TPC-C
    workload.

    {!Acc_wal.Recovery.recover} reports multi-step transactions that had
    completed one or more steps when the system died; their exposed effects
    must be undone {e logically}.  This module defines no compensation of
    its own: it registers each TPC-C transaction type's compensating body
    ({!Txns.new_order_compensate}, {!Txns.payment_compensate},
    {!Txns.delivery_compensate}, and the partitioned branches' from
    {!Dist_txns}) as an {!Acc_core.Replay} handler, keyed by type name at
    module-initialization time.  Each body reads only the work area the
    last forward step-end record carried, and is the very function the
    type's instances use for an inline abort.

    The bodies run through a live executor context, so a replayed
    compensation takes compensation locks, appends WAL records, and is
    itself crash-recoverable; drivers with a long-lived engine should call
    {!Acc_core.Replay.replay_pending} on it directly — the helpers below
    spin up a throwaway engine around a bare database for tests and
    examples. *)

val complete : Acc_relation.Database.t -> Acc_wal.Recovery.pending -> unit
(** Apply the compensating step for one pending transaction, on a throwaway
    engine over [db].  Raises [Failure] on an unknown transaction type,
    [Invalid_argument] on a work area missing required fields
    ({!Acc_txn.Executor.area_field}). *)

val complete_all : Acc_relation.Database.t -> Acc_wal.Recovery.report -> unit

val recover_and_compensate :
  baseline:Acc_relation.Database.t -> Acc_wal.Record.t list -> Acc_relation.Database.t
(** One-call restart: physical recovery then all pending compensations;
    returns the consistent database. *)
