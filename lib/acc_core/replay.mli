(** Automated compensation replay: drive every {!Acc_wal.Recovery.pending}
    obligation to a clean state by re-executing its type's compensating
    body.

    Recovery reports {e what} must be compensated (transaction type,
    completed-step count, durable work area); the {e how} is program logic.
    Each compensable transaction type declares one compensating body
    ({!Program.txn_type}'s [~compensate]), which reads its inputs only from
    {!Acc_txn.Executor.work_area}.  Every instance of the type runs it on
    an inline abort, and replay finds it by type name in the
    {!type:Program.workload} the engine serves, so the two run the same code.
    {!replay_pending} runs it for each pending transaction through
    {!Runtime.run_compensation}, the loop an inline abort runs (context
    flagged compensating, §3.4 victim sparing, rollback, lock release and
    backoff on a victimization, timeout or injected fault).

    Replay is crash-idempotent: {!Acc_txn.Executor.adopt_pending} re-logs
    each obligation on the recovered engine's log before the compensating
    step starts, so a crash mid-replay re-derives the same pending set on
    the next recovery. *)

val replay_one :
  workload:Program.workload -> Acc_txn.Executor.t -> Acc_wal.Recovery.pending -> unit
(** Adopt and compensate a single pending transaction on the given (already
    recovered) engine, whose types [workload] declares.  Raises [Failure],
    naming the type and the transaction, before anything is logged, if
    [workload] has no such type or the type declares no compensating
    body. *)

val replay_pending :
  workload:Program.workload -> Acc_txn.Executor.t -> Acc_wal.Recovery.report -> int
(** [replay_one] for every pending transaction of the report, in report
    order; returns how many were compensated. *)

val resolve_in_doubt :
  workload:Program.workload ->
  Acc_txn.Executor.t ->
  commit:bool ->
  Acc_wal.Recovery.in_doubt ->
  unit
(** Resolve one in-doubt 2PC participant branch according to its
    coordinator's decision: [commit:true] adopts the branch
    ({!Acc_txn.Executor.adopt_in_doubt}, which re-logs the Prepare record
    for crash idempotence) and commits it; [commit:false] — an explicit
    abort decision or presumed abort — runs its type's compensating body as
    {!replay_one} does, and raises [Failure] as it does.  Emits a [resolve]
    trace event. *)
