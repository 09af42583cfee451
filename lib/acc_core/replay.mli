(** Automated compensation replay: drive every {!Acc_wal.Recovery.pending}
    obligation to a clean state by re-executing its registered compensating
    body.

    Recovery reports {e what} must be compensated (transaction type,
    completed-step count, durable work area); the {e how} is program logic.
    Each compensable transaction type has one compensating body, which reads
    its inputs only from {!Acc_txn.Executor.work_area}.  Its instances pass
    that function as {!Program.instance}'s [~compensate], and the workload
    registers the same function here, so an inline abort and crash replay
    run the same code.  {!replay_pending} runs it for each pending
    transaction through {!Runtime.run_compensation}, the loop an inline
    abort runs (context flagged compensating, §3.4 victim sparing, rollback,
    lock release and backoff on a victimization, timeout or injected
    fault).

    Replay is crash-idempotent: {!Acc_txn.Executor.adopt_pending} re-logs
    each obligation on the recovered engine's log before the compensating
    step starts, so a crash mid-replay re-derives the same pending set on
    the next recovery. *)

type handler = Acc_txn.Executor.ctx -> completed:int -> unit
(** A compensating body: receives a live context (already flagged
    compensating, positioned at step [completed + 1], its
    {!Acc_txn.Executor.work_area} the durable area) and the number of
    completed forward steps. *)

val register : txn_type:string -> step_type:int -> handler -> unit
(** Register (or replace) the compensating body for a transaction-type
    name.  [step_type] is the design-time id of the compensating step
    ({!Acc_core.Program.step_def}'s [sd_id]), used for lock provenance and
    tracing. *)

val handler : string -> handler option
(** The body registered for a transaction-type name, if any — physically
    the function the type's instances carry as [i_compensate]. *)

val replay_one : Acc_txn.Executor.t -> Acc_wal.Recovery.pending -> unit
(** Adopt and compensate a single pending transaction on the given (already
    recovered) engine.  Raises [Failure] if no body is registered for its
    type. *)

val replay_pending : Acc_txn.Executor.t -> Acc_wal.Recovery.report -> int
(** [replay_one] for every pending transaction of the report, in report
    order; returns how many were compensated. *)

val resolve_in_doubt : Acc_txn.Executor.t -> commit:bool -> Acc_wal.Recovery.in_doubt -> unit
(** Resolve one in-doubt 2PC participant branch according to its
    coordinator's decision: [commit:true] adopts the branch
    ({!Acc_txn.Executor.adopt_in_doubt}, which re-logs the Prepare record
    for crash idempotence) and commits it; [commit:false] — an explicit
    abort decision or presumed abort — runs its registered compensating
    body as {!replay_one} does.  Emits a [resolve] trace event.  Raises
    [Failure] on abort if no body is registered for the type. *)
