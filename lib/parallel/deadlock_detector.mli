(** Deadlock detection for the sharded lock table.

    Blocking {!Sharded_lock_table.acquire_req} cannot run an at-block cycle
    check the way the sequential scheduler does (it would need a consistent
    global graph while holding one shard's mutex), so the engine's
    background domain ({!Engine}) periodically runs the sequential
    scheduler's own {!Acc_txn.Schedule.sweep} over the
    {!Acc_lock.Lock_service.t} it is given, with the paper's §3.4 victim
    policy ({!Acc_txn.Schedule.spare_compensating} — never a transaction
    waiting on behalf of a compensating step) and
    {!Acc_lock.Lock_service.kill} to withdraw the victims' waits.  This
    module spawns no domain.

    Snapshots are per-shard and therefore not globally atomic; real
    deadlocks are stable and always found, while a stale snapshot can at
    worst victimize a transaction that would have progressed (it retries —
    wasted work, never lost safety). *)

type t
(** A service to sweep, with the counts of the sweeps run so far. *)

val default_cadence : float
(** 20ms between sweeps. *)

val sweep : Acc_lock.Lock_service.t -> int
(** One synchronous detection pass; returns the number of waits victimized.
    Exposed for deterministic tests. *)

val create : Acc_lock.Lock_service.t -> t
(** A detector for the service, with no sweep run yet. *)

val run : t -> unit
(** One {!sweep} of the detector's service, counted in {!sweeps} and
    {!victims}. *)

val sweeps : t -> int
val victims : t -> int
