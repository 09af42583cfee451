(** Background deadlock detection for the sharded lock table.

    Blocking {!Sharded_lock_table.acquire_req} cannot run an at-block cycle
    check the way the sequential scheduler does (it would need a consistent
    global graph while holding one shard's mutex), so a dedicated detector
    domain periodically runs the sequential scheduler's own
    {!Acc_txn.Schedule.sweep} over the {!Acc_lock.Lock_service.t} it is
    given, with the paper's §3.4 victim policy
    ({!Acc_txn.Schedule.spare_compensating} — never a transaction waiting on
    behalf of a compensating step) and {!Acc_lock.Lock_service.kill} to
    withdraw the victims' waits.

    Snapshots are per-shard and therefore not globally atomic; real
    deadlocks are stable and always found, while a stale snapshot can at
    worst victimize a transaction that would have progressed (it retries —
    wasted work, never lost safety). *)

type t

val default_cadence : float

val sweep : Acc_lock.Lock_service.t -> int
(** One synchronous detection pass; returns the number of waits victimized.
    Exposed for deterministic tests. *)

val start : ?cadence:float -> Acc_lock.Lock_service.t -> t
(** Spawn the detector domain, sweeping every [cadence] seconds. *)

val stop : t -> unit
(** Signal and join the detector domain.  Idempotent. *)

val sweeps : t -> int
val victims : t -> int
