(** Deadlock detection for the sharded lock table.

    Blocking {!Sharded_lock_table.acquire_req} cannot run an at-block cycle
    check the way the sequential scheduler does (it would need a consistent
    global graph while holding one shard's mutex), so the engine's tick
    ({!Engine}) runs the sequential scheduler's own
    {!Acc_txn.Schedule.sweep} over the table's {!Sharded_lock_table.service}
    view, with the paper's §3.4 victim policy
    ({!Acc_txn.Schedule.spare_compensating} — never a transaction waiting on
    behalf of a compensating step) and {!Sharded_lock_table.kill} to
    withdraw the victims' waits.  This module spawns no domain.

    Snapshots are per-shard and therefore not globally atomic; real
    deadlocks are stable and always found, while a stale snapshot can at
    worst victimize a transaction that would have progressed (it retries —
    wasted work, never lost safety). *)

type t
(** A table to sweep, with the counts of the sweeps run so far. *)

val sweep : Sharded_lock_table.t -> int
(** One synchronous detection pass; returns the number of waits victimized.
    Exposed for deterministic tests. *)

val create : Sharded_lock_table.t -> t
(** A detector for the table, with no sweep run yet. *)

val run : t -> unit
(** One {!sweep} of the detector's table, counted in {!sweeps} and
    {!victims}. *)

val sweeps : t -> int
val victims : t -> int
