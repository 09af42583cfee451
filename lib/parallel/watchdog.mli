(** The engine's overload watchdog.

    Each {!tick}, which the engine's background domain runs every [cadence]
    seconds ({!Engine}), drives {!Acc_lock.Lock_service.expire} on the
    service it is given (waiters cannot expire
    themselves — OCaml's [Condition] has no timed wait), emitting a
    {!Acc_obs.Trace.Timed_out} event per withdrawn wait; samples queue depth,
    oldest-waiter age and a smoothed abort rate (deadlock victims + lock
    timeouts per second); and maintains the two flags the engine's admission
    gate reads: {e shedding} while the abort rate exceeds the watermark, and
    {e degraded} while the oldest waiter's age says the engine is wedged.
    Both flags release at half their trip threshold (hysteresis), so a
    metric sitting at the boundary cannot flap the flag every tick.

    See DESIGN.md §13 (Overload behavior). *)

type t

val default_cadence : float
(** 5ms — the resolution of lock-wait deadline enforcement. *)

val default_degrade_after : float
(** 1s of oldest-waiter age before degraded mode trips. *)

val create :
  cadence:float ->
  ?degrade_after:float ->
  ?shed_watermark:float ->
  detector:Deadlock_detector.t ->
  Acc_lock.Lock_service.t ->
  t
(** A watchdog over the service, ticked every [cadence] seconds (the
    abort-rate smoothing assumes it), with no tick run yet; it spawns no
    domain.  [shed_watermark] is in aborts/second; when omitted the shedding
    flag never trips. *)

val tick : t -> unit
(** Expire overdue waits, sample the gauges and update both flags. *)

val degraded : t -> bool
val shedding : t -> bool

val queue_depth : t -> int
(** Waiter count at the last tick. *)

val oldest_wait : t -> float
(** Oldest-waiter age (seconds) at the last tick. *)

val abort_rate : t -> float
(** Smoothed victims+timeouts per second. *)

val peak_queue_depth : t -> int
val peak_oldest_wait : t -> float
(** Largest values seen at any tick over the watchdog's lifetime. *)

val ticks : t -> int
val degraded_trips : t -> int

val set_snapshot_hook : (float * (unit -> unit)) option -> unit
(** Install (or clear) the process-wide periodic snapshot hook
    [(period_seconds, fn)]: some watchdog calls [fn] once per period from
    its {!tick} — with several engines alive (one watchdog per partition) a
    CAS on the shared schedule guarantees exactly one firing.
    The binaries' [--metrics-dump] uses this to refresh the Prometheus
    exposition file while a run is in flight; exceptions from [fn] are
    swallowed.  Raises [Invalid_argument] on a non-positive period. *)
