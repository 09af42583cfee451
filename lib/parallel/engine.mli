(** The multicore execution engine: an {!Acc_txn.Executor} whose lock
    backend is a {!Sharded_lock_table}, whose storage accesses are serialized
    by per-table mutexes, whose deadlocks are broken by periodic
    {!Deadlock_detector} sweeps, and whose overload behavior — lock-wait
    deadlines, admission control, degraded mode — is driven by periodic
    {!Watchdog} ticks (DESIGN.md §13).  One background domain per engine
    runs both, each on its own cadence.

    The same transaction code (TPC-C bodies, the ACC runtime, flat 2PL
    runners) runs unchanged: lock waits block the worker domain inside the
    sharded table instead of performing [Wait_lock], victimization surfaces
    as the usual [Txn_effect.Deadlock_victim], and an expired lock-wait
    deadline as [Txn_effect.Lock_timeout]. *)

type t

val create :
  ?shards:int ->
  ?detector_cadence:float ->
  ?lock_deadline:float ->
  ?max_inflight:int ->
  ?shed_watermark:float ->
  ?watchdog_cadence:float ->
  ?metrics_labels:(string * string) list ->
  ?wal_policy:Acc_wal.Log.policy ->
  sem:Acc_lock.Mode.semantics ->
  Acc_relation.Database.t ->
  t
(** Builds the engine and starts its background domain, which runs a
    deadlock sweep every [detector_cadence] seconds (default
    {!Deadlock_detector.default_cadence}) and a watchdog tick every
    [watchdog_cadence] (default {!Watchdog.default_cadence}); pair with
    {!shutdown}.

    Every engine registers each entry of its stats table ({!val:stats}) in
    {!Acc_obs.Registry.default}, named by {!Acc_obs.Registry.prom_name}
    ([lock.victims] as [acc_lock_victims_total]), under [metrics_labels] —
    multi-engine processes must pass distinct labels
    ({!Acc_dist.Dist_driver.build} passes [partition="N"]) or later engines
    replace earlier ones in the exposition.

    [lock_deadline] is a per-request wait budget in seconds (see
    {!Acc_txn.Executor.set_lock_deadline}); omitted disables timeouts.
    [max_inflight] caps concurrently admitted multi-step transactions
    ({!try_admit}); [shed_watermark] is the abort rate (victims + timeouts
    per second) above which admissions shed.

    [wal_policy] selects the executor WAL's append policy
    ({!Acc_wal.Log.policy}, default [Direct]) — pass
    [Buffered {cap}] for group commit. *)

val executor : t -> Acc_txn.Executor.t

val locks : t -> Sharded_lock_table.t
(** The concrete sharded table (shard-level introspection). *)

val lock_service : t -> Acc_lock.Lock_service.t
(** The same table as the executor sees it: a {!Acc_lock.Lock_service.t}. *)

val detector : t -> Deadlock_detector.t
val watchdog : t -> Watchdog.t

val lock_waits : t -> Acc_util.Metrics.Histogram.t
(** Every completed blocking lock wait (granted, victimized or timed out),
    in seconds — the p99 here is the overload bench's headline. *)

type stats = (string * Acc_obs.Registry.sample) list
(** Every engine counter by its dotted name ([lock.victims],
    [lock.wait_s], [wal.flushes], [admission.shed], [watchdog.ticks], …;
    README's metric table lists them all), in one fixed order. *)

val stats : t -> stats
(** Read every counter now.  No read takes a shard mutex, so reading moves
    no counter, [lock.mutex_acq] included. *)

val counter : stats -> string -> int
(** The named counter.  Raises [Not_found] on an unknown name and
    [Invalid_argument] on a gauge or histogram. *)

(** {1 Admission control} *)

type admission = Admitted | Shed of string
(** [Shed reason]: ["capacity"] (in-flight cap), ["watermark"] (abort-rate
    shedder), or ["degraded"].  Each shed emits a {!Acc_obs.Trace.Shed}
    event. *)

val try_admit : t -> admission
(** Non-blocking token gate, to bracket each multi-step transaction.  On
    [Admitted] the caller must {!finish} exactly once when the transaction
    (including any compensation) is done; on [Shed] nothing was acquired —
    back off (jittered) and retry, or fall back to the legacy path when the
    reason is ["degraded"]. *)

val finish : t -> unit
(** Return an admission token. *)

val shutdown : t -> unit
(** Stop and join the background domain, then expire every overdue wait
    once more.  Idempotent.  Call after worker domains have joined (the
    detector must outlive them: it breaks shutdown-time deadlocks; the
    watchdog likewise resolves in-flight deadline expiries). *)

val run_txn : ?jitter:Acc_txn.Backoff.Jitter.t -> (unit -> 'r) -> 'r
(** Run a transaction body on the calling domain under the parallel effect
    handler: [Yield] becomes a short sleep — decorrelated-jitter when a
    {!Acc_txn.Backoff.Jitter} state is given (preferred; each worker should
    own one), else capped exponential from 1 ms; [Wait_lock] raises
    [Stuck] — it cannot occur with the blocking backend. *)
