(** A thread-safe lock manager for real domains: N shards, each a complete
    sequential {!Acc_lock.Lock_table} behind its own mutex.

    Resources are sharded by {e table name}, so a tuple always co-shards with
    its parent table and every hierarchical check stays inside one shard;
    distinct tables spread across shards and proceed in parallel.

    Two surfaces: a synchronous one mirroring {!Acc_lock.Lock_table} (used by
    the parity property tests and the deadlock detector), and the blocking
    {!acquire_req} for worker domains (condition-variable wait; raises
    {!Acc_txn.Txn_effect.Deadlock_victim} when victimized by {!kill}).
    {!service} packages the whole thing as a {!Acc_lock.Lock_service.t} —
    the form the engine and executor consume.

    Requests and attaches additionally run a {e lock-free fast path}
    (DESIGN.md §17.1): tuple and table-intention grants CAS-install into
    per-shard fast buckets, validated by a per-shard seqlock, without
    touching the shard mutex.  The gate is per resource: a fast decision on
    a resource needs only that resource and, for a tuple, its parent table
    to have no lock-table entry, which each bucket tracks as a count of the
    table entries hashing to it.  Any conflict, closed gate, table-level
    absolute mode, or seqlock movement falls back to the mutex path, after
    {e migrating} the resource's fast holds into the lock table so the
    sequential decision logic — {!Acc_lock.Lock_core}, unchanged — sees
    every hold.  Operations that change no table (introspection, the engine
    tick's and the detector's walks) take the mutex in a read-only section:
    it does not move the seqlock, so it never forces a fast install to
    retreat, and it does not count in {!mutex_acquisitions}.  The installed
    observer fires on both paths.

    Tickets returned here are globally unique encodings of per-shard tickets
    ([local * n_shards + shard]). *)

type t

val default_shards : int

val create : ?shards:int -> ?max_bypass:int -> ?fast:bool -> Acc_lock.Mode.semantics -> t
(** Shard clocks are wall-clock time ([Unix.gettimeofday]): deadlines in
    requests passed to {!acquire_req}/{!submit} are absolute wall-clock
    instants.  [max_bypass] is each shard's bounded-bypass fairness limit.
    [fast] (default [true]) enables the lock-free fast path; pass [false]
    to force every operation through the shard mutexes (the parity tests
    compare the two). *)

val n_shards : t -> int

val set_on_wait : t -> (float -> unit) option -> unit
(** Install a recorder called with the duration (seconds) of every completed
    blocking wait — granted, victimized or timed out.  The engine points this
    at its lock-wait histogram.  Called outside the shard mutex. *)

val timeout_count : t -> int
(** Lock waits expired by {!expire} over the table's lifetime. *)

val mutex_acquisitions : t -> int
(** Mutating shard sections over the table's lifetime: one per synchronous
    operation that may change a shard's table, one per blocking
    {!acquire_req} that misses the fast path, and one per {!attach_req} that
    misses it — the quantity the fast path avoids entirely.  Fast-path
    installs and releases, shards skipped by the per-transaction activity
    index or because their table is empty, and read-only sections (counts,
    {!wait_edges}, {!holders}, {!expire}'s look at a shard with nothing
    overdue) cost none, so an idle engine's tick leaves it still.
    Condition-variable reacquisitions during sleeps are not counted. *)

val fast_attempts : t -> int
(** Lock-free fast-path installs attempted by requests ({!acquire_req},
    {!submit}); attaches are not counted. *)

val fast_hits : t -> int
(** Fast-path installs that validated and stuck; [fast_hits/fast_attempts]
    is the hit rate reported by [bench scale] and gated in CI. *)

val set_observer : t -> (Acc_lock.Lock_table.observation -> unit) option -> unit
(** Install (or clear) one decision observer on every shard.  The observer
    runs under the owning shard's mutex, possibly from several domains at
    once (different shards), so it must be domain-safe, fast, and must not
    call back into the table — {!Acc_obs.Lock_obs.observer} satisfies all
    three. *)

val shard_index : t -> Acc_lock.Resource_id.t -> int

(** {2 Synchronous surface} *)

val submit : t -> Acc_lock.Lock_request.t -> Acc_lock.Lock_table.grant
(** Non-blocking request against the resource's shard; a [Queued] ticket is
    globalized.  Takes the fast path first when it can, as {!acquire_req}
    does.  (The parity tests drive both tables through this.) *)

val attach_req : t -> Acc_lock.Lock_request.t -> unit
(** Unconditional §3.3 grant on the resource's shard. *)

val release :
  t -> txn:int -> Acc_lock.Mode.t -> Acc_lock.Resource_id.t -> Acc_lock.Lock_table.wakeup list
(** Wakeups are both returned and published to any blocked acquirers. *)

val release_where :
  t ->
  txn:int ->
  (Acc_lock.Resource_id.t -> Acc_lock.Mode.t -> bool) ->
  Acc_lock.Lock_table.wakeup list

val release_all : t -> txn:int -> Acc_lock.Lock_table.wakeup list
val cancel : t -> ticket:int -> Acc_lock.Lock_table.wakeup list
val outstanding : t -> ticket:int -> bool
val outstanding_tickets : t -> txn:int -> int list

val holders : t -> Acc_lock.Resource_id.t -> (int * Acc_lock.Mode.t * int) list
(** (txn, mode, step_type) of each hold on the resource.  Lock-free when the
    resource has no lock-table entry and no slow section overlaps the read;
    otherwise read under the shard mutex. *)

val held_by : t -> txn:int -> (Acc_lock.Resource_id.t * Acc_lock.Mode.t) list
val wait_edges : t -> (int * int) list
val compensating_waiter : t -> txn:int -> bool
val lock_count : t -> int
val waiter_count : t -> int
val entry_count : t -> int

val max_bypassed : t -> int
(** Largest bounded-bypass count over outstanding waiters, across shards. *)

val expire :
  t -> now:float -> Acc_lock.Lock_table.waits * Acc_lock.Lock_table.expired list
(** Withdraw every non-compensating wait whose deadline is at or before
    [now], wake the blocked acquirers with [Txn_effect.Lock_timeout], and
    publish the promotions the withdrawals enabled.  Returns the waits left
    behind, summed over the shards (count, oldest age as of [now], and no
    overdue one), with the expired requests, whose tickets are globalized.
    Run by the engine's tick (OCaml's [Condition] has no timed wait, so
    waiters cannot expire themselves): each shard whose table has an entry
    costs one read-only section, and only a shard with something overdue
    enters a mutating section, so a tick with nothing to expire counts
    nothing in {!mutex_acquisitions} and makes no fast install retreat. *)

val kill : t -> txn:int -> int
(** Victimize: cancel every outstanding wait of the transaction and wake the
    blocked acquirer with {!Acc_txn.Txn_effect.Deadlock_victim}.  Enters a
    mutating section only on shards where the transaction's activity counter
    says it may wait.  Returns the number of waits cancelled (0 if the
    transaction was not waiting). *)

(** {2 Blocking surface} *)

val acquire_req : t -> Acc_lock.Lock_request.t -> unit
(** Grant, or block the calling domain until granted.  Raises
    [Txn_effect.Deadlock_victim] if {!kill}ed while waiting, and
    [Txn_effect.Lock_timeout] if the wait outlives the request's deadline
    (an absolute wall-clock instant; ignored on compensating requests). *)

val pp_state : Format.formatter -> t -> unit

(** {2 The service view} *)

val service : t -> Acc_lock.Lock_service.t
(** The table as a {!Acc_lock.Lock_service.t}: [acquire] is the blocking
    surface above, counters sum across shards.  This is what {!Engine}
    hands to the executor, and what {!Deadlock_detector} sweeps through
    ({!Acc_txn.Schedule.sweep}); expiry and victimization stay on this
    module ({!expire}, {!kill}). *)
