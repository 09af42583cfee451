(** The transaction executor: every data access of both systems under test
    (plain strict 2PL, and steps inside the ACC) goes through here.

    Responsibilities per operation: hierarchical lock acquisition (intention
    lock on the table, S/X on the tuple; full-table S for scans), write-ahead
    logging with physical images, application to the store, maintenance of
    the current step's undo stack, cost charging, and access tracing.

    Lock waits {!Effect.perform} {!Txn_effect.Wait_lock}; callers run under a
    handler for it ({!Schedule}'s, on its own scheduler or in the
    simulator). *)

type t
(** An engine: database + lock manager + log + configuration. *)

type ctx
(** A live transaction. *)

val create :
  ?cost:Cost_model.t ->
  ?wal_policy:Acc_wal.Log.policy ->
  sem:Acc_lock.Mode.semantics ->
  Acc_relation.Database.t ->
  t
(** An engine on the sequential {!Acc_lock.Lock_table} (wrapped as a
    {!Acc_lock.Lock_service.t}): lock waits perform {!Txn_effect.Wait_lock}
    and wakeups flow through {!set_on_wakeup}.  [wal_policy] as in
    {!create_with}. *)

val create_with :
  ?cost:Cost_model.t ->
  ?wal_policy:Acc_wal.Log.policy ->
  service:Acc_lock.Lock_service.t ->
  Acc_relation.Database.t ->
  t
(** An engine on a caller-supplied lock manager — the parallel engine passes
    [Sharded_lock_table.service] here.  The service's [acquire]
    must block (or suspend) until the lock is held, raising
    [Txn_effect.Deadlock_victim] if victimized and [Txn_effect.Lock_timeout]
    on deadline expiry.  {!set_on_wakeup} never fires on such an engine (the
    manager wakes its own waiters).

    [wal_policy] (default {!Acc_wal.Log.Direct}) selects the log's append
    policy.  Under a {!Acc_wal.Log.Buffered} policy the executor inserts a
    {!Acc_wal.Log.sync} before every lock release that could expose this
    transaction's effects — step-boundary releases, commit, abort — and
    before the 2PC prepare vote is observable, preserving the WAL rule and
    the group-commit durability contract (DESIGN.md §17). *)

val db : t -> Acc_relation.Database.t

val lock_service : t -> Acc_lock.Lock_service.t
(** The engine's lock manager, whichever backend it is — total, unlike the
    removed [locks] accessor.  Schedulers cancel tickets and walk waits-for
    edges through this; tests count holds through it. *)

val log : t -> Acc_wal.Log.t

(* configuration hooks, installed by schedulers/drivers *)

val set_on_wakeup : t -> (Acc_lock.Lock_table.wakeup list -> unit) -> unit
(** Called with every batch of lock grants produced by a release; the
    scheduler uses it to make fibers runnable.  Default: ignore. *)

val set_charge : t -> (float -> unit) -> unit
(** Called with the work units of each engine action; the simulator maps
    them to server CPU time.  Default: ignore. *)

val set_trace : t -> (int -> [ `R | `W ] -> Acc_lock.Resource_id.t -> unit) option -> unit
(** Access trace for the serializability checker. *)

val set_clock : t -> (unit -> float) -> unit
(** Time source for per-step latency: the simulator installs virtual time,
    the parallel driver [Unix.gettimeofday].  Default: constantly [0.], so
    uninstrumented engines measure nothing and pay one call per step. *)

val set_on_step_end : t -> (step_type:int -> dur:float -> unit) -> unit
(** Called at every step end ({!end_step}, and the end of a compensating
    step in {!finish_compensated}) with the step's design-time type and its
    duration by {!set_clock}'s time source; the TPC-C drivers feed this into
    per-step-type latency histograms.  Default: ignore. *)

type table_wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

val set_table_wrap : t -> table_wrap -> unit
(** Critical-section hook around every storage-engine access, keyed by table
    name.  The in-memory tables are not thread-safe structurally (hashtable
    resizes, index maintenance), so the multi-domain engine installs a
    per-table mutex here; the lock protocol already excludes row-content
    races.  Default: run the thunk directly. *)

val set_next_txn : t -> int -> unit
(** Raise the transaction-id counter to at least [base] (monotonic; a lower
    [base] is a no-op).  {!Acc_dist.Dist_driver.build} gives each partition
    engine a disjoint id band ({!Acc_dist.Partition.txn_base}) so every txn
    id in a distributed trace is globally unique — the span layer recovers
    the partition from the id alone. *)

val set_lock_deadline : t -> float option -> unit
(** Lock-wait budget in seconds applied to every non-compensating lock
    acquisition: each request carries the absolute deadline [clock () +
    budget] and the lock manager may answer [Txn_effect.Lock_timeout] once it
    passes.  Compensating steps never carry a deadline (§3.4).  [None]
    (default) disables timeouts. *)

val lock_deadline : t -> float option

val charge : t -> float -> unit
val cost : t -> Cost_model.t

(* transaction lifecycle *)

val begin_txn : t -> txn_type:string -> multi_step:bool -> ctx
val txn_id : ctx -> int
val txn_type : ctx -> string
val engine : ctx -> t

val set_step : ctx -> step_type:int -> step_index:int -> unit
(** Entering step [step_index] (1-based) whose design-time type is
    [step_type]; lock requests made from now on carry that step type. *)

val step_type : ctx -> int
val step_index : ctx -> int

val set_compensating : ctx -> bool -> unit
(** Mark subsequent lock requests as issued by a compensating step (they are
    never chosen as deadlock victims). *)

val compensating : ctx -> bool

val set_on_lock : ctx -> (Acc_lock.Resource_id.t -> Acc_lock.Mode.t -> unit) -> unit
(** ACC hook fired after each conventional lock acquisition, used to attach
    assertional and compensation locks to the item just locked. *)

val set_on_before_lock : ctx -> (Acc_lock.Resource_id.t -> Acc_lock.Mode.t -> unit) -> unit
(** Hook fired before each conventional lock request: the legacy runner
    acquires its isolation assertional lock here, so a fully isolated
    transaction queues on in-flight writers before taking the data lock
    (taking it after would hold the data lock across the wait and deadlock
    against the writer's next step). *)

(* data operations *)

val read : ctx -> string -> Acc_relation.Table.key -> Acc_relation.Value.t array option
val read_exn : ctx -> string -> Acc_relation.Table.key -> Acc_relation.Value.t array

val read_committed :
  ctx -> string -> Acc_relation.Table.key -> Acc_relation.Value.t array option
(** Degree-2 read: the S lock is released as soon as the value is fetched
    (TPC-C allows one transaction type to run at READ COMMITTED). *)

val scan :
  ctx -> string -> ?where:Acc_relation.Predicate.t -> unit -> Acc_relation.Value.t array list
(** Table-granularity S lock, as in the lock-escalated executions the paper's
    Ingres baseline performs for multi-tuple reads. *)

val scan_committed :
  ctx -> string -> ?where:Acc_relation.Predicate.t -> unit -> Acc_relation.Value.t array list
(** Scan at READ COMMITTED: table S lock released at operation end. *)

val scan_keys :
  ctx -> string -> ?where:Acc_relation.Predicate.t -> unit -> Acc_relation.Table.key list

val peek_keys :
  ctx -> string -> ?where:Acc_relation.Predicate.t -> unit -> Acc_relation.Table.key list
(** Index peek under an intention lock only — no row or table data locks.
    For hunt-then-lock patterns: the caller must X-lock its chosen candidate
    and be prepared for it to have vanished ({!delete}/{!update} raise
    [No_such_row]).  Sound only where phantoms are semantically harmless
    (monotone queues). *)

val scan_keys_for_update :
  ctx -> string -> ?where:Acc_relation.Predicate.t -> unit -> Acc_relation.Table.key list
(** Scan taken under an exclusive table lock: for scan-then-modify patterns
    (delivery's oldest-order hunt), where a shared scan lock would upgrade
    and two scanners would deadlock against each other every time. *)

val insert : ctx -> string -> Acc_relation.Value.t array -> unit

val update :
  ctx ->
  string ->
  Acc_relation.Table.key ->
  (Acc_relation.Value.t array -> Acc_relation.Value.t array) ->
  Acc_relation.Value.t array

val set_column :
  ctx -> string -> Acc_relation.Table.key -> string -> Acc_relation.Value.t -> unit

val delete : ctx -> string -> Acc_relation.Table.key -> unit

val acquire :
  ctx ->
  ?admission:bool ->
  Acc_lock.Mode.t ->
  Acc_lock.Resource_id.t ->
  unit
(** Raw checked lock acquisition (blocking); used by the ACC runtime for
    admission assertional locks and compensation locks. *)

val attach_lock : ctx -> Acc_lock.Mode.t -> Acc_lock.Resource_id.t -> unit
(** Raw unconditional grant (the §3.3 mid-transaction assertional locks). *)

(* step machinery (driven by the ACC runtime; flat 2PL never calls these) *)

val undo_stack_size : ctx -> int

val rollback_current_step : ctx -> unit
(** Physically undo (and log as compensation records) every write of the
    current step, newest first; clears the undo stack.  Locks are not
    released here. *)

val end_step : ctx -> area:(string * Acc_relation.Value.t) list -> unit
(** End a forward step: log the end-of-step record carrying [area] (the work
    area the compensating step will read; [[]] when there is none), charge
    the step overhead, and forget the undo stack — the step is now durable
    and can no longer be physically undone.  A compensating step does not
    call this: {!finish_compensated} ends it. *)

val work_area : ctx -> (string * Acc_relation.Value.t) list
(** The work area the last forward {!end_step} logged, or that
    {!adopt_pending} re-logged: the only input a compensating body reads, so
    one body serves an inline abort and crash replay alike. *)

val area_field : ctx -> string -> Acc_relation.Value.t
(** One named value of {!work_area}.  Raises [Invalid_argument] naming the
    transaction and the field when the area lacks it. *)

val release_locks : ctx -> (Acc_lock.Resource_id.t -> Acc_lock.Mode.t -> bool) -> unit
(** Release this transaction's holds matching the predicate and deliver the
    wakeups. *)

(* completion *)

val prepare : ctx -> gid:int -> unit
(** Two-phase-commit participant vote for global transaction [gid]: log the
    [Prepare] record (the branch's durable yes-vote) and emit the [prepare]
    trace event.  Call after the last step's end-of-step release, so only
    the assertional and compensation locks remain held across the in-doubt
    window; the transaction stays open until {!commit} (decision: commit) or
    a compensation run ending in {!finish_compensated} (decision: abort). *)

val commit : ctx -> unit
(** Log commit, release everything, deliver wakeups. *)

val abort_physical : ctx -> unit
(** Roll back the current step physically, log [Abort], release everything.
    Only sound when no earlier step has exposed results (flat transactions,
    or multi-step transactions still in their first step). *)

val finish_compensated : ctx -> unit
(** End the compensating step and the transaction: charge the step end, fire
    the step-end hook and trace event, then log [Abort] — the compensation's
    commit point; a compensating step logs no end-of-step record — and
    release everything. *)

val finished : ctx -> bool

(* recovery *)

val adopt_pending :
  t ->
  txn:int ->
  txn_type:string ->
  completed_steps:int ->
  area:(string * Acc_relation.Value.t) list ->
  ctx
(** Re-open a transaction that {!Acc_wal.Recovery} reported as pending
    compensation, keeping its original id ([next_txn] is bumped past it).
    The obligation — [Begin], and a [Step_end] for the last completed step
    carrying [area] — is re-logged on this engine's log, so a crash during
    the compensation replay leaves the pending state re-derivable from this
    engine's baseline + log; [area] becomes the context's {!work_area}.  The
    caller then runs the compensating step on the returned context exactly
    as the runtime would (see {!Acc_core.Replay}).  Raises
    [Invalid_argument] if [completed_steps < 1] (nothing exposed — recovery
    already rolled such transactions back physically). *)

val adopt_in_doubt :
  t ->
  txn:int ->
  txn_type:string ->
  completed_steps:int ->
  area:(string * Acc_relation.Value.t) list ->
  gid:int ->
  ctx
(** Re-open an in-doubt participant branch ({!Acc_wal.Recovery}'s [in_doubt]
    report): {!adopt_pending} plus a re-logged [Prepare] record, so a crash
    during resolution re-derives the in-doubt state rather than mistaking
    the branch for an ordinary pending compensation.  The caller resolves it
    with {!commit} or by running the compensating step, according to the
    coordinator's decision log (see {!Acc_core.Replay.resolve_in_doubt}). *)

(* checkpoints *)

val active_txns : t -> int
(** Transactions begun but not yet committed/aborted. *)

val checkpoint : t -> Acc_wal.Checkpoint.t
(** Quiescent checkpoint: snapshot the database and the log position so
    recovery can start from here.  Raises [Invalid_argument] if any
    transaction is active. *)
