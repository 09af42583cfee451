(** Crash-restart harness: kill a system at registered crash points,
    restart it from what a dead process leaves behind, and check the §3.4
    recovery invariants.  One driver serves two systems under test, and
    both run the config's workload plugin.

    {b The single engine} ([Single]).  Each injected
    {!Acc_fault.Fault.Crash} discards the engine with its locks still held
    and its cleanup un-run; restart sees only the baseline snapshot, the WAL
    and the last durable checkpoint.  After every crash the harness checks
    that

    - full-log and checkpoint-based recovery agree (state and pending set);
    - replaying the WAL a second time is a no-op (recovery is idempotent);
    - compensation replay empties the pending set, the post-replay log
      re-recovers to the live state, and no locks or waiters survive;
    - the workload's consistency oracle holds after the replay and once the
      remaining transactions have been resubmitted and run to completion.

    {b The partitioned system} ([Partitioned]): the no-lost-decision
    oracle.  The workload's partitioning capability
    ({!Acc_workload.partitioning}) splits its keys over the partitions, and
    its inputs run one at a time, a cross-partition one as branches with
    the coordinator driven over the loopback transport (framing, fault
    layer, retries and idempotent handlers all under test; loopback
    consults no wall clock, so runs stay deterministic) and a file-backed,
    fsynced decision log.  A crash restarts every partition from (baseline,
    WAL) plus the reopened on-disk decision log — or, with
    [coordinator_kill], fails over only the coordinator via
    {!Acc_dist.Coordinator.Remote.recover} while the partitions survive.
    The harness checks that

    - no partition stays in doubt: every prepared branch is resolved over
      the transport, and re-deriving the partition from (snapshot,
      resolution log) shows nothing in doubt and nothing pending;
    - a logged Commit decision is never lost: the transaction is not
      re-submitted, and the merged database accounts for its effects;
    - an unlogged one is presumed aborted and the transaction cleanly
      re-submitted under a fresh gid;
    - no locks survive resolution or failover settlement;
    - the capability's oracle over the partitions' databases holds right
      after every recovery and at the end.

    See RECOVERY.md for the crash-point map and the recovery model. *)

type single = {
  coverage : bool;
      (** the sweep reports a crash point the workload never reaches as a
          failure.  Only the default profile must reach every point: a
          workload without compensations legitimately never reaches the
          comp.* points *)
  step_fault_p : float;  (** retryable injected step-failure probability *)
  checkpoint_every : int;  (** quiescent checkpoint cadence, in log records *)
}

type partitioned = {
  partitions : int;
  netfault : Acc_fault.Fault.Netfault.spec;
      (** message faults live on every coordinator↔participant connection
          (and the recovery-time Resolve path) for the whole run — the
          network does not heal because a process died *)
  coordinator_kill : bool;
      (** handle crashes at coordinator-side points ("dist.decide",
          "dist.decision.durable") by coordinator failover instead of a full
          restart: the partitions' engines survive with their prepared
          branches' locks held until settlement *)
}

type system = Single of single | Partitioned of partitioned

type config = {
  workload : Acc_workload.t;
      (** what the system runs.  [Partitioned] needs a partitioning
          capability with at least [partitions] keys: without one, every
          entry point below raises [Invalid_argument] before any run, naming
          the field as [Parallel_driver.validate] does *)
  seed : int;  (** input generation and population seed *)
  txns : int;  (** transactions per run *)
  hits_per_point : int;
      (** deterministic sweep: crash at this many evenly-spaced passage
          counts per point (always including the first and the last) *)
  chaos_p : float;  (** chaos mode: per-passage crash probability *)
  verbose : bool;  (** narrate each crash and recovery on stdout *)
  system : system;
}

val default_single : single
(** The coverage check, 5% step faults, a checkpoint every 16 log
    records. *)

val default_partitioned : partitioned
(** 2 partitions, no message faults, full-restart recovery. *)

val default_config : system -> config
(** Seed 7 and 3 hits per point, with each system's default profile.  For
    [Single], TPC-C at one warehouse and a 15% forced-abort rate, 48
    transactions and [chaos_p = 0.004].  For [Partitioned], TPC-C at 4
    warehouses with 50% remote payments and 20% remote order lines, 40
    transactions and [chaos_p = 0.01]. *)

type result = {
  r_label : string;  (** ["point:hit"], a chaos label, or the baseline *)
  r_crashes : int;  (** crashes injected and survived *)
  r_errors : string list;  (** violated invariants; empty = pass *)
}

val failed : result -> bool

val run_one : config -> point:string -> hit:int -> result
(** One deterministic crash: arm [point] at its [hit]-th passage, run,
    recover, resume, check.  [r_errors] includes ["armed crash never
    fired"] when the workload never reaches that passage. *)

val sweep : config -> result list
(** Deterministic sweep.  Dry-runs the workload under
    {!Acc_fault.Fault.observe} to learn the passage count of each point the
    system owns (the single engine every point but 2PC's, the partitioned
    system the dist.* points), reporting unreached points as coverage
    failures where coverage applies; then crashes each point at
    [hits_per_point] spread hit counts, recovering and resuming after each.
    The first result is the fault-free baseline run. *)

val sweep_matrix : ?quick:bool -> config -> result list
(** The chaos matrix: owned crash points × transport-fault kinds (none,
    drop, dup, delay, reorder, disconnect) × restart mode (full restart,
    and coordinator kill for coordinator-side points).  Each cell crashes
    at the point's first passage with that single-kind fault spec live on
    every connection.  [quick] trims to one fault kind per point (the
    per-push smoke slice).  The single engine has no network and one
    restart mode, so its matrix is one cell per point. *)

val chaos : config -> seed:int -> result
(** Probabilistic soak: every passage through any registered point crashes
    with probability [chaos_p] from a PRNG seeded with [seed].  On the
    single engine faults stay armed through recovery, so crashes also land
    inside the compensation replay; the partitioned system recovers
    disarmed and re-arms with a derived seed, and [netfault] /
    [coordinator_kill] compose with it. *)

val pp_result : Format.formatter -> result -> unit
