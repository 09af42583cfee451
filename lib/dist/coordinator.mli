(** Two-phase commit coordinator for partitioned ACC.

    Single-partition transactions never come here — they run on their home
    partition's executor exactly as on a single-node system.  A
    cross-partition transaction is decomposed into one branch (an ordinary
    {!Acc_core.Program.instance}) per touched partition; {!Remote.run_cross}
    prepares the branches in ascending partition-id order, records the
    commit/abort decision in the {e decision log} (durability point,
    presumed abort: no entry means abort), and applies it to every prepared
    branch — abort runs the branch's compensating step, ACC's logical undo.

    Crash points, registered at module initialization:
    - ["dist.prepare"] — branch vote logged, locks held (in the executor);
    - ["dist.decide"] — decision chosen but not durable (recovery presumes
      abort);
    - ["dist.decision.durable"] — decision durable, participants not yet
      told (recovery resolves from the decision log). *)

type decision = Commit | Abort

(** The coordinator's durable state: gid → decision.  {!create} is the
    in-memory variant (protocol tests); {!open_file} is the real thing —
    an append-only on-disk log of fixed records behind the WAL's
    magic+version header discipline, fsynced per {!record}, reloaded (and
    its torn tail truncated) at open.  Losing it is losing the commit
    record; a coordinator failover starts by reopening it. *)
module Decision_log : sig
  type t

  val create : unit -> t
  (** In-memory log: {!record} is not durable. *)

  val open_file : string -> t
  (** Open (creating if absent) a file-backed log and load every complete
      record; a torn tail from a crash mid-append is truncated away.
      Raises [Failure] ({!Acc_wal.Log.Header.check}'s vocabulary) if the
      file is not a decision log or is from an unreadable version. *)

  val path : t -> string option
  (** The backing file, [None] for an in-memory log. *)

  val record : t -> gid:int -> decision -> unit
  (** Append and fsync (file-backed): when this returns, the decision
      survives a coordinator death.  Re-recording an identical decision is
      a no-op, so retried/failed-over coordinators do not grow the file. *)

  val lookup : t -> gid:int -> decision option
  val size : t -> int

  val max_gid : t -> int
  (** Largest recorded gid, 0 when empty. *)

  val close : t -> unit
end

type t

val create : ?log:Decision_log.t -> ?first_gid:int -> Partition.t array -> t
(** [create parts] builds a coordinator over the partitions (sorted by id).
    Pass [?log] to adopt a decision log that survived a crash, and
    [?first_gid] (one past the largest gid any surviving WAL Prepare record
    carries) so restarted gids never collide with stale in-doubt branches;
    the counter always starts above the log's own watermark.  Raises
    [Invalid_argument] on an empty partition array. *)

val decision_log : t -> Decision_log.t

val partition_of : t -> int -> Partition.t
(** Home partition of a warehouse.  Raises [Invalid_argument] if no
    partition owns it. *)

val decision_of : t -> gid:int -> decision option
(** Logged decision for a global transaction, if any ([None] = presumed
    abort once the transaction is in doubt). *)

type outcome = Committed | Aborted

val prepare_hold_snapshot : t -> Acc_util.Stats.Tally.t
(** Snapshot of per-transaction prepare-window hold times (seconds): from
    the first branch's first step to the decision applied. *)

val resolve_in_doubt_via :
  ask:(int -> bool option) ->
  workload:Acc_core.Program.workload ->
  Acc_txn.Executor.t ->
  Acc_wal.Recovery.report ->
  int * int
(** Post-recovery resolution for one partition: each in-doubt branch in the
    report is committed when [ask gid = Some true] and compensated, by the
    body its type declares in [workload] (what the partition serves), when
    [Some false].  [ask] is normally a Resolve RPC against the coordinator,
    with the durable log as fallback.  [ask gid = None] leaves that branch
    blocked — whether presumed abort applies is the caller's judgment, not
    this function's.  Returns [(resolved, still_blocked)]. *)

(** The coordinator driven over the RPC transport ({!Transport}): one
    {!Participant} and one connection per partition, plus a resolver
    connection answering [Resolve] requests from whichever core currently
    owns the decision log.

    RPC timeouts retry with decorrelated jitter ({!Acc_txn.Backoff});
    participant handlers are idempotent, so the duplicates retries (or the
    fault layer) produce are safe.  Once a decision is durable, a
    participant the wire failed is settled from the log before
    {!Remote.run_cross} returns — an acked commit cannot be lost to a
    transport fault. *)
module Remote : sig
  type coordinator := t
  type t

  val make :
    ?stop:(unit -> bool) ->
    ?retries:int ->
    ?transport:Transport.kind ->
    ?faults:Acc_fault.Fault.Netfault.spec ->
    ?prepare_deadline:float ->
    coordinator ->
    t
  (** Wrap a coordinator core: one participant + connection per partition
      (pipe connections each get a dedicated handler domain).  [retries]
      (default 4) bounds re-sends per RPC; [prepare_deadline] (default 5s,
      the branch runs inside it) and a fixed 0.2s for a decision bound each
      wait on the pipe transport — loopback never waits. *)

  val core : t -> coordinator
  (** The current core ({!recover} swaps it). *)

  val participants : t -> Participant.t array
  val transport : t -> Transport.kind

  val run_cross :
    t -> (Partition.t * Acc_core.Program.instance) list -> outcome
  (** Drive one cross-partition transaction: stage each branch, Prepare in
      ascending partition id (a global order, so coordinators cannot
      deadlock against each other on partitions; a timeout or no-vote
      aborts), make the decision durable, Decide, and settle any branch
      the wire failed from the durable log.  Raises [Invalid_argument] on
      an empty branch list.  The
      ["dist.decide"] / ["dist.decision.durable"] crash points fire on the
      coordinator side, so a [Fault.Crash] from here models the
      coordinator dying with participants' branches in doubt — hand the
      wreckage to {!recover}. *)

  val recover : ?first_gid:int -> t -> int
  (** Coordinator failover after the core died: reopen the on-disk
      decision log, restart the gid counter above the log's watermark,
      every surviving participant's largest seen gid, and [first_gid]
      (pass the WAL prepare-record watermark), swap the new core in, and
      resolve every participant's in-doubt branches over the transport
      (Resolve RPC, durable-log fallback; no logged decision means the old
      coordinator died before its durability point, so presumed abort is
      sound).  Returns the number of branches resolved.  Raises
      [Invalid_argument] if the decision log is in-memory — there is
      nothing to fail over to. *)

  val close : t -> unit
  (** Close every connection (joining pipe handler domains). *)
end
