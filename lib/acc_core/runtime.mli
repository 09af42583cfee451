(** The one-level ACC runtime (§3.3, implemented-algorithm variant).

    Protocol per transaction instance:

    + {b admission} — request [A(pre(S_1))] locks (with the prefix
      interference check) on the instance's declared admission items;
    + {b per step} — run the body under strict 2PL; as each conventional
      lock is acquired, attach the assertional locks of the currently active
      assertions to the item (the dynamic acquisition optimization at the
      end of §3.3) and, for writes of a compensatable transaction, acquire
      the compensation lock (§3.4);
    + {b step end} — write the end-of-step record, which carries the work
      area, and release conventional locks and the assertional locks whose
      window closed;
    + {b deadlock} — a victim's step is rolled back physically and retried;
      if it is victimized again the transaction rolls back via its
      compensating step (§3.4), which runs flagged so the victim policy
      never aborts it, reads only the work area, and commits with the
      [Abort] record;
    + {b commit} — release everything.

    Legacy / ad-hoc transactions run through {!run_legacy}: single step,
    conventional locks plus the legacy-isolation assertional lock on every
    item, all held to commit — fully isolated from decomposed transactions. *)

type outcome =
  | Committed
  | Compensated of { completed_steps : int }
      (** Rolled back: physically if no step had completed, otherwise by the
          compensating step. *)

type granularity =
  | Item  (** the one-level ACC: assertional locks on the tuples touched *)
  | Table
      (** the two-level ACC of §3.2, for ablation: item identities are
          treated as unknown at design time, so assertional locks attach at
          table granularity and every may-alias conflict is taken — the
          false conflicts the one-level design exists to eliminate *)

type options = {
  step_retry_limit : int;
      (** Deadlock victimizations of one step before giving up and
          compensating (paper behaviour = 1 retry). *)
  verify_assertions : bool;
      (** Evaluate every active assertion's checker at each step boundary and
          raise {!Assertion_violated} on falsehood — the paper's correctness
          claim, made executable.  Test/diagnostic use only: the ACC itself
          never looks at values (§3.3). *)
  assertion_granularity : granularity;
}

val default_options : options

exception Assertion_violated of { txn : int; assertion : string; at_step : int }

val run :
  ?options:options ->
  ?abort_at:int ->
  ?stop:(unit -> bool) ->
  Acc_txn.Executor.t ->
  Program.instance ->
  outcome
(** Execute one instance to completion.  [abort_at j] forces a programmatic
    abort after step [j] completes (models the TPC-C requirement that 1% of
    new-order transactions abort, and exercises compensation).  [stop] is
    polled at every step boundary and after every victimization/timeout:
    once it returns [true] no new step is issued — completed steps are
    compensated and the transaction winds down (bounded drain for the
    parallel driver's shutdown).  Lock-wait timeouts
    ([Txn_effect.Lock_timeout]) take the same retry-then-compensate path as
    deadlock victims. *)

(** {1 Two-phase-commit participation}

    A cross-partition transaction's branch on one partition runs all its
    steps, then {e prepares} instead of committing: the [Prepare] record is
    the branch's durable yes-vote, and the until-commit assertional locks
    plus the compensation locks stay held across the in-doubt window (the
    conventional locks were already released at the last step boundary, as
    always).  The coordinator later applies its decision with
    {!commit_prepared} or {!abort_prepared} — the latter runs the
    compensating step, ACC's logical undo, as the distributed cancel. *)

type prepared
(** A branch that has voted yes and awaits the coordinator's decision. *)

val prepare :
  ?options:options ->
  ?stop:(unit -> bool) ->
  Acc_txn.Executor.t ->
  Program.instance ->
  gid:int ->
  (prepared, outcome) result
(** Run every step of the instance, then vote.  [Error outcome] means the
    branch failed before the vote (deadlock past the retry budget, timeout,
    programmatic abort) and has already rolled itself back — the coordinator
    must abort the sibling branches.  The instance must declare a
    compensating step: a prepared branch may still be told to abort. *)

val prepared_txn : prepared -> int
(** The branch's local transaction id. *)

val commit_prepared : prepared -> unit
(** Apply a commit decision: log [Commit], release everything. *)

val abort_prepared : prepared -> unit
(** Apply an abort decision: run the compensating step over all completed
    steps, log [Abort], release everything. *)

val run_compensation :
  Acc_txn.Executor.ctx ->
  step_type:int ->
  completed:int ->
  release:(Acc_lock.Resource_id.t -> Acc_lock.Mode.t -> bool) ->
  (Acc_txn.Executor.ctx -> completed:int -> unit) ->
  unit
(** The compensating-step loop, shared by an inline abort and by
    {!Replay}: flag the context compensating and enter step
    [completed + 1] of design-time type [step_type], trip the [comp.begin]
    crash point, then run the body.  A deadlock victimization, a lock
    timeout or an injected step fault rolls the attempt back, releases its
    locks matching [release] (the conventional ones), backs off and
    retries.  Ends with {!Acc_txn.Executor.finish_compensated}. *)

val run_legacy :
  ?options:options ->
  ?stop:(unit -> bool) ->
  Acc_txn.Executor.t ->
  txn_type:string ->
  (Acc_txn.Executor.ctx -> unit) ->
  outcome
(** Run an unanalyzed transaction with full isolation (retries internally on
    deadlock or lock timeout; commits unless [stop] becomes [true] during a
    retry, in which case the abort stands and the result is
    [Compensated { completed_steps = 0 }]). *)

val victim_policy : Acc_txn.Schedule.victim_policy
(** §3.4: the step closing the cycle is the victim, unless it is a
    compensating step — then every non-compensating transaction it waits on
    in the cycle is aborted instead.  This is
    {!Acc_txn.Schedule.spare_compensating}. *)
