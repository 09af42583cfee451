(** The one lock-wait handler, and the deterministic scheduler built on it.

    Transaction fibers run as processes of a {!Acc_sim.Sim} world.  A
    handler ({!t}) bound to that world and to an {!Executor.t} answers the
    two {!Txn_effect}s: a {!Txn_effect.Yield} becomes a simulated delay, and
    a {!Txn_effect.Wait_lock} parks the fiber on its ticket until the lock
    manager's wakeup grants it.  Deadlock is checked at every block; victims
    chosen by the policy are resumed with {!Txn_effect.Deadlock_victim} at
    their wait point, and {!sweep_parked} finds the cycles no block closed.
    Cycles and victims go to the trace as [Deadlock_cycle] and [Victim].

    {!run} is the handler on a fresh world with zero-delay yields: the
    round-robin scheduler of unit tests and examples, and, with a tie
    chooser, the systematic explorer ({!Explore}).  The benchmark simulator
    installs the same handler with its randomized backoff as the yield
    delay, and the multicore deadlock detector runs the same {!sweep}. *)

type victim_policy = Acc_lock.Lock_service.t -> requester:int -> cycle:int list -> int list
(** Given the waits-for cycle just closed by [requester], name the
    transactions whose current steps must be aborted.  The returned list must
    be a non-empty subset of [cycle]. *)

val abort_youngest : victim_policy
(** Abort the youngest (largest-id) transaction in the cycle.  This is the
    default: with deterministic round-robin scheduling, requester-aborts can
    livelock — two transactions re-colliding in lockstep forever — whereas
    the youngest-victim rule never kills the system-wide oldest transaction,
    which therefore always makes progress (wound-wait's argument). *)

val spare_compensating : victim_policy
(** The paper's §3.4 rule, {!Acc_lock.Lock_core.victim_policy} over the lock
    service's waiter state: abort the step that closed the cycle, unless it
    is a compensating step — then every non-compensating transaction it
    waits on in the cycle is aborted instead. *)

val sweep : victim_policy -> Acc_lock.Lock_service.t -> kill:(int -> int) -> int
(** One detection pass over the whole waits-for graph: for each waiting
    transaction in turn, find a cycle through it, let the policy name the
    victims, and [kill] each (which returns the number of waits it
    withdrew).  The edges are snapshotted once and re-snapshotted only after
    a kill.  Returns the total withdrawn. *)

(** {1 The lock-wait handler} *)

type t

val create :
  policy:victim_policy -> yield_delay:(int -> float) -> Acc_sim.Sim.t -> Executor.t -> t
(** A handler for fibers of [sim] running against the engine, whose wakeup
    hook it takes over.  [yield_delay attempt] is the simulated delay of a
    {!Txn_effect.Yield} reporting [attempt]. *)

val within : t -> (unit -> 'a) -> 'a
(** Run a thunk, from inside a process of the handler's world, with its
    lock waits and yields handled. *)

val sweep_parked : t -> int
(** {!sweep} the engine's lock service, killing parked fibers. *)

val parked : t -> int
(** Fibers currently parked on a lock. *)

val victims : t -> int
(** Waits victimized so far, at the block or by a sweep. *)

val lock_wait : t -> Acc_util.Stats.Tally.t
(** Simulated time spent parked, one observation per wait. *)

(** {1 The deterministic scheduler} *)

val run :
  ?policy:victim_policy -> ?choose:(int -> int) -> Executor.t -> (unit -> unit) list -> unit
(** Run all fibers to completion under a handler on a fresh world whose
    yields take no time, so fibers interleave round-robin; [policy] defaults
    to {!abort_youngest}, and [choose] is the world's tie chooser
    ({!Acc_sim.Sim.create}).  When the run drains with fibers still parked,
    {!sweep_parked} runs and the world resumes.  Raises {!Txn_effect.Stuck} if fibers remain parked with no cycle to
    break (undetected deadlock — a bug), or after a million resumptions
    (livelock guard). *)
