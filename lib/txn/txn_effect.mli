(** The effects through which transaction code talks to its scheduler.

    Engine operations never block directly: a lock wait performs
    {!Wait_lock}, and the handler running the fiber decides how to park and
    resume it.  {!Schedule}'s handler serves the round-robin scheduler of
    unit tests, the systematic {!Explore}, and the discrete-event simulation
    driver alike; the multicore engine answers the same effects with real
    sleeps.  This is what lets one engine implementation serve unit tests,
    exhaustive interleaving checks, and the performance simulation
    unchanged. *)

type _ Effect.t +=
  | Wait_lock : { ticket : Acc_lock.Lock_table.ticket; txn : int } -> unit Effect.t
        (** Performed by {!Executor.acquire} when a lock request queues;
            resumed when the ticket is granted, or discontinued with
            {!Deadlock_victim}. *)
  | Yield : int -> unit Effect.t
        (** Voluntary reschedule point: lets tests and examples construct
            specific interleavings, and gives the explorer its branch
            points.  The payload is the retry attempt number that prompted
            the yield ([0] for a plain reschedule); timed schedulers scale
            their base delay by {!Backoff.factor} of it, so repeated
            deadlock victims and fault-aborted steps back off exponentially
            instead of ping-ponging. *)

val yield : ?attempt:int -> unit -> unit
(** [yield ()] performs [Yield 0]; [yield ~attempt ()] reports a retry. *)

exception Lock_timeout
(** Raised {e at the wait point} of a lock request whose wait deadline
    expired before the lock was granted.  Handled exactly like
    {!Deadlock_victim} — the step is undone and the transaction retried or
    compensated — but counted separately: timeouts are an overload signal,
    not a cycle. *)

exception Deadlock_victim
(** Raised {e at the wait point} of a transaction chosen as deadlock victim:
    the scheduler discontinues the suspended fiber with this exception.  The
    step-retry logic of the caller is responsible for undoing the current
    step. *)

exception Abort_requested
(** Raised by a transaction body to request its own rollback (e.g. TPC-C's
    mandated 1% of new-order transactions, which fail on the last item).
    Flat runners answer with a physical abort; the ACC runtime rolls back the
    current step physically and compensates the completed ones. *)

exception Stuck of string
(** Raised by schedulers when no fiber is runnable but some are still
    suspended: indicates a scheduling bug or an undetected deadlock. *)

val run_inline : on_yield:(int -> unit) -> (unit -> 'r) -> 'r
(** Run a transaction body on the calling fiber, for a lock backend that
    never suspends one (the multicore engine's blocking table, or crash
    replay on a quiesced engine): [Yield attempt] runs [on_yield attempt]
    and resumes at once; [Wait_lock] raises {!Stuck}. *)
