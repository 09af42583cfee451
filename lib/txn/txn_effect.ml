(* The single point where concurrency-control code suspends: lock waits are
   surfaced as an effect so that the same engine runs unchanged under
   Schedule's handler, whether on its round-robin scheduler (tests, examples)
   or inside the discrete-event simulator (benchmarks). *)

type _ Effect.t +=
  | Wait_lock : { ticket : Acc_lock.Lock_table.ticket; txn : int } -> unit Effect.t
  | Yield : int -> unit Effect.t
        (** Voluntary reschedule point.  The payload is the retry attempt
            number that prompted the yield (0 for a plain reschedule): the
            scheduler handling the effect turns it into a delay via
            {!Backoff.factor}, so repeated victims back off exponentially
            instead of ping-ponging. *)

let yield ?(attempt = 0) () = Effect.perform (Yield attempt)

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

(* The one handler outside the simulator, for callers whose lock backend
   never suspends a fiber: it answers [Yield] with [on_yield] and resumes,
   and a lock wait reaching it is a protocol bug. *)
let run_inline : type r. on_yield:(int -> unit) -> (unit -> r) -> r =
 fun ~on_yield f ->
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Yield attempt ->
              Some
                (fun (k : (b, r) Effect.Deep.continuation) ->
                  on_yield attempt;
                  Effect.Deep.continue k ())
          | Wait_lock _ ->
              Some
                (fun (_ : (b, r) Effect.Deep.continuation) ->
                  raise (Stuck "Wait_lock under a handler with no fiber to park"))
          | _ -> None);
    }
