(** The lock manager.

    Synchronous by design: {!request} never blocks — it either grants or
    queues and returns a ticket; {!release} and friends return the set of
    queued requests that became grantable, and the {e caller} (simulator
    driver, test harness, example scheduler) decides how waiting and waking
    are realised.  This keeps every concurrency-control decision unit-testable
    with hand-built schedules.

    Queuing is FIFO with two standard refinements: a request by a transaction
    that already holds a lock on the resource (an upgrade) checks only against
    holders and, when blocked, waits at the head of the queue; all other
    requests also respect the queue (they will not overtake a waiter they
    conflict with).

    Overload robustness (DESIGN.md §13): requests may carry a lock-wait
    deadline checked by {!expire_overdue}; grants that bypass the FIFO
    discipline (upgrades, re-entrant grants, attaches, cross-level grants)
    are counted against the overtaken waiters, and once a waiter has been
    overtaken [max_bypass] times the table stops granting past it
    (bounded-bypass fairness).  Compensating requests are exempt from both:
    they never time out and are never gated (§3.4). *)

type t

type ticket = int

type grant = Granted | Queued of ticket

type wakeup = { woken_ticket : ticket; woken_txn : int }

type expired = {
  ex_ticket : ticket;
  ex_txn : int;
  ex_mode : Mode.t;
  ex_resource : Resource_id.t;
  ex_waited : float;  (** seconds spent queued, in the table's clock *)
}
(** A queued request withdrawn by {!expire_overdue}. *)

(** {2 Decision observations}

    Every grant/block decision, grant promotion, release and cancellation can
    be reported to an installed observer — the feed the observability layer
    (lib/obs) turns into trace events and conflict accounting.  With no
    observer installed ({!create}'s default) the instrumentation is a single
    [None] match per operation and allocates nothing. *)

type decision =
  | Dec_granted of {
      past_2pl : int;
          (** foreign holds whose {!Mode.twopl_shadow} conflicts with the
              request: the false conflicts a strict-2PL system would have
              taken where the ACC granted (Figs. 2–4's quantity) *)
      reentrant : bool;  (** covered by an own hold; no compatibility check ran *)
      checks : Lock_core.acheck list;  (** interference-oracle consultations *)
    }
  | Dec_blocked of {
      blocker_txn : int;
      blocker_mode : Mode.t;
      blocker_waiting : bool;
          (** blocked behind a queued waiter (FIFO discipline), not a holder *)
      assertion : int option;  (** the assertion, when the conflict is assertional *)
      interfering_step : int option;  (** the interfering step type, likewise *)
      checks : Lock_core.acheck list;
    }

type observation =
  | Ob_request of {
      or_txn : int;
      or_step_type : int;
      or_mode : Mode.t;
      or_resource : Resource_id.t;
      or_decision : decision;
    }
  | Ob_attach of { oa_txn : int; oa_step_type : int; oa_mode : Mode.t; oa_resource : Resource_id.t }
  | Ob_wake of { ow_txn : int; ow_mode : Mode.t; ow_resource : Resource_id.t }
      (** a queued request granted by promotion after a release/cancel *)
  | Ob_release of { ol_txn : int; ol_mode : Mode.t; ol_resource : Resource_id.t }
      (** final release of a hold (re-entrant count reaching zero) *)
  | Ob_cancel of { oc_txn : int; oc_resource : Resource_id.t }

val create : ?max_bypass:int -> ?clock:(unit -> float) -> Mode.semantics -> t
(** [max_bypass] bounds how many conflicting grants may overtake one waiter
    (default {!Lock_core.default_max_bypass}); [clock] supplies the timestamps
    used for queue times and deadlines (default: the constant 0 clock, which
    disables aging — the simulator's virtual time or [Unix.gettimeofday] are
    the real choices). *)

val set_observer : t -> (observation -> unit) option -> unit
(** Install (or clear) the decision observer.  The observer runs synchronously
    inside lock-table operations — in the sharded table, under the shard
    mutex — so it must be fast and must not call back into the table. *)

val set_activity_hook : t -> (int -> int -> unit) option -> unit
(** Install (or clear) the per-transaction activity hook, called with
    [(txn, +1)] whenever a hold record or waiter of [txn] enters the table
    and [(txn, -1)] when one leaves (re-entrant count changes are not
    reported).  The sharded table points this at per-shard atomic counters
    so "does txn hold or wait for anything here?" is answerable without the
    shard mutex. *)

val set_entry_hook : t -> (Resource_id.t -> int -> unit) option -> unit
(** Install (or clear) the entry hook, called with [(res, +1)] when the
    table creates [res]'s entry and [(res, -1)] when it collects it (an
    entry lives while the resource has a hold or a waiter).  Only mutating
    operations fire it; the read-only ones ({!holders}, {!held_by},
    {!wait_edges}, the counts) never create or collect an entry.  The
    sharded table counts entries per fast bucket with it, which gates its
    lock-free fast path per resource. *)

val submit : t -> Lock_request.t -> grant
(** Ask for a lock.  [admission] marks the transaction-initiation acquisition
    of the first interstep assertion (prefix-interference checks apply);
    [compensating] marks requests made on behalf of a compensating step,
    which the deadlock resolver must never choose as victim.  [deadline] is an
    absolute time in the table's clock after which a queued request may be
    withdrawn by {!expire_overdue}; it is ignored on compensating requests
    (§3.4: compensation is never timed out).  Re-requesting a covered mode is
    re-entrant and always granted. *)

val attach_req : t -> Lock_request.t -> unit
(** Unconditional grant, bypassing all conflict checks: the §3.3 rule
    "before initiating step [S_ij]: unconditionally grant [A(pre(S_i,j+1))]
    locks".  Safe because the protocol only attaches assertional locks to
    items on which the transaction already holds a conventional lock.  The
    request's [admission]/[compensating]/[deadline] fields are ignored. *)

val release : t -> txn:int -> Mode.t -> Resource_id.t -> wakeup list
(** Release one unit of one hold.  Raises [Invalid_argument] if not held. *)

val release_where : t -> txn:int -> (Resource_id.t -> Mode.t -> bool) -> wakeup list
(** Drop every hold of [txn] satisfying the predicate (regardless of
    re-entrant count); returns all wakeups across resources. *)

val release_all : t -> txn:int -> wakeup list
(** Commit/final-abort: drop all holds {e and} any outstanding waiting
    request of the transaction. *)

val cancel : t -> ticket:ticket -> wakeup list
(** Withdraw a waiting request (used when its step is chosen as deadlock
    victim); no-op if the ticket is no longer outstanding. *)

val promote : t -> table:string -> wakeup list
(** Run the table's promotion sweep to a fixpoint without a triggering
    release.  Used by the sharded table after rolling back an optimistic
    fast-path install that may have transiently blocked a grantable waiter. *)

val import_hold :
  t -> txn:int -> step_type:int -> mode:Mode.t -> count:int -> Resource_id.t -> unit
(** Install an already-granted hold unconditionally, merging into an existing
    hold of the same (txn, mode) if present.  Used when the sharded table
    migrates a lock-free fast-path grant into the table because the resource
    is becoming contended.  The grant was decided (and observed) at
    fast-install time, so no conflict check, observation, or bypass
    accounting happens here.  Raises [Invalid_argument] if [count < 1]. *)

val expire_overdue : t -> now:float -> expired list * wakeup list
(** Withdraw every non-compensating waiter whose deadline is at or before
    [now] (in the table's clock).  Returns the expired requests — which the
    caller turns into timeout aborts — and the promotions their withdrawal
    enabled. *)

val has_overdue : t -> now:float -> bool
(** Would {!expire_overdue} withdraw anything?  Changes nothing, so a
    caller can look before it enters a mutating section. *)

val oldest_wait : t -> now:float -> float
(** Age in seconds of the longest-queued outstanding request (0 when the
    queue is empty) — the watchdog's wedge signal. *)

val max_bypassed : t -> int
(** Largest bypass count over outstanding waiters (fairness introspection). *)

val outstanding : t -> ticket:ticket -> bool
(** Is the ticket still waiting?  (False once granted or cancelled.) *)

val outstanding_tickets : t -> txn:int -> ticket list
(** All outstanding waiting tickets of the transaction (at most one in
    well-formed executions; the sharded table's victim killer sweeps them). *)

(* Introspection *)

val holders : t -> Resource_id.t -> (int * Mode.t * int) list
(** (txn, mode, step_type) of each hold, oldest first. *)

val held_by : t -> txn:int -> (Resource_id.t * Mode.t) list
val waiting_on : t -> txn:int -> Resource_id.t list

val blockers : t -> ticket:ticket -> int list
(** Transactions this waiter is waiting for (holders it conflicts with and
    conflicting waiters ahead of it), deduplicated. *)

val wait_edges : t -> (int * int) list
(** All (waiter-txn, blocking-txn) edges of the waits-for graph. *)

val find_cycle : t -> from:int -> int list option
(** A waits-for cycle through [from], as the list of transactions on the
    cycle (starting with [from]), if one exists. *)

val compensating_waiter : t -> txn:int -> bool
(** Is this transaction's outstanding wait flagged as compensating? *)

val lock_count : t -> int
(** Total holds outstanding (for leak tests). *)

val waiter_count : t -> int
(** Outstanding queued requests (for leak tests). *)

val entry_count : t -> int
(** Live lock-table entries (for leak tests). *)

val pp_state : Format.formatter -> t -> unit
