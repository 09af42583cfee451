(** Deterministic discrete-event simulator.

    Processes are OCaml-5 effect fibers: a process calls {!delay} to let
    simulated time pass, waits on {!Condition}s, and occupies {!Resource}
    units (the database server pool).  All continuations resume from the
    {!run} loop, so the stack stays flat regardless of process count.

    Determinism: events fire in (time, insertion-sequence) order and nothing
    reads wall-clock time, so a run is a pure function of the workload's seeded
    PRNG streams — every benchmark number is reproducible. *)

type t

val create : ?choose:(int -> int) -> unit -> t
(** [choose n] picks which of the [n > 1] events due at the earliest time
    runs next, as an index into them in insertion order; it is consulted at
    every such tie.  Without it ties run in insertion order.  A chooser is
    how a caller steers the interleaving of processes that share a time
    (the schedule explorer's branch points). *)

val now : t -> float
(** Current simulated time (seconds, by convention). *)

val spawn : t -> ?at:float -> (unit -> unit) -> unit
(** Register a process to start at time [at] (default: now). *)

val delay : float -> unit
(** Suspend the calling process for the given simulated duration.  Must be
    called from within a process of the running simulation. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drive the event loop until no events remain, the clock passes [until]
    (remaining events are dropped), or [max_events] (default 50 million)
    fires — the runaway guard raises [Failure]. *)

val events_executed : t -> int

module Condition : sig
  (** Typed wait queues.  [wait] suspends the caller; each [signal] resumes
      exactly one waiter (FIFO) with the value, at the current simulated
      time. *)

  type 'a cond

  val create : unit -> 'a cond
  val wait : 'a cond -> 'a
  val signal : t -> 'a cond -> 'a -> bool
  (** [false] if nobody was waiting (the value is dropped). *)

  val waiters : 'a cond -> int
end

module Resource : sig
  (** A multi-unit FIFO resource — the pool of database server processes.
      [use r dt] occupies one unit for [dt] simulated seconds, queueing first
      if all units are busy.  Utilisation accounting feeds the experiment
      reports. *)

  type resource

  val create : t -> capacity:int -> resource
  val capacity : resource -> int
  val use : resource -> float -> unit
  val acquire : resource -> unit
  val release : resource -> unit
  val in_use : resource -> int
  val queue_length : resource -> int

  val busy_time : resource -> float
  (** Total unit-seconds of completed [use] occupancy. *)

  val utilization : resource -> at:float -> float
  (** [busy_time / (capacity * at)]. *)
end
