(** The unified lock-manager interface.

    Both lock managers — the sequential {!Lock_table} driven by schedulers
    through tickets and wakeups, and the multi-domain sharded table of
    lib/parallel that blocks the calling domain — implement this first-class
    module type.  The executor, the ACC runtime, the schedulers'
    {!Acc_txn.Schedule.sweep} and the drivers all program against [t]; which
    manager backs an engine is decided once, at construction.  Deadline
    expiry and victimization are the backend's own business: the sequential
    scheduler expires and kills through its {!Lock_table}, the multicore
    engine's tick through the sharded table.

    Requests are {!Lock_request.t} values, and a step takes its locks one at
    a time, as it touches each item (§3.3): one {!acquire} per checked
    request, one {!attach} per unconditional assertional grant. *)

(** Operations of one lock-manager instance.  The functions close over the
    instance, so a backend is a value of type [t = (module S)]; use the
    same-named dispatch helpers below rather than unpacking by hand. *)
module type S = sig
  val acquire : Lock_request.t -> unit
  (** Checked acquisition; when control returns normally the lock is held.
      How a queued request waits is the backend's affair: the sequential
      backend suspends the calling fiber (the executor's wait callback
      performs [Txn_effect.Wait_lock]), the sharded backend blocks the
      calling domain on the shard's condition variable.  Both surface
      victimization as [Txn_effect.Deadlock_victim] and deadline expiry as
      [Txn_effect.Lock_timeout]. *)

  val attach : Lock_request.t -> unit
  (** Unconditional grant (the §3.3 assertional-lock attach); the request's
      [admission]/[compensating]/[deadline] fields are ignored. *)

  val release : txn:int -> Mode.t -> Resource_id.t -> unit
  (** Release one unit of one hold; wakeups are delivered internally (to the
      executor's wakeup hook, or the shard's sleepers). *)

  val release_where : txn:int -> (Resource_id.t -> Mode.t -> bool) -> unit
  val release_all : txn:int -> unit
  val cancel : ticket:int -> unit

  val outstanding : ticket:int -> bool
  val holders : Resource_id.t -> (int * Mode.t * int) list
  val wait_edges : unit -> (int * int) list
  val compensating_waiter : txn:int -> bool

  val lock_count : unit -> int
  val waiter_count : unit -> int

  val set_observer : (Lock_table.observation -> unit) option -> unit
  val pp_state : Format.formatter -> unit -> unit
end

type t = (module S)
(** A lock-manager backend. *)

(** {1 Dispatch helpers}

    [Lock_service.acquire svc req] instead of
    [let (module M) = svc in M.acquire req]. *)

val acquire : t -> Lock_request.t -> unit
val attach : t -> Lock_request.t -> unit
val release : t -> txn:int -> Mode.t -> Resource_id.t -> unit
val release_where : t -> txn:int -> (Resource_id.t -> Mode.t -> bool) -> unit
val release_all : t -> txn:int -> unit
val cancel : t -> ticket:int -> unit
val outstanding : t -> ticket:int -> bool
val holders : t -> Resource_id.t -> (int * Mode.t * int) list
val wait_edges : t -> (int * int) list
val compensating_waiter : t -> txn:int -> bool
val lock_count : t -> int
val waiter_count : t -> int
val set_observer : t -> (Lock_table.observation -> unit) option -> unit
val pp_state : Format.formatter -> t -> unit

(** {1 Backends} *)

val of_table :
  wait:(ticket:int -> txn:int -> unit) ->
  deliver:(Lock_table.wakeup list -> unit) ->
  Lock_table.t ->
  t
(** The sequential backend over a {!Lock_table}.  [wait] realizes a queued
    request's suspension — the executor passes a closure performing
    [Txn_effect.Wait_lock] (this library cannot depend on the effect
    declarations, which live above it).  [deliver] receives every wakeup
    list produced by releases and cancellations, in the order the table
    produced them. *)
