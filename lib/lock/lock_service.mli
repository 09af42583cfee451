(** The unified lock-manager interface.

    Both lock managers — the sequential {!Lock_table} driven by schedulers
    through tickets and wakeups, and the multi-domain sharded table of
    lib/parallel that blocks the calling domain — implement this first-class
    module type.  The executor, the ACC runtime, the deadlock detector, the
    watchdog and the drivers all program against [t]; which manager backs an
    engine is decided once, at construction.

    Requests are {!Lock_request.t} values, and a step takes its locks one at
    a time, as it touches each item (§3.3): one {!acquire} per checked
    request, one {!attach} per unconditional assertional grant. *)

(** Operations of one lock-manager instance.  The functions close over the
    instance, so a backend is a value of type [t = (module S)]; use the
    same-named dispatch helpers below rather than unpacking by hand. *)
module type S = sig
  val backend_name : string
  (** ["sequential"] or ["sharded"] — for diagnostics and bench labels. *)

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
  val ticket_txn : ticket:int -> int option
  val outstanding_tickets : txn:int -> int list
  val holders : Resource_id.t -> (int * Mode.t * int) list
  val held_by : txn:int -> (Resource_id.t * Mode.t) list
  val waiting_on : txn:int -> Resource_id.t list
  val wait_edges : unit -> (int * int) list
  val find_cycle : from:int -> int list option
  val compensating_waiter : txn:int -> bool

  val expire : now:float -> Lock_table.expired list
  (** Withdraw every non-compensating wait whose deadline passed, deliver
      the promotions, and (sharded) wake the blocked acquirers with
      [Lock_timeout].  Tickets in the result are in the backend's encoding
      (globalized on the sharded table). *)

  val kill : txn:int -> int
  (** Victimize: withdraw every outstanding wait of the transaction, waking
      blocked acquirers with [Deadlock_victim] on the sharded backend.
      Returns the number of waits withdrawn. *)

  val lock_count : unit -> int
  val waiter_count : unit -> int
  val entry_count : unit -> int
  val oldest_wait : now:float -> float
  val max_bypassed : unit -> int

  val timeout_count : unit -> int
  (** Lock waits expired over the backend's lifetime (0 on the sequential
      backend, which leaves expiry to its scheduler). *)

  val mutex_acquisitions : unit -> int
  (** Shard-mutex lock operations over the backend's lifetime — the quantity
      the fast path avoids.  Constantly 0 on the sequential backend (no
      mutex). *)

  val fast_attempts : unit -> int
  (** Lock-free fast-path installs attempted over the backend's lifetime
      (DESIGN.md §17).  Constantly 0 on backends without a fast path,
      including the sequential one. *)

  val fast_hits : unit -> int
  (** Fast-path installs that validated and stuck: [fast_hits () /
      fast_attempts ()] is the fast-path hit rate the scale bench and its CI
      gate report. *)

  val set_observer : (Lock_table.observation -> unit) option -> unit
  val pp_state : Format.formatter -> unit -> unit
end

type t = (module S)
(** A lock-manager backend. *)

(** {1 Dispatch helpers}

    [Lock_service.acquire svc req] instead of
    [let (module M) = svc in M.acquire req]. *)

val backend_name : t -> string
val acquire : t -> Lock_request.t -> unit
val attach : t -> Lock_request.t -> unit
val release : t -> txn:int -> Mode.t -> Resource_id.t -> unit
val release_where : t -> txn:int -> (Resource_id.t -> Mode.t -> bool) -> unit
val release_all : t -> txn:int -> unit
val cancel : t -> ticket:int -> unit
val outstanding : t -> ticket:int -> bool
val ticket_txn : t -> ticket:int -> int option
val outstanding_tickets : t -> txn:int -> int list
val holders : t -> Resource_id.t -> (int * Mode.t * int) list
val held_by : t -> txn:int -> (Resource_id.t * Mode.t) list
val waiting_on : t -> txn:int -> Resource_id.t list
val wait_edges : t -> (int * int) list
val find_cycle : t -> from:int -> int list option
val compensating_waiter : t -> txn:int -> bool
val expire : t -> now:float -> Lock_table.expired list
val kill : t -> txn:int -> int
val lock_count : t -> int
val waiter_count : t -> int
val entry_count : t -> int
val oldest_wait : t -> now:float -> float
val max_bypassed : t -> int
val timeout_count : t -> int
val mutex_acquisitions : t -> int
val fast_attempts : t -> int
val fast_hits : t -> int
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
    list produced by releases, cancellations and expiry, in the order the
    table produced them.  {!kill} withdraws waits but resuming the
    victim's fiber remains the scheduler's job, as it always was on this
    backend. *)
