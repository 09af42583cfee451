(** The pure decision core of the lock manager, shared by the sequential
    {!Lock_table} and the sharded multi-domain table (lib/parallel).  All
    compatibility, cycle-search and victim-selection logic lives here so the
    two tables cannot drift. *)

type hold = {
  h_txn : int;
  h_mode : Mode.t;
  h_step : int;
  mutable h_count : int;  (** re-entrant grants *)
}

type waiter = {
  w_ticket : int;
  w_txn : int;
  w_mode : Mode.t;
  w_step : int;
  w_requester : Mode.requester;
  w_resource : Resource_id.t;
  w_compensating : bool;
  w_deadline : float option;
      (** absolute expiry in the owning table's clock; [None] for requests
          without a deadline — compensating requests never carry one *)
  w_enqueued : float;  (** table-clock timestamp at queue time *)
  mutable w_bypassed : int;
      (** conflicting grants that have overtaken this waiter (fairness) *)
}

val default_max_bypass : int
(** Default bound on conflicting grants past one waiter before the fairness
    gate refuses further bypass. *)

val hold_conflict : Mode.semantics -> hold -> mode:Mode.t -> requester:Mode.requester -> bool
val waiter_conflict : Mode.semantics -> waiter -> mode:Mode.t -> requester:Mode.requester -> bool

val grant_blocks_waiter : Mode.semantics -> mode:Mode.t -> step_type:int -> waiter -> bool
(** Would granting [mode] (requested by step [step_type]) delay the waiter?
    The bypass test of the bounded-bypass fairness rule. *)

val holds_compatible :
  Mode.semantics -> hold list -> txn:int -> mode:Mode.t -> requester:Mode.requester -> bool
(** Is a request by [txn] compatible with every foreign hold in the list? *)

val queue_ahead_compatible :
  Mode.semantics -> txn:int -> mode:Mode.t -> requester:Mode.requester -> waiter list -> bool
(** FIFO discipline: may the request overtake (i.e. not conflict with) every
    foreign waiter queued ahead of it? *)

val reaches_down : hold -> bool
(** Does a table-level hold constrain tuple-level requests?  (Intention modes
    do not; absolute S/X/A/Comp locks do.) *)

val needs_child_sweep : Resource_id.t -> mode:Mode.t -> bool
(** Must a request on this resource also be checked against the table's
    tuple-level holds?  (Checked assertional requests on whole tables.) *)

val find_covering : hold list -> txn:int -> mode:Mode.t -> hold option
(** An existing hold of [txn] covering [mode] (re-entrant grant). *)

val find_hold : hold list -> txn:int -> mode:Mode.t -> hold option
(** The hold of [txn] in exactly [mode] (what an attach merges into and a
    release decrements). *)

(** {2 Decision classification}

    Pure post-hoc analysis of a grant/block decision for the observability
    layer (lib/obs): which interference checks the decision ran, what blocked
    it, and whether a strict-2PL system would have blocked where the ACC did
    not.  Never consulted on the decision path itself. *)

type acheck = {
  ac_assertion : int;  (** assertion id consulted *)
  ac_step_type : int;  (** the potentially interfering step type under test *)
  ac_passed : bool;  (** oracle said “does not interfere” *)
}

val assertional_check :
  Mode.semantics ->
  held:Mode.t ->
  held_step:int ->
  req:Mode.t ->
  requester:Mode.requester ->
  acheck option
(** The interference-oracle consultation a (held, requested) pair triggers,
    or [None] when the static matrix decides. *)

val checks_against :
  Mode.semantics -> hold list -> txn:int -> mode:Mode.t -> requester:Mode.requester ->
  acheck list
(** All oracle consultations a request runs against foreign holds. *)

val past_2pl_count : hold list -> txn:int -> mode:Mode.t -> int
(** Foreign holds whose {!Mode.twopl_shadow} conflicts with the request: on a
    granted request, the false conflicts a conventional system would have
    taken (the quantity of the paper's Figs. 2–4). *)

val first_blocking_hold :
  Mode.semantics -> hold list -> txn:int -> mode:Mode.t -> requester:Mode.requester ->
  hold option

val first_blocking_waiter :
  Mode.semantics -> waiter list -> txn:int -> mode:Mode.t -> requester:Mode.requester ->
  waiter option

val find_cycle : edges:(int * int) list -> from:int -> int list option
(** A waits-for cycle through [from] in the given edge list, as the list of
    transactions on the cycle (starting with [from]), if one exists. *)

val victim_policy :
  is_compensating:(int -> bool) -> requester:int -> cycle:int list -> int list
(** The paper's §3.4 policy: never victimize a transaction waiting on behalf
    of a compensating step; abort the transactions delaying it instead. *)
