(** A lock request as one value.

    The lock managers historically took six optional/labelled arguments per
    call ([~txn ~step_type ?admission ?compensating ?deadline mode res]);
    every layer that forwarded a request had to spell all six out.
    [Lock_request.t] packs the full request into a single record, which each
    layer forwards as it is. *)

type t = {
  txn : int;  (** requesting transaction *)
  step_type : int;  (** design-time step type the request is issued from *)
  admission : bool;
      (** transaction-initiation acquisition of the first interstep
          assertion: prefix-interference checks apply *)
  compensating : bool;
      (** issued by a compensating step: never timed out, never gated by the
          fairness bound, never chosen as deadlock victim (§3.4) *)
  deadline : float option;
      (** absolute instant (in the table's clock) after which a queued
          request may be withdrawn; ignored when [compensating] *)
  mode : Mode.t;
  resource : Resource_id.t;
}

val make :
  txn:int ->
  ?step_type:int ->
  ?admission:bool ->
  ?compensating:bool ->
  ?deadline:float ->
  Mode.t ->
  Resource_id.t ->
  t
(** [make ~txn mode res] with [step_type] defaulting to [0] and the flags to
    [false]/[None] — the common shape for tests and simple callers. *)

val pp : Format.formatter -> t -> unit
