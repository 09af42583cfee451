(** Decomposed transaction programs.

    The {e static} side ({!step_def}, {!txn_type_def}, {!workload}) is what
    exists at design time: step types with symbolic footprints, assertions,
    and the compensating step.  The interference analysis consumes only this.

    The {e run-time} side ({!instance}) binds a static type to concrete
    arguments: executable step bodies (closures over a private workspace),
    resolved assertion windows and checkers, the admission item list of
    [pre(S_1)], the work area each step end logs, and the compensating
    body. *)

type step_def = {
  sd_id : int;  (** globally unique step type; {!legacy_step_id} is reserved *)
  sd_name : string;
  sd_txn_type : string;
  sd_index : int;  (** 1-based position; compensating steps use 0 *)
  sd_reads : Footprint.access list;
  sd_writes : Footprint.access list;
  sd_repeats : bool;  (** loop step: may execute any number of times *)
}

val legacy_step_id : int
(** Reserved step type (0) for unanalyzed (legacy / ad-hoc) transactions;
    the analysis treats it as interfering with everything it could touch. *)

val step :
  id:int ->
  name:string ->
  txn_type:string ->
  index:int ->
  ?repeats:bool ->
  reads:Footprint.access list ->
  writes:Footprint.access list ->
  unit ->
  step_def

type txn_type_def = {
  tt_name : string;
  tt_steps : step_def list;  (** forward steps, in order *)
  tt_comp : step_def option;  (** compensating step type, if decomposed *)
  tt_compensate : (Acc_txn.Executor.ctx -> completed:int -> unit) option;
      (** the compensating step's body, if the type declares one: what
          every instance runs on an inline abort and what
          {!Replay} runs after a crash *)
  tt_assertions : Assertion.t list;
}

val txn_type :
  name:string ->
  steps:step_def list ->
  ?comp:step_def ->
  ?compensate:(Acc_txn.Executor.ctx -> completed:int -> unit) ->
  assertions:Assertion.t list ->
  unit ->
  txn_type_def
(** Validates step indices (1..n in order, with [repeats] allowed to stand
    for a run of indices) and assertion ownership; refuses [compensate]
    without [comp].

    [compensate] is the body of the compensating step [comp], run at step
    [completed + 1] with the context flagged compensating.  It must read
    its inputs only from {!Acc_txn.Executor.work_area}, never from the
    workspace the step bodies close over: then the one body serves both an
    inline abort and crash replay, where no workspace exists.  A type that
    declares [comp] but no body leaves it to each {!instance}; such a
    transaction cannot be replayed after a crash. *)

type workload
(** A validated set of transaction types with globally unique step and
    assertion ids. *)

val workload : txn_type_def list -> workload
(** Raises [Invalid_argument] on duplicate ids/names. *)

val txn_types : workload -> txn_type_def list
val find_txn_type : workload -> string -> txn_type_def
(** Raises [Invalid_argument] when the workload has no type of that name. *)

val all_steps : workload -> step_def list
(** Every forward and compensating step, plus the legacy pseudo-step. *)

val all_assertions : workload -> Assertion.t list
(** Every declared assertion plus {!Assertion.legacy_isolation}. *)

val find_step : workload -> int -> step_def option
val max_step_id : workload -> int
val max_assertion_id : workload -> int

(** {1 Run-time instances} *)

type assertion_instance = {
  ai_assertion : Assertion.t;
  ai_from : int;  (** dynamic step index at whose boundary it becomes active *)
  ai_until : int;  (** dynamic index of the step whose end releases it *)
  ai_check : (Acc_relation.Database.t -> bool) option;
      (** optional run-time truth checker, resolved against the instance's
          arguments — used by the verification harness, never by the ACC *)
}

type read_isolation =
  | Exposed
      (** the default of the paper's §3.3: steps may read intermediate
          results other transactions exposed at their step boundaries *)
  | Committed_only
      (** the first restriction of [Gerstl et al., TR 96/07]: every read
          must return a value no in-flight multi-step transaction could
          still compensate away — reads wait out compensation locks *)
  | Snapshot
      (** the second restriction: all reads correspond to one snapshot —
          read locks and their isolation assertions are held to commit *)

type instance = {
  i_def : txn_type_def;
  i_steps : (step_def * (Acc_txn.Executor.ctx -> unit)) array;
      (** concrete executable steps; loop steps appear expanded *)
  i_assertions : assertion_instance list;
  i_admission : (assertion_instance * Acc_lock.Resource_id.t list) list;
      (** the items of [pre(S_1)] known before initiation *)
  i_compensate : (Acc_txn.Executor.ctx -> completed:int -> unit) option;
      (** the compensating body, run at step [completed + 1]: the type's
          [tt_compensate] when it declares one *)
  i_comp_area : unit -> (string * Acc_relation.Value.t) list;
      (** the work area, evaluated at every forward step end and logged in
          that step's end-of-step record *)
  i_read_isolation : read_isolation;
}

val instance :
  def:txn_type_def ->
  steps:(step_def * (Acc_txn.Executor.ctx -> unit)) list ->
  ?assertions:assertion_instance list ->
  ?admission:(assertion_instance * Acc_lock.Resource_id.t list) list ->
  ?compensate:(Acc_txn.Executor.ctx -> completed:int -> unit) ->
  ?comp_area:(unit -> (string * Acc_relation.Value.t) list) ->
  ?read_isolation:read_isolation ->
  unit ->
  instance
(** Validates that the steps belong to [def] and appear in a legal order
    (non-repeating steps exactly once, in index order; repeating steps any
    number of consecutive times).

    The compensating body is the type's [tt_compensate] when it declares
    one, and passing [compensate] as well is refused.  A type with [tt_comp]
    but no declared body needs [compensate] here, a body that may close
    over this instance's values; a type without [tt_comp] refuses one.
    All three refusals raise [Invalid_argument] naming the type.

    [comp_area ()] (default [[]]) is the work area: it is evaluated at every
    forward step end, after the step body ran, and the end-of-step record
    carries it — the durable work area of §5.

    Step bodies take their conventional locks dynamically, one at a time,
    as they touch each item (§3.3). *)

val resolve_window : instance -> Assertion.t -> int * int
(** Dynamic [from, until] for an assertion given the instance's expanded step
    list ({!Assertion.until_commit} maps to the last step). *)
