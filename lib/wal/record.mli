(** Log records.

    Physical images for step-atomic undo/redo, plus the ACC-specific record
    of §5: the end-of-step record, which carries the compensation work area
    that the implemented ACC stores "in a database table for compensation".
    We keep the work area in the log itself, which is equivalent for
    recovery purposes and keeps the store free of bookkeeping tables. *)

type write = {
  w_table : string;
  w_key : Acc_relation.Value.t list;
  w_before : Acc_relation.Value.t array option;  (** [None] for an insert *)
  w_after : Acc_relation.Value.t array option;  (** [None] for a delete *)
}

type t =
  | Begin of { txn : int; txn_type : string; multi_step : bool }
  | Write of { txn : int; write : write; undo : bool }
      (** [undo = true] marks a compensation-log record written while rolling
          back (a CLR): recovery must never undo it again. *)
  | Step_end of { txn : int; step_index : int; area : (string * Acc_relation.Value.t) list }
      (** Forward step [step_index] completed.  [area] is the work area the
          compensating step reads (named values, [[]] for a transaction
          without one): it becomes durable in the same record that completes
          the step, so recovery never sees a completed step without its
          area.  A compensating step logs no [Step_end]; its [Abort] record
          commits it. *)
  | Prepare of { txn : int; gid : int }
      (** Two-phase-commit participant vote: the branch of global transaction
          [gid] has run all its steps and can commit.  Until a coordinator
          decision is known the transaction is {e in doubt}: recovery may
          neither commit nor compensate it on its own. *)
  | Commit of { txn : int }
  | Abort of { txn : int }
      (** Transaction fully undone (physically, or logically via its
          compensating step, whose commit point this record is); it holds
          nothing and needs nothing. *)

val txn_of : t -> int

val kind : t -> string
(** A short record-kind tag (["begin"], ["write"], ["undo"], ["step_end"],
    ["prepare"], ["commit"], ["abort"]) for trace events and summaries. *)

val pp : Format.formatter -> t -> unit

val invert : write -> write
(** The physical undo image: swaps before and after. *)
