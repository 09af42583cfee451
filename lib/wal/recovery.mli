(** Crash-restart recovery (§3.4 / §5 of the paper).

    Rebuilds the database from a pristine baseline plus a log prefix:

    - {b redo}: every logged write is replayed in order;
    - {b physical undo}: for each transaction that was alive at the crash,
      writes after its last end-of-step record are undone in reverse — a step
      is atomic, so it either completed (its end-of-step record is in the
      log) or leaves no trace;
    - {b logical undo}: a multi-step transaction that had completed one or
      more steps exposed intermediate results, so physical undo is unsound
      (§3.4); recovery reports it as {e pending compensation}, carrying the
      work area its last end-of-step record holds.  The ACC runtime
      re-executes the programmer-supplied compensating step from that area.

    Every end-of-step record belongs to a forward step: a compensating step
    logs none, and its [Abort] record is its commit point.  Compensation-log
    records ([Write] with [undo = true]) are replayed like ordinary writes.
    The ones that reverse the forward tail of an uncompleted step are never
    undone — recovery is correct even when the crash interrupts a physical
    rollback that was itself in progress.  The ones a {e logical
    compensating step} logged stand only if its [Abort] is durable;
    otherwise they are physically rewound like any partial step's writes and
    the transaction is reported pending, so the replayed compensating step
    restarts from a clean post-last-step state. *)

type pending = {
  p_txn : int;
  p_txn_type : string;
  p_completed_steps : int;
  p_area : (string * Acc_relation.Value.t) list;
}

type in_doubt = {
  i_txn : int;
  i_txn_type : string;
  i_completed_steps : int;
  i_area : (string * Acc_relation.Value.t) list;
  i_gid : int;  (** the global transaction whose coordinator decides *)
}
(** A participant branch whose [Prepare] vote is durable but whose outcome
    is not: recovery must consult the coordinator's decision log — commit
    the branch if a commit decision is found, compensate it otherwise
    (presumed abort). *)

type report = {
  db : Acc_relation.Database.t;  (** the recovered state *)
  pending : pending list;  (** transactions awaiting compensating steps *)
  in_doubt : in_doubt list;
      (** prepared 2PC participants awaiting their coordinator's decision *)
  committed : int list;
  physically_undone : int list;
      (** losers with no completed step: rolled back in place *)
  already_resolved : int list;
      (** transactions whose [Abort] record made the log: nothing to do *)
}

val apply_write : Acc_relation.Database.t -> Record.write -> unit
(** Replay one physical image (insert/delete/update by key). *)

val recover : baseline:Acc_relation.Database.t -> Record.t list -> report
(** [recover ~baseline records] leaves [baseline] untouched and returns the
    recovered copy. *)
