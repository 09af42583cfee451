(** Quiescent checkpoints: bound the log prefix recovery must replay.

    A checkpoint is a copy of the database ([Acc_relation.Database.copy])
    plus the log position it reflects.  It must be taken at a
    {e transaction-quiescent} point (no transaction between its [Begin]
    and its final [Commit]/[Abort]) — the engine-level wrapper
    {!Acc_txn.Executor.checkpoint} enforces this.
    Recovery then starts from the snapshot and replays only the suffix; the
    result is identical to recovering the whole log from the original
    baseline (property-tested).

    Fuzzy (non-quiescent) checkpoints would need ARIES-style dirty-page and
    transaction tables; the paper's system does not describe them and the
    quiescent form is sufficient to exercise the protocol obligations
    (end-of-step records, work areas) with a truncated log. *)

type t

val take : Acc_relation.Database.t -> Log.t -> t
(** Snapshot the database and record the current end of the log.  The caller
    must guarantee quiescence; see {!Acc_txn.Executor.checkpoint}. *)

val position : t -> Log.lsn
(** First LSN that recovery from this checkpoint will replay. *)

val snapshot : t -> Acc_relation.Database.t
(** The stored snapshot (do not mutate; {!recover} copies it). *)

val recover : t -> Log.t -> Recovery.report
(** Recover using the snapshot and the records appended after it. *)

val save : t -> string -> unit
(** Persist the checkpoint (snapshot rows, index specifications, and log
    position) to a file with [Marshal].  Together with {!Log.save} this is a
    complete on-disk recovery image. *)

val load : string -> t
(** Read back a checkpoint written by {!save}, rebuilding every secondary
    and ordered index from its stored specification.  Raises [Failure] on an
    unreadable file. *)

(** Checkpoint cadence: keep the latest checkpoint and take a new one every
    [every] log records, so recovery replays a bounded suffix instead of the
    whole WAL.  The caller still guarantees quiescence at each
    [maybe_take] (drivers call it between transactions, through
    {!Acc_txn.Executor.checkpoint}'s active-transaction guard). *)
module Manager : sig
  type checkpoint = t

  type t

  val create : ?every:int -> unit -> t
  (** A manager that considers a new checkpoint due once [every] (default
      256) records have been appended past the latest one. *)

  val latest : t -> checkpoint option

  val install : t -> checkpoint -> unit
  (** Adopt an externally taken checkpoint (e.g. from
      {!Acc_txn.Executor.checkpoint}) as the latest. *)

  val maybe_take : t -> Acc_relation.Database.t -> Log.t -> bool
  (** Take and install a checkpoint if one is due; returns whether it did.
      The caller must guarantee transaction quiescence. *)

  val recover : t -> baseline:Acc_relation.Database.t -> Log.t -> Recovery.report
  (** Recover from the latest checkpoint's snapshot and the log suffix
      beyond it — or from [baseline] and the whole log if no checkpoint has
      been taken. *)
end
