(** The participant half of 2PC: per-partition protocol state and the
    idempotent handlers the coordinator's RPCs hit.

    {!stage} is the same-process surrogate for shipping a branch program
    to the partition; the later [Prepare] runs it.  Handlers answer from
    per-gid tables, so the transport may duplicate or retry any frame:

    - a duplicate [Prepare] returns the cached vote without re-running
      the branch;
    - a duplicate [Decide] finds the gid already applied and re-Acks.

    Crash point (registered at module initialization):
    - ["dist.apply"] — the decision reached the participant but the
      branch dies before applying it; the WAL still says Prepare, so
      recovery reports the branch in doubt and the decision log resolves
      it, same as a decision that never arrived. *)

type t

val make : ?stop:(unit -> bool) -> Partition.t -> t
(** Wrap a partition.  [stop] is forwarded to every
    {!Acc_core.Runtime.prepare} this participant runs. *)

val partition : t -> Partition.t

val stage : t -> gid:int -> Acc_core.Program.instance -> unit
(** Hand the partition its branch of global transaction [gid]; the next
    [Prepare {gid}] runs it. *)

val forget : t -> gid:int -> unit
(** Drop a staged-but-never-prepared branch (the coordinator aborted
    before this partition's Prepare arrived). *)

val handle : t -> Transport.msg -> Transport.msg
(** The request handler to build this partition's connection from:
    [Prepare]→[Vote], [Decide]→[Ack], both idempotent.  Raises
    [Invalid_argument] on a reply-kind message; lets a simulated
    {!Acc_fault.Fault.Crash} propagate. *)

val in_doubt : t -> int list
(** Gids prepared here whose decision has not been applied, ascending. *)

val max_gid : t -> int
(** Largest gid this participant has seen in any role (0 when none) — a
    failed-over coordinator restarts its counter above every survivor. *)

val settle_gid : t -> ask:(int -> bool option) -> int -> bool
(** Resolve one in-doubt gid: [ask gid] returns [Some commit] to apply
    (emitting a [Trace.Resolve]), [None] to leave the branch blocked —
    presumed abort is the coordinator's call, never the participant's
    default.  Returns whether the gid is settled (trivially true if it
    was not in doubt). *)

val settle : t -> ask:(int -> bool option) -> int * int
(** {!settle_gid} over every in-doubt gid: [(settled, still_blocked)]. *)
