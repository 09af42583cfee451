(** RPC transport between the 2PC coordinator and its participants.

    Wire messages are length-prefixed frames behind the same magic+version
    header discipline as the WAL ({!Acc_wal.Log.Header}): an incompatible
    build is rejected before a single payload byte is interpreted.

    Two implementations share one {!call} interface:

    - {!loopback} runs the handler synchronously in the caller — frames
      still round-trip through {!encode}/{!decode}, and no wall clock is
      consulted, so the crash/chaos harness stays deterministic (a
      "timeout" is a reply the fault layer did not deliver);
    - {!pipe} is a [Unix.socketpair] with the partition's request loop on
      a dedicated domain; {!call} [select]s for the matching reply until
      its deadline.

    The injectable fault layer ({!Acc_fault.Fault.Netfault}) sits on the
    send side of both directions with independent PRNG streams, may drop,
    duplicate, delay, reorder or flap each frame, and emits a
    [Trace.Net_fault] event per injection.  Held-back frames are released
    by later sends — retries flush the network — never by a timer. *)

type msg =
  | Prepare of { gid : int; part : int }
      (** run the staged branch for [gid]; answer {!Vote} *)
  | Vote of { gid : int; ok : bool }
  | Decide of { gid : int; commit : bool }  (** apply the decision; answer {!Ack} *)
  | Ack of { gid : int }
  | Resolve of { gid : int }
      (** participant → coordinator: what happened to [gid]?  Answered
          with a {!Decide} (presumed abort when the log has no entry). *)

val msg_kind : msg -> string
(** ["prepare"] / ["vote"] / ["decide"] / ["ack"] / ["resolve"] — the [ops]
    vocabulary of {!Acc_fault.Fault.Netfault.spec}. *)

val gid_of : msg -> int

(** {1 Framing} *)

type frame = { seq : int; msg : msg }
(** [seq] is the per-connection call number; replies echo the request's
    [seq], which is how a caller tells its reply from a stale duplicate. *)

val magic : string
val version : int

val encode : frame -> string

val decode : string -> frame
(** Raises [Failure] (with the {!Acc_wal.Log.Header.check} message
    vocabulary) on a short, foreign, or version-mismatched frame. *)

(** {1 Connections} *)

type kind = [ `Loopback | `Pipe ]

val kind_name : kind -> string
val kind_of_string : string -> kind
(** Raises [Invalid_argument] on anything but ["loopback"] / ["pipe"]. *)

type t

val loopback : ?faults:Acc_fault.Fault.Netfault.spec -> (msg -> msg) -> t
(** Synchronous in-process connection.  A handler exception (notably a
    simulated {!Acc_fault.Fault.Crash}) propagates to the caller of
    {!call}. *)

val pipe : ?faults:Acc_fault.Fault.Netfault.spec -> (msg -> msg) -> t
(** Socketpair connection with the handler loop on a dedicated domain.  A
    handler exception drops the request — the caller times out and
    retries, which is how a remote participant death looks from here.  A
    simulated {!Acc_fault.Fault.Crash} drops it silently; any other
    exception also writes one stderr line naming the request kind and the
    exception. *)

val kind : t -> kind

val call : ?deadline:float -> t -> msg -> msg option
(** One RPC: send the request, wait for the reply with the matching
    sequence number.  [None] is a timeout — on loopback, a reply the fault
    layer withheld; on pipe, [deadline] seconds (default 1.0) elapsing.
    Calls on one connection are serialized by an internal mutex. *)

val close : t -> unit
(** Close the connection (joins the pipe's handler domain).  Subsequent
    {!call}s return [None]. *)
