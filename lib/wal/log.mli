(** The append-only log.

    An in-memory stand-in for a durable log file: supports appending,
    sequential reads, and prefix extraction (for crash-injection tests that
    "lose" the unforced tail). *)

type t

type lsn = int
(** Log sequence number: the index of a record; the first record has LSN 0. *)

(** The shared on-disk header discipline: a fixed magic string followed by a
    4-byte big-endian format version.  The WAL file format uses it, and so do
    the coordinator's durable decision log and the dist transport's wire
    framing — one place to keep "unreadable file" errors actionable. *)
module Header : sig
  val size : magic:string -> int
  (** Bytes a header with this magic occupies. *)

  val to_string : magic:string -> version:int -> string
  (** The header bytes. *)

  val check :
    magic:string -> version:int -> what:string -> who:string -> path:string -> string -> unit
  (** [check ~magic ~version ~what ~who ~path s] validates the header bytes
      [s] (possibly shorter than {!size} when the file was truncated) and
      raises [Failure] with a distinct, actionable message per failure class:
      shorter than the header, bad magic, missing version, or a version this
      build does not read.  [what] names the format (e.g. ["WAL"]), [who] the
      failing operation (e.g. ["Log.load"]). *)
end

type policy =
  | Direct  (** every append goes to the log under the append mutex — the
                historical behaviour, and what {!load} rebuilds with *)
  | Buffered of { cap : int }
      (** group commit: appends land in a per-domain buffer and reach the
          log only on {!sync} (or when the buffer holds [cap] records), and
          concurrent syncing domains elect a leader that flushes every
          staged batch under one append-mutex round trip.  The durability
          contract (DESIGN.md §17): a record is durable iff the {!sync}
          covering it returned; a crash loses whole un-synced batches,
          never a synced prefix. *)

val default_cap : int
(** Default per-domain buffer capacity (64 records). *)

val create : ?policy:policy -> unit -> t
(** [policy] defaults to {!Direct}. *)

val policy : t -> policy

val append : t -> Record.t -> lsn
(** Under {!Direct}, appends and returns the record's LSN.  Under
    {!Buffered}, stages the record in the calling domain's buffer and
    returns [-1] — the record has no LSN until its batch flushes.  Either
    way the per-kind [wal.append.*] crash point trips first. *)

val sync : t -> unit
(** Make every record this domain appended durable (flush its buffer as one
    batch, possibly riding a concurrent leader's flush).
    Returns only once the batch is in the log.  No-op under {!Direct}.  The
    [wal.flush] crash point trips at the start of a non-empty sync — a crash
    there loses the whole batch. *)

val flush_all : t -> unit
(** Drain every domain's buffer.  Only meaningful on a quiesced engine (no
    in-flight appends); checkpointing uses it before reading the log. *)

val flush_count : t -> int
(** Durability round trips so far: one per append under {!Direct}, one per
    flushed batch under {!Buffered} — the "WAL flushes" the scale bench
    reports per transaction. *)

val length : t -> int
val get : t -> lsn -> Record.t
val to_list : t -> Record.t list
val iter : (lsn -> Record.t -> unit) -> t -> unit

val prefix : t -> int -> Record.t list
(** The first [n] records (all of them if [n] exceeds the length): what
    survives a crash that loses the tail. *)

val appended_since : t -> lsn -> Record.t list
(** Records with LSN >= the given one. *)

val save : t -> string -> unit
(** Serialize the log to a file: a fixed magic string and a format-version
    integer, then the records in OCaml marshal format.  Lets a crash demo or
    an operator persist and reload histories. *)

val load : string -> t
(** Inverse of {!save}.  Raises [Failure] with a distinct, actionable message
    for each failure class: not a WAL file (bad or missing magic), WAL format
    version this build does not read, or a corrupt record payload. *)

val pp : Format.formatter -> t -> unit
