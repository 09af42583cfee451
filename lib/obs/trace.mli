(** Structured, low-overhead event tracing for the whole runtime.

    A {e sink} is a set of per-domain ring buffers.  Each domain writes its
    own buffer — wait-free, no locks, no contention — so emission is safe
    from worker domains, an engine's background domain and the simulator
    alike.  A full ring overwrites its oldest events (drop-oldest) and
    counts the drops, so tracing a long run can never block or OOM the
    system under test.

    {b Disabled path}: with no sink installed, {!enabled} is one atomic load.
    Emission sites must guard event construction:
    {[ if Trace.enabled () then Trace.emit (Trace.Lock_release { ... }) ]}
    so the disabled path allocates nothing — that guard is the whole ≤2%
    overhead budget of DESIGN.md's Observability section.

    {b Draining}: {!drain}/{!stop} fold every per-domain buffer into one
    timestamp-ordered dump.  Counts are exact once the emitting domains have
    quiesced (joined); a live drain is an approximate snapshot, same
    contract as {!Acc_util.Metrics.Latency}. *)

module Mode := Acc_lock.Mode
module Resource_id := Acc_lock.Resource_id

type event =
  | Txn_begin of { txn : int; txn_type : string }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; compensated : bool }
  | Step_begin of { txn : int; step_type : int; step_index : int }
  | Step_end of { txn : int; step_index : int }
  | Comp_run of { txn : int; step_type : int; from_step : int }
      (** a compensating step starting to run (§3.4), undoing [from_step - 1]
          completed steps *)
  | Lock_request of { txn : int; step_type : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_grant of {
      txn : int;
      step_type : int;
      mode : Mode.t;
      resource : Resource_id.t;
      past_2pl : int;  (** foreign holds a strict-2PL system would have blocked on *)
      reentrant : bool;
    }
  | Lock_block of {
      txn : int;
      step_type : int;
      mode : Mode.t;
      resource : Resource_id.t;
      blocker_txn : int;
      blocker_mode : Mode.t;
      blocker_waiting : bool;
      assertion : int option;
      interfering_step : int option;
    }
  | Lock_wake of { txn : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_release of { txn : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_attach of { txn : int; step_type : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_cancel of { txn : int; resource : Resource_id.t }
  | Assertion_check of {
      txn : int;
      assertion : int;
      interfering_step : int;
      passed : bool;
    }  (** one interference-oracle consultation (§3.3's table lookup) *)
  | Deadlock_cycle of { cycle : int list }
  | Victim of { txn : int; spared_compensating : bool }
      (** [spared_compensating]: this victim was chosen {e instead of} a
          compensating requester the §3.4 policy protected *)
  | Wal_append of { txn : int; lsn : int; kind : string; dur : float }
      (** [dur]: seconds the append spent inside {!Acc_wal.Log.append}
          (measured only while tracing is enabled; the span layer charges it
          to the [wal_append] phase) *)
  | Wal_flush of { records : int }
  | Timed_out of { txn : int; mode : Acc_lock.Mode.t; resource : Acc_lock.Resource_id.t; waited : float }
      (** a lock wait withdrawn because its deadline expired; [waited] is the
          seconds spent queued *)
  | Shed of { inflight : int; reason : string }
      (** an admission refused by the overload gate ([reason]: ["capacity"]
          for the in-flight cap, ["watermark"] for the abort-rate shedder,
          ["degraded"] while degraded mode is on) *)
  | Degraded of { on : bool; oldest_wait : float }
      (** the engine's tick tripped (or cleared) degraded mode; [oldest_wait] is
          the oldest-waiter age that triggered the transition *)
  | Prepare of { txn : int; gid : int }
      (** a 2PC participant branch voted yes for global transaction [gid];
          the branch is in doubt until the matching [Decide]/[Resolve] *)
  | Decide of { gid : int; commit : bool; participants : int }
      (** the coordinator's decision for [gid] is durable *)
  | Resolve of { txn : int; gid : int; commit : bool }
      (** recovery resolved an in-doubt participant branch from the
          coordinator's decision log (presumed abort when no decision) *)
  | Net_fault of { kind : string; msg : string }
      (** the transport's fault layer injected [kind] (drop / dup / delay /
          reorder / disconnect) on a wire message of kind [msg] *)
  | Rpc_retry of { msg : string; gid : int; attempt : int }
      (** a coordinator RPC timed out and is being re-sent ([attempt] counts
          from 1); participant handlers are idempotent, so the duplicate the
          retry may produce is safe *)

val event_name : event -> string
(** The wire name (the ["ev"] field of the JSONL encoding). *)

val all_event_names : string list
(** Every constructor's wire name (taxonomy surface, used by the round-trip
    tests and [trace_check]). *)

(** {1 The global sink} *)

val enabled : unit -> bool

val start : ?capacity:int -> unit -> unit
(** Install a fresh sink (replacing any previous one) with [capacity] events
    per domain (default 65536). *)

val emit : event -> unit
(** Record an event with the current wall-clock timestamp on the calling
    domain's ring.  No-op when disabled, but callers should guard with
    {!enabled} to avoid constructing the event at all. *)

type entry = { ts : float; dom : int; seq : int; ev : event }
(** [ts] is seconds since the sink was started; [seq] is the per-domain
    emission index (contiguous 0.. within a domain, including dropped). *)

type dump = { events : entry list; emitted : int; dropped : int }
(** [events] is timestamp-ordered; [emitted = List.length events + dropped]. *)

val drain : unit -> dump
(** Snapshot the current sink's buffers (empty dump when disabled). *)

val stop : unit -> dump
(** Disable tracing and return the final dump. *)

(** {1 Encodings} *)

val to_json : entry -> Json.t
(** The JSONL line object: [{"ts":…,"dom":…,"seq":…,"ev":…,…}]. *)

val write_jsonl : out_channel -> dump -> unit
(** One event per line, terminated by a
    [{"ev":"trace_summary","events":…,"dropped":…}] line that lets a
    consumer verify completeness. *)

val write_chrome : out_channel -> dump -> unit
(** The Chrome [chrome://tracing] / Perfetto JSON array format: steps and
    transactions as duration (B/E) events per domain track, everything else
    as instant events. *)
