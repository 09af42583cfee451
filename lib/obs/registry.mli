(** A process-wide metric registry.

    Every counter, gauge and histogram in the system registers here under a
    stable Prometheus-style name so one {!snapshot} sees them all — the
    {!Prom} exposition, the watchdog's periodic dump hook and the binaries'
    [--metrics-dump] all read from it.  An engine counter is named once,
    dotted ([lock.victims]), and {!prom_name} derives its series name
    ([acc_lock_victims_total]); DESIGN.md §16 has the naming scheme.

    The registry holds {e references}; the hot paths remain the metrics' own
    lock-free operations.  Registration is construction-time and snapshots
    are sampling-path, so a mutex guards the table.  Registering an existing
    [(name, labels)] pair {e replaces} it — per-run metrics re-register on
    every engine construction and the live run wins. *)

module Metrics := Acc_util.Metrics

type value =
  | Counter of Metrics.Counter.t
  | Gauge of Metrics.Gauge.t
  | Histogram of Metrics.Histogram.t
  | Poll_counter of (unit -> int)
      (** adapts pre-registry counters (raw [Atomic.t]s, accounting arrays)
          without refactoring their owners; sampled at snapshot time *)
  | Poll_gauge of (unit -> float)

type t

val create : unit -> t

val default : t
(** The process-wide registry everything registers into by default. *)

val register :
  ?registry:t -> ?help:string -> ?labels:(string * string) list -> string -> value -> unit
(** [register name value].  Raises [Invalid_argument] on a name outside
    [[a-zA-Z_:][a-zA-Z0-9_:]*] or a label name outside
    [[a-zA-Z_][a-zA-Z0-9_]*].  Labels are stored sorted by key. *)

val clear : ?registry:t -> unit -> unit

(** {1 Snapshots} *)

type sample =
  | S_counter of int
  | S_gauge of float
  | S_histogram of Metrics.Histogram.Snapshot.t

val sample_of : value -> sample
(** Read a value now; a poller runs on the calling domain. *)

val combine : sample -> sample -> sample
(** One quantity from two sources (two partitions' engines): counters sum,
    gauges take the larger, histogram snapshots merge.  Raises
    [Invalid_argument] on samples of different kinds. *)

val sample_json : sample -> Json.t
(** A counter as an int, a gauge as a float, a histogram as
    [{count, sum, p50, p95, p99}]. *)

val prom_name : string -> sample -> string
(** The series name of a dotted stat name: prefix [acc_], dots to
    underscores, a trailing [_s] to [_seconds], and [_total] on a counter —
    [prom_name "lock.wait_s"] of a histogram is [acc_lock_wait_seconds]. *)

type row = {
  r_name : string;
  r_help : string;
  r_labels : (string * string) list;
  r_sample : sample;
}

val snapshot : ?registry:t -> unit -> row list
(** Sample every registered metric, sorted by [(name, labels)].  Histogram
    rows carry internally-consistent {!Metrics.Histogram.Snapshot}s.
    Pollers run outside the registry lock. *)

val size : ?registry:t -> unit -> int
