(** Domain-safe metrics for the multicore runtime.

    {!Stats} is deliberately single-threaded (the simulator owns it); this
    module provides the shared-memory counterparts: plain atomic counters,
    latency accumulators where each domain writes a private {!Stats.Tally}
    and readers merge on demand, and fixed-bucket log-scale histograms for
    hot-path latency recording.

    {b Read consistency contract}, shared by all three: reads taken while
    writer domains are still running are {e approximate live views} — they
    may miss in-flight updates and, for multi-cell structures (latency slots,
    histogram buckets), need not be a consistent cut across cells.  Reads
    become exact once the writing domains have quiesced (joined, or provably
    stopped recording).  Benchmarks must therefore join workers before
    reading, and implement warmup by {e gating recording at the source} (only
    record after the warmup deadline) rather than resetting shared state
    mid-run. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit

  val get : t -> int
  (** Approximate while writers run; exact after they quiesce. *)

  val reset : t -> unit
  (** Plain store of 0.  {b Not atomic with a preceding {!get}}: increments
      landing between the [get] and the [reset] are lost (torn).  For
      read-and-zero semantics — e.g. discarding warmup counts — use
      {!drain}. *)

  val drain : t -> int
  (** Atomically read the current value and zero the counter (a single
      exchange, so no concurrent increment is ever lost — it lands either in
      the returned value or in the fresh epoch). *)
end

module Gauge : sig
  type t
  (** A last-value float cell any domain may set or read (e.g. the engine tick's
      sampled queue depth and oldest-waiter age).  [set] boxes the float, so
      use gauges on sampling cadences, not per-operation hot paths. *)

  val create : unit -> t
  (** Starts at [0.]. *)

  val set : t -> float -> unit
  val get : t -> float
end

module Latency : sig
  type t

  type slot
  (** A single domain's private accumulator.  {!record} on a slot is
      wait-free and must only be called from the domain that obtained it. *)

  val create : unit -> t

  val slot : t -> slot
  (** Register (lock-free) a fresh per-domain accumulator. *)

  val record : slot -> float -> unit

  val merged : t -> Stats.Tally.t
  (** Fold of {!Stats.Tally.merge} over every registered slot — an
      {e approximate live view} while writers run (see the module contract):
      samples being recorded concurrently may be missed, and different slots
      are read at different moments. *)

  val snapshot : t -> Stats.Tally.t
  (** Same fold as {!merged}, under its exact-after-join reading: call only
      after the recording domains have joined, at which point the result is
      the complete, exact sample set.  The two names exist so call sites
      document which contract they rely on. *)

  val count : t -> int
end

module Histogram : sig
  type t
  (** Fixed log-scale buckets: bucket [i] spans [(base·2{^i-1}, base·2{^i}]],
      bucket 0 is [[0, base]], the last bucket is open-ended.  {!record} is
      two atomic adds — no allocation, no lock — so any domain may record
      into a shared histogram; the trade against {!Latency} is bounded memory
      and O(1) hot path for ~2× worst-case relative quantile error (one
      bucket width). *)

  val base : float
  (** [1e-6], the upper bound of bucket 0 — with seconds as the unit,
      bucket 0 is "at most 1µs". *)

  val buckets : int
  (** 48 — an upper span of 1µs·2{^47} ≈ 1.6 days. *)

  val create : unit -> t

  val record : t -> float -> unit
  (** Negative and NaN samples are clamped to 0 (they land in bucket 0).
      Three separate atomic adds (bucket, total, sum), so a concurrent reader
      may observe them in any combination — which is why every derived read
      below goes through {!snapshot}. *)

  val count : t -> int
  val total : t -> float

  (** A frozen single-pass view of the buckets.  All derived statistics are
      computed against the snapshot's own bucket counts (its count is the sum
      of those counts, never the live total cell), so a percentile walk can
      never run past the end of the array or stop short because a concurrent
      {!record} landed one of its three atomic adds but not the others.
      Snapshots of a live histogram remain {e approximate} in the sense of
      the module contract (they may miss in-flight samples); they are merely
      always internally consistent. *)
  module Snapshot : sig
    type t = { base : float; counts : int array; sum : float }

    val count : t -> int
    val sum : t -> float
    val mean : t -> float
    val buckets : t -> int

    val bounds : t -> int -> float * float
    (** [(lo, hi]] of bucket [i]; bucket 0 starts at 0. *)

    val percentile : t -> float -> float

    val nonzero : t -> (float * int) list
    (** [(upper_bound, count)] for each non-empty bucket, ascending. *)

    val cumulative : t -> (float * int) list
    (** [(upper_bound, cumulative_count)] for {e every} bucket, ascending —
        the Prometheus [le] series.  The final (open-ended) bucket's upper
        bound is [infinity]. *)

    val merge : t -> t -> t
    (** Pointwise sum.  Commutative and associative, so merging per-domain
        snapshots is order-independent.  Raises [Invalid_argument] if the
        bases or bucket counts differ. *)
  end

  val snapshot : t -> Snapshot.t

  val mean : t -> float
  (** [Snapshot.mean] of a fresh snapshot. *)

  val percentile : t -> float -> float
  (** [percentile t 0.95] snapshots the buckets once, then walks the
      cumulative counts and interpolates linearly inside the bucket
      containing the rank; [nan] when empty.  Approximate while writers run
      (module contract), and approximate in value to within the winning
      bucket's width. *)

  val nonzero_buckets : t -> (float * int) list
  (** [(upper_bound, count)] for each non-empty bucket, ascending. *)
end
