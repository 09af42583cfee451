(** Prometheus text exposition (format 0.0.4) over a {!Registry} snapshot.

    Rows group by metric name — one [# HELP]/[# TYPE] header per name, one
    sample line per label set.  Histograms expand to the cumulative [le]
    bucket series plus [_sum]/[_count], all taken from one frozen
    {!Acc_util.Metrics.Histogram.Snapshot} so the series is internally
    consistent.  The last (open-ended) bucket and the [+Inf] bound
    coincide, matching Prometheus's requirement that [_count] equals the
    [+Inf] bucket.

    There is no HTTP server here on purpose: the binaries dump to a file
    ([--metrics-dump], the engine tick's periodic hook) and anything that wants
    a [/metrics] endpoint can serve that file. *)

val to_string : ?registry:Registry.t -> unit -> string

val dump_file : ?registry:Registry.t -> string -> unit
(** Atomic-ish dump: write to [path ^ ".tmp"], then rename over [path], so a
    concurrent reader never sees a torn exposition. *)
