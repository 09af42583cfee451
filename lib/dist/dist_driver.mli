(** Partitioned multicore TPC-C driver: N isolated partitions behind a
    two-phase-commit {!Coordinator}.  Single-partition transactions run
    unchanged on their home engine; cross-partition new_order/payment run as
    branch programs under 2PC, with compensation replay as the abort path. *)

type config = {
  seed : int;
  domains : int;
  partitions : int;
  duration : float;
  txns_per_domain : int option;
  think_mean : float;
  compute_between : float;
  params : Acc_tpcc.Params.t;
  lock_deadline : float option;
      (** per-request lock-wait budget on every partition engine: the
          backstop against cross-coordinator blocking that per-partition
          deadlock detectors cannot see *)
  transport : Transport.kind;
      (** how the coordinator reaches its participants (default loopback);
          [`Pipe] serializes each partition's requests through a handler
          domain, so lock waits inside a prepare delay that partition's
          other requests — the lock deadline is the liveness backstop *)
  netfault : Acc_fault.Fault.Netfault.spec;
      (** message faults injected on every coordinator↔participant stream
          (default none) *)
}

val default_config : config

type report = {
  transport : string;
  committed : int;
  single_committed : int;
  cross_committed : int;
  cross_aborted : int;
  compensations : int;
  cross_attempted : int;
  cross_fraction : float;
  throughput : float;
  elapsed : float;
  prepare_hold : Acc_util.Stats.Tally.t;
  violations : string list;  (** of the merged database *)
  partition_committed : int list;
}

val make_partitions :
  seed:int ->
  ?lock_deadline:float ->
  partitions:int ->
  Acc_tpcc.Params.t ->
  (Partition.t * Acc_parallel.Engine.t) list
(** Load each partition's warehouse range as an exact projection of the
    unpartitioned load and wrap it in its own parallel engine.  Callers own
    the engines ({!Acc_parallel.Engine.shutdown}). *)

val merged_db : Partition.t list -> Acc_relation.Database.t
(** Union of the partitions' databases (item table taken from the first
    partition only) — the view the consistency conditions are checked
    against: C1/C8 and C12 span partitions and do not hold of any single
    partition's database. *)

val run : config -> report
val pp_report : Format.formatter -> report -> unit
