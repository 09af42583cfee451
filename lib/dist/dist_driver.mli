(** Building the partitions of a partitioned run: one parallel engine per
    contiguous key range of a workload's partitioning capability.  The
    multicore driver ([Acc_harness.Parallel_driver] with [partitions > 1])
    runs them behind one two-phase-commit {!Coordinator}. *)

val build :
  seed:int ->
  ?lock_deadline:float ->
  ?wal_policy:Acc_wal.Log.policy ->
  ?accounting:Acc_obs.Conflict_accounting.t ->
  partitions:int ->
  ('env, 'input) Acc_workload.partitioning ->
  (Partition.t * Acc_parallel.Engine.t) list
(** Load each partition's key range with the capability's [populate_range]
    and wrap it in its own engine, labelled [partition="id"] in the metrics
    registry and counting txn ids from {!Partition.txn_base}.  A lock
    observer ({!Acc_obs.Lock_obs}, classifying into [accounting] when given)
    is installed when [accounting] is given or a trace sink is live.
    Callers own the engines ({!Acc_parallel.Engine.shutdown}).  Raises
    [Invalid_argument] if there are fewer keys than partitions. *)

val make_partitions :
  seed:int ->
  ?lock_deadline:float ->
  partitions:int ->
  Acc_tpcc.Params.t ->
  (Partition.t * Acc_parallel.Engine.t) list
(** {!build} over TPC-C's capability ({!Acc_tpcc.Tpcc_workload.partitioning}):
    each partition's warehouse range is an exact projection of the
    unpartitioned load. *)

val merged_db : Partition.t list -> Acc_relation.Database.t
(** {!Acc_tpcc.Load.merge} of the partitions' databases — the view the TPC-C
    consistency conditions are checked against: C1/C8 and C12 span
    partitions and do not hold of any single partition's database. *)
