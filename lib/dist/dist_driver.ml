(* Making the partitions of a partitioned run: N isolated partitions (each
   its own database, sharded lock table, WAL and executor) over contiguous
   key ranges of a workload's partitioning capability.  The multicore driver
   ([Acc_harness.Parallel_driver]) runs them behind one two-phase-commit
   {!Coordinator}; [make_partitions] and [merged_db] are the TPC-C
   instance, for callers that drive the coordinator themselves. *)

module Executor = Acc_txn.Executor
module Engine = Acc_parallel.Engine

let build ~seed ?lock_deadline ?wal_policy ?accounting ~partitions
    (p : (_, _) Acc_workload.partitioning) =
  List.mapi
    (fun id (lo, hi) ->
      let db = p.Acc_workload.populate_range ~seed ~lo ~hi in
      let engine =
        Engine.create ?lock_deadline ?wal_policy
          ~metrics_labels:[ ("partition", string_of_int id) ]
          ~sem:p.Acc_workload.semantics db
      in
      (* disjoint txn-id bands make every id in the trace globally unique,
         so the span layer can attribute spans to partitions by id alone *)
      Executor.set_next_txn (Engine.executor engine) (Partition.txn_base id + 1);
      (* the partition engines carry the same lock-event instrumentation as
         a single engine when a trace sink is live or decisions are
         classified *)
      if accounting <> None || Acc_obs.Trace.enabled () then
        Acc_parallel.Sharded_lock_table.set_observer (Engine.locks engine)
          (Some (Acc_obs.Lock_obs.observer ?accounting ()));
      (Partition.make ~id ~lo ~hi (Engine.executor engine), engine))
    (Partition.ranges ~warehouses:p.Acc_workload.keys ~partitions)

let make_partitions ~seed ?lock_deadline ~partitions params =
  build ~seed ?lock_deadline ~partitions (Acc_tpcc.Tpcc_workload.partitioning params)

let merged_db parts =
  Acc_tpcc.Load.merge (List.map (fun part -> Executor.db (Partition.engine part)) parts)
