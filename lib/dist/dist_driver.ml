(* The partitioned multicore TPC-C driver: N isolated partitions (each its
   own database, sharded lock table, WAL and executor) behind one
   two-phase-commit coordinator.  Single-partition transactions are routed
   straight to their home partition's engine and run exactly as on the
   single-node system; cross-partition new_orders and payments are split
   into branch programs ({!Acc_tpcc.Dist_txns}) and driven through
   prepare/decide/apply by the {!Coordinator}. *)

module Executor = Acc_txn.Executor
module Backoff = Acc_txn.Backoff
module Runtime = Acc_core.Runtime
module Engine = Acc_parallel.Engine
module Domain_pool = Acc_parallel.Domain_pool
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Prng = Acc_util.Prng
module Metrics = Acc_util.Metrics
module Tally = Acc_util.Stats.Tally
module Txns = Acc_tpcc.Txns
module Dist_txns = Acc_tpcc.Dist_txns
module Load = Acc_tpcc.Load
module Params = Acc_tpcc.Params
module Schema = Acc_tpcc.Schema
module Random_gen = Acc_tpcc.Random_gen
module Consistency = Acc_tpcc.Consistency

type config = {
  seed : int;
  domains : int;
  partitions : int;
  duration : float;  (** wall-clock seconds (when [txns_per_domain] is [None]) *)
  txns_per_domain : int option;  (** fixed-count mode, for deterministic tests *)
  think_mean : float;
  compute_between : float;
  params : Params.t;
  lock_deadline : float option;
      (** per-request lock-wait budget on every partition engine: the
          backstop against cross-coordinator blocking the per-partition
          detectors cannot see *)
  transport : Transport.kind;
      (** how the coordinator reaches its participants: in-process loopback,
          or a socketpair with each partition's request loop on its own
          domain *)
  netfault : Acc_fault.Fault.Netfault.spec;
      (** message faults injected on every coordinator↔participant stream *)
}

let default_config =
  {
    seed = 7;
    domains = 2;
    partitions = 2;
    duration = 2.0;
    txns_per_domain = None;
    think_mean = 0.0;
    compute_between = 0.0;
    params = Params.default;
    lock_deadline = Some 1.0;
    transport = `Loopback;
    netfault = Acc_fault.Fault.Netfault.none;
  }

type report = {
  transport : string;  (** ["loopback"] | ["pipe"] — the bench matrix axis *)
  committed : int;  (** single-partition + cross-partition commits *)
  single_committed : int;
  cross_committed : int;
  cross_aborted : int;  (** coordinator aborts (forced 1% + failures) *)
  compensations : int;  (** single-partition compensated runs *)
  cross_attempted : int;
  cross_fraction : float;
      (** cross-partition transactions over all attempted transactions *)
  throughput : float;
  elapsed : float;
  prepare_hold : Tally.t;  (** per-transaction prepare-window hold, seconds *)
  violations : string list;  (** of the merged database *)
  partition_committed : int list;  (** per worker domain, not per partition *)
}

(* Build the partitions: each loads its warehouse range as an exact
   projection of the unpartitioned load (same seed, same PRNG draws), so the
   merged database of a quiesced system is comparable with a single-node
   run.  The item table is replicated on every partition; the merge keeps
   partition 0's copy. *)
let make_partitions ~seed ?lock_deadline ~partitions params =
  Params.validate params;
  let ranges = Partition.ranges ~warehouses:params.Params.warehouses ~partitions in
  List.mapi
    (fun id (lo, hi) ->
      let db = Load.populate ~only:(fun w -> lo <= w && w <= hi) ~seed params in
      let engine =
        Engine.create ?lock_deadline
          ~metrics_labels:[ ("partition", string_of_int id) ]
          ~sem:Dist_txns.semantics db
      in
      (* disjoint txn-id bands make every id in the trace globally unique,
         so the span layer can attribute spans to partitions by id alone *)
      Executor.set_next_txn (Engine.executor engine) (Partition.txn_base id + 1);
      (* the partition engines carry the same lock-event instrumentation as
         the single-node driver when a trace sink is live *)
      if Acc_obs.Trace.enabled () then
        Acc_parallel.Sharded_lock_table.set_observer (Engine.locks engine)
          (Some (Acc_obs.Lock_obs.observer ()));
      (Partition.make ~id ~lo ~hi (Engine.executor engine), engine))
    ranges

let merged_db parts =
  let db = Database.create () in
  Schema.create_all db;
  List.iteri
    (fun idx part ->
      let src = Executor.db (Partition.engine part) in
      List.iter
        (fun name ->
          if name <> "item" || idx = 0 then
            Table.iter
              (fun _ row -> ignore (Table.insert (Database.table db name) (Array.copy row)))
              (Database.table src name))
        Schema.table_names)
    parts;
  db

let run cfg =
  if cfg.domains < 1 then invalid_arg "Dist_driver.run: domains must be >= 1";
  let pairs =
    make_partitions ~seed:cfg.seed ?lock_deadline:cfg.lock_deadline
      ~partitions:cfg.partitions cfg.params
  in
  let parts = Array.of_list (List.map fst pairs) in
  let engines = List.map snd pairs in
  let coord = Coordinator.create parts in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let started = Unix.gettimeofday () in
  let deadline = started +. cfg.duration in
  let stop () = cfg.txns_per_domain = None && Unix.gettimeofday () >= deadline in
  (* every cross transaction goes over the RPC transport — loopback costs
     one encode/decode round-trip per message, pipe adds the socketpair and
     the per-partition handler domain *)
  let remote =
    Coordinator.Remote.make ~stop ~transport:cfg.transport ~faults:cfg.netfault coord
  in
  let committed = Metrics.Counter.create () in
  let single_committed = Metrics.Counter.create () in
  let compensations = Metrics.Counter.create () in
  let cross_attempted = Metrics.Counter.create () in
  let attempted = Metrics.Counter.create () in
  let base_env =
    {
      (Txns.default_env ~seed:((cfg.seed * 31) + 1) cfg.params) with
      Txns.pace =
        (fun () -> if cfg.compute_between > 0.0 then Unix.sleepf cfg.compute_between);
    }
  in
  let envs =
    Array.init cfg.domains (fun _ ->
        { base_env with Txns.gen = Random_gen.split base_env.Txns.gen })
  in
  let worker i =
    let env = envs.(i) in
    let jitter = Backoff.Jitter.create ~seed:((cfg.seed * 7919) + i) () in
    let think_g = Prng.create ~seed:((cfg.seed * 1009) + i) in
    let mine = ref 0 in
    let budget = ref (match cfg.txns_per_domain with Some n -> n | None -> max_int) in
    let time_ok () = cfg.txns_per_domain <> None || Unix.gettimeofday () < deadline in
    while !budget > 0 && time_ok () do
      decr budget;
      if cfg.think_mean > 0.0 then
        Unix.sleepf (Prng.exponential think_g ~mean:cfg.think_mean);
      let input = Txns.gen_input env in
      Metrics.Counter.incr attempted;
      match Dist_txns.partitions_of_input ~part_of input with
      | [ pid ] ->
          let home = parts.(pid) in
          let outcome =
            Engine.run_txn ~jitter (fun () ->
                Txns.run_acc ~stop (Partition.engine home) env input)
          in
          (match outcome with
          | Runtime.Committed ->
              Metrics.Counter.incr committed;
              Metrics.Counter.incr single_committed;
              incr mine
          | Runtime.Compensated _ -> Metrics.Counter.incr compensations)
      | _ ->
          Metrics.Counter.incr cross_attempted;
          let branches =
            List.map
              (fun (pid, inst) -> (parts.(pid), inst))
              (Dist_txns.branches env ~part_of input)
          in
          let outcome =
            Engine.run_txn ~jitter (fun () ->
                Coordinator.Remote.run_cross remote branches)
          in
          (match outcome with
          | Coordinator.Committed ->
              Metrics.Counter.incr committed;
              incr mine
          | Coordinator.Aborted -> ())
    done;
    !mine
  in
  let per_domain = Domain_pool.run ~domains:cfg.domains worker in
  let elapsed = Unix.gettimeofday () -. started in
  Coordinator.Remote.close remote;
  List.iter Engine.shutdown engines;
  let n_attempted = Metrics.Counter.get attempted in
  let n_committed = Metrics.Counter.get committed in
  {
    transport = Transport.kind_name cfg.transport;
    committed = n_committed;
    single_committed = Metrics.Counter.get single_committed;
    cross_committed = Coordinator.cross_committed coord;
    cross_aborted = Coordinator.cross_aborted coord;
    compensations = Metrics.Counter.get compensations;
    cross_attempted = Metrics.Counter.get cross_attempted;
    cross_fraction =
      (if n_attempted > 0 then
         float_of_int (Metrics.Counter.get cross_attempted) /. float_of_int n_attempted
       else 0.0);
    throughput = (if elapsed > 0.0 then float_of_int n_committed /. elapsed else 0.0);
    elapsed;
    prepare_hold = Coordinator.prepare_hold_snapshot coord;
    violations = Consistency.check (merged_db (Array.to_list parts));
    partition_committed = per_domain;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>transport            %s@,committed            %d@,\
     throughput           %.1f txn/s@,\
     single-partition     %d committed, %d compensated@,\
     cross-partition      %d committed, %d aborted (%d attempted)@,\
     cross fraction       %.3f@,\
     prepare hold (s)     mean %.6f p95 %.6f (%d samples)@,\
     per-domain committed %s@,consistency          %s@]"
    r.transport r.committed r.throughput r.single_committed r.compensations r.cross_committed
    r.cross_aborted r.cross_attempted r.cross_fraction
    (Tally.mean r.prepare_hold)
    (Tally.percentile r.prepare_hold 0.95)
    (Tally.count r.prepare_hold)
    (String.concat ", " (List.map string_of_int r.partition_committed))
    (match r.violations with
    | [] -> "OK"
    | v -> Printf.sprintf "%d VIOLATION(S)" (List.length v))
