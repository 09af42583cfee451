(** The experiment driver: a closed queueing network of terminals against one
    database, mirroring the paper's §5.2 setup.

    Each terminal thinks (exponential think time), draws a transaction from
    the configured workload plugin, and submits it to the engine; every
    engine work unit occupies one server of the pool (the 1–4 "database
    server processes"), and lock waits suspend the terminal without
    occupying a server.  The two systems under test share everything except
    the concurrency control:

    - {!Baseline}: the workload's strict-2PL comparator
      ([run_flat]; for TPC-C every transaction runs flat to
      commit, the unmodified system).
    - {!Acc}: the workload's decomposed programs under the ACC runtime
      ([run_acc]).

    Terminals stop issuing work at the horizon and the simulation drains to
    quiescence, where the workload's consistency check runs — semantic
    correctness made operational. *)

type system = Baseline | Acc

type config = {
  seed : int;
  system : system;
  terminals : int;
  servers : int;
  horizon : float;  (** stop issuing new transactions after this sim time *)
  warmup : float;  (** responses before this time are not recorded *)
  think_mean : float;
  compute_between : float;  (** client compute between successive statements *)
  cpu_per_unit : float;  (** server CPU seconds per engine work unit *)
  acc_options : Acc_core.Runtime.options;
      (** runtime options for the ACC side (retry budget, assertion
          granularity — set [Table] for the two-level ablation of §3.2) *)
  acc_semantics : Acc_lock.Mode.semantics option;
      (** override the interference oracle for the ACC side (e.g. tables
          built without the hand-proved commutativity facts); [None] uses
          the workload's own semantics *)
  workload : Acc_workload.t;
      (** what the terminals run: any {!Acc_workload.S} plugin *)
}

val default_config : config
(** 3 servers, 10 terminals, no added compute time, TPC-C at
    {!Acc_tpcc.Tpcc_workload.make}'s defaults (standard mix, no skew). *)

type report = {
  completed : int;  (** transactions finished inside the horizon *)
  response : Acc_util.Stats.Tally.t;  (** response times after warmup *)
  lock_wait : Acc_util.Stats.Tally.t;
      (** time spent parked on locks, one observation per wait: the paper's
          bottleneck variable, measured directly *)
  per_type : (string * Acc_util.Stats.Tally.t) list;
  throughput : float;  (** completed per sim second of measured window *)
  victims : int;  (** deadlock victims, what the engine stats call [lock.victims] *)
  forced_aborts : int;  (** the 1% new-order rule *)
  compensations : int;
  cpu_utilization : float;
  quiesced_at : float;
  violations : string list;  (** consistency breaches at quiescence (must be []) *)
}

val run : config -> report

val mean_response : report -> float
