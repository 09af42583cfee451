(* The multicore driver: real domains against the in-memory engine,
   wall-clock time, no simulator.  Counterpart of the simulated {!Driver}:
   it runs the same workload plugins, TPC-C by default. *)

module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Backoff = Acc_txn.Backoff
module Runtime = Acc_core.Runtime
module Engine = Acc_parallel.Engine
module Watchdog = Acc_parallel.Watchdog
module Domain_pool = Acc_parallel.Domain_pool
module Sharded_lock_table = Acc_parallel.Sharded_lock_table
module Mode = Acc_lock.Mode
module Prng = Acc_util.Prng
module Metrics = Acc_util.Metrics
module Tally = Acc_util.Stats.Tally
module Trace = Acc_obs.Trace
module Conflict_accounting = Acc_obs.Conflict_accounting
module Lock_obs = Acc_obs.Lock_obs

type system = Baseline | Acc

type config = {
  seed : int;
  system : system;
  domains : int;
  duration : float;  (** wall-clock seconds (when [txns_per_domain] is [None]) *)
  txns_per_domain : int option;  (** fixed-count mode, for deterministic tests *)
  think_mean : float;  (** mean exponential pause between transactions, seconds *)
  compute_between : float;
      (** pause at each intra-transaction pace point, seconds: models client
          compute while locks are held — the regime the paper targets *)
  warmup : float;
      (** duration-mode only: outcomes and latencies are recorded only after
          this many seconds.  Gating at the source is what keeps the shared
          counters tear-free (see the {!Acc_util.Metrics} contract) — there is
          no mid-run reset. *)
  accounting : bool;  (** classify every lock decision ({!Conflict_accounting}) *)
  lock_deadline : float option;
      (** per-request lock-wait budget, seconds ([None] disables timeouts) *)
  max_inflight : int option;
      (** admission cap on concurrently running multi-step transactions *)
  shed_watermark : float option;
      (** abort rate (victims + timeouts per second) above which admissions
          shed *)
  group_commit : bool;
      (** group commit: WAL appends buffer per domain
          ({!Acc_wal.Log.default_cap} records) and concurrent syncs merge
          into leader-flushed batches; off, every append is its own flush *)
  workload : Acc_workload.t;  (** what the workers run: any {!Acc_workload.S} plugin *)
}

let default_config =
  {
    seed = 7;
    system = Baseline;
    domains = 2;
    duration = 2.0;
    txns_per_domain = None;
    think_mean = 0.0;
    compute_between = 0.0;
    warmup = 0.0;
    accounting = false;
    lock_deadline = None;
    max_inflight = None;
    shed_watermark = None;
    group_commit = false;
    workload = Tpcc_workload.make ();
  }

type report = {
  committed : int;
  forced_aborts : int;
  compensations : int;
  detector_victims : int;
  detector_sweeps : int;
  response : Tally.t;
  elapsed : float;  (** whole run, warmup included *)
  measured : float;  (** the recording window: [elapsed - warmup], clamped *)
  throughput : float;  (** committed transactions per second of [measured] *)
  per_domain_committed : int list;
  violations : string list;
  leaked_locks : int;
  leaked_waiters : int;
  step_hist : (int * Metrics.Histogram.t) list;
      (** per-step-type latency histograms (step type, histogram), non-empty
          buckets only; empty for the flat baseline, which has no steps *)
  conflicts : Conflict_accounting.row list;
      (** lock-decision classification per step type; empty unless
          [cfg.accounting] *)
  lock_timeouts : int;  (** lock waits expired by the watchdog *)
  shed : int;  (** admissions refused by the overload gate *)
  degraded_runs : int;
      (** transactions executed on the fully isolated legacy path because
          degraded mode was on at admission time *)
  degraded_trips : int;  (** watchdog degraded-mode trips *)
  lock_wait_p99 : float;
      (** 99th-percentile completed blocking lock wait, seconds ([nan] when
          no wait ever blocked) *)
  lock_wait_count : int;
  peak_queue_depth : int;  (** largest waiter count the watchdog sampled *)
  peak_oldest_wait : float;  (** largest oldest-waiter age it sampled, seconds *)
  mutex_acquisitions : int;
      (** explicit shard-mutex acquisitions in the lock manager over the whole
          run — the contention-side quantity the lock-free fast path
          avoids *)
  fast_path_attempts : int;
      (** lock requests that probed the lock-free fast path *)
  fast_path_hits : int;
      (** fast-path probes that granted without touching a shard mutex *)
  wal_flushes : int;
      (** WAL durability round trips: one per append with a direct WAL, one
          per flushed batch under group commit *)
  gc_minor_words : float;
      (** words allocated on the minor heaps per committed transaction over
          the recording window, every domain counted *)
  gc_promoted_words : float;
      (** words promoted to the major heap per committed transaction *)
  gc_minor_collections : float;  (** minor collections per committed transaction *)
  workload_name : string;
  step_label : int -> string;
      (** render a step-type id in this run's workload ("txn.step") *)
  step_txn_type : int -> string option;
      (** the owning transaction type of a step-type id, if declared *)
  extras : (string * float) list;
      (** workload-specific counters (e.g. the long-reader workload's shadow
          predicate-lock statistics) *)
}

(* Aggregate per-step-type conflict rows up to transaction types.  Steps of
   undeclared type (the flat baseline's legacy step 0, overflow) land under
   "(flat)". *)
let conflicts_by_txn_type_with ~step_txn_type conflicts =
  let open Conflict_accounting in
  let name_of row =
    match step_txn_type row.r_step_type with Some t -> t | None -> "(flat)"
  in
  let names = List.sort_uniq String.compare (List.map name_of conflicts) in
  List.map
    (fun name ->
      let agg =
        List.fold_left
          (fun a row ->
            if name_of row <> name then a
            else
              {
                a with
                r_granted_clean = a.r_granted_clean + row.r_granted_clean;
                r_passed_2pl = a.r_passed_2pl + row.r_passed_2pl;
                r_blocked_conv = a.r_blocked_conv + row.r_blocked_conv;
                r_blocked_assert = a.r_blocked_assert + row.r_blocked_assert;
              })
          {
            r_step_type = -1;
            r_granted_clean = 0;
            r_passed_2pl = 0;
            r_blocked_conv = 0;
            r_blocked_assert = 0;
          }
          conflicts
      in
      (name, agg))
    names

let run cfg =
  if cfg.domains < 1 then invalid_arg "Parallel_driver.run: domains must be >= 1";
  let module W = (val cfg.workload : Acc_workload.S) in
  W.reset_global ();
  let step_info = Acc_workload.Step_info.of_workload W.workload in
  let db = W.populate ~seed:cfg.seed in
  let sem =
    match cfg.system with Baseline -> Mode.no_semantics | Acc -> W.semantics
  in
  let engine =
    Engine.create ?lock_deadline:cfg.lock_deadline ?max_inflight:cfg.max_inflight
      ?shed_watermark:cfg.shed_watermark
      ~wal_policy:
        (if cfg.group_commit then Acc_wal.Log.Buffered { cap = Acc_wal.Log.default_cap }
         else Acc_wal.Log.Direct)
      ~sem db
  in
  let eng = Engine.executor engine in
  let max_step_id = step_info.Acc_workload.Step_info.max_step_id in
  let hists = Array.init (max_step_id + 1) (fun _ -> Metrics.Histogram.create ()) in
  let accounting =
    if cfg.accounting then Some (Conflict_accounting.create ()) else None
  in
  if cfg.accounting || Trace.enabled () then
    Sharded_lock_table.set_observer (Engine.locks engine)
      (Some (Lock_obs.observer ?accounting ()));
  (match accounting with
  | None -> ()
  | Some acct ->
      (* the four 2PL-comparison classes, as registry poll-counters over the
         accounting table's atomics *)
      List.iter
        (fun (name, help, get) ->
          Acc_obs.Registry.register ~help name
            (Acc_obs.Registry.Poll_counter
               (fun () -> get (Conflict_accounting.totals acct))))
        [
          ( "acc_conflict_granted_clean_total",
            "grants strict 2PL would also have made",
            fun (r : Conflict_accounting.row) -> r.Conflict_accounting.r_granted_clean );
          ( "acc_conflict_passed_2pl_total",
            "grants a strict-2PL system would have blocked",
            fun r -> r.Conflict_accounting.r_passed_2pl );
          ( "acc_conflict_blocked_conventional_total",
            "blocks from conventional mode incompatibility",
            fun r -> r.Conflict_accounting.r_blocked_conv );
          ( "acc_conflict_blocked_assertional_total",
            "blocks from interference-table hits (true conflicts)",
            fun r -> r.Conflict_accounting.r_blocked_assert );
        ]);
  let committed = Metrics.Counter.create () in
  let forced_aborts = Metrics.Counter.create () in
  let compensations = Metrics.Counter.create () in
  let degraded_runs = Metrics.Counter.create () in
  let response = Metrics.Latency.create () in
  let reg ?help name v = Acc_obs.Registry.register ?help name v in
  reg "acc_driver_committed_total" ~help:"transactions committed by the driver"
    (Acc_obs.Registry.Counter committed);
  reg "acc_driver_forced_aborts_total" ~help:"forced 1% abort-rule aborts"
    (Acc_obs.Registry.Counter forced_aborts);
  reg "acc_driver_compensations_total" ~help:"compensated (logically undone) runs"
    (Acc_obs.Registry.Counter compensations);
  reg "acc_driver_degraded_runs_total" ~help:"transactions run on the degraded fallback path"
    (Acc_obs.Registry.Counter degraded_runs);
  (* split the generator on this domain, before spawning: the PRNG is not
     thread-safe, and splitting up front makes each worker's stream a pure
     function of (seed, worker index) regardless of domain interleaving *)
  let base_env =
    W.make_env
      ~pace:(fun () -> if cfg.compute_between > 0.0 then Unix.sleepf cfg.compute_between)
      ~seed:((cfg.seed * 31) + 1) ()
  in
  let envs = Array.init cfg.domains (fun _ -> W.split_env base_env) in
  let started = Unix.gettimeofday () in
  let deadline = started +. cfg.duration in
  (* warmup applies to duration mode only; fixed-count runs record everything *)
  let record_after =
    started +. (if cfg.txns_per_domain = None then Float.max 0.0 cfg.warmup else 0.0)
  in
  (* GC counters at the start of the recording window: taken here without a
     warmup, else by the first worker past it ([Gc.quick_stat] counts every
     domain, the others as of their last minor collection) *)
  let gc_start = Atomic.make None in
  let mark_gc_start () =
    if Atomic.get gc_start = None then
      ignore (Atomic.compare_and_set gc_start None (Some (Gc.quick_stat ())))
  in
  let recording =
    if record_after <= started then begin
      mark_gc_start ();
      fun () -> true
    end
    else fun () ->
      let on = Unix.gettimeofday () >= record_after in
      if on then mark_gc_start ();
      on
  in
  Executor.set_clock eng Unix.gettimeofday;
  Executor.set_on_step_end eng (fun ~step_type ~dur ->
      if step_type >= 0 && step_type < Array.length hists && recording () then
        Metrics.Histogram.record hists.(step_type) dur);
  let worker i =
    let env = envs.(i) in
    let jitter = Backoff.Jitter.create ~seed:((cfg.seed * 7919) + i) () in
    let think_g = Prng.create ~seed:((cfg.seed * 1009) + i) in
    let slot = Metrics.Latency.slot response in
    let mine = ref 0 in
    let budget = ref (match cfg.txns_per_domain with Some n -> n | None -> max_int) in
    let time_ok () =
      cfg.txns_per_domain <> None || Unix.gettimeofday () < deadline
    in
    let continue () = !budget > 0 && time_ok () in
    (* duration mode only: once the deadline passes, in-flight transactions
       stop issuing new steps and compensate out instead of running to
       completion — drain time is bounded by one step, not one transaction *)
    let stop () = cfg.txns_per_domain = None && Unix.gettimeofday () >= deadline in
    let run_flat_outcome () =
      Engine.run_txn ~jitter (fun () ->
          let input = W.gen_input env in
          match W.run_flat ~stop eng env input with
          | `Committed -> `Done
          | `Aborted -> `Forced_abort)
    in
    let run_acc_outcome () =
      Engine.run_txn ~jitter (fun () ->
          let input = W.gen_input env in
          match W.run_acc ~stop eng env input with
          | Runtime.Committed -> `Done
          | Runtime.Compensated _ ->
              if W.forced_abort input then `Forced_abort_compensated else `Compensated)
    in
    while continue () do
      decr budget;
      if cfg.think_mean > 0.0 then
        Unix.sleepf (Prng.exponential think_g ~mean:cfg.think_mean);
      let t0 = Unix.gettimeofday () in
      let outcome =
        match cfg.system with
        | Baseline ->
            (* the flat baseline is itself the fully isolated legacy path;
               the multi-step admission gate does not apply *)
            Some (run_flat_outcome ())
        | Acc ->
            (* admission bracket: jittered retry while shed; while degraded,
               fall back to the legacy path instead of queueing behind a
               wedged protocol *)
            let rec admit attempt =
              match Engine.try_admit engine with
              | Engine.Admitted -> `Acc
              | Engine.Shed "degraded" -> `Degraded
              | Engine.Shed _ ->
                  if time_ok () then begin
                    Unix.sleepf (Backoff.Jitter.next jitter ~attempt);
                    admit (attempt + 1)
                  end
                  else `Drop
            in
            (match admit 1 with
            | `Drop -> None
            | `Degraded ->
                Metrics.Counter.incr degraded_runs;
                Some (run_flat_outcome ())
            | `Acc ->
                Fun.protect
                  ~finally:(fun () -> Engine.finish engine)
                  (fun () -> Some (run_acc_outcome ())))
      in
      let t1 = Unix.gettimeofday () in
      match outcome with
      | None -> ()
      | Some outcome ->
          if recording () then begin
            match outcome with
            | `Done ->
                Metrics.Counter.incr committed;
                incr mine;
                Metrics.Latency.record slot (t1 -. t0)
            | `Forced_abort -> Metrics.Counter.incr forced_aborts
            | `Forced_abort_compensated ->
                Metrics.Counter.incr forced_aborts;
                Metrics.Counter.incr compensations
            | `Compensated -> Metrics.Counter.incr compensations
          end
    done;
    !mine
  in
  let per_domain_committed = Domain_pool.run ~domains:cfg.domains worker in
  let elapsed = Unix.gettimeofday () -. started in
  let gc_end = Gc.quick_stat () in
  (* workers have joined; the detector must still be alive up to here, since
     it is what unwedges the final stragglers' deadlocks *)
  Engine.shutdown engine;
  let locks = Engine.locks engine in
  let measured = Float.max 0.0 (elapsed -. (record_after -. started)) in
  let gc_per_commit field =
    match Atomic.get gc_start with
    | None -> 0.0
    | Some s -> (field gc_end -. field s) /. float_of_int (max 1 (Metrics.Counter.get committed))
  in
  {
    committed = Metrics.Counter.get committed;
    forced_aborts = Metrics.Counter.get forced_aborts;
    compensations = Metrics.Counter.get compensations;
    detector_victims = Acc_parallel.Deadlock_detector.victims (Engine.detector engine);
    detector_sweeps = Acc_parallel.Deadlock_detector.sweeps (Engine.detector engine);
    response = Metrics.Latency.snapshot response;
    elapsed;
    measured;
    throughput =
      (if measured > 0.0 then float_of_int (Metrics.Counter.get committed) /. measured
       else 0.0);
    per_domain_committed;
    violations = W.consistency (Executor.db eng);
    leaked_locks = Sharded_lock_table.lock_count locks;
    leaked_waiters = Sharded_lock_table.waiter_count locks;
    step_hist =
      List.filter
        (fun (_, h) -> Metrics.Histogram.count h > 0)
        (List.mapi (fun i h -> (i, h)) (Array.to_list hists));
    conflicts =
      (match accounting with Some a -> Conflict_accounting.rows a | None -> []);
    lock_timeouts = Engine.timeout_count engine;
    shed = Engine.shed_count engine;
    degraded_runs = Metrics.Counter.get degraded_runs;
    degraded_trips = Watchdog.degraded_trips (Engine.watchdog engine);
    lock_wait_p99 = Metrics.Histogram.percentile (Engine.lock_waits engine) 0.99;
    lock_wait_count = Metrics.Histogram.count (Engine.lock_waits engine);
    peak_queue_depth = Watchdog.peak_queue_depth (Engine.watchdog engine);
    peak_oldest_wait = Watchdog.peak_oldest_wait (Engine.watchdog engine);
    mutex_acquisitions = Sharded_lock_table.mutex_acquisitions locks;
    fast_path_attempts = Sharded_lock_table.fast_attempts locks;
    fast_path_hits = Sharded_lock_table.fast_hits locks;
    wal_flushes = Acc_wal.Log.flush_count (Executor.log eng);
    gc_minor_words = gc_per_commit (fun g -> g.Gc.minor_words);
    gc_promoted_words = gc_per_commit (fun g -> g.Gc.promoted_words);
    gc_minor_collections = gc_per_commit (fun g -> float_of_int g.Gc.minor_collections);
    workload_name = W.name;
    step_label = step_info.Acc_workload.Step_info.label;
    step_txn_type = step_info.Acc_workload.Step_info.txn_type;
    extras = W.extras ();
  }

let pp_step_hist ~label ppf hist =
  Format.fprintf ppf "@[<v>step latency (s)     %-24s %8s %10s %10s %10s@,"
    "" "count" "p50" "p95" "p99";
  List.iter
    (fun (st, h) ->
      Format.fprintf ppf "                     %-24s %8d %10.6f %10.6f %10.6f@,"
        (label st)
        (Metrics.Histogram.count h)
        (Metrics.Histogram.percentile h 0.50)
        (Metrics.Histogram.percentile h 0.95)
        (Metrics.Histogram.percentile h 0.99))
    hist;
  Format.pp_close_box ppf ()

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>committed            %d@,throughput           %.1f txn/s@,\
     mean response        %.4f s@,p95 response         %.4f s@,\
     forced aborts        %d@,compensations        %d@,\
     detector victims     %d (over %d sweeps)@,per-domain committed %s@,\
     leaked locks         %d@,leaked waiters       %d@,consistency          %s@]"
    r.committed r.throughput (Tally.mean r.response)
    (Tally.percentile r.response 0.95)
    r.forced_aborts r.compensations r.detector_victims r.detector_sweeps
    (String.concat ", " (List.map string_of_int r.per_domain_committed))
    r.leaked_locks r.leaked_waiters
    (match r.violations with
    | [] -> "OK"
    | v -> Printf.sprintf "%d VIOLATION(S)" (List.length v));
  Format.fprintf ppf "@.shard-mutex acquisitions %d" r.mutex_acquisitions;
  if r.fast_path_attempts > 0 then
    Format.fprintf ppf "@.fast-path hits       %d / %d (%.1f%%)" r.fast_path_hits
      r.fast_path_attempts
      (100.0 *. float_of_int r.fast_path_hits /. float_of_int r.fast_path_attempts);
  Format.fprintf ppf "@.wal flushes          %d" r.wal_flushes;
  Format.fprintf ppf "@.gc per commit        %.0f minor words, %.0f promoted, %.4f minor GCs"
    r.gc_minor_words r.gc_promoted_words r.gc_minor_collections;
  if
    r.lock_timeouts > 0 || r.shed > 0 || r.degraded_trips > 0 || r.degraded_runs > 0
    || r.lock_wait_count > 0
  then
    Format.fprintf ppf
      "@.@[<v>lock timeouts        %d@,shed admissions      %d@,\
       degraded             %d trip(s), %d legacy run(s)@,\
       p99 lock wait        %.6f s (%d waits)@,\
       peak queue depth     %d@,peak oldest wait     %.4f s@]"
      r.lock_timeouts r.shed r.degraded_trips r.degraded_runs
      (if r.lock_wait_count = 0 then 0. else r.lock_wait_p99)
      r.lock_wait_count r.peak_queue_depth r.peak_oldest_wait;
  if r.extras <> [] then
    List.iter (fun (k, v) -> Format.fprintf ppf "@.%-20s %.0f" k v) r.extras;
  if r.step_hist <> [] then
    Format.fprintf ppf "@.%a" (pp_step_hist ~label:r.step_label) r.step_hist;
  if r.conflicts <> [] then
    Format.fprintf ppf "@.%a"
      (Conflict_accounting.pp_table ~label:r.step_label ~header:"lock decisions")
      r.conflicts
