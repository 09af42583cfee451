(* The multicore driver: real domains against the in-memory engine,
   wall-clock time, no simulator.  Counterpart of the simulated {!Driver}:
   it runs the same workload plugins, TPC-C by default.  With
   [partitions > 1] it runs the workload's partitioning capability: one
   engine per key range behind the two-phase-commit coordinator, each
   input routed to the partitions it touches. *)

module Executor = Acc_txn.Executor
module Backoff = Acc_txn.Backoff
module Runtime = Acc_core.Runtime
module Engine = Acc_parallel.Engine
module Domain_pool = Acc_parallel.Domain_pool
module Sharded_lock_table = Acc_parallel.Sharded_lock_table
module Mode = Acc_lock.Mode
module Prng = Acc_util.Prng
module Metrics = Acc_util.Metrics
module Tally = Acc_util.Stats.Tally
module Trace = Acc_obs.Trace
module Conflict_accounting = Acc_obs.Conflict_accounting
module Lock_obs = Acc_obs.Lock_obs
module Coordinator = Acc_dist.Coordinator
module Transport = Acc_dist.Transport
module Netfault = Acc_fault.Fault.Netfault

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
  partitions : int;
      (** [1]: one engine.  [N > 1]: one engine per key range of the
          workload's partitioning capability, behind the 2PC coordinator;
          needs [system = Acc] and no admission knobs.  With no
          [lock_deadline] a partitioned run uses 1 s, the backstop against
          cross-partition waits that no per-partition detector sees. *)
  transport : Transport.kind;
      (** partitioned runs: how the coordinator reaches its participants;
          must be [`Loopback] with [partitions = 1] *)
  netfault : Netfault.spec;
      (** partitioned runs: message faults on every coordinator↔participant
          stream; must be none with [partitions = 1] *)
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
    workload = Acc_tpcc.Tpcc_workload.make ();
    partitions = 1;
    transport = `Loopback;
    netfault = Netfault.none;
  }

(* With [partitions > 1] the leak counts sum over the partitions' engines,
   and [stats] combines theirs by {!Acc_obs.Registry.combine}. *)
type report = {
  committed : int;
  forced_aborts : int;
  compensations : int;
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
  degraded_runs : int;
      (** transactions executed on the fully isolated legacy path because
          degraded mode was on at admission time *)
  stats : Engine.stats;
      (** every engine counter over the whole run, warmup included, read
          after the engines shut down *)
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
  cross_committed : int;  (** cross-partition commits, counted in [committed] too *)
  cross_aborted : int;
      (** cross-partition aborts: forced (counted in [forced_aborts] too), a
          no vote, or a failed prepare *)
  cross_attempted : int;
  prepare_hold : Tally.t;
      (** per cross-partition transaction, from its first branch step to the
          decision applied, seconds; like the cross counts, only the holds
          recorded once the recording window opened *)
}

(* Cross-partition transactions over all finished ones: a single-partition
   transaction commits or compensates, a cross-partition one commits or
   aborts. *)
let cross_fraction r =
  let finished = r.committed + r.compensations + r.cross_aborted in
  if finished = 0 then 0.0 else float_of_int r.cross_attempted /. float_of_int finished

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

(* Raises [Invalid_argument] for a config [run] cannot run, naming its
   field and the tpcc_parallel flag (or environment variable) that sets
   it. *)
let validate cfg =
  let refuse field fmt =
    Printf.ksprintf
      (fun why ->
        invalid_arg
          (Printf.sprintf "Parallel_driver.run: %s (--%s) %s" field
             (String.map (function '_' -> '-' | c -> c) field)
             why))
      fmt
  in
  if cfg.domains < 1 then invalid_arg "Parallel_driver.run: domains must be >= 1";
  if cfg.partitions < 1 then refuse "partitions" "must be >= 1";
  if cfg.partitions = 1 then begin
    if cfg.transport <> `Loopback then
      refuse "transport" "must be loopback with partitions = 1: nothing crosses a transport";
    if not (Netfault.is_none cfg.netfault) then
      invalid_arg
        "Parallel_driver.run: netfault (ACC_NETFAULT) must be none with partitions = 1: nothing \
         crosses a transport"
  end
  else begin
    let module W = (val cfg.workload : Acc_workload.S) in
    if cfg.system <> Acc then
      refuse "system" "must be acc with partitions > 1: no strict-2PL comparator runs under 2PC";
    List.iter
      (fun (field, set) ->
        if set then
          refuse field
            "must be unset with partitions > 1: one engine's admission gate cannot bound a \
             transaction that spans several")
      [ ("max_inflight", cfg.max_inflight <> None); ("shed_watermark", cfg.shed_watermark <> None) ];
    ignore
      (Acc_workload.capability ~who:"Parallel_driver.run" ~name:W.name
         ~partitions:cfg.partitions W.partitioning)
  end

let run cfg =
  validate cfg;
  let module W = (val cfg.workload : Acc_workload.S) in
  W.reset_global ();
  let partitioning = if cfg.partitions > 1 then W.partitioning else None in
  let step_info =
    Acc_workload.Step_info.of_workload
      (match partitioning with Some p -> p.Acc_workload.workload | None -> W.workload)
  in
  let wal_policy =
    if cfg.group_commit then Acc_wal.Log.Buffered { cap = Acc_wal.Log.default_cap }
    else Acc_wal.Log.Direct
  in
  let accounting =
    if cfg.accounting then Some (Conflict_accounting.create ()) else None
  in
  (* the engines, in partition-id order, and the partitions they serve *)
  let engines, parts =
    match partitioning with
    | None ->
        let db = W.populate ~seed:cfg.seed in
        let sem =
          match cfg.system with Baseline -> Mode.no_semantics | Acc -> W.semantics
        in
        let engine =
          Engine.create ?lock_deadline:cfg.lock_deadline ?max_inflight:cfg.max_inflight
            ?shed_watermark:cfg.shed_watermark ~wal_policy ~sem db
        in
        if cfg.accounting || Trace.enabled () then
          Sharded_lock_table.set_observer (Engine.locks engine)
            (Some (Lock_obs.observer ?accounting ()));
        ([| engine |], [||])
    | Some p ->
        let pairs =
          Acc_dist.Dist_driver.build ~seed:cfg.seed
            ~lock_deadline:(Option.value cfg.lock_deadline ~default:1.0)
            ~wal_policy ?accounting ~partitions:cfg.partitions p
        in
        (Array.of_list (List.map snd pairs), Array.of_list (List.map fst pairs))
  in
  let max_step_id = step_info.Acc_workload.Step_info.max_step_id in
  let hists = Array.init (max_step_id + 1) (fun _ -> Metrics.Histogram.create ()) in
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
  let cross_committed = Metrics.Counter.create () in
  let cross_aborted = Metrics.Counter.create () in
  let cross_attempted = Metrics.Counter.create () in
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
  (* duration mode only: once the deadline passes, in-flight transactions
     stop issuing new steps and compensate out instead of running to
     completion — drain time is bounded by one step, not one transaction *)
  let stop () = cfg.txns_per_domain = None && Unix.gettimeofday () >= deadline in
  (* a partitioned run: the capability that routes each input, and the
     coordinator every cross transaction goes through, over the RPC
     transport *)
  let cluster =
    Option.map
      (fun p ->
        let coord = Coordinator.create parts in
        ( p,
          coord,
          Coordinator.Remote.make ~stop ~transport:cfg.transport ~faults:cfg.netfault coord ))
      partitioning
  in
  let holds () =
    Option.fold ~none:(Tally.create ()) cluster ~some:(fun (_, coord, _) ->
        Coordinator.prepare_hold_snapshot coord)
  in
  (* warmup applies to duration mode only; fixed-count runs record everything *)
  let record_after =
    started +. (if cfg.txns_per_domain = None then Float.max 0.0 cfg.warmup else 0.0)
  in
  (* the GC counters and the coordinator's hold count at the start of the
     recording window: taken here without a warmup, else by the first worker
     past it ([Gc.quick_stat] counts every domain, the others as of their
     last minor collection) *)
  let window_start = Atomic.make None in
  let mark_window () =
    if Atomic.get window_start = None then begin
      let held = Tally.count (holds ()) in
      ignore (Atomic.compare_and_set window_start None (Some (Gc.quick_stat (), held)))
    end
  in
  let recording =
    if record_after <= started then begin
      mark_window ();
      fun () -> true
    end
    else fun () ->
      let on = Unix.gettimeofday () >= record_after in
      if on then mark_window ();
      on
  in
  Array.iter
    (fun engine ->
      let eng = Engine.executor engine in
      Executor.set_clock eng Unix.gettimeofday;
      Executor.set_on_step_end eng (fun ~step_type ~dur ->
          if step_type >= 0 && step_type < Array.length hists && recording () then
            Metrics.Histogram.record hists.(step_type) dur))
    engines;
  let part_of key =
    match cluster with
    | Some (_, coord, _) -> Acc_dist.Partition.id (Coordinator.partition_of coord key)
    | None -> 0
  in
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
    (* the single-node path, on the engine that owns every key the input
       touches *)
    let run_single engine input =
      let eng = Engine.executor engine in
      let run_flat () =
        Engine.run_txn ~jitter (fun () ->
            match W.run_flat ~stop eng env input with
            | `Committed -> `Done
            | `Aborted -> `Forced_abort)
      in
      match cfg.system with
      | Baseline ->
          (* the flat baseline is itself the fully isolated legacy path;
             the multi-step admission gate does not apply *)
          Some (run_flat ())
      | Acc -> (
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
          match admit 1 with
          | `Drop -> None
          | `Degraded ->
              Metrics.Counter.incr degraded_runs;
              Some (run_flat ())
          | `Acc ->
              Fun.protect
                ~finally:(fun () -> Engine.finish engine)
                (fun () ->
                  Some
                    (Engine.run_txn ~jitter (fun () ->
                         match W.run_acc ~stop eng env input with
                         | Runtime.Committed -> `Done
                         | Runtime.Compensated _ ->
                             if W.forced_abort input then `Forced_abort_compensated
                             else `Compensated))))
    in
    (* a cross-partition input: its branches under 2PC, with no admission
       token, since no engine's gate spans it and it has no flat fallback *)
    let run_cross p remote input =
      let branches =
        List.map
          (fun (pid, inst) -> (parts.(pid), inst))
          (p.Acc_workload.branches env ~part_of input)
      in
      match Engine.run_txn ~jitter (fun () -> Coordinator.Remote.run_cross remote branches) with
      | Coordinator.Committed -> `Done
      | Coordinator.Aborted -> if W.forced_abort input then `Forced_abort else `Aborted
    in
    while continue () do
      decr budget;
      if cfg.think_mean > 0.0 then
        Unix.sleepf (Prng.exponential think_g ~mean:cfg.think_mean);
      let t0 = Unix.gettimeofday () in
      let input = W.gen_input env in
      let crossed, outcome =
        match cluster with
        | None -> (false, run_single engines.(0) input)
        | Some (p, _, remote) -> (
            match p.Acc_workload.route ~part_of input with
            | [ home ] -> (false, run_single engines.(home) input)
            | _ -> (true, Some (run_cross p remote input)))
      in
      let t1 = Unix.gettimeofday () in
      match outcome with
      | None -> ()
      | Some outcome ->
          if recording () then begin
            if crossed then Metrics.Counter.incr cross_attempted;
            match outcome with
            | `Done ->
                Metrics.Counter.incr committed;
                if crossed then Metrics.Counter.incr cross_committed;
                incr mine;
                Metrics.Latency.record slot (t1 -. t0)
            | `Forced_abort ->
                Metrics.Counter.incr forced_aborts;
                if crossed then Metrics.Counter.incr cross_aborted
            | `Aborted -> Metrics.Counter.incr cross_aborted
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
  (* workers have joined; the detectors must still be alive up to here,
     since they are what unwedges the final stragglers' deadlocks *)
  Option.iter (fun (_, _, remote) -> Coordinator.Remote.close remote) cluster;
  Array.iter Engine.shutdown engines;
  let dbs =
    Array.to_list (Array.map (fun engine -> Executor.db (Engine.executor engine)) engines)
  in
  let measured = Float.max 0.0 (elapsed -. (record_after -. started)) in
  let gc_per_commit field =
    match Atomic.get window_start with
    | None -> 0.0
    | Some (s, _) ->
        (field gc_end -. field s) /. float_of_int (max 1 (Metrics.Counter.get committed))
  in
  (* leak counts first: [lock_count] and [waiter_count] take shard sections,
     which count in [lock.mutex_acq] *)
  let leaked f = Array.fold_left (fun acc engine -> acc + f (Engine.locks engine)) 0 engines in
  let leaked_locks = leaked Sharded_lock_table.lock_count in
  let leaked_waiters = leaked Sharded_lock_table.waiter_count in
  let stats =
    Array.fold_left
      (List.map2 (fun (name, a) (_, b) -> (name, Acc_obs.Registry.combine a b)))
      (Engine.stats engines.(0))
      (Array.map Engine.stats (Array.sub engines 1 (Array.length engines - 1)))
  in
  {
    committed = Metrics.Counter.get committed;
    forced_aborts = Metrics.Counter.get forced_aborts;
    compensations = Metrics.Counter.get compensations;
    response = Metrics.Latency.snapshot response;
    elapsed;
    measured;
    throughput =
      (if measured > 0.0 then float_of_int (Metrics.Counter.get committed) /. measured
       else 0.0);
    per_domain_committed;
    violations =
      (match partitioning with
      | Some p -> p.Acc_workload.consistency dbs
      | None -> W.consistency (List.hd dbs));
    leaked_locks;
    leaked_waiters;
    step_hist =
      List.filter
        (fun (_, h) -> Metrics.Histogram.count h > 0)
        (List.mapi (fun i h -> (i, h)) (Array.to_list hists));
    conflicts =
      (match accounting with Some a -> Conflict_accounting.rows a | None -> []);
    degraded_runs = Metrics.Counter.get degraded_runs;
    stats;
    gc_minor_words = gc_per_commit (fun g -> g.Gc.minor_words);
    gc_promoted_words = gc_per_commit (fun g -> g.Gc.promoted_words);
    gc_minor_collections = gc_per_commit (fun g -> float_of_int g.Gc.minor_collections);
    workload_name = W.name;
    step_label = step_info.Acc_workload.Step_info.label;
    step_txn_type = step_info.Acc_workload.Step_info.txn_type;
    extras = W.extras ();
    cross_committed = Metrics.Counter.get cross_committed;
    cross_aborted = Metrics.Counter.get cross_aborted;
    cross_attempted = Metrics.Counter.get cross_attempted;
    prepare_hold =
      (match Atomic.get window_start with
      | Some (_, held) -> Tally.since (holds ()) held
      | None -> Tally.create ());
  }

let pp_step_hist ~label ppf hist =
  Format.fprintf ppf "@[<v>step latency (s)     %-30s %8s %10s %10s %10s@,"
    "" "count" "p50" "p95" "p99";
  List.iter
    (fun (st, h) ->
      Format.fprintf ppf "                     %-30s %8d %10.6f %10.6f %10.6f@,"
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
     forced aborts        %d@,compensations        %d@,degraded runs        %d@,\
     per-domain committed %s@,\
     leaked locks         %d@,leaked waiters       %d@,consistency          %s@]"
    r.committed r.throughput (Tally.mean r.response)
    (Tally.percentile r.response 0.95)
    r.forced_aborts r.compensations r.degraded_runs
    (String.concat ", " (List.map string_of_int r.per_domain_committed))
    r.leaked_locks r.leaked_waiters
    (match r.violations with
    | [] -> "OK"
    | v -> Printf.sprintf "%d VIOLATION(S)" (List.length v));
  if r.cross_attempted > 0 || Tally.count r.prepare_hold > 0 then
    Format.fprintf ppf
      "@.@[<v>cross-partition      %d committed, %d aborted (%d attempted)@,\
       cross fraction       %.3f@,\
       prepare hold (s)     mean %.6f p95 %.6f (%d samples)@]"
      r.cross_committed r.cross_aborted r.cross_attempted (cross_fraction r)
      (Tally.mean r.prepare_hold)
      (Tally.percentile r.prepare_hold 0.95)
      (Tally.count r.prepare_hold);
  Format.fprintf ppf "@.gc per commit        %.0f minor words, %.0f promoted, %.4f minor GCs"
    r.gc_minor_words r.gc_promoted_words r.gc_minor_collections;
  List.iter
    (fun (name, sample) ->
      Format.fprintf ppf "@.%-27s %s" name
        (Acc_obs.Json.to_string (Acc_obs.Registry.sample_json sample)))
    r.stats;
  if r.extras <> [] then
    List.iter (fun (k, v) -> Format.fprintf ppf "@.%-20s %.0f" k v) r.extras;
  if r.step_hist <> [] then
    Format.fprintf ppf "@.%a" (pp_step_hist ~label:r.step_label) r.step_hist;
  if r.conflicts <> [] then
    Format.fprintf ppf "@.%a"
      (Conflict_accounting.pp_table ~label:r.step_label ~header:"lock decisions")
      r.conflicts
