(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 2-4 and the fourth, text-only server-count experiment)
   and runs Bechamel micro-benchmarks of the predicate-lock comparator and
   the interference-table build (perfbench's ladder times the other rungs
   of the "added overhead of the ACC").

   Usage:  main.exe [MODE] [--quick]

   MODE is all (the default), a single figure, or one of micro, parallel,
   workloads, overload, scale, obs-gate, recovery, dist; --quick
   shrinks the run to a smoke-sized one that writes the same BENCH_<MODE>.json.
   [quick] is short for [all --quick]. *)

module Experiment = Acc_harness.Experiment
module Figures = Acc_harness.Figures
module Json = Acc_obs.Json

let ppf = Format.std_formatter

let check_consistency fig =
  let v = Figures.consistency_violations fig in
  if v > 0 then Format.fprintf ppf "!! %d consistency violations (semantic correctness broken)@." v
  else Format.fprintf ppf "consistency: all runs ended in a consistent database@."

(* fig3 and fig4 share fig2's standard sweep; run it once *)
let run_figures ~quick =
  let settings = Experiment.default_settings in
  let fig2 = Figures.fig2 ~quick settings in
  Figures.render ppf fig2;
  check_consistency fig2;
  let std_series =
    match List.find_opt (fun s -> s.Figures.name = "standard") fig2.Figures.series with
    | Some s -> s
    | None ->
        failwith
          (Printf.sprintf
             "fig2 produced no \"standard\" series (got: %s); fig3/fig4 splice from it"
             (String.concat ", " (List.map (fun s -> s.Figures.name) fig2.Figures.series)))
  in
  let fig3 =
    let computed = Figures.fig3 ~quick settings in
    {
      computed with
      Figures.series =
        (match computed.Figures.series with
        | [ _without; with_compute ] ->
            [ { std_series with Figures.name = "w/o compute time" }; with_compute ]
        | other -> other);
    }
  in
  Figures.render ppf fig3;
  check_consistency fig3;
  let fig4 = { (Figures.fig4 ~quick settings) with Figures.series = [ std_series ] } in
  Figures.render ppf fig4;
  let servers = Figures.servers ~quick settings in
  Figures.render ppf servers;
  check_consistency servers;
  let items = Figures.items ~quick settings in
  Figures.render ppf items;
  check_consistency items;
  let ablation = Figures.ablation ~quick settings in
  Figures.render ppf ablation;
  check_consistency ablation;
  [ fig2; fig3; fig4; servers; items; ablation ]

let run_one ~quick id =
  let settings = Experiment.default_settings in
  let fig =
    match id with
    | "fig2" -> Figures.fig2 ~quick settings
    | "fig3" -> Figures.fig3 ~quick settings
    | "fig4" -> Figures.fig4 ~quick settings
    | "servers" -> Figures.servers ~quick settings
    | "ablation" -> Figures.ablation ~quick settings
    | "items" -> Figures.items ~quick settings
    | _ -> invalid_arg "unknown figure"
  in
  Figures.render ppf fig;
  check_consistency fig;
  fig

(* ---------- multicore scaling ------------------------------------------ *)

(* Every run of the multicore modes (parallel, workloads, overload, scale,
   dist) passes through [check_run]: it prints the run's consistency
   violations and leaked locks or waiters, and marks the mode failed, so
   that the mode exits 1 once its JSON is written. *)
let failed = ref false

let check_run label (r : Acc_harness.Parallel_driver.report) =
  let module P = Acc_harness.Parallel_driver in
  List.iter (fun v -> Format.fprintf ppf "!! %s: violation: %s@." label v) r.P.violations;
  let leaked = r.P.leaked_locks > 0 || r.P.leaked_waiters > 0 in
  if leaked then
    Format.fprintf ppf "!! %s: %d leaked locks, %d leaked waiters@." label r.P.leaked_locks
      r.P.leaked_waiters;
  if leaked || r.P.violations <> [] then failed := true

(* TPC-C's high-conflict core, new-order/payment 50/50: the workload of
   every parallel-engine mode below but [workloads] *)
let nop_tpcc ?skewed_district () =
  Acc_tpcc.Tpcc_workload.make ?skewed_district ~mix:Acc_tpcc.Tpcc_workload.New_order_payment ()

(* Committed-txns/sec versus domain count, ACC against strict 2PL, on the
   real-domain engine (no simulator): the contended regime — client compute
   at each pace point while locks are held — where step-boundary release
   pays.  Wall-clock, so numbers vary with the host; the shape is the
   point.  Exits non-zero on violations or leaks. *)
let run_parallel ~quick =
  let module P = Acc_harness.Parallel_driver in
  let seconds = if quick then 1.5 else 4.0 in
  let base =
    {
      P.default_config with
      P.duration = seconds;
      compute_between = 0.001;
      workload = nop_tpcc ();
    }
  in
  Format.fprintf ppf "@.=== parallel: committed txns/sec vs domains (%.1fs per cell) ===@."
    seconds;
  Format.fprintf ppf "%8s %12s %12s %8s@." "domains" "acc" "2pl" "ratio";
  let cells =
    List.map
      (fun domains ->
        let cfg system = { base with P.system; domains } in
        (* the ACC cell runs traced so its span-level phase breakdown lands
           next to the throughput numbers; the 2PL cell stays untraced (its
           role is the clean baseline trajectory) *)
        let acc, phases = Bench_json.with_phases (fun () -> P.run (cfg P.Acc)) in
        let bl = P.run (cfg P.Baseline) in
        check_run (Printf.sprintf "acc, %d domains" domains) acc;
        check_run (Printf.sprintf "2pl, %d domains" domains) bl;
        Format.fprintf ppf "%8d %12.1f %12.1f %8.2f@." domains acc.P.throughput
          bl.P.throughput
          (if bl.P.throughput > 0. then acc.P.throughput /. bl.P.throughput else nan);
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("acc", Bench_json.parallel_report_json ~cfg:(cfg P.Acc) acc);
            ("twopl", Bench_json.parallel_report_json ~cfg:(cfg P.Baseline) bl);
            ("phases", phases);
            ( "throughput_ratio",
              Json.Float
                (if bl.P.throughput > 0. then acc.P.throughput /. bl.P.throughput else nan) );
          ])
      [ 1; 2; 4 ]
  in
  (* one instrumented cell: conflict accounting on, fixed txn count, so the
     "ACC passed where 2PL would block" numbers land in the JSON (the sweep
     cells above run clean to keep the trajectory numbers honest) *)
  let inst_domains = 2 in
  let inst_cfg =
    {
      base with
      P.system = P.Acc;
      domains = inst_domains;
      duration = 0.;
      txns_per_domain = Some (if quick then 100 else 300);
      accounting = true;
    }
  in
  let inst = P.run inst_cfg in
  check_run "instrumented cell" inst;
  Format.fprintf ppf "@.--- instrumented cell (accounting on, %d domains) ---@." inst_domains;
  Acc_obs.Conflict_accounting.pp_table ppf ~label:inst.P.step_label ~header:"lock decisions"
    inst.P.conflicts;
  [
    ("cells", Json.List cells);
    ( "instrumented",
      Json.Obj
        [
          ("domains", Json.Int inst_domains);
          ("acc", Bench_json.parallel_report_json ~cfg:inst_cfg inst);
        ] );
  ]

(* ---------- workload plugin sweep -------------------------------------- *)

(* Every registered workload plugin through the multicore engine: ACC with
   conflict accounting on against the strict-2PL baseline, fixed transaction
   count, same seed.  The headline per workload is the false-conflict column
   — lock decisions the ACC granted where strict 2PL would have blocked
   (the shadow-2PL classifier, DESIGN.md §11) — next to the throughput
   ratio; each cell also re-checks the workload's own invariants.  Exits
   non-zero on violations or leaks anywhere in the sweep. *)
let run_workloads ~quick =
  let module P = Acc_harness.Parallel_driver in
  let module CA = Acc_obs.Conflict_accounting in
  Acc_harness.Cli.ensure_registered ();
  let domains = 4 in
  let per_domain = if quick then 150 else 500 in
  let names = List.map fst (Acc_workload.Registry.names ()) in
  Format.fprintf ppf
    "@.=== workloads: every registered plugin, ACC vs strict 2PL (%d domains x %d txns) ===@."
    domains per_domain;
  Format.fprintf ppf "%18s %10s %10s %7s %12s %12s %12s@." "workload" "acc tx/s"
    "2pl tx/s" "ratio" "granted" "false-confl" "true-confl";
  let cells =
    List.map
      (fun name ->
        let wl =
          match Acc_workload.Registry.find name with
          | Some make -> make Acc_workload.default_spec
          | None -> assert false
        in
        let cfg system =
          {
            P.default_config with
            P.system;
            domains;
            duration = 0.;
            txns_per_domain = Some per_domain;
            (* the contended regime (client compute at each pace point while
               locks are held) — same as the parallel sweep, and the regime
               where step-boundary release is supposed to pay *)
            compute_between = 0.001;
            accounting = true;
            workload = wl;
          }
        in
        let acc = P.run (cfg P.Acc) in
        let bl = P.run (cfg P.Baseline) in
        check_run (name ^ ", acc") acc;
        check_run (name ^ ", 2pl") bl;
        (* the accounting totals come from the ACC run: every grant is also
           checked against a shadow strict-2PL lock table, so r_passed_2pl
           counts exactly the false conflicts the assertional modes dissolve *)
        let tot f = List.fold_left (fun a row -> a + f row) 0 acc.P.conflicts in
        let granted = tot (fun r -> r.CA.r_granted_clean) in
        let false_conflicts = tot (fun r -> r.CA.r_passed_2pl) in
        let true_conflicts = tot (fun r -> r.CA.r_blocked_conv + r.CA.r_blocked_assert) in
        Format.fprintf ppf "%18s %10.1f %10.1f %7.2f %12d %12d %12d@." name
          acc.P.throughput bl.P.throughput
          (if bl.P.throughput > 0. then acc.P.throughput /. bl.P.throughput else nan)
          granted false_conflicts true_conflicts;
        Json.Obj
          [
            ("workload", Json.Str name);
            ("domains", Json.Int domains);
            ("txns_per_domain", Json.Int per_domain);
            ("granted_clean", Json.Int granted);
            ("false_conflicts", Json.Int false_conflicts);
            ("true_conflicts", Json.Int true_conflicts);
            ( "throughput_ratio",
              Json.Float
                (if bl.P.throughput > 0. then acc.P.throughput /. bl.P.throughput
                 else nan) );
            ("acc", Bench_json.parallel_report_json ~cfg:(cfg P.Acc) acc);
            ("twopl", Bench_json.parallel_report_json ~cfg:(cfg P.Baseline) bl);
          ])
      names
  in
  [ ("cells", Json.List cells) ]

(* ---------- overload bench --------------------------------------------- *)

(* The engine past saturation: 4× more worker domains than the admission cap,
   a district hotspot, and a short lock-wait deadline.  The robustness claim
   being measured (DESIGN.md §13): the engine sheds rather than queues, every
   lock wait is bounded, and the database is consistent after the drain — so
   the headline numbers are the shed rate and the p99 lock wait, not
   throughput.  Exits non-zero on violations or leaks: CI runs this as the
   overload soak's machine-readable half. *)
let run_overload ~quick =
  let module P = Acc_harness.Parallel_driver in
  let seconds = if quick then 2.0 else 5.0 in
  let max_inflight = 2 in
  let domains = 4 * max_inflight in
  let deadline = 0.05 in
  let cfg =
    {
      P.default_config with
      P.system = P.Acc;
      domains;
      duration = seconds;
      compute_between = 0.001;
      workload = nop_tpcc ~skewed_district:true ();
      lock_deadline = Some deadline;
      max_inflight = Some max_inflight;
      shed_watermark = Some 200.;
    }
  in
  Format.fprintf ppf
    "@.=== overload: %d domains against an admission cap of %d (%.1fs, %.0fms deadline) ===@."
    domains max_inflight seconds (deadline *. 1000.);
  let r, phases = Bench_json.with_phases (fun () -> P.run cfg) in
  Format.fprintf ppf "%a@." P.pp_report r;
  check_run "overload" r;
  let shed = Acc_parallel.Engine.counter r.P.stats "admission.shed" in
  let attempts = shed + r.P.committed + r.P.forced_aborts + r.P.compensations in
  let shed_rate = if attempts > 0 then float_of_int shed /. float_of_int attempts else 0. in
  Format.fprintf ppf "  shed rate:           %.3f (%d of %d admission attempts)@."
    shed_rate shed attempts;
  [
    ( "overload",
      Json.Obj
        [
          ("domains", Json.Int domains);
          ("max_inflight", Json.Int max_inflight);
          ("deadline_ms", Json.Float (deadline *. 1000.));
          ("shed_watermark", Json.Float 200.);
          ("shed_rate", Json.Float shed_rate);
          ("report", Bench_json.parallel_report_json ~cfg r);
          ("phases", phases);
        ] );
  ]

(* ---------- lock fast path + group commit scaling ---------------------- *)

(* The lock-manager fast path and group-commit WAL, measured together: a
   fixed-count parallel TPC-C new-order/payment run, swept across domain
   counts.  Per cell: committed txn/s, shard-mutex acquisitions per committed
   transaction, fast-path hit rate, and WAL durability round trips per
   committed transaction under group commit.  CI gates the 1-domain hit rate
   (uncontended, so the fast path should carry most requests) and the
   4-domain acqs/txn against the pre-fast-path batched baseline (184.7).
   The cells run untraced, so each report's GC counters are the engine's
   own and CI can bound the 1-domain cell's promotion.  Exits non-zero on
   violations or leaks. *)
let run_scale ~quick =
  let module P = Acc_harness.Parallel_driver in
  let domain_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let per_domain = if quick then 150 else 500 in
  let base =
    {
      P.default_config with
      P.system = P.Acc;
      duration = 0.;
      txns_per_domain = Some per_domain;
      workload = nop_tpcc ();
      group_commit = true;
    }
  in
  Format.fprintf ppf
    "@.=== scale: lock fast path + group commit vs domains (%d txns/domain) ===@."
    per_domain;
  Format.fprintf ppf "%8s %10s %12s %10s %12s@." "domains" "txn/s" "acqs/txn"
    "fast-hit" "flushes/txn";
  let cells =
    List.map
      (fun domains ->
        let cfg = { base with P.domains } in
        let r = P.run cfg in
        let count = Acc_parallel.Engine.counter r.P.stats in
        let per c = float_of_int c /. float_of_int (max 1 r.P.committed) in
        let acqs = per (count "lock.mutex_acq") in
        let flushes = per (count "wal.flushes") in
        let attempts = count "lock.fast_attempts" in
        let hit_rate =
          if attempts = 0 then 0.
          else float_of_int (count "lock.fast_hits") /. float_of_int attempts
        in
        Format.fprintf ppf "%8d %10.1f %12.1f %9.1f%% %12.2f@." domains r.P.throughput
          acqs (100. *. hit_rate) flushes;
        check_run (Printf.sprintf "%d domains" domains) r;
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("mutex_acquisitions_per_txn", Json.Float acqs);
            ("fast_path_hit_rate", Json.Float hit_rate);
            ("wal_flushes_per_txn", Json.Float flushes);
            ("report", Bench_json.parallel_report_json ~cfg r);
          ])
      domain_counts
  in
  [
    ( "scale",
      Json.Obj
        [
          ("txns_per_domain", Json.Int per_domain);
          ("group_commit", Json.Bool true);
          ("cells", Json.List cells);
        ] );
  ]

(* ---------- micro-benchmarks ------------------------------------------- *)

(* Only the rungs perfbench's cost ladder does not time: the §3.2
   predicate-lock comparator and the design-time interference-table build.
   The ladder times the lock, interference-lookup, storage and transaction
   rungs on the production path (perfbench/WORKLOADS.md). *)
let micro_tests () =
  let open Bechamel in
  let module Value = Acc_relation.Value in
  let module Predicate = Acc_relation.Predicate in
  let module Predicate_lock = Acc_lock.Predicate_lock in
  (* the §3.2 comparator: predicate-lock conflict checking is a run-time
     intersection test per held lock, vs the ACC's precomputed lookup *)
  let range c lo hi =
    Predicate.And
      ( Predicate.Cmp (Predicate.Ge, c, Value.Int lo),
        Predicate.Cmp (Predicate.Le, c, Value.Int hi) )
  in
  let p1 =
    Predicate.conj [ Predicate.Eq ("w", Value.Int 1); Predicate.Eq ("d", Value.Int 3); range "o" 10 30 ]
  in
  let p2 =
    Predicate.conj [ Predicate.Eq ("w", Value.Int 1); Predicate.Eq ("d", Value.Int 3); range "o" 25 60 ]
  in
  let t_predlock =
    Test.make ~name:"predicate lock: one intersection test"
      (Staged.stage (fun () -> ignore (Predicate_lock.may_intersect p1 p2)))
  in
  let pred_mgr = Predicate_lock.create () in
  for i = 1 to 20 do
    ignore
      (Predicate_lock.acquire pred_mgr ~txn:i ~mode:Predicate_lock.Read ~table:"order_line"
         (Predicate.conj
            [ Predicate.Eq ("w", Value.Int 1); Predicate.Eq ("d", Value.Int (i mod 10)); range "o" i (i + 20) ]))
  done;
  let t_predlock_acquire =
    Test.make ~name:"predicate lock: acquire vs 20 held locks"
      (Staged.stage (fun () ->
           (match
              Predicate_lock.acquire pred_mgr ~txn:99 ~mode:Predicate_lock.Write
                ~table:"order_line" p1
            with
           | `Granted -> Predicate_lock.release_all pred_mgr ~txn:99
           | `Conflict _ -> ())))
  in
  let t_build =
    let module W = (val Acc_tpcc.Tpcc_workload.make () : Acc_workload.S) in
    Test.make ~name:"interference: build TPC-C tables"
      (Staged.stage (fun () -> ignore (Acc_core.Interference.build W.workload)))
  in
  [ t_predlock; t_predlock_acquire; t_build ]

let run_micro () =
  let open Bechamel in
  Format.fprintf ppf "@.=== micro-benchmarks (rungs the perfbench ladder lacks) ===@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bechamel.Measure.run |]
  in
  let out = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              Format.fprintf ppf "  %-48s %10.1f ns/run@." name ns;
              out := (name, ns) :: !out
          | Some _ | None -> Format.fprintf ppf "  %-48s (no estimate)@." name)
        analyzed)
    (micro_tests ());
  List.rev !out

let micro_json results =
  Json.List
    (List.map
       (fun (name, ns) -> Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float ns) ])
       results)

(* ---------- disabled-path overhead gate -------------------------------- *)

(* The observability contract (DESIGN.md): with no trace sink installed and no
   accounting hook registered, the instrumentation must cost < 2% of a lock
   round trip.  Every emission site compiles to one of two guards — a
   [Trace.enabled ()] atomic load or an [obs = None] match — so we measure the
   guard directly, scale by the number of guards a lock round trip passes, and
   compare against the measured round trip itself.  Exits non-zero on
   failure: CI runs this as a hard gate. *)
let run_obs_gate () =
  let module Trace = Acc_obs.Trace in
  let module Lock_table = Acc_lock.Lock_table in
  let module Lock_request = Acc_lock.Lock_request in
  let module Mode = Acc_lock.Mode in
  let module Resource_id = Acc_lock.Resource_id in
  Format.fprintf ppf "@.=== observability disabled-path gate ===@.";
  assert (not (Trace.enabled ()));
  let time_ns iters f =
    (* one warmup pass keeps the first measurement honest *)
    f (min iters 100_000);
    let t0 = Unix.gettimeofday () in
    f iters;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  (* the guard: exactly what every emission site evaluates when tracing is
     off.  [sink] is ref-read + match; keep the result live so it can't be
     dead-code-eliminated. *)
  let live = ref 0 in
  let guard_ns =
    time_ns 50_000_000 (fun n ->
        for _ = 1 to n do
          if Trace.enabled () then incr live
        done)
  in
  (* the work it rides on: a conventional S acquire+release round trip
     through the real lock table *)
  let locks = Lock_table.create Mode.no_semantics in
  let res = Resource_id.Tuple ("t", [ Acc_relation.Value.Int 1 ]) in
  let lock_ns =
    time_ns 2_000_000 (fun n ->
        for _ = 1 to n do
          ignore (Lock_table.submit locks (Lock_request.make ~txn:1 Mode.S res));
          ignore (Lock_table.release locks ~txn:1 Mode.S res)
        done)
  in
  ignore !live;
  (* a lock round trip crosses at most ~4 guard sites: request-observe,
     release-observe, and a trace guard on each side of the executor step *)
  let sites = 4.0 in
  let overhead = sites *. guard_ns /. lock_ns in
  let limit = 0.02 in
  Format.fprintf ppf "  guard (trace disabled):      %8.2f ns@." guard_ns;
  Format.fprintf ppf "  lock S acquire+release:      %8.2f ns@." lock_ns;
  Format.fprintf ppf "  overhead (%d sites):          %8.3f%%  (limit %.0f%%)@."
    (int_of_float sites) (100. *. overhead) (100. *. limit);
  let pass = overhead <= limit in
  Format.fprintf ppf "  %s@." (if pass then "PASS" else "FAIL: disabled path too expensive");
  let json =
    [
      ( "obs_gate",
        Json.Obj
          [
            ("guard_ns", Json.Float guard_ns);
            ("lock_roundtrip_ns", Json.Float lock_ns);
            ("sites", Json.Int (int_of_float sites));
            ("overhead_fraction", Json.Float overhead);
            ("limit_fraction", Json.Float limit);
            ("pass", Json.Bool pass);
          ] );
    ]
  in
  Bench_json.write ~mode:"obs-gate" json;
  if not pass then exit 1

(* ---------- crash-recovery bench --------------------------------------- *)

(* How long a restart takes: full-log recovery versus recovery from the last
   quiescent checkpoint, over the log of a seed-deterministic TPC-C run.
   The checkpoint path is the reason lib/wal/checkpoint.ml exists — this
   reports the observed replay reduction. *)
let run_recovery ~quick =
  let module W = (val Acc_tpcc.Tpcc_workload.make () : Acc_workload.S) in
  let module Executor = Acc_txn.Executor in
  let module Schedule = Acc_txn.Schedule in
  let module Database = Acc_relation.Database in
  let module Log = Acc_wal.Log in
  let module Recovery = Acc_wal.Recovery in
  let module Checkpoint = Acc_wal.Checkpoint in
  let txns = if quick then 200 else 1_000 in
  let checkpoint_every = 256 in
  let seed = 7 in
  W.reset_global ();
  let env = W.make_env ~seed () in
  let inputs = Array.init txns (fun _ -> W.gen_input env) in
  let db = W.populate ~seed in
  let baseline = Database.copy db in
  let eng = Executor.create ~sem:W.semantics db in
  let mgr = Checkpoint.Manager.create ~every:checkpoint_every () in
  Array.iter
    (fun input ->
      Schedule.run eng [ (fun () -> ignore (W.run_acc eng env input)) ];
      ignore (Checkpoint.Manager.maybe_take mgr (Executor.db eng) (Executor.log eng)))
    inputs;
  let log = Executor.log eng in
  let records = Log.to_list log in
  let time_ms reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int reps
  in
  let reps = if quick then 3 else 10 in
  let full_ms = time_ms reps (fun () -> Recovery.recover ~baseline records) in
  let ckpt_ms = time_ms reps (fun () -> Checkpoint.Manager.recover mgr ~baseline log) in
  let from_lsn =
    match Checkpoint.Manager.latest mgr with
    | Some c -> Checkpoint.position c
    | None -> 0
  in
  let tail = Log.length log - from_lsn in
  Format.fprintf ppf "recovery bench: %d txns, %d log records@." txns (Log.length log);
  Format.fprintf ppf "  full-log recovery:        %8.2f ms (%d records)@." full_ms
    (Log.length log);
  Format.fprintf ppf "  checkpoint recovery:      %8.2f ms (%d-record tail)@." ckpt_ms tail;
  Format.fprintf ppf "  replay reduction:         %8.2fx@."
    (if ckpt_ms > 0. then full_ms /. ckpt_ms else nan);
  [
    ( "recovery",
      Json.Obj
        [
          ("txns", Json.Int txns);
          ("log_records", Json.Int (Log.length log));
          ("checkpoint_every", Json.Int checkpoint_every);
          ("checkpoint_lsn", Json.Int from_lsn);
          ("tail_records", Json.Int tail);
          ("full_recovery_ms", Json.Float full_ms);
          ("checkpoint_recovery_ms", Json.Float ckpt_ms);
        ] );
  ]

(* ---------- partitioned 2PC bench -------------------------------------- *)

(* Throughput versus partition count with the cross-partition 2PC tax in
   view: each cell reports the cross-partition fraction and the prepare-
   window hold time (how long a branch's locks stay pinned across the
   prepare/decide exchange).  The sweep holds the load fixed at 8 warehouses
   and varies only the partitioning, so cell-to-cell deltas are the cost of
   distribution, not of scale; the 1-partition cell is the plain
   single-node run.  The transport axis (loopback vs pipe) prices the RPC
   layer itself: same protocol, but pipe adds the socketpair hop and a
   handler domain per partition (multi-partition cells only — with one
   partition nothing crosses, so the transport is never exercised).  Exits
   non-zero on merged-database violations or leaks. *)
let run_dist ~quick =
  let module P = Acc_harness.Parallel_driver in
  let module Tally = Acc_util.Stats.Tally in
  let module Params = Acc_tpcc.Params in
  let seconds = if quick then 1.0 else 3.0 in
  let params = { Params.default with Params.warehouses = 8 } in
  let base =
    {
      P.default_config with
      P.system = P.Acc;
      duration = seconds;
      domains = 4;
      workload = Acc_tpcc.Tpcc_workload.make ~params ();
    }
  in
  Format.fprintf ppf "@.=== dist: partitioned TPC-C under 2PC (%.1fs per cell) ===@."
    seconds;
  Format.fprintf ppf "%10s %10s %10s %12s %10s %16s@." "partitions" "transport"
    "txn/s" "cross-frac" "aborts" "prep-hold p95 ms";
  let grid =
    List.concat_map
      (fun partitions ->
        List.filter_map
          (fun transport ->
            if transport = `Pipe && (partitions = 1 || (quick && partitions <> 2))
            then None
            else Some (partitions, transport))
          [ `Loopback; `Pipe ])
      [ 1; 2; 4; 8 ]
  in
  let cells =
    List.map
      (fun (partitions, transport) ->
        let r, phases =
          Bench_json.with_phases (fun () -> P.run { base with P.partitions; transport })
        in
        let transport = Acc_dist.Transport.kind_name transport in
        check_run (Printf.sprintf "%d partitions, %s" partitions transport) r;
        Format.fprintf ppf "%10d %10s %10.1f %12.3f %10d %16.3f@." partitions transport
          r.P.throughput (P.cross_fraction r) r.P.cross_aborted
          (1000. *. Tally.percentile r.P.prepare_hold 0.95);
        Json.Obj
          [
            ("warehouses", Json.Int params.Params.warehouses);
            ("partitions", Json.Int partitions);
            ("transport", Json.Str transport);
            ("cross_fraction", Json.Float (P.cross_fraction r));
            ("report", Bench_json.parallel_report_json ~cfg:base r);
            ("phases", phases);
          ])
      grid
  in
  [ ("cells", Json.List cells) ]

let figures_json figs =
  ("figures", Json.List (List.map Bench_json.figure_json figs))

let () =
  let mode, quick =
    match List.partition (( = ) "--quick") (List.tl (Array.to_list Sys.argv)) with
    | flags, [] -> ("all", flags <> [])
    | flags, [ mode ] -> (mode, flags <> [])
    | _ ->
        Format.eprintf "usage: main.exe [MODE] [--quick]@.";
        exit 2
  in
  (match mode with
  | "all" | "quick" ->
      let figs = run_figures ~quick:(quick || mode = "quick") in
      let micro = run_micro () in
      Bench_json.write ~mode [ figures_json figs; ("micro", micro_json micro) ]
  | "fig2" | "fig3" | "fig4" | "servers" | "ablation" | "items" ->
      let fig = run_one ~quick mode in
      Bench_json.write ~mode [ figures_json [ fig ] ]
  | "micro" -> Bench_json.write ~mode [ ("micro", micro_json (run_micro ())) ]
  | "parallel" -> Bench_json.write ~mode (run_parallel ~quick)
  | "workloads" -> Bench_json.write ~mode (run_workloads ~quick)
  | "overload" -> Bench_json.write ~mode (run_overload ~quick)
  | "scale" -> Bench_json.write ~mode (run_scale ~quick)
  | "obs-gate" -> run_obs_gate ()
  | "recovery" -> Bench_json.write ~mode (run_recovery ~quick)
  | "dist" -> Bench_json.write ~mode (run_dist ~quick)
  | other ->
      Format.eprintf
        "unknown mode %s \
         (use all|quick|fig2|fig3|fig4|servers|ablation|items|micro|parallel|workloads|overload|scale|obs-gate|recovery|dist, \
         and --quick for the short variant)@."
        other;
      exit 2);
  if !failed then begin
    Format.fprintf ppf "!! %s left consistency violations or leaks@." mode;
    exit 1
  end
