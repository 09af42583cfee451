(* CLI for the multicore stress driver: real domains, wall-clock time.  Runs
   TPC-C unless --workload names another plugin.

     acc-tpcc-parallel --domains 4 --scale 1 --seconds 5
     acc-tpcc-parallel --domains 4 --system both --txns 1000
     acc-tpcc-parallel --workload hotspot --theta 0.9 --system both
     acc-tpcc-parallel --partitions 2 --scale 4 --transport pipe

   Exit status 1 if any run ends with consistency violations or leaked
   locks, so CI can use it as a smoke test. *)

open Cmdliner
module P = Acc_harness.Parallel_driver
module CA = Acc_obs.Conflict_accounting
module Cli = Acc_harness.Cli
module Netfault = Acc_fault.Fault.Netfault

let pp_conflicts_by_type r =
  match P.conflicts_by_txn_type_with ~step_txn_type:r.P.step_txn_type r.P.conflicts with
  | [] -> ()
  | by_type ->
      Format.printf "lock decisions by transaction type:@.";
      Format.printf "  %-14s %12s %12s %12s %12s@." "" "granted" "ACC-only"
        "blk(conv)" "blk(assert)";
      List.iter
        (fun (name, row) ->
          Format.printf "  %-14s %12d %12d %12d %12d@." name row.CA.r_granted_clean
            row.CA.r_passed_2pl row.CA.r_blocked_conv row.CA.r_blocked_assert)
        by_type

let run_one ~scale cfg =
  let r = P.run cfg in
  Format.printf "== workload=%s system=%s domains=%d scale=%d seed=%d%s ==@."
    r.P.workload_name
    (match cfg.P.system with P.Acc -> "acc" | P.Baseline -> "2pl")
    cfg.P.domains scale cfg.P.seed
    (if cfg.P.partitions > 1 then
       Printf.sprintf " partitions=%d transport=%s" cfg.P.partitions
         (Acc_dist.Transport.kind_name cfg.P.transport)
     else "");
  Format.printf "%a@." P.pp_report r;
  pp_conflicts_by_type r;
  List.iter (fun v -> Format.printf "  violation: %s@." v) r.P.violations;
  r

let main system domains seconds txns think_ms compute_ms seed warmup conflicts deadline_ms
    max_inflight shed_watermark group_commit partitions transport trace trace_chrome
    metrics_dump workload list_workloads scale theta mix abort_rate =
  if list_workloads then begin
    Cli.print_workloads ();
    exit 0
  end;
  let wl = Cli.resolve ~scale ~theta ?mix ?abort_rate workload in
  (* --deadline-ms beats ACC_LOCK_DEADLINE_MS beats off *)
  let deadline_ms =
    match deadline_ms with
    | Some _ -> deadline_ms
    | None ->
        Option.bind (Sys.getenv_opt "ACC_LOCK_DEADLINE_MS") float_of_string_opt
  in
  let cfg =
    {
      P.default_config with
      P.domains;
      duration = seconds;
      txns_per_domain = txns;
      think_mean = think_ms /. 1000.;
      compute_between = compute_ms /. 1000.;
      workload = wl;
      seed;
      warmup;
      accounting = conflicts;
      lock_deadline = Option.map (fun ms -> ms /. 1000.) deadline_ms;
      max_inflight;
      shed_watermark;
      group_commit;
      partitions;
      transport = Acc_dist.Transport.kind_of_string transport;
      (* ACC_NETFAULT injects message faults on the partitions' transport
         (see RECOVERY.md); the driver refuses it at one partition *)
      netfault = Option.value (Netfault.of_env ()) ~default:Netfault.none;
    }
  in
  let systems =
    match system with
    | "acc" -> [ P.Acc ]
    | "2pl" | "baseline" -> [ P.Baseline ]
    | "both" -> [ P.Acc; P.Baseline ]
    | other -> failwith ("unknown system: " ^ other)
  in
  let cfgs = List.map (fun s -> { cfg with P.system = s }) systems in
  (* refuse a config before any run starts, not after the first *)
  List.iter P.validate cfgs;
  (* ACC_CRASHPOINT / ACC_STEP_FAULTS arm fault injection (see RECOVERY.md) *)
  Acc_fault.Fault.configure_from_env ();
  let ts = Cli.Trace.configure ~jsonl:trace ~chrome:trace_chrome () in
  let finish_metrics = Cli.metrics_live metrics_dump in
  let reports = List.map (run_one ~scale) cfgs in
  (match reports with
  | [ acc; bl ] ->
      Format.printf "acc/2pl throughput ratio: %.2f@."
        (if bl.P.throughput > 0.0 then acc.P.throughput /. bl.P.throughput else nan)
  | _ -> ());
  finish_metrics ();
  Cli.Trace.finish ~workload ts;
  let bad r =
    r.P.violations <> [] || r.P.leaked_locks > 0 || r.P.leaked_waiters > 0
  in
  if List.exists bad reports then exit 1

let system =
  Arg.(
    value & opt string "acc"
    & info [ "system"; "s" ] ~docv:"SYS" ~doc:"acc, 2pl, or both.")

let domains =
  Arg.(value & opt int 4 & info [ "domains"; "d" ] ~docv:"N" ~doc:"Worker domain count.")

let seconds =
  Arg.(
    value & opt float 2.0
    & info [ "seconds" ] ~docv:"SECS" ~doc:"Wall-clock run length (timed mode).")

let txns =
  Arg.(
    value
    & opt (some int) None
    & info [ "txns" ] ~docv:"N"
        ~doc:"Fixed transaction count per domain (overrides --seconds).")

let think_ms =
  Arg.(
    value & opt float 0.
    & info [ "think-ms" ] ~docv:"MS" ~doc:"Mean think time between transactions.")

let compute_ms =
  Arg.(
    value & opt float 1.
    & info [ "compute-ms" ] ~docv:"MS"
        ~doc:"Client compute at each intra-transaction pace point, while locks are held \
              (the paper's regime; 0 for raw engine speed).")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let warmup =
  Arg.(
    value & opt float 0.
    & info [ "warmup" ] ~docv:"SECS"
        ~doc:"Timed mode: skip recording for the first SECS seconds.")

let conflicts =
  Arg.(
    value & flag
    & info [ "conflicts" ]
        ~doc:"Classify every lock decision (true conflict vs 2PL-only false \
              conflict) and print the accounting per step and transaction type.")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Lock-wait deadline per request; an expired wait aborts (and \
              compensates) the transaction like a deadlock victim. \
              Compensating steps are exempt. Default: ACC_LOCK_DEADLINE_MS \
              env var, else no deadline (1 s with --partitions above 1).")

let max_inflight =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Admission cap: at most N multi-step transactions running at \
              once; excess arrivals shed and retry with jittered backoff.")

let shed_watermark =
  Arg.(
    value
    & opt (some float) None
    & info [ "shed-watermark" ] ~docv:"RATE"
        ~doc:"Shed admissions while the abort rate (deadlock victims + lock \
              timeouts per second) exceeds RATE.")

let group_commit =
  Arg.(
    value & flag
    & info [ "group-commit" ]
        ~doc:"Group-commit the WAL: appends stage in per-domain buffers and \
              concurrent commit-time flushes merge into one leader-flushed \
              batch per append-mutex round trip.")

let partitions =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"N"
        ~doc:"Split the workload's partition keys (TPC-C: its --scale \
              warehouses) across N isolated engines behind a two-phase-commit \
              coordinator (lib/dist); cross-partition transactions run as 2PC \
              branch programs.  N > 1 needs a workload with a partitioning \
              capability (tpcc), --system acc, no --max-inflight or \
              --shed-watermark, and at least N keys; with no --deadline-ms the \
              lock-wait deadline is 1 s.")

let transport =
  Arg.(
    value & opt string "loopback"
    & info [ "transport" ] ~docv:"KIND"
        ~doc:"Partitioned mode: coordinator↔participant transport — \
              'loopback' (in-process, default) or 'pipe' (socketpair with \
              each partition's request loop on a dedicated domain).  \
              ACC_NETFAULT=spec injects message faults on either.  Both \
              'pipe' and ACC_NETFAULT are refused at one partition, where \
              nothing crosses a transport.")

let trace = Cli.Trace.jsonl_arg
let trace_chrome = Cli.Trace.chrome_arg
let metrics_dump = Cli.metrics_dump_arg

let cmd =
  let doc = "run a workload on real domains against the sharded lock manager" in
  Cmd.v
    (Cmd.info "acc-tpcc-parallel" ~doc)
    Term.(
      const main $ system $ domains $ seconds $ txns $ think_ms $ compute_ms $ seed $ warmup
      $ conflicts $ deadline_ms $ max_inflight $ shed_watermark $ group_commit $ partitions
      $ transport $ trace $ trace_chrome $ metrics_dump $ Cli.workload_arg
      $ Cli.list_workloads_arg $ Cli.scale_arg $ Cli.theta_arg $ Cli.wl_mix_arg
      $ Cli.wl_abort_rate_arg)

let () = exit (Cmd.eval cmd)
