(* CLI for a single simulation run with explicit knobs: the tool for
   exploring the space outside the canned figures.  Runs TPC-C unless
   --workload names another plugin.

     acc-tpcc-run --system acc --terminals 40 --servers 3 --theta 0.5
     acc-tpcc-run --system baseline --compute-ms 4 --horizon 600
     acc-tpcc-run --workload smallbank --mix write-skew *)

open Cmdliner
module Driver = Acc_harness.Driver
module Tally = Acc_util.Stats.Tally
module Cli = Acc_harness.Cli

let main system terminals servers horizon think compute_ms seed verbose workload list_workloads
    scale theta mix abort_rate =
  if list_workloads then begin
    Cli.print_workloads ();
    exit 0
  end;
  let system =
    match system with
    | "acc" -> Driver.Acc
    | "baseline" | "2pl" -> Driver.Baseline
    | other -> failwith ("unknown system: " ^ other)
  in
  let cfg =
    {
      Driver.default_config with
      Driver.system;
      terminals;
      servers;
      horizon;
      warmup = horizon /. 10.;
      think_mean = think;
      compute_between = compute_ms /. 1000.;
      seed;
      cpu_per_unit = 0.005;
      workload = Cli.resolve ~scale ~theta ?mix ?abort_rate workload;
    }
  in
  (* ACC_TRACE / ACC_TRACE_CHROME collect a lock-decision trace of the run
     (timestamps are virtual sim seconds); ACC_CRASHPOINT / ACC_STEP_FAULTS
     arm fault injection (see RECOVERY.md) *)
  Acc_fault.Fault.configure_from_env ();
  let ts = Cli.Trace.configure () in
  let r = Driver.run cfg in
  Cli.Trace.finish ~workload ts;
  Format.printf "workload=%s system=%s terminals=%d servers=%d skew=%b compute=%.0fms seed=%d@."
    workload
    (match system with Driver.Acc -> "acc" | Driver.Baseline -> "baseline")
    terminals servers (theta > 0.) compute_ms seed;
  Format.printf "completed          %d (%.2f txn/s)@." r.Driver.completed r.Driver.throughput;
  Format.printf "response mean      %.4f s@." (Driver.mean_response r);
  Format.printf "response p90       %.4f s@." (Tally.percentile r.Driver.response 0.9);
  Format.printf "deadlock victims   %d@." r.Driver.deadlock_victims;
  Format.printf "forced aborts      %d@." r.Driver.forced_aborts;
  Format.printf "compensations      %d@." r.Driver.compensations;
  Format.printf "server utilization %.2f@." r.Driver.cpu_utilization;
  if verbose then
    List.iter
      (fun (name, tally) ->
        Format.printf "  %-14s n=%-5d mean=%.4f p90=%.4f@." name (Tally.count tally)
          (Tally.mean tally) (Tally.percentile tally 0.9))
      r.Driver.per_type;
  match r.Driver.violations with
  | [] -> Format.printf "consistency        OK@."
  | problems ->
      Format.printf "consistency        %d VIOLATIONS@." (List.length problems);
      List.iter (fun p -> Format.printf "  %s@." p) problems;
      exit 1

let system =
  Arg.(value & opt string "acc" & info [ "system"; "s" ] ~docv:"SYS" ~doc:"acc or baseline.")

let terminals = Arg.(value & opt int 30 & info [ "terminals"; "t" ] ~docv:"N" ~doc:"Terminal count.")
let servers = Arg.(value & opt int 3 & info [ "servers" ] ~docv:"N" ~doc:"Database server processes.")
let horizon = Arg.(value & opt float 300. & info [ "horizon" ] ~docv:"SECS" ~doc:"Simulated load duration.")
let think = Arg.(value & opt float 5. & info [ "think" ] ~docv:"SECS" ~doc:"Mean terminal think time.")

let compute_ms =
  Arg.(value & opt float 0. & info [ "compute-ms" ] ~docv:"MS" ~doc:"Client compute between successive statements.")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-transaction-type breakdown.")

let cmd =
  let doc = "run one simulated workload against the ACC or the strict-2PL baseline" in
  Cmd.v (Cmd.info "acc-tpcc-run" ~doc)
    Term.(
      const main $ system $ terminals $ servers $ horizon $ think $ compute_ms $ seed $ verbose
      $ Cli.workload_arg $ Cli.list_workloads_arg $ Cli.scale_arg $ Cli.theta_arg
      $ Cli.wl_mix_arg $ Cli.wl_abort_rate_arg)

let () = exit (Cmd.eval cmd)
