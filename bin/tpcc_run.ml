(* CLI for a single TPC-C simulation run with explicit knobs: the tool for
   exploring the space outside the canned figures.

     acc-tpcc-run --system acc --terminals 40 --servers 3 --skew
     acc-tpcc-run --system baseline --compute-ms 4 --horizon 600 *)

open Cmdliner
module Driver = Acc_tpcc.Driver
module Tally = Acc_util.Stats.Tally
module Cli = Acc_harness.Cli

let main system terminals servers horizon think compute_ms skew min_items max_items seed verbose
    workload list_workloads scale theta mix abort_rate =
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
  let wl =
    Cli.resolve ~scale
      ~theta:(if skew then Float.max theta 0.5 else theta)
      ?mix ?abort_rate workload
  in
  let wl_name = Option.value workload ~default:"tpcc" in
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
      skewed_district = skew;
      min_items;
      max_items;
      seed;
      cpu_per_unit = 0.005;
      workload = wl;
    }
  in
  (* ACC_TRACE / ACC_TRACE_CHROME collect a lock-decision trace of the run
     (timestamps are virtual sim seconds); ACC_CRASHPOINT / ACC_STEP_FAULTS
     arm fault injection (see RECOVERY.md) *)
  Acc_fault.Fault.configure_from_env ();
  let ts = Cli.Trace.configure () in
  let r = Driver.run cfg in
  Cli.Trace.finish ~workload:wl_name ts;
  Format.printf "workload=%s system=%s terminals=%d servers=%d skew=%b compute=%.0fms seed=%d@."
    wl_name
    (match system with Driver.Acc -> "acc" | Driver.Baseline -> "baseline")
    terminals servers skew compute_ms seed;
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
  | [] ->
      Format.printf "consistency        OK%s@."
        (if wl = None then " (12 conditions)" else "")
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

let skew = Arg.(value & flag & info [ "skew" ] ~doc:"Skew district selection (hotspot).")

let min_items =
  Arg.(value & opt int 5 & info [ "min-items" ] ~docv:"N" ~doc:"Minimum items per new-order.")

let max_items =
  Arg.(value & opt int 15 & info [ "max-items" ] ~docv:"N" ~doc:"Maximum items per new-order.")
let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-transaction-type breakdown.")

let cmd =
  let doc = "run one TPC-C simulation against the ACC or the strict-2PL baseline" in
  Cmd.v (Cmd.info "acc-tpcc-run" ~doc)
    Term.(
      const main $ system $ terminals $ servers $ horizon $ think $ compute_ms $ skew
      $ min_items $ max_items $ seed $ verbose $ Cli.workload_arg $ Cli.list_workloads_arg
      $ Cli.scale_arg $ Cli.theta_arg $ Cli.wl_mix_arg $ Cli.wl_abort_rate_arg)

let () = exit (Cmd.eval cmd)
