(* Crash-restart harness CLI: kill a workload at every registered crash point
   (or probabilistically in chaos mode), recover, and check the recovery
   invariants — on the single engine, or with --dist on the partitioned
   system behind the 2PC coordinator, whose oracle is no-lost-decision
   (DESIGN.md §15).  Exits 1 if any invariant is violated.

     acc-crash-restart                      # deterministic sweep, all points
     acc-crash-restart --point wal.append.commit --hit 3
     acc-crash-restart --chaos --seeds 1,2,3
     acc-crash-restart --dist --matrix --quick
     acc-crash-restart --list               # show registered crash points *)

open Cmdliner
module H = Acc_harness.Crash_harness
module Fault = Acc_fault.Fault
module Cli = Acc_harness.Cli

let single_defaults = H.default_config (H.Single H.default_single)
let partitioned_defaults = H.default_config (H.Partitioned H.default_partitioned)

let report results =
  List.iter (fun r -> Format.printf "%a@." H.pp_result r) results;
  let failures = List.filter H.failed results in
  let crashes = List.fold_left (fun acc r -> acc + r.H.r_crashes) 0 results in
  Format.printf "%d run(s), %d crash(es) injected, %d failure(s)@." (List.length results)
    crashes (List.length failures);
  if failures <> [] then exit 1

(* Refuse the [given] flags that the run would silently ignore. *)
let refuse_ignored why flags =
  match List.filter_map (fun (flag, given) -> if given then Some flag else None) flags with
  | [] -> ()
  | flags -> failwith (Printf.sprintf "%s would be ignored %s" (String.concat ", " flags) why)

let main list_points point hit chaos seeds txns chaos_p step_fault_p checkpoint_every hits seed
    verbose dist partitions netfault coordinator_kill matrix quick workload
    list_workloads scale theta mix abort_rate =
  if list_workloads then begin
    Cli.print_workloads ();
    exit 0
  end;
  (* the plugin knobs shape only a --workload run *)
  if workload = None then
    refuse_ignored "without --workload: each system runs its fixed default profile"
      [
        ("--scale", scale <> 1);
        ("--theta", theta <> 0.);
        ("--mix", mix <> None);
        ("--abort-rate", abort_rate <> None);
      ];
  (* each system reads only its own knobs *)
  if dist then
    refuse_ignored "with --dist: only the single engine reads them"
      [ ("--step-fault-p", step_fault_p <> None); ("--checkpoint-every", checkpoint_every <> None) ]
  else
    refuse_ignored "without --dist: only the partitioned system reads them"
      [
        ("--partitions", partitions <> None);
        ("--netfault", netfault <> None);
        ("ACC_NETFAULT", Fault.Netfault.of_env () <> None);
        ("--coordinator-kill", coordinator_kill);
      ];
  refuse_ignored "without --matrix" [ ("--quick", quick && not matrix) ];
  let wl = Option.map (Cli.resolve ~scale ~theta ?mix ?abort_rate) workload in
  if list_points then List.iter print_endline (Fault.registered ())
  else begin
    if matrix && not dist then
      failwith "--matrix is only supported with --dist (the matrix crosses message faults and restart modes)";
    let system =
      if dist then
        (* --netfault beats ACC_NETFAULT beats none *)
        let netfault =
          match netfault with
          | Some spec -> Fault.Netfault.parse spec
          | None -> Option.value (Fault.Netfault.of_env ()) ~default:Fault.Netfault.none
        in
        H.Partitioned
          { H.partitions = Option.value partitions ~default:H.default_partitioned.H.partitions;
            netfault; coordinator_kill }
      else
        (* a plugin chosen by name need not reach every crash point *)
        H.Single
          { H.coverage = wl = None;
            step_fault_p = Option.value step_fault_p ~default:H.default_single.H.step_fault_p;
            checkpoint_every =
              Option.value checkpoint_every ~default:H.default_single.H.checkpoint_every }
    in
    let base = H.default_config system in
    let config =
      {
        base with
        H.workload = Option.value wl ~default:base.H.workload;
        txns = Option.value txns ~default:base.H.txns;
        chaos_p = Option.value chaos_p ~default:base.H.chaos_p;
        hits_per_point = hits;
        seed;
        verbose;
      }
    in
    (* ACC_TRACE / ACC_TRACE_CHROME collect a lock-decision trace of the whole
       run — including the recoveries — for post-mortem on a failed seed *)
    let ts = Cli.Trace.configure () in
    let results =
      match (point, matrix, chaos) with
      | Some point, _, _ -> [ H.run_one config ~point ~hit ]
      | None, true, _ -> H.sweep_matrix ~quick config
      | None, false, true -> List.map (fun seed -> H.chaos config ~seed) seeds
      | None, false, false -> H.sweep config
    in
    let module W = (val config.H.workload : Acc_workload.S) in
    Cli.Trace.finish ~workload:W.name ts;
    report results
  end

let list_points = Arg.(value & flag & info [ "list" ] ~doc:"List registered crash points and exit.")

let point =
  Arg.(value & opt (some string) None & info [ "point" ] ~docv:"NAME" ~doc:"Crash at one named point only.")

let hit = Arg.(value & opt int 1 & info [ "hit" ] ~docv:"N" ~doc:"Passage count at which --point fires.")
let chaos = Arg.(value & flag & info [ "chaos" ] ~doc:"Probabilistic crashes instead of the sweep.")

let seeds =
  Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"S1,S2" ~doc:"Chaos seeds, one soak run each.")

let txns =
  Arg.(
    value
    & opt (some int) None
    & info [ "txns" ] ~docv:"N"
        ~doc:
          (Printf.sprintf "Transactions per run (default %d, or %d with --dist)."
             single_defaults.H.txns partitioned_defaults.H.txns))

let chaos_p =
  Arg.(
    value
    & opt (some float) None
    & info [ "chaos-p" ] ~docv:"P"
        ~doc:
          (Printf.sprintf "Per-passage crash probability in chaos mode (default %g, or %g with --dist)."
             single_defaults.H.chaos_p partitioned_defaults.H.chaos_p))

let step_fault_p =
  Arg.(value & opt (some float) None & info [ "step-fault-p" ] ~docv:"P" ~doc:(Printf.sprintf "Single engine only: retryable injected step-failure probability (default %g)." H.default_single.H.step_fault_p))

let checkpoint_every =
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"N" ~doc:(Printf.sprintf "Single engine only: quiescent checkpoint cadence in log records (default %d)." H.default_single.H.checkpoint_every))

let hits =
  Arg.(value & opt int single_defaults.H.hits_per_point & info [ "hits-per-point" ] ~docv:"N" ~doc:"Crash at this many spread hit counts per point.")

let seed = Arg.(value & opt int single_defaults.H.seed & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Narrate each crash and recovery.")

let dist =
  Arg.(value & flag & info [ "dist" ] ~doc:"Partitioned system under test: crash the 2PC coordinator paths and check the no-lost-decision oracle.")

let partitions =
  Arg.(value & opt (some int) None & info [ "partitions" ] ~docv:"N" ~doc:(Printf.sprintf "--dist mode: partition count (default %d), at most the workload's partition keys (TPC-C: its warehouses, 4 in the default profile)." H.default_partitioned.H.partitions))

let netfault =
  Arg.(
    value
    & opt (some string) None
    & info [ "netfault" ] ~docv:"SPEC"
        ~doc:"--dist mode: message-fault spec live on every coordinator↔participant \
              connection, e.g. 'drop=0.1,dup=0.05,seed=7' or 'all=0.05' (kinds: drop, \
              dup, delay, reorder, disconnect; optional ops=decide+prepare filter). \
              Default: the ACC_NETFAULT env var, else none.")

let coordinator_kill =
  Arg.(
    value & flag
    & info [ "coordinator-kill" ]
        ~doc:"--dist mode: crashes at coordinator-side points (dist.decide, \
              dist.decision.durable) fail over the coordinator (reopen the decision \
              log, settle in-doubt branches over the transport) instead of restarting \
              every partition.")

let matrix =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:"--dist mode: sweep the full chaos matrix — crash points × transport-fault \
              kinds × restart mode (full restart and coordinator kill) — instead of the \
              plain crash-point sweep.")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"--matrix only: one fault kind per point (the per-push smoke slice).")

let cmd =
  let doc = "crash a workload at registered fault points, recover, check invariants" in
  Cmd.v
    (Cmd.info "acc-crash-restart" ~doc)
    Term.(
      const main $ list_points $ point $ hit $ chaos $ seeds $ txns $ chaos_p $ step_fault_p
      $ checkpoint_every $ hits $ seed $ verbose $ dist $ partitions $ netfault
      $ coordinator_kill $ matrix $ quick $ Cli.workload_opt_arg
      $ Cli.list_workloads_arg $ Cli.scale_arg $ Cli.theta_arg $ Cli.wl_mix_arg
      $ Cli.wl_abort_rate_arg)

let () = exit (Cmd.eval cmd)
