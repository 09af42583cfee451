(* End-to-end integration tests: the simulation driver running both systems,
   determinism, semantic correctness at quiescence, and the qualitative
   orderings the paper's evaluation rests on. *)

open Acc_tpcc
module Driver = Acc_harness.Driver
module Experiment = Acc_harness.Experiment
module Tally = Acc_util.Stats.Tally

let small cfg = { cfg with Driver.horizon = 120.0; Driver.warmup = 15.0 }

let base_cfg =
  small
    {
      Driver.default_config with
      Driver.seed = 13;
      terminals = 12;
      servers = 3;
      think_mean = 5.0;
      cpu_per_unit = 0.005;
    }

let test_driver_baseline () =
  let r = Driver.run { base_cfg with Driver.system = Driver.Baseline } in
  Alcotest.(check bool) "completed some work" true (r.Driver.completed > 50);
  Alcotest.(check (list string)) "consistent at quiescence" [] r.Driver.violations;
  Alcotest.(check bool) "responses recorded" true (Tally.count r.Driver.response > 0);
  Alcotest.(check bool) "cpu busy" true (r.Driver.cpu_utilization > 0.01)

let test_driver_acc () =
  let r = Driver.run { base_cfg with Driver.system = Driver.Acc } in
  Alcotest.(check bool) "completed some work" true (r.Driver.completed > 50);
  Alcotest.(check (list string)) "consistent at quiescence" [] r.Driver.violations;
  Alcotest.(check bool) "some multi-step commits happened" true
    (List.mem_assoc "new_order" r.Driver.per_type)

let test_driver_deterministic () =
  let r1 = Driver.run { base_cfg with Driver.system = Driver.Acc } in
  let r2 = Driver.run { base_cfg with Driver.system = Driver.Acc } in
  Alcotest.(check int) "same completions" r1.Driver.completed r2.Driver.completed;
  Alcotest.(check (float 1e-12)) "same mean response" (Driver.mean_response r1)
    (Driver.mean_response r2);
  Alcotest.(check int) "same deadlocks" r1.Driver.victims r2.Driver.victims

let test_driver_seed_sensitivity () =
  let r1 = Driver.run { base_cfg with Driver.system = Driver.Acc } in
  let r2 = Driver.run { base_cfg with Driver.system = Driver.Acc; Driver.seed = 14 } in
  Alcotest.(check bool) "different seeds differ" true
    (Driver.mean_response r1 <> Driver.mean_response r2)

let test_forced_abort_rate () =
  (* ~1% of new-orders must abort; over a long run the count is positive and
     small *)
  let r =
    Driver.run
      {
        base_cfg with
        Driver.system = Driver.Acc;
        Driver.horizon = 400.0;
        terminals = 20;
        seed = 5;
      }
  in
  let new_orders =
    match List.assoc_opt "new_order" r.Driver.per_type with
    | Some t -> Tally.count t
    | None -> 0
  in
  Alcotest.(check bool) "some forced aborts" true (r.Driver.forced_aborts > 0);
  Alcotest.(check bool) "about 1 percent" true
    (r.Driver.forced_aborts < max 8 (new_orders / 20));
  Alcotest.(check (list string)) "still consistent" [] r.Driver.violations

(* the three load regimes the paper's conclusions rest on, at fixed seeds *)

let avg_ratio ~settings =
  let p = Experiment.measure settings in
  Experiment.response_ratio p

let quick_settings =
  {
    Experiment.default_settings with
    Experiment.seeds = [ 3; 17 ];
    horizon = 250.0;
    warmup = 25.0;
  }

let test_low_contention_overhead () =
  (* few terminals: the ACC's extra work makes it slower (ratio < 1) *)
  let ratio = avg_ratio ~settings:{ quick_settings with Experiment.terminals = 5 } in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f < 1 at low contention" ratio)
    true (ratio < 1.0)

let test_high_contention_win () =
  (* many terminals: lock contention dominates and the ACC wins (ratio > 1) *)
  let ratio = avg_ratio ~settings:{ quick_settings with Experiment.terminals = 50 } in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f > 1 at high contention" ratio)
    true (ratio > 1.0)

let test_single_server_bottleneck () =
  (* one server: CPU is the bottleneck, the ACC's overhead loses *)
  let ratio =
    avg_ratio
      ~settings:{ quick_settings with Experiment.terminals = 40; Experiment.servers = 1 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f < 1 with a single server" ratio)
    true (ratio < 1.0)

let test_compute_time_amplifies () =
  (* inter-statement compute time lengthens lock holds: the ACC's advantage
     grows markedly *)
  let plain = avg_ratio ~settings:{ quick_settings with Experiment.terminals = 40 } in
  let computed =
    avg_ratio
      ~settings:
        { quick_settings with Experiment.terminals = 40; Experiment.compute_between = 0.004 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "compute time amplifies (%.3f -> %.3f)" plain computed)
    true
    (computed > plain)

let test_crash_recovery_from_driver_log () =
  (* a real concurrent history: recover from prefixes of the actual driver
     log and complete the pending compensations *)
  let params = Params.default in
  let baseline = Load.populate ~seed:13 params in
  let r = Driver.run { base_cfg with Driver.system = Driver.Acc } in
  ignore r;
  (* Driver builds its own db; rebuild the same history here for the log *)
  let eng = Acc_txn.Executor.create ~sem:Txns.semantics (Acc_relation.Database.copy baseline) in
  let env = Txns.default_env ~seed:13 params in
  Acc_txn.Schedule.run ~policy:Acc_core.Runtime.victim_policy eng
    [
      (fun () ->
        for _ = 1 to 12 do
          ignore (Txns.run_acc eng env (Txns.gen_input env))
        done);
    ];
  let log = Acc_txn.Executor.log eng in
  let n = Acc_wal.Log.length log in
  (* sample prefixes: every 7th cut plus the ends *)
  let cuts = List.init ((n / 7) + 1) (fun i -> i * 7) @ [ n ] in
  List.iter
    (fun cut ->
      let rep = Acc_wal.Recovery.recover ~baseline (Acc_wal.Log.prefix log cut) in
      let eng' = Acc_txn.Executor.create ~sem:Txns.semantics rep.Acc_wal.Recovery.db in
      ignore (Acc_core.Replay.replay_pending ~workload:Txns.workload eng' rep);
      let db = rep.Acc_wal.Recovery.db in
      match Consistency.check db with
      | [] -> ()
      | problems ->
          Alcotest.fail (Printf.sprintf "cut %d: %s" cut (String.concat "; " problems)))
    cuts

let test_full_scale_driver () =
  (* the Rev 3.1 cardinalities end-to-end: both systems, consistent *)
  List.iter
    (fun system ->
      let r =
        Driver.run
          {
            base_cfg with
            Driver.system;
            workload = Tpcc_workload.make ~params:Params.full ();
            horizon = 60.0;
            warmup = 10.0;
            terminals = 10;
          }
      in
      Alcotest.(check bool) "worked" true (r.Driver.completed > 20);
      Alcotest.(check (list string)) "consistent" [] r.Driver.violations)
    [ Driver.Baseline; Driver.Acc ]

let suites =
  [
    ( "integration.driver",
      [
        Alcotest.test_case "baseline run" `Quick test_driver_baseline;
        Alcotest.test_case "acc run" `Quick test_driver_acc;
        Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_driver_seed_sensitivity;
        Alcotest.test_case "forced abort rate" `Slow test_forced_abort_rate;
        Alcotest.test_case "crash recovery from history" `Slow
          test_crash_recovery_from_driver_log;
        Alcotest.test_case "full-scale (Rev 3.1) driver run" `Slow test_full_scale_driver;
      ] );
    ( "integration.regimes",
      [
        Alcotest.test_case "low contention: ACC overhead" `Slow test_low_contention_overhead;
        Alcotest.test_case "high contention: ACC wins" `Slow test_high_contention_win;
        Alcotest.test_case "single server: baseline wins" `Slow test_single_server_bottleneck;
        Alcotest.test_case "compute time amplifies" `Slow test_compute_time_amplifies;
      ] );
  ]
