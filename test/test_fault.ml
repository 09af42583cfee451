(* Tests for acc.fault and the crash-restart harness: the crash-point
   registry and arming modes, the harness's sweep/chaos invariant checks,
   and a crash-equivalence property — a run killed at a random registered
   point, recovered and compensation-replayed, must end in a state some
   crash-free schedule of the same inputs could have produced. *)

open Acc_tpcc
module Fault = Acc_fault.Fault
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Log = Acc_wal.Log
module Record = Acc_wal.Record
module Recovery = Acc_wal.Recovery
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Runtime = Acc_core.Runtime
module Replay = Acc_core.Replay
module Crash_harness = Acc_harness.Crash_harness

(* Unit tests reuse engine-registered points rather than registering fresh
   ones: the registry is global and append-only, and [Crash_harness.sweep]
   (exercised below, same process) reports any registered point the TPC-C
   workload never trips as a coverage failure. *)
let release_pt = Fault.register "exec.release"

let with_faults f = Fun.protect ~finally:Fault.disarm f

(* --- registry and arming -------------------------------------------------- *)

let test_registry () =
  let names = Fault.registered () in
  Alcotest.(check (list string)) "re-register is idempotent" names
    (ignore (Fault.register "exec.release");
     Fault.registered ());
  List.iter
    (fun n -> Alcotest.(check bool) ("registered: " ^ n) true (List.mem n names))
    [
      "wal.append.begin"; "wal.append.write"; "wal.append.undo"; "wal.append.step_end";
      "wal.append.commit"; "wal.append.abort"; "exec.commit.durable"; "exec.release";
      "comp.write"; "comp.begin";
    ]

let test_observe_counts () =
  with_faults (fun () ->
      Fault.observe ();
      for _ = 1 to 5 do
        Fault.trip release_pt
      done;
      Alcotest.(check int) "trips counted" 5 (Fault.trips release_pt);
      Alcotest.(check int) "trips_of agrees" 5 (Fault.trips_of "exec.release");
      Fault.disarm ();
      Alcotest.(check int) "disarm resets counters" 0 (Fault.trips release_pt);
      Fault.trip release_pt;
      Alcotest.(check int) "disarmed trips not counted" 0 (Fault.trips release_pt))

let test_arm_exact_hit () =
  with_faults (fun () ->
      let other = Fault.register "exec.commit.durable" in
      Fault.arm ~point:"exec.release" ~hit:3;
      Fault.trip release_pt;
      Fault.trip other;
      (* a different point never fires *)
      Fault.trip release_pt;
      (match Fault.trip release_pt with
      | () -> Alcotest.fail "expected a crash at hit 3"
      | exception (Fault.Crash { point; hit } as e) ->
          Alcotest.(check string) "crash names the point" "exec.release" point;
          Alcotest.(check int) "crash at the armed hit" 3 hit;
          Alcotest.(check bool) "is_crash" true (Fault.is_crash e);
          Alcotest.(check bool) "is_crash is specific" false (Fault.is_crash Exit));
      (* At-mode fires only at the exact hit, so a restarted process (which
         keeps counting past it) runs on *)
      Fault.trip release_pt;
      Alcotest.(check int) "counting continues past the hit" 4 (Fault.trips release_pt))

let test_arm_validation () =
  let invalid f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown point" true
    (invalid (fun () -> Fault.arm ~point:"no.such.point" ~hit:1));
  Alcotest.(check bool) "hit < 1" true (invalid (fun () -> Fault.arm ~point:"exec.release" ~hit:0));
  Alcotest.(check bool) "trips_of unknown" true (invalid (fun () -> ignore (Fault.trips_of "no")));
  Alcotest.(check bool) "chaos p out of range" true
    (invalid (fun () -> Fault.arm_chaos ~seed:1 ~p:1.5))

let test_chaos_deterministic () =
  with_faults (fun () ->
      let trips_until_crash seed =
        Fault.arm_chaos ~seed ~p:0.1;
        let n = ref 0 in
        (try
           while !n < 10_000 do
             Fault.trip release_pt;
             incr n
           done
         with Fault.Crash _ -> ());
        Fault.disarm ();
        !n
      in
      let a = trips_until_crash 5 in
      Alcotest.(check bool) "chaos fires" true (a < 10_000);
      Alcotest.(check int) "same seed, same crash" a (trips_until_crash 5))

let test_step_faults () =
  with_faults (fun () ->
      Fault.arm_step_faults ~seed:1 ~p:1.0;
      Alcotest.(check bool) "p=1 fires" true
        (try
           Fault.step_trip ();
           false
         with Fault.Step_fault -> true);
      Fault.disarm ();
      Fault.step_trip ();
      (* disarmed: no raise *)
      Fault.arm_step_faults ~seed:1 ~p:0.0;
      for _ = 1 to 100 do
        Fault.step_trip ()
      done)

let test_configure_from_env () =
  let clear () =
    Unix.putenv "ACC_CRASHPOINT" "";
    Unix.putenv "ACC_STEP_FAULTS" ""
  in
  with_faults (fun () ->
      Fun.protect ~finally:clear (fun () ->
          clear ();
          Unix.putenv "ACC_CRASHPOINT" "exec.release:2";
          Fault.configure_from_env ();
          Fault.trip release_pt;
          Alcotest.(check bool) "point:hit form" true
            (try
               Fault.trip release_pt;
               false
             with Fault.Crash { hit = 2; _ } -> true);
          Fault.disarm ();
          clear ();
          Unix.putenv "ACC_CRASHPOINT" "chaos:1.0:9";
          Fault.configure_from_env ();
          Alcotest.(check bool) "chaos:p:seed form" true
            (try
               Fault.trip release_pt;
               false
             with Fault.Crash _ -> true);
          Fault.disarm ();
          clear ();
          Unix.putenv "ACC_STEP_FAULTS" "1.0:3";
          Fault.configure_from_env ();
          Alcotest.(check bool) "step-fault form" true
            (try
               Fault.step_trip ();
               false
             with Fault.Step_fault -> true);
          Fault.disarm ();
          clear ();
          Fault.configure_from_env ();
          Fault.trip release_pt;
          Alcotest.(check int) "empty vars leave faults disarmed" 0 (Fault.trips release_pt)))

(* --- message-fault specs (the dist transport's arming surface) ------------ *)

let test_netfault_parse () =
  let s = Fault.Netfault.parse "drop=0.1,dup=0.05,seed=7,ops=decide+prepare" in
  Alcotest.(check (float 0.)) "drop" 0.1 s.Fault.Netfault.drop;
  Alcotest.(check (float 0.)) "dup" 0.05 s.Fault.Netfault.dup;
  Alcotest.(check (float 0.)) "delay defaults to 0" 0. s.Fault.Netfault.delay;
  Alcotest.(check int) "seed" 7 s.Fault.Netfault.seed;
  Alcotest.(check (list string)) "ops filter" [ "decide"; "prepare" ]
    (List.sort compare s.Fault.Netfault.ops);
  Alcotest.(check bool) "applies to a listed op" true (Fault.Netfault.applies s ~op:"decide");
  Alcotest.(check bool) "ignores an unlisted op" false (Fault.Netfault.applies s ~op:"ack");
  let all = Fault.Netfault.parse "all=0.05" in
  List.iter
    (fun k ->
      let v =
        match k with
        | "drop" -> all.Fault.Netfault.drop
        | "dup" -> all.Fault.Netfault.dup
        | "delay" -> all.Fault.Netfault.delay
        | "reorder" -> all.Fault.Netfault.reorder
        | _ -> all.Fault.Netfault.disconnect
      in
      Alcotest.(check (float 0.)) ("all sets " ^ k) 0.05 v)
    Fault.Netfault.kinds;
  Alcotest.(check bool) "empty ops applies everywhere" true
    (Fault.Netfault.applies all ~op:"vote");
  Alcotest.(check bool) "none is none" true (Fault.Netfault.is_none Fault.Netfault.none);
  Alcotest.(check bool) "a live spec is not none" false (Fault.Netfault.is_none s);
  (* to_string is parse's inverse *)
  Alcotest.(check bool) "round-trips through to_string" true
    (Fault.Netfault.parse (Fault.Netfault.to_string s) = s);
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown key" true
    (invalid (fun () -> Fault.Netfault.parse "bogus=1"));
  Alcotest.(check bool) "p > 1" true (invalid (fun () -> Fault.Netfault.parse "drop=1.5"));
  Alcotest.(check bool) "p < 0" true (invalid (fun () -> Fault.Netfault.parse "dup=-0.1"));
  Alcotest.(check bool) "bare word" true (invalid (fun () -> Fault.Netfault.parse "drop"))

let test_netfault_of_env () =
  let clear () = Unix.putenv "ACC_NETFAULT" "" in
  Fun.protect ~finally:clear (fun () ->
      clear ();
      Alcotest.(check bool) "empty var is None" true (Fault.Netfault.of_env () = None);
      Unix.putenv "ACC_NETFAULT" "drop=0.25,seed=3";
      match Fault.Netfault.of_env () with
      | None -> Alcotest.fail "set var ignored"
      | Some s ->
          Alcotest.(check (float 0.)) "drop from env" 0.25 s.Fault.Netfault.drop;
          Alcotest.(check int) "seed from env" 3 s.Fault.Netfault.seed)

(* --- crash-restart harness ------------------------------------------------ *)

let small_config =
  {
    (Crash_harness.default_config
       (Single { Crash_harness.default_single with checkpoint_every = 8 }))
    with
    txns = 20;
    hits_per_point = 1;
  }

let check_results results =
  List.iter
    (fun r ->
      if Crash_harness.failed r then
        Alcotest.failf "%s" (Format.asprintf "%a" Crash_harness.pp_result r))
    results

let test_sweep_smoke () =
  let results = Crash_harness.sweep small_config in
  check_results results;
  Alcotest.(check bool) "sweep injected crashes" true
    (List.exists (fun r -> r.Crash_harness.r_crashes > 0) results)

let test_chaos_smoke () =
  let config = { small_config with txns = 12; chaos_p = 0.01 } in
  check_results [ Crash_harness.chaos config ~seed:1 ]

(* --- crash-equivalence property ------------------------------------------- *)

(* Kill a run at a registered point, recover from (baseline, log), replay
   the pending compensation; then build the crash-free reference: the same
   inputs up to the crashed one, which is (a) re-run whole if its Commit
   record was durable, (b) run with a programmatic abort after its last
   durable step if recovery reported it pending — compensation replay and an
   inline abort-after-step-[k] must coincide — or (c) skipped if it left no
   completed step (physical undo ≡ never ran).  The two final states must
   agree, except that history's surrogate h_id may differ (the process-wide
   sequence also counts inserts the crash discarded), so history is compared
   as a multiset of its other columns. *)

type crash_outcome =
  | Ran_all
  | Crashed_at of { at : int; committed : bool; pending : Recovery.pending list }

let quiet_env seed =
  { (Txns.default_env ~seed Params.default) with Txns.new_order_abort_rate = 0. }

let run_input eng env input =
  Schedule.run eng [ (fun () -> ignore (Txns.run_acc eng env input)) ]

let run_crashed ~seed ~inputs ~point ~hit =
  Fault.disarm ();
  Txns.reset_history_seq ();
  let db = Load.populate ~seed Params.default in
  let baseline = Database.copy db in
  let eng = Executor.create ~sem:Txns.semantics db in
  let env = quiet_env seed in
  Fault.arm ~point ~hit;
  let rec go i =
    if i >= Array.length inputs then begin
      Fault.disarm ();
      (Executor.db eng, Ran_all)
    end
    else
      let start_lsn = Log.length (Executor.log eng) in
      match run_input eng env inputs.(i) with
      | () -> go (i + 1)
      | exception Fault.Crash _ ->
          Fault.disarm ();
          let committed =
            List.exists
              (function Record.Commit _ -> true | _ -> false)
              (Log.appended_since (Executor.log eng) start_lsn)
          in
          let rep = Recovery.recover ~baseline (Log.to_list (Executor.log eng)) in
          let eng' = Executor.create ~sem:Txns.semantics (Database.copy rep.Recovery.db) in
          ignore (Replay.replay_pending ~workload:Txns.workload eng' rep);
          (Executor.db eng', Crashed_at { at = i; committed; pending = rep.Recovery.pending })
  in
  Fun.protect ~finally:Fault.disarm (fun () -> go 0)

let run_reference ~seed ~inputs outcome =
  Txns.reset_history_seq ();
  let db = Load.populate ~seed Params.default in
  let eng = Executor.create ~sem:Txns.semantics db in
  let env = quiet_env seed in
  (match outcome with
  | Ran_all -> Array.iter (run_input eng env) inputs
  | Crashed_at { at; committed; pending } ->
      for i = 0 to at - 1 do
        run_input eng env inputs.(i)
      done;
      if committed then run_input eng env inputs.(at)
      else (
        match pending with
        | [] -> () (* no completed step survived: as if it never ran *)
        | [ p ] ->
            let inst = Txns.instance env inputs.(at) in
            if Option.is_none inst.Acc_core.Program.i_compensate then
              Alcotest.fail "pending compensation for a non-decomposed input";
            Schedule.run eng
              [ (fun () -> ignore (Runtime.run ~abort_at:p.Recovery.p_completed_steps eng inst)) ]
        | _ -> Alcotest.fail "multiple pending from a single-fiber run"));
  Executor.db eng

let history_multiset db =
  Table.scan (Database.table db "history")
  |> List.map (fun row -> Array.to_list (Array.sub row 1 (Array.length row - 1)))
  |> List.sort compare

let db_equiv a b =
  List.sort compare (Database.table_names a) = List.sort compare (Database.table_names b)
  && List.for_all
       (fun name ->
         if name = "history" then history_multiset a = history_multiset b
         else Table.equal (Database.table a name) (Database.table b name))
       (Database.table_names a)

(* Points a fault-free TPC-C run passes through (the comp.* and undo points
   need an abort in flight; the sweep above covers those). *)
let crashable_points =
  [|
    "wal.append.begin"; "wal.append.write"; "wal.append.step_end"; "wal.append.commit";
    "exec.commit.durable"; "exec.release";
  |]

let prop_crash_equivalence =
  QCheck2.Test.make ~name:"fault: crash+recover+replay = a crash-free schedule" ~count:20
    QCheck2.Gen.(
      quad (int_range 0 1000) (int_range 4 10)
        (int_range 0 (Array.length crashable_points - 1))
        (int_range 1 60))
    (fun (seed, txns, pi, hit) ->
      let point = crashable_points.(pi) in
      let inputs =
        let env = quiet_env seed in
        Array.init txns (fun _ -> Txns.gen_input env)
      in
      let crashed_db, outcome = run_crashed ~seed ~inputs ~point ~hit in
      let reference_db = run_reference ~seed ~inputs outcome in
      db_equiv crashed_db reference_db
      && Consistency.check crashed_db = [])

let suites =
  [
    ( "fault.inject",
      [
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "observe counts" `Quick test_observe_counts;
        Alcotest.test_case "arm fires at exact hit" `Quick test_arm_exact_hit;
        Alcotest.test_case "arm validation" `Quick test_arm_validation;
        Alcotest.test_case "chaos is seed-deterministic" `Quick test_chaos_deterministic;
        Alcotest.test_case "step faults" `Quick test_step_faults;
        Alcotest.test_case "configure from env" `Quick test_configure_from_env;
        Alcotest.test_case "netfault spec parse/print" `Quick test_netfault_parse;
        Alcotest.test_case "netfault from ACC_NETFAULT" `Quick test_netfault_of_env;
      ] );
    ( "fault.harness",
      [
        Alcotest.test_case "sweep survives every crash point" `Slow test_sweep_smoke;
        Alcotest.test_case "chaos seed survives" `Slow test_chaos_smoke;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xFA017 |])
          prop_crash_equivalence;
      ] );
  ]
