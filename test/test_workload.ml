(* Tests for acc.workload: the plugin registry, generic consistency of every
   registered workload under the sequential and multicore engines, the
   directed write-skew test — the SmallBank invariant checker must catch the
   overdraw a deliberately weakened interference table lets through, and the
   shipped table must prevent it — and the compensation contract: one body
   per compensable type, shared by inline aborts and crash replay. *)

module W = Acc_workload
module P = Acc_tpcc.Parallel_driver
module SB = Acc_workload.Smallbank
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Txn_effect = Acc_txn.Txn_effect
module Runtime = Acc_core.Runtime
module Replay = Acc_core.Replay
module Program = Acc_core.Program
module Prng = Acc_util.Prng
module Fault = Acc_fault.Fault
module Log = Acc_wal.Log
module Recovery = Acc_wal.Recovery
module Database = Acc_relation.Database
module Txns = Acc_tpcc.Txns

let registered () =
  W.Builtin.ensure ();
  Acc_tpcc.Tpcc_workload.register ();
  W.Registry.names ()

(* --- registry ----------------------------------------------------------- *)

let test_registry () =
  let names = List.map fst (registered ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "tpcc"; "smallbank"; "tatp"; "hotspot"; "longreader"; "order-processing"; "stock-trading" ];
  Alcotest.(check bool) "ensure is idempotent" true
    (List.length (registered ()) = List.length names);
  match W.Registry.find "no-such-workload" with
  | None -> ()
  | Some _ -> Alcotest.fail "find of an unknown name returned a workload"

let test_zipf () =
  let g = Prng.create ~seed:5 in
  let z = Prng.zipf ~n:100 ~theta:0.9 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Prng.zipf_draw g z in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  (* the defining property: rank 0 dominates any deep-tail rank *)
  Alcotest.(check bool) "skewed toward rank 0" true (counts.(0) > 10 * counts.(99))

(* --- every registered workload, sequential and multicore ---------------- *)

(* One spec per workload, small, fixed seed: the run must end with that
   workload's own consistency check clean and no locks or waiters leaked,
   at 1 domain (sequential order) and at 4 (real interleaving), under both
   the ACC and the strict-2PL flat baseline. *)
let run_registered name ~domains ~system =
  let wl =
    match W.Registry.find name with
    | Some make -> make { W.scale = 1; skew = 0.; mix = None; abort_rate = None }
    | None -> Alcotest.failf "%s not registered" name
  in
  let r =
    P.run
      {
        P.default_config with
        P.system;
        domains;
        duration = 0.;
        txns_per_domain = Some 40;
        compute_between = 0.;
        seed = 11;
        workload = Some wl;
      }
  in
  Alcotest.(check (list string)) (name ^ ": consistency") [] r.P.violations;
  Alcotest.(check int) (name ^ ": leaked locks") 0 r.P.leaked_locks;
  Alcotest.(check int) (name ^ ": leaked waiters") 0 r.P.leaked_waiters;
  Alcotest.(check bool) (name ^ ": committed") true (r.P.committed > 0);
  Alcotest.(check string) (name ^ ": report names itself") name r.P.workload_name

let test_all_seq () =
  List.iter
    (fun (name, _) -> run_registered name ~domains:1 ~system:P.Acc)
    (registered ())

let test_all_parallel () =
  List.iter
    (fun (name, _) -> run_registered name ~domains:4 ~system:P.Acc)
    (registered ())

let test_all_baseline () =
  List.iter
    (fun (name, _) -> run_registered name ~domains:2 ~system:P.Baseline)
    (registered ())

(* --- directed write-skew ------------------------------------------------ *)

(* Two write_checks of 400 against one account endowed with 600.  The
   verify-funds step paces after its last read, as a client pauses between
   checking funds and writing the check; under the yielding pace both
   verify-funds steps hold their S locks — and attach wc_funds — before
   either deduct is admitted.  That pause is the window write skew lives
   in.  The shipped interference table makes each deduct (and its
   void-check compensation lock) interfere with the other's held wc_funds
   assertion: the crosswise blocks are a deadlock, the victim policy
   compensates one, and at most one deduct lands (total stays >= 0).  The
   weakened table declares the deducts compatible with wc_funds — the false
   claim — so both stale decisions execute and the account is jointly
   overdrawn, which [SB.consistency] must report. *)
let write_skew_race sem =
  SB.reset_global ();
  let db = SB.populate ~accounts:4 ~seed:3 in
  let eng = Executor.create ~sem db in
  let env =
    SB.make_env
      ~pace:(fun () -> Txn_effect.yield ())
      ~accounts:4 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 ()
  in
  let run acct =
    let inst = SB.write_check_instance env ~acct ~amount:400. ~fail:false in
    fun () -> ignore (Runtime.run eng inst)
  in
  Schedule.run ~policy:Runtime.victim_policy eng [ run 1; run 1 ];
  SB.consistency (Executor.db eng)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_write_skew_weakened () =
  let violations = write_skew_race SB.semantics_weakened in
  Alcotest.(check bool) "weakened table lets the overdraw through" true
    (List.exists (fun v -> contains v "overdrawn") violations)

let test_write_skew_guarded () =
  Alcotest.(check (list string)) "shipped table keeps the invariant" []
    (write_skew_race SB.semantics)

(* --- one compensating body per type --------------------------------------- *)

(* For every compensable type a test can build, the instance's compensating
   body is physically the function its workload registered with Replay: an
   inline abort and crash replay run the same code, reading only the work
   area. *)
let test_one_body_per_type () =
  ignore (registered ());
  List.iter
    (fun reset -> reset ())
    [
      SB.reset_global; W.Tatp.reset_global; W.Hotspot.reset_global;
      W.Long_reader.reset_global; W.Order_processing.reset_global;
      W.Stock_trading.reset_global;
    ];
  let check (inst : Program.instance) =
    let name = inst.Program.i_def.Program.tt_name in
    match (inst.Program.i_compensate, Replay.handler name) with
    | Some body, Some registered ->
        Alcotest.(check bool) (name ^ ": instance body == registered body") true
          (body == registered)
    | None, _ -> Alcotest.failf "%s: the instance has no compensating body" name
    | _, None -> Alcotest.failf "%s: no body registered with Replay" name
  in
  let tpcc = Txns.default_env Acc_tpcc.Params.default in
  let new_order items =
    Txns.New_order { no_w = 1; no_d = 1; no_c = 1; no_items = items; no_fail_last = false }
  in
  let payment ~c_w =
    Txns.Payment
      { p_w = 1; p_d = 1; p_c_w = c_w; p_c_d = 1; p_customer = Txns.By_id 1; p_amount = 5. }
  in
  List.iter
    (fun input -> check (Txns.instance tpcc input))
    [ new_order [ (1, 1, 1) ]; payment ~c_w:1; Txns.Delivery { dl_w = 1; dl_carrier = 1 } ];
  (* a remote customer and a remote supplier: all four branch types *)
  List.iter
    (fun input ->
      List.iter (fun (_, inst) -> check inst)
        (Acc_tpcc.Dist_txns.branches tpcc ~part_of:Fun.id input))
    [ payment ~c_w:2; new_order [ (1, 1, 1); (2, 1, 2) ] ];
  let sb = SB.make_env ~accounts:4 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 () in
  List.iter
    (fun input -> check (SB.instance sb input))
    [
      SB.Deposit { acct = 1; amount = 1. };
      SB.Transact { acct = 1; amount = 1. };
      SB.Write_check { acct = 1; amount = 1.; fail = false };
      SB.Amalgamate { src = 1; dst = 2; fail = false };
    ];
  let tatp =
    W.Tatp.make_env ~subscribers:10 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 ()
  in
  List.iter
    (fun input -> check (W.Tatp.instance tatp input))
    [
      W.Tatp.Update_bit { sub = 1; bit = 1 };
      W.Tatp.Update_location { sub = 1; loc = 1; fail = false };
    ];
  let hot = W.Hotspot.make_env ~rows:4 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 () in
  check (W.Hotspot.bump_instance hot ~txn:1 ~rows:[ 1; 2 ] ~fail:false);
  let lr = W.Long_reader.make_env ~rows:4 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 () in
  check (W.Long_reader.post_instance lr ~src:1 ~dst:2 ~amount:1. ~fail:false);
  check (fst (W.Order_processing.new_order ~items:[ (1, 1) ] ()));
  check (fst (W.Stock_trading.buy ~buyer:1 ~want:1 ~steps:1 ()))

(* A compensating step that writes nothing — SmallBank's void-check after
   the read-only verify step — ends with its Abort record and no step end
   of its own.  A crash that loses that Abort must leave the transaction
   pending after its one forward step, so replay undoes nothing: counted as
   a second forward step, the compensation would be replayed as a voided
   deduct that never happened. *)
let test_no_write_compensation_crash () =
  SB.reset_global ();
  let db = SB.populate ~accounts:4 ~seed:1 in
  let baseline = Database.copy db in
  let eng = Executor.create ~wal_policy:Log.Direct ~sem:SB.semantics db in
  let env = SB.make_env ~accounts:4 ~skew:0. ~abort_rate:0. ~mix:None ~seed:1 () in
  let inst = SB.instance env (SB.Write_check { acct = 3; amount = 50.; fail = true }) in
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm ~point:"wal.append.abort" ~hit:1;
      match Schedule.run eng [ (fun () -> ignore (Runtime.run eng inst)) ] with
      | () -> Alcotest.fail "expected a crash at the compensation's Abort"
      | exception Fault.Crash _ -> ());
  let rep = Recovery.recover ~baseline (Log.to_list (Executor.log eng)) in
  (match rep.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "pending after the forward step only" 1
        p.Recovery.p_completed_steps
  | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
  let eng' =
    Executor.create ~wal_policy:Log.Direct ~sem:SB.semantics
      (Database.copy rep.Recovery.db)
  in
  Alcotest.(check int) "one replayed" 1 (Replay.replay_pending eng' rep);
  Alcotest.(check (list string)) "no violations" [] (SB.consistency (Executor.db eng'))

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "registry: all plugins present" `Quick test_registry;
        Alcotest.test_case "zipf: range and skew" `Quick test_zipf;
        Alcotest.test_case "every workload: 1-domain acc" `Quick test_all_seq;
        Alcotest.test_case "every workload: 4-domain acc" `Slow test_all_parallel;
        Alcotest.test_case "every workload: 2-domain 2pl" `Slow test_all_baseline;
        Alcotest.test_case "write-skew: weakened table caught" `Quick test_write_skew_weakened;
        Alcotest.test_case "write-skew: shipped table clean" `Quick test_write_skew_guarded;
        Alcotest.test_case "compensation: one body per type" `Quick test_one_body_per_type;
        Alcotest.test_case "compensation: no-write comp crash replays nothing" `Quick
          test_no_write_compensation_crash;
      ] );
  ]
