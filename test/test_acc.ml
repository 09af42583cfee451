(* Tests for acc.core: interference analysis, the one-level ACC runtime
   (admission, step interleaving, compensation, legacy isolation), and the
   semantic-correctness properties on the §4-style order workload. *)

open Acc_core
module W = Workload_orders
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Value = Acc_relation.Value
module Predicate = Acc_relation.Predicate
module Executor = Acc_txn.Executor
module Lock_service = Acc_lock.Lock_service
module Lock_request = Acc_lock.Lock_request
module Schedule = Acc_txn.Schedule
module Txn_effect = Acc_txn.Txn_effect
module Serializability = Acc_txn.Serializability
module Lock_table = Acc_lock.Lock_table
module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id

let v_int n = Value.Int n
let opts = { Runtime.default_options with verify_assertions = true }

let stock2 = [ (1, 15, 10); (2, 15, 20) ]

let check_consistent ?(what = "consistency") ~initial_stock eng =
  match W.check_consistency ~initial_stock (Executor.db eng) with
  | [] -> ()
  | problems -> Alcotest.fail (what ^ ": " ^ String.concat "; " problems)

let expect_committed what = function
  | Runtime.Committed -> ()
  | Runtime.Compensated _ -> Alcotest.fail (what ^ ": unexpectedly compensated")

(* --- footprints & analysis ------------------------------------------------ *)

let test_footprint_overlap () =
  let open Footprint in
  Alcotest.(check bool) "all vs cols" true (cols_overlap All_columns (Columns [ "x" ]));
  Alcotest.(check bool) "disjoint cols" false (cols_overlap (Columns [ "a" ]) (Columns [ "b" ]));
  Alcotest.(check bool) "shared col" true (cols_overlap (Columns [ "a"; "b" ]) (Columns [ "b" ]));
  let fresh_orders = make ~fresh:Fresh "orders" All_columns in
  let shared_orders = make "orders" (Columns [ "num_items" ]) in
  Alcotest.(check bool) "fresh vs fresh never aliases" false (may_alias fresh_orders fresh_orders);
  Alcotest.(check bool) "fresh vs shared aliases" true (may_alias fresh_orders shared_orders);
  Alcotest.(check bool) "different tables" false
    (may_alias fresh_orders (make "stock" All_columns))

let test_assertion_validation () =
  Alcotest.(check bool) "reserved id" true
    (try
       ignore (Assertion.make ~id:0 ~name:"x" ~txn_type:"t" ~pre_of:1 ~until:1 ~refs:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad window" true
    (try
       ignore (Assertion.make ~id:5 ~name:"x" ~txn_type:"t" ~pre_of:3 ~until:2 ~refs:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list string)) "tables deduped"
    [ "orderlines"; "orders" ]
    (Assertion.tables W.assert_loop_inv)

let test_program_validation () =
  (* multi-step without compensation is rejected *)
  let s1 =
    Program.step ~id:90 ~name:"a" ~txn_type:"t" ~index:1 ~reads:[] ~writes:[] ()
  in
  let s2 = Program.step ~id:91 ~name:"b" ~txn_type:"t" ~index:2 ~reads:[] ~writes:[] () in
  Alcotest.(check bool) "multi-step needs comp" true
    (try
       ignore (Program.txn_type ~name:"t" ~steps:[ s1; s2 ] ~assertions:[] ());
       false
     with Invalid_argument _ -> true);
  (* wrong index order rejected *)
  Alcotest.(check bool) "index order" true
    (try
       ignore (Program.txn_type ~name:"t" ~steps:[ s2; s1 ] ~assertions:[] ());
       false
     with Invalid_argument _ -> true)

let test_workload_registry () =
  Alcotest.(check int) "txn types" 3 (List.length (Program.txn_types W.workload));
  (* legacy + 3 new_order (incl comp) + 1 bill + 3 audit (incl comp) *)
  Alcotest.(check int) "steps" 8 (List.length (Program.all_steps W.workload));
  Alcotest.(check int) "assertions incl legacy" 3
    (List.length (Program.all_assertions W.workload));
  Alcotest.(check bool) "find step" true
    (match Program.find_step W.workload 11 with
    | Some s -> s.Program.sd_name = "line"
    | None -> false)

let si step assertion =
  Interference.step_interferes W.interference ~step_type:step ~assertion

let test_interference_table () =
  (* the §4 facts, mechanically derived from footprints *)
  Alcotest.(check bool) "header does not disturb other new_orders" false (si 10 100);
  Alcotest.(check bool) "line does not disturb other new_orders" false (si 11 100);
  Alcotest.(check bool) "header interferes with bill's I1" true (si 10 101);
  Alcotest.(check bool) "line interferes with bill's I1" true (si 11 101);
  Alcotest.(check bool) "compensation interferes with bill's I1" true (si 12 101);
  Alcotest.(check bool) "bill does not disturb new_order invariant" false (si 13 100);
  (* every writer interferes with legacy isolation *)
  List.iter
    (fun step -> Alcotest.(check bool) "writer vs legacy" true (si step 0))
    [ 10; 11; 12; 13 ];
  (* the legacy pseudo-step interferes with everything *)
  Alcotest.(check bool) "legacy vs loop inv" true (si Program.legacy_step_id 100);
  (* unknown ids answer conservatively *)
  Alcotest.(check bool) "unknown step conservative" true (si 9999 100);
  Alcotest.(check bool) "unknown assertion conservative" true (si 10 9999)

let test_prefix_table () =
  let pi holder req =
    Interference.prefix_interferes W.interference ~holder_assertion:holder ~assertion:req
  in
  (* holder of the new_order loop invariant has executed the header, whose
     partial effect breaks I1 for its order: bill admission must wait *)
  Alcotest.(check bool) "new_order prefix blocks bill" true (pi 100 101);
  (* a legacy holder exposes nothing *)
  Alcotest.(check bool) "legacy prefix harmless" false (pi 0 101)

let test_interference_override () =
  let override ~prefix_of ~assertion =
    if prefix_of.Assertion.id = 100 && assertion.Assertion.id = 101 then Some false else None
  in
  let t = Interference.build ~override W.workload in
  Alcotest.(check bool) "override applied" false
    (Interference.prefix_interferes t ~holder_assertion:100 ~assertion:101);
  Alcotest.(check bool) "others unchanged" true
    (Interference.step_interferes t ~step_type:10 ~assertion:101)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_interference_pp () =
  let s = Format.asprintf "%a" Interference.pp W.interference in
  Alcotest.(check bool) "mentions the header step" true (contains_substring s "header");
  Alcotest.(check bool) "mentions bill's assertion" true (contains_substring s "bill_I1")

(* --- basic runtime ---------------------------------------------------------- *)

let test_single_new_order () =
  let eng = W.make_engine stock2 in
  let inst, result = W.new_order_instance ~items:[ (1, 5); (2, 3) ] in
  let outcome = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [ (fun () -> outcome := Some (Runtime.run ~options:opts eng inst)) ];
  (match !outcome with
  | Some Runtime.Committed -> ()
  | _ -> Alcotest.fail "expected commit");
  Alcotest.(check int) "order id assigned" 1 result.W.r_order_id;
  Alcotest.(check bool) "fills recorded" true
    (List.sort compare result.W.r_filled = [ (1, 5); (2, 3) ]);
  check_consistent ~initial_stock:stock2 eng;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng));
  (* stock decremented *)
  let stock = Database.table (Executor.db eng) "stock" in
  Alcotest.(check int) "item 1 stock" 10 (Value.as_int (Table.get_exn stock [ v_int 1 ]).(1))

let test_insufficient_stock_partial_fill () =
  let eng = W.make_engine [ (1, 3, 10) ] in
  let inst, result = W.new_order_instance ~items:[ (1, 5) ] in
  Schedule.run ~policy:Runtime.victim_policy eng
    [ (fun () -> expect_committed "new_order" (Runtime.run ~options:opts eng inst)) ];
  Alcotest.(check bool) "partial fill" true (result.W.r_filled = [ (1, 3) ]);
  check_consistent ~initial_stock:[ (1, 3, 10) ] eng

let test_bill_after_commit () =
  let eng = W.make_engine stock2 in
  let no, _ = W.new_order_instance ~items:[ (1, 2) ] in
  let bill_total = ref (-1) in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        let bi, bres = W.bill_instance ~order:1 in
        expect_committed "bill" (Runtime.run ~options:opts eng bi);
        bill_total := bres.W.b_total);
    ];
  Alcotest.(check int) "billed 2 x 10" 20 !bill_total;
  check_consistent ~initial_stock:stock2 eng

let test_forced_abort_compensates () =
  let eng = W.make_engine stock2 in
  let inst, result = W.new_order_instance ~items:[ (1, 5); (2, 3) ] in
  let outcome = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [ (fun () -> outcome := Some (Runtime.run ~options:opts ~abort_at:2 eng inst)) ];
  (match !outcome with
  | Some (Runtime.Compensated { completed_steps = 2 }) -> ()
  | _ -> Alcotest.fail "expected compensation after step 2");
  (* the order is gone, stock restored *)
  let db = Executor.db eng in
  Alcotest.(check bool) "order removed" false
    (Table.mem (Database.table db "orders") [ v_int result.W.r_order_id ]);
  let stock = Database.table db "stock" in
  Alcotest.(check int) "item 1 stock restored" 15 (Value.as_int (Table.get_exn stock [ v_int 1 ]).(1));
  check_consistent ~initial_stock:stock2 eng;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng));
  (* the consumed order number stays burnt (paper: result allows it) *)
  let counter = Database.table db "counter" in
  Alcotest.(check int) "counter advanced" 2 (Value.as_int (Table.get_exn counter [ v_int 0 ]).(1))

let test_abort_at_first_step_physical () =
  let eng = W.make_engine stock2 in
  let inst, _ = W.new_order_instance ~items:[ (1, 5) ] in
  let outcome = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [ (fun () -> outcome := Some (Runtime.run ~options:opts ~abort_at:1 eng inst)) ];
  (match !outcome with
  | Some (Runtime.Compensated { completed_steps = 1 }) -> ()
  | _ -> Alcotest.fail "expected compensation after step 1");
  check_consistent ~initial_stock:stock2 eng

(* --- interleaving ----------------------------------------------------------- *)

(* new_order instance whose line bodies yield first, to force interleaving *)
let yielding_new_order ~items =
  let inst, result = W.new_order_instance ~items in
  let steps =
    Array.to_list inst.Program.i_steps
    |> List.map (fun (sd, body) ->
           if sd.Program.sd_name = "line" then
             ( sd,
               fun ctx ->
                 Txn_effect.yield ();
                 body ctx )
           else (sd, body))
  in
  ( { inst with Program.i_steps = Array.of_list steps }, result )

let test_new_orders_interleave_nonserializably () =
  (* the paper's television/VCR scenario: both transactions get one full and
     one partial fill, impossible in any serial order *)
  let eng = W.make_engine stock2 in
  let checker = Serializability.create () in
  Executor.set_trace eng (Some (Serializability.hook checker));
  let i1, r1 = yielding_new_order ~items:[ (1, 10); (2, 10) ] in
  let i2, r2 = yielding_new_order ~items:[ (2, 10); (1, 10) ] in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "T1" (Runtime.run ~options:opts eng i1);
        Serializability.note_commit checker 1);
      (fun () ->
        expect_committed "T2" (Runtime.run ~options:opts eng i2);
        Serializability.note_commit checker 2);
    ];
  Alcotest.(check bool) "T1 crosswise fills" true
    (List.sort compare r1.W.r_filled = [ (1, 10); (2, 5) ]);
  Alcotest.(check bool) "T2 crosswise fills" true
    (List.sort compare r2.W.r_filled = [ (1, 5); (2, 10) ]);
  (* semantically correct ... *)
  check_consistent ~initial_stock:stock2 eng;
  (* ... but NOT serializable: the outcome could not arise from any serial
     execution, and the conflict graph is cyclic *)
  Alcotest.(check bool) "conflict graph cyclic" false
    (Serializability.conflict_serializable checker)

let test_bill_blocked_by_inflight_new_order () =
  let eng = W.make_engine stock2 in
  let no, nres = yielding_new_order ~items:[ (1, 5) ] in
  let billed_before_commit = ref None in
  let new_order_committed = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        new_order_committed := true);
      (fun () ->
        (* runs once new_order is mid-flight (parked at the line yield) *)
        Alcotest.(check bool) "new_order started" true (nres.W.r_order_id >= 0);
        let bi, bres = W.bill_instance ~order:nres.W.r_order_id in
        expect_committed "bill" (Runtime.run ~options:opts eng bi);
        billed_before_commit := Some !new_order_committed;
        ignore bres.W.b_total);
    ];
  (* bill's admission had to wait for the new_order commit *)
  Alcotest.(check (option bool)) "bill waited" (Some true) !billed_before_commit;
  check_consistent ~initial_stock:stock2 eng

let test_bill_other_order_not_blocked () =
  let eng = W.make_engine stock2 in
  (* create order 1 up front *)
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        let i, _ = W.new_order_instance ~items:[ (2, 1) ] in
        expect_committed "setup" (Runtime.run ~options:opts eng i));
    ];
  let no, _ = yielding_new_order ~items:[ (1, 5) ] in
  let new_order_committed = ref false in
  let bill_ran_during_flight = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        new_order_committed := true);
      (fun () ->
        let bi, _ = W.bill_instance ~order:1 in
        expect_committed "bill" (Runtime.run ~options:opts eng bi);
        bill_ran_during_flight := not !new_order_committed);
    ];
  Alcotest.(check bool) "no false conflict across orders" true !bill_ran_during_flight;
  check_consistent ~initial_stock:stock2 eng

let test_two_level_false_conflict () =
  (* the §3.2 ablation: with table-granularity assertional locks (the
     two-level design) a bill is delayed by an in-flight new_order on a
     DIFFERENT order — the false conflict the one-level item-granularity
     design eliminates (cf. test_bill_other_order_not_blocked) *)
  let eng = W.make_engine stock2 in
  let two_level =
    { opts with Runtime.assertion_granularity = Runtime.Table }
  in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        let i, _ = W.new_order_instance ~items:[ (2, 1) ] in
        expect_committed "setup" (Runtime.run ~options:two_level eng i));
    ];
  let no, _ = yielding_new_order ~items:[ (1, 5) ] in
  let new_order_committed = ref false in
  let bill_ran_during_flight = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:two_level eng no);
        new_order_committed := true);
      (fun () ->
        (* bill order 1, which committed before the in-flight new_order even
           started: under two-level it must still wait *)
        let bi, _ = W.bill_instance ~order:1 in
        expect_committed "bill" (Runtime.run ~options:two_level eng bi);
        bill_ran_during_flight := Some (not !new_order_committed));
    ];
  Alcotest.(check (option bool)) "two-level: bill suffered the false conflict" (Some false)
    !bill_ran_during_flight;
  check_consistent ~initial_stock:stock2 eng

let test_legacy_isolated_from_decomposed () =
  let eng = W.make_engine stock2 in
  let no, nres = yielding_new_order ~items:[ (1, 5) ] in
  let new_order_committed = ref false in
  let legacy_saw_committed_state = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        new_order_committed := true);
      (fun () ->
        (* new_order is mid-flight; its header insert is exposed to other
           decomposed transactions but must NOT be visible here before
           commit *)
        let o = nres.W.r_order_id in
        ignore
          (Runtime.run_legacy eng ~txn_type:"report" (fun ctx ->
               match Executor.read ctx "orders" [ v_int o ] with
               | Some _ -> legacy_saw_committed_state := Some !new_order_committed
               | None -> legacy_saw_committed_state := Some true)));
    ];
  Alcotest.(check (option bool)) "legacy read waited for commit" (Some true)
    !legacy_saw_committed_state;
  check_consistent ~initial_stock:stock2 eng

let test_decomposed_blocked_by_legacy () =
  let eng = W.make_engine stock2 in
  (* seed one order so the legacy transaction has something to hold *)
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        let i, _ = W.new_order_instance ~items:[ (1, 1) ] in
        expect_committed "setup" (Runtime.run ~options:opts eng i));
    ];
  let legacy_committed = ref false in
  let writer_waited = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        ignore
          (Runtime.run_legacy eng ~txn_type:"audit" (fun ctx ->
               (* read stock item 1; hold A(legacy) to commit *)
               ignore (Executor.read ctx "stock" [ v_int 1 ]);
               Txn_effect.yield ();
               Txn_effect.yield ()));
        legacy_committed := true);
      (fun () ->
        (* a decomposed new_order writing that stock item must wait *)
        let i, _ = W.new_order_instance ~items:[ (1, 2) ] in
        expect_committed "new_order" (Runtime.run ~options:opts eng i);
        writer_waited := Some !legacy_committed);
    ];
  Alcotest.(check (option bool)) "decomposed writer waited for legacy" (Some true) !writer_waited;
  check_consistent ~initial_stock:stock2 eng

(* --- read-isolation restrictions (the [11] extension) ------------------------ *)

(* audit with a yield between its steps so a writer can try to slip in *)
let yielding_audit ?read_isolation ~item () =
  let inst, result = W.audit_instance ?read_isolation ~item () in
  let steps =
    Array.to_list inst.Program.i_steps
    |> List.map (fun (sd, body) ->
           ( sd,
             fun ctx ->
               if sd.Program.sd_name = "audit2" then Txn_effect.yield ();
               body ctx ))
  in
  ({ inst with Program.i_steps = Array.of_list steps }, result)

let test_exposed_reads_see_intermediate () =
  (* default: an audit interleaved with an in-flight new_order observes the
     exposed intermediate stock level *)
  let eng = W.make_engine stock2 in
  let no, _ = yielding_new_order ~items:[ (1, 5) ] in
  let observed = ref (-1) in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () -> expect_committed "new_order" (Runtime.run ~options:opts eng no));
      (fun () ->
        (* the new_order is parked mid-line having not yet written stock;
           run after it wrote: park order matters, so just read both steps *)
        let a, res = W.audit_instance ~item:1 () in
        expect_committed "audit" (Runtime.run eng a);
        observed := res.W.a_second);
    ];
  (* whether it saw 15 or 10 depends on interleaving; the point is it never
     blocked and the run is consistent *)
  Alcotest.(check bool) "audit read something" true (!observed = 15 || !observed = 10);
  check_consistent ~initial_stock:stock2 eng

(* new_order that yields AFTER each line body: parks with the stock write
   exposed (compensation lock held) *)
let post_yielding_new_order ~items =
  let inst, result = W.new_order_instance ~items in
  let steps =
    Array.to_list inst.Program.i_steps
    |> List.map (fun (sd, body) ->
           if sd.Program.sd_name = "line" then
             ( sd,
               fun ctx ->
                 body ctx;
                 Txn_effect.yield ();
                 Txn_effect.yield () )
           else (sd, body))
  in
  ({ inst with Program.i_steps = Array.of_list steps }, result)

let test_committed_only_waits () =
  (* Committed_only: the audit's read of a stock item written by an
     in-flight new_order waits for its commit *)
  let eng = W.make_engine stock2 in
  let no, _ = post_yielding_new_order ~items:[ (1, 5) ] in
  let new_order_committed = ref false in
  let audit_waited = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        new_order_committed := true);
      (fun () ->
        (* runs while the new_order is parked inside its line step, after the
           header exposed the order but before commit *)
        let a, res = W.audit_instance ~read_isolation:Program.Committed_only ~item:1 () in
        expect_committed "audit" (Runtime.run eng a);
        audit_waited := Some (!new_order_committed, res.W.a_second));
    ];
  (match !audit_waited with
  | Some (waited, level) ->
      Alcotest.(check bool) "waited for commit" true waited;
      Alcotest.(check int) "saw the committed level" 10 level
  | None -> Alcotest.fail "audit did not run");
  check_consistent ~initial_stock:stock2 eng

let test_snapshot_reads_stable () =
  (* Snapshot: both reads of the audit agree even though a writer tried to
     update the item between its steps; the writer proceeds after commit *)
  let eng = W.make_engine stock2 in
  let a, res = yielding_audit ~read_isolation:Program.Snapshot ~item:1 () in
  let writer_done = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        expect_committed "audit" (Runtime.run eng a);
        Alcotest.(check bool) "writer still blocked at audit commit" false !writer_done);
      (fun () ->
        let no, _ = W.new_order_instance ~items:[ (1, 5) ] in
        expect_committed "new_order" (Runtime.run ~options:opts eng no);
        writer_done := true);
    ];
  Alcotest.(check int) "first read" 15 res.W.a_first;
  Alcotest.(check int) "second read stable" 15 res.W.a_second;
  Alcotest.(check bool) "writer eventually ran" true !writer_done;
  check_consistent ~initial_stock:stock2 eng

let test_exposed_reads_can_be_unstable () =
  (* contrast: without Snapshot the same interleaving yields two different
     values across the audit's steps *)
  let eng = W.make_engine stock2 in
  let a, res = yielding_audit ~item:1 () in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () -> expect_committed "audit" (Runtime.run eng a));
      (fun () ->
        let no, _ = W.new_order_instance ~items:[ (1, 5) ] in
        expect_committed "new_order" (Runtime.run ~options:opts eng no));
    ];
  Alcotest.(check int) "first read pre-write" 15 res.W.a_first;
  Alcotest.(check int) "second read post-write" 10 res.W.a_second;
  check_consistent ~initial_stock:stock2 eng

(* --- deadlock handling in the ACC ------------------------------------------- *)

(* a custom two-step workload whose second step takes two stock locks in a
   parameterized order, to manufacture deadlocks inside a step *)
let pair_step1 =
  Program.step ~id:50 ~name:"first" ~txn_type:"pair" ~index:1
    ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ()

let pair_step2 =
  Program.step ~id:51 ~name:"second" ~txn_type:"pair" ~index:2
    ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ()

let pair_comp =
  Program.step ~id:52 ~name:"undo_pair" ~txn_type:"pair" ~index:0
    ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ()

let pair_type = Program.txn_type ~name:"pair" ~steps:[ pair_step1; pair_step2 ] ~comp:pair_comp ~assertions:[] ()

let pair_workload = Program.workload [ pair_type ]
let pair_interference = Interference.build pair_workload

let bump ctx item delta =
  ignore
    (Executor.update ctx "stock" [ v_int item ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) + delta);
         row))

let pair_instance ~anchor ~first ~second =
  let step1 ctx = bump ctx anchor 1 in
  let step2 ctx =
    bump ctx first 1;
    Txn_effect.yield ();
    bump ctx second 1
  in
  let compensate ctx ~completed = if completed >= 1 then bump ctx anchor (-1) in
  Program.instance ~def:pair_type
    ~steps:[ (pair_step1, step1); (pair_step2, step2) ]
    ~compensate ()

let pair_engine () =
  let db = Database.create () in
  let stock = Database.create_table db W.stock_schema in
  List.iter (fun i -> ignore (Table.insert stock [| v_int i; v_int 0 |])) [ 1; 2; 3; 4 ];
  Executor.create ~sem:(Interference.semantics pair_interference) db

let stock_val eng i =
  Value.as_int (Table.get_exn (Database.table (Executor.db eng) "stock") [ v_int i ]).(1)

let test_step_deadlock_retried () =
  let eng = pair_engine () in
  let o1 = ref None and o2 = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () -> o1 := Some (Runtime.run eng (pair_instance ~anchor:3 ~first:1 ~second:2)));
      (fun () -> o2 := Some (Runtime.run eng (pair_instance ~anchor:4 ~first:2 ~second:1)));
    ];
  (* with the default retry budget both transactions eventually commit *)
  (match (!o1, !o2) with
  | Some Runtime.Committed, Some Runtime.Committed -> ()
  | _ -> Alcotest.fail "expected both to commit after retry");
  Alcotest.(check int) "item1 got both bumps" 2 (stock_val eng 1);
  Alcotest.(check int) "item2 got both bumps" 2 (stock_val eng 2);
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_step_deadlock_exhaustion_compensates () =
  let eng = pair_engine () in
  let no_retry = { Runtime.default_options with step_retry_limit = 0 } in
  let o1 = ref None and o2 = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        o1 := Some (Runtime.run ~options:no_retry eng (pair_instance ~anchor:3 ~first:1 ~second:2)));
      (fun () ->
        o2 := Some (Runtime.run ~options:no_retry eng (pair_instance ~anchor:4 ~first:2 ~second:1)));
    ];
  let compensated = function Some (Runtime.Compensated _) -> true | _ -> false in
  Alcotest.(check bool) "exactly one compensated" true
    (compensated !o1 <> compensated !o2);
  (* the victim's anchor bump was undone by its compensating step *)
  let anchor_sum = stock_val eng 3 + stock_val eng 4 in
  Alcotest.(check int) "one anchor survives" 1 anchor_sum;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_victim_policy_shields_compensation () =
  let locks = Lock_table.create Mode.no_semantics in
  let r = Resource_id.Tuple ("stock", [ v_int 1 ]) in
  let r2 = Resource_id.Tuple ("stock", [ v_int 2 ]) in
  (* txn 1 (compensating) waits on txn 2; txn 2 waits on txn 1 *)
  ignore (Lock_table.submit locks (Lock_request.make ~txn:1 ~step_type:0 Mode.X r));
  ignore (Lock_table.submit locks (Lock_request.make ~txn:2 ~step_type:0 Mode.X r2));
  ignore (Lock_table.submit locks (Lock_request.make ~txn:2 ~step_type:0 Mode.X r));
  ignore (Lock_table.submit locks (Lock_request.make ~txn:1 ~step_type:0 ~compensating:true Mode.X r2));
  (* the policy only inspects waiter state, so the service view needs no
     working suspension hook *)
  let svc =
    Lock_service.of_table ~wait:(fun ~ticket:_ ~txn:_ -> assert false) ~deliver:ignore locks
  in
  let cycle = [ 1; 2 ] in
  Alcotest.(check (list int)) "compensating requester spared" [ 2 ]
    (Runtime.victim_policy svc ~requester:1 ~cycle);
  Alcotest.(check (list int)) "plain requester is the victim" [ 2 ]
    (Runtime.victim_policy svc ~requester:2 ~cycle)

(* A one-step type whose compensating step scans the table before touching
   its own row.  Two such compensations each end up holding the table [S]
   lock and queued for [IX]; the §3.4 policy victimizes the requester, and
   the retry must not keep the [S] lock of the attempt it rolled back, or
   the same cycle re-forms on every retry. *)
let scan_comp_step =
  Program.step ~id:60 ~name:"bump" ~txn_type:"scan_comp" ~index:1 ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ()

let scan_comp_undo =
  Program.step ~id:61 ~name:"scan_then_unbump" ~txn_type:"scan_comp" ~index:0
    ~reads:[ Footprint.make "stock" Footprint.All_columns ]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ()

let scan_comp_type =
  Program.txn_type ~name:"scan_comp" ~steps:[ scan_comp_step ] ~comp:scan_comp_undo
    ~assertions:[] ()

let scan_comp_instance ~item =
  let compensate ctx ~completed =
    if completed >= 1 then begin
      Txn_effect.yield ();
      ignore (Executor.scan ctx "stock" ());
      Txn_effect.yield ();
      bump ctx item (-1)
    end
  in
  Program.instance ~def:scan_comp_type
    ~steps:[ (scan_comp_step, fun ctx -> bump ctx item 1) ]
    ~compensate ()

let test_scanning_compensations_resolve () =
  let db = Database.create () in
  let stock = Database.create_table db W.stock_schema in
  List.iter (fun i -> ignore (Table.insert stock [| v_int i; v_int 0 |])) [ 1; 2 ];
  let sem = Interference.semantics (Interference.build (Program.workload [ scan_comp_type ])) in
  let eng = Executor.create ~sem db in
  let o1 = ref None and o2 = ref None in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () -> o1 := Some (Runtime.run ~abort_at:1 eng (scan_comp_instance ~item:1)));
      (fun () -> o2 := Some (Runtime.run ~abort_at:1 eng (scan_comp_instance ~item:2)));
    ];
  let compensated = function
    | Some (Runtime.Compensated { completed_steps = 1 }) -> true
    | Some (Runtime.Committed | Runtime.Compensated _) | None -> false
  in
  Alcotest.(check bool) "both compensated" true (compensated !o1 && compensated !o2);
  Alcotest.(check int) "item 1 restored" 0 (stock_val eng 1);
  Alcotest.(check int) "item 2 restored" 0 (stock_val eng 2);
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_buggy_step_body_cleans_up () =
  (* an exception in a step body compensates the completed steps, drains the
     locks, and surfaces to the caller *)
  let eng = W.make_engine stock2 in
  let inst, res = W.new_order_instance ~items:[ (1, 3); (2, 2) ] in
  (* sabotage the second line step *)
  let steps =
    Array.to_list inst.Program.i_steps
    |> List.mapi (fun idx (sd, body) ->
           if idx = 2 then (sd, fun _ctx -> failwith "boom") else (sd, body))
  in
  let broken = { inst with Program.i_steps = Array.of_list steps } in
  let surfaced = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        try ignore (Runtime.run eng broken)
        with Failure msg when msg = "boom" -> surfaced := true);
    ];
  Alcotest.(check bool) "exception surfaced" true !surfaced;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng));
  (* the completed line (item 1) was compensated: stock restored, order
     cancelled *)
  let db = Executor.db eng in
  Alcotest.(check int) "stock restored" 15
    (Value.as_int (Table.get_exn (Database.table db "stock") [ v_int 1 ]).(1));
  check_consistent ~initial_stock:stock2 eng;
  ignore res

let test_buggy_legacy_cleans_up () =
  let eng = W.make_engine stock2 in
  let surfaced = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        try
          ignore
            (Runtime.run_legacy eng ~txn_type:"bug" (fun ctx ->
                 ignore (Executor.read ctx "stock" [ v_int 1 ]);
                 failwith "legacy boom"))
        with Failure msg when msg = "legacy boom" -> surfaced := true);
    ];
  Alcotest.(check bool) "exception surfaced" true !surfaced;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

(* A READ COMMITTED read gives each S lock back at once, but the table IS
   lock and the transaction itself must not outlive a failing body. *)
let test_buggy_read_committed_cleans_up () =
  let eng = W.make_engine stock2 in
  let surfaced = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        try
          ignore
            (Runtime.run_single ~step_type:W.step_bill.Program.sd_id eng ~txn_type:"bug"
               (fun ctx ->
                 ignore (Executor.read_committed ctx "stock" [ v_int 1 ]);
                 failwith "read-committed boom"))
        with Failure msg when msg = "read-committed boom" -> surfaced := true);
    ];
  Alcotest.(check bool) "exception surfaced" true !surfaced;
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng));
  Alcotest.(check int) "transaction ended" 0 (Executor.active_txns eng);
  match List.rev (Acc_wal.Log.to_list (Executor.log eng)) with
  | Acc_wal.Record.Abort _ :: _ -> ()
  | _ -> Alcotest.fail "the log does not end with Abort"

(* --- assertion verification harness ------------------------------------------ *)

let test_assertion_checker_fires () =
  (* sabotage: a legacy transaction that violates I1 by deleting an orderline
     row out from under a billed order; with verification on, running a bill
     with a stale assertion would raise.  We simulate by corrupting the db
     directly and then running bill with verify_assertions. *)
  let eng = W.make_engine stock2 in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        let i, _ = W.new_order_instance ~items:[ (1, 2); (2, 1) ] in
        expect_committed "setup" (Runtime.run ~options:opts eng i));
    ];
  (* corrupt behind the CC's back *)
  ignore (Table.delete (Database.table (Executor.db eng) "orderlines") [ v_int 1; v_int 1 ]);
  let raised = ref false in
  (try
     Schedule.run ~policy:Runtime.victim_policy eng
       [
         (fun () ->
           let bi, _ = W.bill_instance ~order:1 in
           ignore (Runtime.run ~options:opts eng bi));
       ]
   with Runtime.Assertion_violated { assertion = "bill_I1"; _ } -> raised := true);
  Alcotest.(check bool) "verification caught the violation" true !raised

(* --- recovery of decomposed transactions -------------------------------------- *)

let run_compensation_on_recovered db (p : Acc_wal.Recovery.pending) =
  (* the driver-side completion of a pending compensation: §4's semantic undo
     re-executed from the saved work area *)
  Alcotest.(check string) "pending type" "new_order" p.Acc_wal.Recovery.p_txn_type;
  let o =
    match List.assoc_opt "order_id" p.Acc_wal.Recovery.p_area with
    | Some v -> Value.as_int v
    | None -> Alcotest.fail "work area lacks order_id"
  in
  let orders = Database.table db "orders" in
  let orderlines = Database.table db "orderlines" in
  let stock = Database.table db "stock" in
  List.iter
    (fun key ->
      let row = Table.get_exn orderlines key in
      let item = Value.as_int row.(1) and filled = Value.as_int row.(3) in
      let srow = Table.get_exn stock [ v_int item ] in
      ignore
        (Table.update stock [ v_int item ] (fun r ->
             r.(1) <- v_int (Value.as_int srow.(1) + filled);
             r));
      ignore (Table.delete orderlines key))
    (Table.scan_keys ~where:(Predicate.Eq ("order_id", v_int o)) orderlines);
  if Table.mem orders [ v_int o ] then ignore (Table.delete orders [ v_int o ])

let test_crash_recovery_every_prefix () =
  (* run two new_orders to completion, then crash at every log prefix and
     check that recovery + pending compensation restores consistency *)
  let eng = W.make_engine stock2 in
  let baseline = Database.copy (Executor.db eng) in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        let a, _ = W.new_order_instance ~items:[ (1, 5); (2, 3) ] in
        expect_committed "A" (Runtime.run ~options:opts eng a);
        let b, _ = W.new_order_instance ~items:[ (2, 4) ] in
        expect_committed "B" (Runtime.run ~options:opts eng b));
    ];
  let log = Executor.log eng in
  for cut = 0 to Acc_wal.Log.length log do
    let r = Acc_wal.Recovery.recover ~baseline (Acc_wal.Log.prefix log cut) in
    List.iter (run_compensation_on_recovered r.Acc_wal.Recovery.db) r.Acc_wal.Recovery.pending;
    match W.check_consistency ~initial_stock:stock2 r.Acc_wal.Recovery.db with
    | [] -> ()
    | problems ->
        Alcotest.fail (Printf.sprintf "cut %d: %s" cut (String.concat "; " problems))
  done

(* --- properties -------------------------------------------------------------- *)

(* random mixes of new_orders (some forced to abort) and bills, with random
   yield points: the database constraint must hold at quiescence, aborted
   orders must vanish, committed ones must be intact; schedules need NOT be
   serializable *)
let prop_semantic_correctness =
  QCheck2.Test.make ~name:"acc: semantic correctness under random interleavings" ~count:40
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple
           (list_size (int_range 1 3) (pair (int_range 1 3) (int_range 1 4)))
           (int_range 0 9) (* abort_at source: 0-6 no abort, 7-9 abort after step 1 *)
           bool (* yield in line steps *)))
    (fun specs ->
      let initial_stock = [ (1, 30, 5); (2, 30, 7); (3, 30, 11) ] in
      let eng = W.make_engine initial_stock in
      let expected = ref [] in
      let dedupe items =
        (* an order names each item at most once *)
        List.fold_left
          (fun acc (it, q) -> if List.mem_assoc it acc then acc else acc @ [ (it, q) ])
          [] items
      in
      let fibers =
        List.map
          (fun (items, abort_code, yields) ->
            fun () ->
              let items = dedupe items in
              let inst, _res =
                if yields then yielding_new_order ~items else W.new_order_instance ~items
              in
              let abort_at = if abort_code >= 7 then Some 1 else None in
              let outcome = Runtime.run ~options:opts ?abort_at eng inst in
              expected := (outcome, abort_at) :: !expected)
          specs
      in
      Schedule.run ~policy:Runtime.victim_policy eng fibers;
      List.for_all
        (fun (outcome, abort_at) ->
          match (outcome, abort_at) with
          | Runtime.Committed, None -> true
          | Runtime.Compensated { completed_steps = 1 }, Some 1 -> true
          | (Runtime.Committed | Runtime.Compensated _), _ -> false)
        !expected
      && W.check_consistency ~initial_stock (Executor.db eng) = []
      && Lock_service.lock_count (Executor.lock_service eng) = 0)

let suites =
  [
    ( "acc.analysis",
      [
        Alcotest.test_case "footprint overlap" `Quick test_footprint_overlap;
        Alcotest.test_case "assertion validation" `Quick test_assertion_validation;
        Alcotest.test_case "program validation" `Quick test_program_validation;
        Alcotest.test_case "workload registry" `Quick test_workload_registry;
        Alcotest.test_case "interference table (the §4 facts)" `Quick test_interference_table;
        Alcotest.test_case "prefix table" `Quick test_prefix_table;
        Alcotest.test_case "override hook" `Quick test_interference_override;
        Alcotest.test_case "table rendering" `Quick test_interference_pp;
      ] );
    ( "acc.runtime",
      [
        Alcotest.test_case "single new_order" `Quick test_single_new_order;
        Alcotest.test_case "partial fill" `Quick test_insufficient_stock_partial_fill;
        Alcotest.test_case "bill after commit" `Quick test_bill_after_commit;
        Alcotest.test_case "forced abort compensates" `Quick test_forced_abort_compensates;
        Alcotest.test_case "abort at first step" `Quick test_abort_at_first_step_physical;
      ] );
    ( "acc.interleaving",
      [
        Alcotest.test_case "non-serializable crosswise fills" `Quick
          test_new_orders_interleave_nonserializably;
        Alcotest.test_case "bill blocked by in-flight order" `Quick
          test_bill_blocked_by_inflight_new_order;
        Alcotest.test_case "bill of other order not blocked" `Quick
          test_bill_other_order_not_blocked;
        Alcotest.test_case "two-level ablation: false conflict" `Quick
          test_two_level_false_conflict;
        Alcotest.test_case "legacy isolated from decomposed" `Quick
          test_legacy_isolated_from_decomposed;
        Alcotest.test_case "decomposed blocked by legacy" `Quick test_decomposed_blocked_by_legacy;
      ] );
    ( "acc.read_isolation",
      [
        Alcotest.test_case "exposed reads see intermediates" `Quick
          test_exposed_reads_see_intermediate;
        Alcotest.test_case "committed-only waits" `Quick test_committed_only_waits;
        Alcotest.test_case "snapshot reads stable" `Quick test_snapshot_reads_stable;
        Alcotest.test_case "exposed reads can be unstable" `Quick
          test_exposed_reads_can_be_unstable;
      ] );
    ( "acc.deadlock",
      [
        Alcotest.test_case "step deadlock retried" `Quick test_step_deadlock_retried;
        Alcotest.test_case "retry exhaustion compensates" `Quick
          test_step_deadlock_exhaustion_compensates;
        Alcotest.test_case "victim policy shields compensation" `Quick
          test_victim_policy_shields_compensation;
        Alcotest.test_case "scanning compensations resolve" `Quick
          test_scanning_compensations_resolve;
      ] );
    ( "acc.verification",
      [
        Alcotest.test_case "buggy step body cleans up" `Quick test_buggy_step_body_cleans_up;
        Alcotest.test_case "buggy legacy cleans up" `Quick test_buggy_legacy_cleans_up;
        Alcotest.test_case "buggy read-committed cleans up" `Quick
          test_buggy_read_committed_cleans_up;
        Alcotest.test_case "assertion checker fires" `Quick test_assertion_checker_fires;
        Alcotest.test_case "crash recovery at every prefix" `Quick
          test_crash_recovery_every_prefix;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_semantic_correctness;
      ] );
  ]
