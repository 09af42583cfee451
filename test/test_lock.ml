(* Tests for acc.lock: modes, conflict semantics, the lock table, deadlock
   detection.  Transaction ids are plain ints; step type 0 is used when the
   step identity does not matter. *)

open Acc_lock
module Value = Acc_relation.Value

let res_a = Resource_id.Tuple ("t", [ Value.Int 1 ])
let res_b = Resource_id.Tuple ("t", [ Value.Int 2 ])
let tbl = Resource_id.Table "t"

let plain () = Lock_table.create Mode.no_semantics

(* Interference oracle used by the assertional tests:
   - step 10 interferes with assertion 100
   - step 11 interferes with nothing
   - prefix behind assertion 200 interferes with assertion 100 *)
let test_semantics =
  Mode.
    {
      step_interferes = (fun ~step_type ~assertion -> step_type = 10 && assertion = 100);
      prefix_interferes =
        (fun ~holder_assertion ~assertion -> holder_assertion = 200 && assertion = 100);
    }

let granted = function Lock_table.Granted -> true | Lock_table.Queued _ -> false

let ticket_exn = function
  | Lock_table.Queued tk -> tk
  | Lock_table.Granted -> Alcotest.fail "expected Queued, got Granted"

let req ?(txn = 1) ?(step = 0) ?admission ?compensating t mode res =
  Lock_table.submit t (Lock_request.make ~txn ~step_type:step ?admission ?compensating mode res)

(* --- Mode ------------------------------------------------------------- *)

let requester = Mode.{ req_step_type = 0; req_admission = false }

let conv_conflict a b =
  Mode.conflicts Mode.no_semantics ~held:a ~held_step:0 ~req:b ~requester

let test_conventional_matrix () =
  let expect held r v =
    Alcotest.(check bool)
      (Format.asprintf "%a vs %a" Mode.pp held Mode.pp r)
      v (conv_conflict held r)
  in
  expect Mode.S Mode.S false;
  expect Mode.S Mode.X true;
  expect Mode.X Mode.S true;
  expect Mode.X Mode.X true;
  expect Mode.IS Mode.IS false;
  expect Mode.IS Mode.IX false;
  expect Mode.IX Mode.IS false;
  expect Mode.IX Mode.IX false;
  expect Mode.IS Mode.S false;
  expect Mode.S Mode.IS false;
  expect Mode.IX Mode.S true;
  expect Mode.S Mode.IX true;
  expect Mode.IS Mode.X true;
  expect Mode.X Mode.IS true;
  expect Mode.IX Mode.X true;
  expect Mode.X Mode.IX true

let test_covers () =
  Alcotest.(check bool) "X covers S" true (Mode.covers Mode.X Mode.S);
  Alcotest.(check bool) "X covers IX" true (Mode.covers Mode.X Mode.IX);
  Alcotest.(check bool) "S covers IS" true (Mode.covers Mode.S Mode.IS);
  Alcotest.(check bool) "S !covers X" false (Mode.covers Mode.S Mode.X);
  Alcotest.(check bool) "IS !covers S" false (Mode.covers Mode.IS Mode.S);
  Alcotest.(check bool) "A self" true (Mode.covers (Mode.A 1) (Mode.A 1));
  Alcotest.(check bool) "A other" false (Mode.covers (Mode.A 1) (Mode.A 2));
  Alcotest.(check bool) "A !covers S" false (Mode.covers (Mode.A 1) Mode.S)

let test_assertional_conflicts () =
  let c ~held ~held_step ~req ~requester =
    Mode.conflicts test_semantics ~held ~held_step ~req ~requester
  in
  let writer10 = Mode.{ req_step_type = 10; req_admission = false } in
  let writer11 = Mode.{ req_step_type = 11; req_admission = false } in
  (* X vs foreign A: via interference table *)
  Alcotest.(check bool) "interfering write blocked" true
    (c ~held:(Mode.A 100) ~held_step:0 ~req:Mode.X ~requester:writer10);
  Alcotest.(check bool) "benign write passes" false
    (c ~held:(Mode.A 100) ~held_step:0 ~req:Mode.X ~requester:writer11);
  Alcotest.(check bool) "other assertion passes" false
    (c ~held:(Mode.A 101) ~held_step:0 ~req:Mode.X ~requester:writer10);
  (* reads never conflict with assertions *)
  Alcotest.(check bool) "S vs A" false
    (c ~held:(Mode.A 100) ~held_step:0 ~req:Mode.S ~requester:writer10);
  (* A vs A only at admission, via prefix interference *)
  let admission = Mode.{ req_step_type = 0; req_admission = true } in
  Alcotest.(check bool) "admission prefix conflict" true
    (c ~held:(Mode.A 200) ~held_step:0 ~req:(Mode.A 100) ~requester:admission);
  Alcotest.(check bool) "admission no prefix conflict" false
    (c ~held:(Mode.A 201) ~held_step:0 ~req:(Mode.A 100) ~requester:admission);
  Alcotest.(check bool) "non-admission A vs A free" false
    (c ~held:(Mode.A 200) ~held_step:0 ~req:(Mode.A 100) ~requester);
  (* X holder vs admission assertion: holder's step consulted *)
  Alcotest.(check bool) "X holder blocks admission" true
    (c ~held:Mode.X ~held_step:10 ~req:(Mode.A 100) ~requester:admission);
  Alcotest.(check bool) "benign X holder admits" false
    (c ~held:Mode.X ~held_step:11 ~req:(Mode.A 100) ~requester:admission);
  (* compensation locks *)
  Alcotest.(check bool) "Comp blocks interfering assertion" true
    (c ~held:(Mode.Comp 10) ~held_step:0 ~req:(Mode.A 100) ~requester);
  Alcotest.(check bool) "Comp passes benign assertion" false
    (c ~held:(Mode.Comp 11) ~held_step:0 ~req:(Mode.A 100) ~requester);
  Alcotest.(check bool) "assertion blocks interfering Comp" true
    (c ~held:(Mode.A 100) ~held_step:0 ~req:(Mode.Comp 10) ~requester);
  Alcotest.(check bool) "Comp vs X free" false
    (c ~held:(Mode.Comp 10) ~held_step:0 ~req:Mode.X ~requester);
  Alcotest.(check bool) "Comp vs Comp free" false
    (c ~held:(Mode.Comp 10) ~held_step:0 ~req:(Mode.Comp 10) ~requester)

(* --- Resource ids ------------------------------------------------------ *)

let test_resource_ids () =
  Alcotest.(check bool) "tuple eq" true
    (Resource_id.equal res_a (Resource_id.Tuple ("t", [ Value.Int 1 ])));
  Alcotest.(check bool) "tuple ne" false (Resource_id.equal res_a res_b);
  Alcotest.(check bool) "parent" true
    (Resource_id.parent res_a = Some (Resource_id.Table "t"));
  Alcotest.(check bool) "table no parent" true (Resource_id.parent tbl = None);
  Alcotest.(check string) "table_of" "t" (Resource_id.table_of res_a)

(* --- basic grant/queue/release ----------------------------------------- *)

let test_shared_compatible () =
  let t = plain () in
  Alcotest.(check bool) "t1 S" true (granted (req t ~txn:1 Mode.S res_a));
  Alcotest.(check bool) "t2 S" true (granted (req t ~txn:2 Mode.S res_a));
  Alcotest.(check int) "two holds" 2 (List.length (Lock_table.holders t res_a))

let test_exclusive_blocks () =
  let t = plain () in
  Alcotest.(check bool) "t1 X" true (granted (req t ~txn:1 Mode.X res_a));
  let g = req t ~txn:2 Mode.X res_a in
  Alcotest.(check bool) "t2 queued" false (granted g);
  Alcotest.(check bool) "outstanding" true (Lock_table.outstanding t ~ticket:(ticket_exn g))

let test_release_wakes_fifo () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.X res_a);
  let g2 = req t ~txn:2 Mode.X res_a in
  let g3 = req t ~txn:3 Mode.X res_a in
  let wake = Lock_table.release t ~txn:1 Mode.X res_a in
  (match wake with
  | [ w ] ->
      Alcotest.(check int) "t2 woken first" 2 w.Lock_table.woken_txn;
      Alcotest.(check int) "ticket matches" (ticket_exn g2) w.Lock_table.woken_ticket
  | _ -> Alcotest.fail "expected exactly one wakeup");
  Alcotest.(check bool) "t3 still waits" true
    (Lock_table.outstanding t ~ticket:(ticket_exn g3))

let test_release_wakes_multiple_readers () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.X res_a);
  ignore (req t ~txn:2 Mode.S res_a);
  ignore (req t ~txn:3 Mode.S res_a);
  let wake = Lock_table.release t ~txn:1 Mode.X res_a in
  Alcotest.(check int) "both readers woken" 2 (List.length wake)

let test_fifo_no_overtake () =
  (* S granted, X queued, new S must wait behind the X (no starvation). *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  ignore (req t ~txn:2 Mode.X res_a);
  let g3 = req t ~txn:3 Mode.S res_a in
  Alcotest.(check bool) "late S queued behind X" false (granted g3);
  (* when t1 releases, only t2's X is granted *)
  let wake = Lock_table.release t ~txn:1 Mode.S res_a in
  Alcotest.(check (list int)) "only X woken" [ 2 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake);
  (* and when t2 releases, t3's S follows *)
  let wake2 = Lock_table.release t ~txn:2 Mode.X res_a in
  Alcotest.(check (list int)) "S follows" [ 3 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake2)

let test_reentrant () =
  let t = plain () in
  Alcotest.(check bool) "first" true (granted (req t ~txn:1 Mode.S res_a));
  Alcotest.(check bool) "second" true (granted (req t ~txn:1 Mode.S res_a));
  (* one release leaves the hold, second removes it *)
  Alcotest.(check int) "no wake" 0 (List.length (Lock_table.release t ~txn:1 Mode.S res_a));
  Alcotest.(check int) "still held" 1 (List.length (Lock_table.holders t res_a));
  ignore (Lock_table.release t ~txn:1 Mode.S res_a);
  Alcotest.(check int) "gone" 0 (List.length (Lock_table.holders t res_a))

let test_covered_mode_reentrant () =
  let t = plain () in
  Alcotest.(check bool) "X" true (granted (req t ~txn:1 Mode.X res_a));
  Alcotest.(check bool) "S under X" true (granted (req t ~txn:1 Mode.S res_a));
  Alcotest.(check bool) "only one hold" true (List.length (Lock_table.holders t res_a) = 1)

let test_upgrade_sole_holder () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  Alcotest.(check bool) "upgrade granted" true (granted (req t ~txn:1 Mode.X res_a));
  (* both holds present, both owned by 1 *)
  Alcotest.(check bool) "all mine" true
    (List.for_all (fun (txn, _, _) -> txn = 1) (Lock_table.holders t res_a))

let test_upgrade_waits_for_other_reader () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  ignore (req t ~txn:2 Mode.S res_a);
  let g = req t ~txn:1 Mode.X res_a in
  Alcotest.(check bool) "upgrade queued" false (granted g);
  let wake = Lock_table.release t ~txn:2 Mode.S res_a in
  Alcotest.(check (list int)) "upgrade granted on release" [ 1 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake)

let test_upgrade_jumps_queue () =
  (* t1 holds S; t2 queues X; t1's upgrade must go in front of t2, otherwise
     it would deadlock behind a request that waits on t1 itself. *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  ignore (req t ~txn:2 Mode.X res_a);
  let _g = req t ~txn:1 Mode.X res_a in
  (* t1's upgrade waits only on nobody (conflict is with t2's queued X but
     upgrades ignore the queue) -- actually it is granted immediately since
     the only holder is t1 itself. *)
  Alcotest.(check bool) "upgrade granted over queued X" true (granted _g)

let test_release_where () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.IX tbl);
  ignore (req t ~txn:1 Mode.X res_a);
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 7) res_a);
  let _ = Lock_table.release_where t ~txn:1 (fun _ m -> Mode.conventional m) in
  let remaining = Lock_table.held_by t ~txn:1 in
  Alcotest.(check int) "only assertional left" 1 (List.length remaining);
  (match remaining with
  | [ (_, Mode.A 7) ] -> ()
  | _ -> Alcotest.fail "expected A(7) to survive");
  ignore (Lock_table.release_all t ~txn:1);
  Alcotest.(check int) "all gone" 0 (Lock_table.lock_count t)

let test_release_unheld_raises () =
  let t = plain () in
  let raised =
    try
      ignore (Lock_table.release t ~txn:1 Mode.S res_a);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "raises" true raised

let test_cancel_unblocks () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  let gx = req t ~txn:2 Mode.X res_a in
  let gs = req t ~txn:3 Mode.S res_a in
  (* cancelling the X in the middle lets the S through immediately *)
  let wake = Lock_table.cancel t ~ticket:(ticket_exn gx) in
  Alcotest.(check (list int)) "S promoted" [ 3 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake);
  Alcotest.(check bool) "S no longer outstanding" false
    (Lock_table.outstanding t ~ticket:(ticket_exn gs))

let test_release_all_cancels_waits () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.X res_a);
  ignore (req t ~txn:2 Mode.X res_a);
  (* txn 2 is waiting; release_all on 2 must clear the wait *)
  ignore (Lock_table.release_all t ~txn:2);
  Alcotest.(check (list (pair int int))) "no edges left" [] (Lock_table.wait_edges t)

(* --- assertional behaviour through the table --------------------------- *)

let acc_table () = Lock_table.create test_semantics

let test_assertional_write_blocked () =
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 100) res_a);
  (* non-interfering write by txn 3 (step 11) passes despite the assertion *)
  Alcotest.(check bool) "benign write granted" true
    (granted (req t ~txn:3 ~step:11 Mode.X res_a));
  ignore (Lock_table.release t ~txn:3 Mode.X res_a);
  (* interfering write by txn 2 (step 10) blocks *)
  Alcotest.(check bool) "interfering write queued" false
    (granted (req t ~txn:2 ~step:10 Mode.X res_a))

let test_own_assertion_no_self_block () =
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 100) res_a);
  Alcotest.(check bool) "own write passes own assertion" true
    (granted (req t ~txn:1 ~step:10 Mode.X res_a))

let test_admission_prefix_check () =
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 200) res_a);
  (* admission of an assertion the prefix interferes with: delayed *)
  Alcotest.(check bool) "admission blocked" false
    (granted (req t ~txn:2 ~admission:true (Mode.A 100) res_a));
  (* without the admission flag the same acquisition is unchecked *)
  Alcotest.(check bool) "mid-txn grant unchecked" true
    (granted (req t ~txn:3 (Mode.A 100) res_a))

let test_admission_unblocked_on_commit () =
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 200) res_a);
  let g = req t ~txn:2 ~admission:true (Mode.A 100) res_a in
  let wake = Lock_table.release_all t ~txn:1 in
  Alcotest.(check (list int)) "admitted after release" [ 2 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake);
  Alcotest.(check bool) "granted now" false (Lock_table.outstanding t ~ticket:(ticket_exn g))

let test_comp_lock_blocks_interfering_assertion () =
  let t = acc_table () in
  (* txn 1 modified res_a; its compensating step type is 10 *)
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.Comp 10) res_a);
  Alcotest.(check bool) "interfering assertion blocked" false
    (granted (req t ~txn:2 ~admission:true (Mode.A 100) res_a));
  Alcotest.(check bool) "benign assertion allowed" true
    (granted (req t ~txn:3 ~admission:true (Mode.A 101) res_a))

(* --- deadlock detection ------------------------------------------------ *)

let test_blockers () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  ignore (req t ~txn:2 Mode.S res_a);
  let g = req t ~txn:3 Mode.X res_a in
  Alcotest.(check (list int)) "blockers are both readers" [ 1; 2 ]
    (Lock_table.blockers t ~ticket:(ticket_exn g))

let test_cycle_two_txns () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.X res_a);
  ignore (req t ~txn:2 Mode.X res_b);
  ignore (req t ~txn:1 Mode.X res_b);
  (* no cycle yet *)
  Alcotest.(check bool) "no cycle yet" true (Lock_table.find_cycle t ~from:1 = None);
  ignore (req t ~txn:2 Mode.X res_a);
  (match Lock_table.find_cycle t ~from:2 with
  | Some cycle ->
      Alcotest.(check bool) "cycle contains 1 and 2" true
        (List.mem 1 cycle && List.mem 2 cycle)
  | None -> Alcotest.fail "expected deadlock cycle");
  (* resolving: cancel txn 2's wait and release its lock *)
  ignore (Lock_table.release_all t ~txn:2);
  Alcotest.(check bool) "resolved" true (Lock_table.find_cycle t ~from:1 = None)

let test_cycle_three_txns () =
  let t = plain () in
  let res_c = Resource_id.Tuple ("t", [ Value.Int 3 ]) in
  ignore (req t ~txn:1 Mode.X res_a);
  ignore (req t ~txn:2 Mode.X res_b);
  ignore (req t ~txn:3 Mode.X res_c);
  ignore (req t ~txn:1 Mode.X res_b);
  ignore (req t ~txn:2 Mode.X res_c);
  Alcotest.(check bool) "no cycle with chain" true (Lock_table.find_cycle t ~from:2 = None);
  ignore (req t ~txn:3 Mode.X res_a);
  match Lock_table.find_cycle t ~from:3 with
  | Some cycle -> Alcotest.(check int) "three-node cycle" 3 (List.length cycle)
  | None -> Alcotest.fail "expected 3-cycle"

let test_compensating_flag () =
  let t = plain () in
  ignore (req t ~txn:1 Mode.X res_a);
  ignore (req t ~txn:2 ~compensating:true Mode.X res_a);
  Alcotest.(check bool) "flag readable" true (Lock_table.compensating_waiter t ~txn:2);
  Alcotest.(check bool) "other txn unflagged" false (Lock_table.compensating_waiter t ~txn:1)

let test_wait_edges_via_queue () =
  (* A waiter also waits on conflicting waiters ahead of it. *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S res_a);
  ignore (req t ~txn:2 Mode.X res_a);
  ignore (req t ~txn:3 Mode.X res_a);
  let edges = List.sort compare (Lock_table.wait_edges t) in
  Alcotest.(check (list (pair int int))) "edges" [ (2, 1); (3, 1); (3, 2) ] edges

(* --- hierarchical (cross-level) checks ---------------------------------- *)

let test_table_s_blocks_tuple_x () =
  (* an absolute S at table level reaches down to tuple writes *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S tbl);
  Alcotest.(check bool) "tuple X blocked by table S" false (granted (req t ~txn:2 Mode.X res_a));
  (* but intention locks at table level do NOT constrain tuple requests *)
  let t2 = plain () in
  ignore (req t2 ~txn:1 Mode.IX tbl);
  Alcotest.(check bool) "tuple X passes foreign IX" true (granted (req t2 ~txn:2 Mode.X res_a))

let test_table_a_blocks_tuple_write () =
  (* a table-level assertional lock (legacy scan isolation) blocks
     interfering tuple writes *)
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 100) tbl);
  Alcotest.(check bool) "interfering tuple write blocked" false
    (granted (req t ~txn:2 ~step:10 Mode.X res_a));
  Alcotest.(check bool) "benign tuple write passes" true
    (granted (req t ~txn:3 ~step:11 Mode.X res_b))

let test_table_a_checks_tuple_comp_holders () =
  (* a checked A request on a table must wait out tuple-level Comp holders
     whose compensating step interferes (the legacy-scan admission) *)
  let t = acc_table () in
  Lock_table.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.Comp 10) res_a);
  Alcotest.(check bool) "table A blocked by tuple Comp" false
    (granted (req t ~txn:2 (Mode.A 100) tbl));
  (* released when the exposing transaction commits *)
  let wake = Lock_table.release_all t ~txn:1 in
  Alcotest.(check (list int)) "granted on commit" [ 2 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake)

let test_cross_level_promotion () =
  (* a waiter on a tuple is unblocked by a release at table level *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S tbl);
  let g = req t ~txn:2 Mode.X res_a in
  Alcotest.(check bool) "blocked" false (granted g);
  let wake = Lock_table.release t ~txn:1 Mode.S tbl in
  Alcotest.(check (list int)) "woken by table release" [ 2 ]
    (List.map (fun w -> w.Lock_table.woken_txn) wake)

let test_entry_gc () =
  (* drained entries are collected so table sweeps stay cheap *)
  let t = plain () in
  for i = 1 to 50 do
    ignore (req t ~txn:1 Mode.X (Resource_id.Tuple ("t", [ Value.Int i ])))
  done;
  Alcotest.(check bool) "entries live while held" true (Lock_table.entry_count t >= 50);
  ignore (Lock_table.release_all t ~txn:1);
  Alcotest.(check int) "entries collected" 0 (Lock_table.entry_count t);
  Alcotest.(check int) "no waiters" 0 (Lock_table.waiter_count t)

let test_cross_level_wait_edges () =
  (* the deadlock graph must include cross-level blockers *)
  let t = plain () in
  ignore (req t ~txn:1 Mode.S tbl);
  ignore (req t ~txn:2 Mode.X res_a);
  Alcotest.(check (list (pair int int))) "edge via parent table" [ (2, 1) ]
    (Lock_table.wait_edges t)

(* --- predicate locks (the §3.2 comparator) ------------------------------- *)

module Predicate = Acc_relation.Predicate
module Predicate_lock = Acc_lock.Predicate_lock

let p_eq c v = Predicate.Eq (c, Value.Int v)
let p_range c lo hi =
  Predicate.And (Predicate.Cmp (Predicate.Ge, c, Value.Int lo),
                 Predicate.Cmp (Predicate.Le, c, Value.Int hi))

let test_predlock_intersection () =
  let open Predicate_lock in
  (* the bank-account example of §3.2: different accounts do not conflict *)
  Alcotest.(check bool) "same key intersects" true (may_intersect (p_eq "id" 1) (p_eq "id" 1));
  Alcotest.(check bool) "different keys disjoint" true
    (definitely_disjoint (p_eq "id" 1) (p_eq "id" 2));
  Alcotest.(check bool) "range overlap" true
    (may_intersect (p_range "v" 0 10) (p_range "v" 10 20));
  Alcotest.(check bool) "range disjoint" true
    (definitely_disjoint (p_range "v" 0 9) (p_range "v" 10 20));
  Alcotest.(check bool) "open ranges disjoint" true
    (definitely_disjoint
       (Predicate.Cmp (Predicate.Lt, "v", Value.Int 5))
       (Predicate.Cmp (Predicate.Gt, "v", Value.Int 5)));
  Alcotest.(check bool) "eq inside range" true
    (may_intersect (p_eq "v" 5) (p_range "v" 0 10));
  Alcotest.(check bool) "eq outside range" true
    (definitely_disjoint (p_eq "v" 50) (p_range "v" 0 10));
  Alcotest.(check bool) "ne excludes eq" true
    (definitely_disjoint (p_eq "v" 5) (Predicate.Ne ("v", Value.Int 5)));
  Alcotest.(check bool) "in-lists overlap" true
    (may_intersect
       (Predicate.In ("v", [ Value.Int 1; Value.Int 2 ]))
       (Predicate.In ("v", [ Value.Int 2; Value.Int 3 ])));
  Alcotest.(check bool) "in-lists disjoint" true
    (definitely_disjoint
       (Predicate.In ("v", [ Value.Int 1 ]))
       (Predicate.In ("v", [ Value.Int 2; Value.Int 3 ])));
  (* different columns constrain independently: both can hold *)
  Alcotest.(check bool) "different columns intersect" true
    (may_intersect (p_eq "a" 1) (p_eq "b" 2));
  (* disjunctions are conservative *)
  Alcotest.(check bool) "or is conservative" true
    (may_intersect (Predicate.Or (p_eq "v" 1, p_eq "v" 2)) (p_eq "v" 9))

let test_predlock_manager () =
  let open Predicate_lock in
  let t = create () in
  Alcotest.(check bool) "read granted" true
    (acquire t ~txn:1 ~mode:Read ~table:"acct" (p_range "v" 0 10) = `Granted);
  Alcotest.(check bool) "overlapping read granted" true
    (acquire t ~txn:2 ~mode:Read ~table:"acct" (p_range "v" 5 15) = `Granted);
  (* a write intersecting both readers reports both *)
  (match acquire t ~txn:3 ~mode:Write ~table:"acct" (p_eq "v" 7) with
  | `Conflict blockers -> Alcotest.(check (list int)) "both readers block" [ 1; 2 ] blockers
  | `Granted -> Alcotest.fail "expected conflict");
  (* a disjoint write sails through *)
  Alcotest.(check bool) "disjoint write granted" true
    (acquire t ~txn:3 ~mode:Write ~table:"acct" (p_eq "v" 50) = `Granted);
  (* another table is independent *)
  Alcotest.(check bool) "other table granted" true
    (acquire t ~txn:3 ~mode:Write ~table:"other" (p_eq "v" 7) = `Granted);
  release_all t ~txn:1;
  release_all t ~txn:2;
  Alcotest.(check bool) "write granted after release" true
    (acquire t ~txn:3 ~mode:Write ~table:"acct" (p_eq "v" 7) = `Granted);
  release_all t ~txn:3;
  Alcotest.(check int) "drained" 0 (lock_count t)

(* soundness: if some row satisfies both predicates, may_intersect must say
   so.  Generate conjunctive predicates and rows over a small value space. *)
let conj_pred_gen =
  QCheck2.Gen.(
    let atom =
      oneof
        [
          map2 (fun c v -> Predicate.Eq (c, Value.Int v)) (oneofl [ "a"; "b" ]) (int_range 0 6);
          map2 (fun c v -> Predicate.Ne (c, Value.Int v)) (oneofl [ "a"; "b" ]) (int_range 0 6);
          map3
            (fun op c v -> Predicate.Cmp (op, c, Value.Int v))
            (oneofl [ Predicate.Lt; Predicate.Le; Predicate.Gt; Predicate.Ge ])
            (oneofl [ "a"; "b" ]) (int_range 0 6);
          map2
            (fun c vs -> Predicate.In (c, List.map (fun v -> Value.Int v) vs))
            (oneofl [ "a"; "b" ])
            (list_size (int_range 1 3) (int_range 0 6));
        ]
    in
    map Predicate.conj (list_size (int_range 1 4) atom))

let pred_schema =
  Acc_relation.Schema.make ~name:"p" ~key:[ "a" ]
    [ Acc_relation.Schema.col "a" Value.Tint; Acc_relation.Schema.col "b" Value.Tint ]

let prop_may_intersect_sound =
  QCheck2.Test.make ~name:"predicate_lock: may_intersect is sound" ~count:1000
    QCheck2.Gen.(pair conj_pred_gen conj_pred_gen)
    (fun (p1, p2) ->
      let f1 = Predicate.compile pred_schema p1 and f2 = Predicate.compile pred_schema p2 in
      let witness = ref false in
      for a = 0 to 6 do
        for b = 0 to 6 do
          let row = [| Value.Int a; Value.Int b |] in
          if f1 row && f2 row then witness := true
        done
      done;
      (* soundness: a common row forces may_intersect *)
      (not !witness) || Predicate_lock.may_intersect p1 p2)

(* --- qcheck safety: no two conflicting holds ever coexist --------------- *)

type lock_op = Req of int * bool * int | Rel of int

let lock_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun txn x r -> Req (txn, x, r)) (int_range 1 5) bool (int_range 0 2);
        map (fun txn -> Rel txn) (int_range 1 5);
      ])

let prop_no_conflicting_holds =
  QCheck2.Test.make ~name:"lock_table: conflicting holds never coexist" ~count:300
    QCheck2.Gen.(list_size (int_range 0 80) lock_op_gen)
    (fun ops ->
      let t = plain () in
      let resources = [| res_a; res_b; tbl |] in
      List.iter
        (fun op ->
          match op with
          | Req (txn, exclusive, r) ->
              let mode = if exclusive then Mode.X else Mode.S in
              ignore (req t ~txn mode resources.(r))
          | Rel txn -> ignore (Lock_table.release_all t ~txn))
        ops;
      (* check pairwise compatibility of holds on every resource *)
      Array.for_all
        (fun r ->
          let holds = Lock_table.holders t r in
          List.for_all
            (fun (txn1, m1, _) ->
              List.for_all
                (fun (txn2, m2, _) ->
                  txn1 = txn2
                  || not
                       (Mode.conflicts Mode.no_semantics ~held:m1 ~held_step:0 ~req:m2
                          ~requester))
                holds)
            holds)
        resources)

let prop_release_all_drains =
  QCheck2.Test.make ~name:"lock_table: release_all leaves no residue" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) lock_op_gen)
    (fun ops ->
      let t = plain () in
      let resources = [| res_a; res_b; tbl |] in
      List.iter
        (fun op ->
          match op with
          | Req (txn, exclusive, r) ->
              let mode = if exclusive then Mode.X else Mode.S in
              ignore (req t ~txn mode resources.(r))
          | Rel txn -> ignore (Lock_table.release_all t ~txn))
        ops;
      for txn = 1 to 5 do
        ignore (Lock_table.release_all t ~txn)
      done;
      Lock_table.lock_count t = 0 && Lock_table.wait_edges t = [])

(* safety against a RANDOM interference oracle: requests that follow the
   hierarchical protocol (intention lock before tuple lock, assertional
   attachment only alongside an own conventional hold — the §3.3 side
   condition) must never produce two coexisting conflicting holds, across
   levels included.  Queued requests are immediately cancelled ("timeout")
   so the state stays protocol-clean without a scheduler. *)

type rnd_op =
  | RRead of int * int (* txn, resource *)
  | RWrite of int * int
  | RAttach of int * int * int (* txn, assertion, resource *)
  | RRel of int

let rnd_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun t r -> RRead (t, r)) (int_range 1 4) (int_range 1 3);
        map2 (fun t r -> RWrite (t, r)) (int_range 1 4) (int_range 1 3);
        map3 (fun t a r -> RAttach (t, a, r)) (int_range 1 4) (int_range 1 3) (int_range 1 3);
        map (fun t -> RRel t) (int_range 1 4);
      ])

let prop_oracle_safety =
  QCheck2.Test.make ~name:"lock_table: protocol-following grants are pairwise safe" ~count:300
    QCheck2.Gen.(pair (int_range 0 255) (list_size (int_range 0 80) rnd_op_gen))
    (fun (oracle_bits, ops) ->
      let sem =
        Mode.
          {
            step_interferes =
              (fun ~step_type ~assertion ->
                (oracle_bits lsr ((step_type + (3 * assertion)) mod 8)) land 1 = 1);
            prefix_interferes = (fun ~holder_assertion:_ ~assertion:_ -> false);
          }
      in
      let t = Lock_table.create sem in
      let table = Resource_id.Table "t" in
      let tuple n = Resource_id.Tuple ("t", [ Value.Int n ]) in
      (* request; on block, cancel at once *)
      let try_lock txn mode res =
        match Lock_table.submit t (Lock_request.make ~txn ~step_type:(txn mod 3) mode res) with
        | Lock_table.Granted -> true
        | Lock_table.Queued ticket ->
            ignore (Lock_table.cancel t ~ticket);
            false
      in
      let holds_conventional txn res =
        List.exists
          (fun (tx, m, _) -> tx = txn && Mode.conventional m)
          (Lock_table.holders t res)
      in
      List.iter
        (fun op ->
          match op with
          | RRead (txn, r) -> if try_lock txn Mode.IS table then ignore (try_lock txn Mode.S (tuple r))
          | RWrite (txn, r) -> if try_lock txn Mode.IX table then ignore (try_lock txn Mode.X (tuple r))
          | RAttach (txn, a, r) ->
              (* the §3.3 side condition: attach only alongside an own
                 conventional hold on the same item *)
              if holds_conventional txn (tuple r) then
                Lock_table.attach_req t (Lock_request.make ~txn ~step_type:(txn mod 3) (Mode.A a) (tuple r))
          | RRel txn -> ignore (Lock_table.release_all t ~txn))
        ops;
      (* pairwise safety across ALL holds, including tuple-vs-absolute-table *)
      let table_absolute =
        List.filter (fun (_, m, _) -> match m with Mode.IS | Mode.IX -> false | _ -> true)
          (Lock_table.holders t table)
      in
      let ok_pair (t1, m1, s1) (t2, _m2, _) req_mode =
        t1 = t2
        || not
             (Mode.conflicts sem ~held:m1 ~held_step:s1 ~req:req_mode
                ~requester:Mode.{ req_step_type = t2 mod 3; req_admission = false })
      in
      List.for_all
        (fun r ->
          let own = Lock_table.holders t (tuple r) in
          List.for_all
            (fun ((_, m2, _) as h2) ->
              List.for_all (fun h1 -> ok_pair h1 h2 m2) (own @ table_absolute))
            own)
        [ 1; 2; 3 ]
      &&
      let tholds = Lock_table.holders t table in
      List.for_all
        (fun ((_, m2, _) as h2) -> List.for_all (fun h1 -> ok_pair h1 h2 m2) tholds)
        tholds)

(* --- lock-wait deadlines and bounded-bypass fairness (DESIGN.md §13) ---- *)

let test_deadline_expiry () =
  let now = ref 0. in
  let t = Lock_table.create ~clock:(fun () -> !now) Mode.no_semantics in
  ignore (req t ~txn:1 Mode.X res_a);
  let tk =
    ticket_exn (Lock_table.submit t (Lock_request.make ~txn:2 ~step_type:0 ~deadline:5. Mode.X res_a))
  in
  let ex, wk = Lock_table.expire_overdue t ~now:4.9 in
  Alcotest.(check int) "nothing due yet" 0 (List.length ex);
  Alcotest.(check int) "no wakeups" 0 (List.length wk);
  now := 6.;
  let ex, _ = Lock_table.expire_overdue t ~now:6. in
  (match ex with
  | [ e ] ->
      Alcotest.(check int) "expired txn" 2 e.Lock_table.ex_txn;
      Alcotest.(check bool) "waited measured from enqueue" true (e.Lock_table.ex_waited >= 5.9)
  | _ -> Alcotest.fail "expected exactly one expiry");
  Alcotest.(check bool) "ticket withdrawn" false (Lock_table.outstanding t ~ticket:tk);
  Alcotest.(check int) "no waiter leaked" 0 (Lock_table.waiter_count t);
  (* no double abort: a later sweep, a late cancel, and a detector-style kill
     all find nothing to withdraw *)
  let ex2, _ = Lock_table.expire_overdue t ~now:7. in
  Alcotest.(check int) "second sweep empty" 0 (List.length ex2);
  Alcotest.(check int) "late cancel is a no-op" 0
    (List.length (Lock_table.cancel t ~ticket:tk));
  Alcotest.(check int) "release wakes nobody" 0 (List.length (Lock_table.release_all t ~txn:1));
  Alcotest.(check int) "clean table" 0 (Lock_table.lock_count t)

let test_deadline_spares_compensating () =
  let now = ref 0. in
  let t = Lock_table.create ~clock:(fun () -> !now) Mode.no_semantics in
  ignore (req t ~txn:1 Mode.X res_a);
  (* §3.4 compensation-sparing: the deadline is discarded on a compensating
     request, so no sweep ever withdraws it *)
  ignore
    (Lock_table.submit t (Lock_request.make ~txn:2 ~step_type:0 ~compensating:true ~deadline:1. Mode.X res_a));
  now := 100.;
  let ex, _ = Lock_table.expire_overdue t ~now:100. in
  Alcotest.(check int) "compensating wait never expires" 0 (List.length ex);
  Alcotest.(check int) "still queued" 1 (Lock_table.waiter_count t)

let test_bounded_bypass_gate () =
  (* same-queue FIFO already forbids overtaking; the gate bounds the avenues
     FIFO cannot see.  Here: tuple-level grants never consult the table-level
     queue, so readers of a tuple can starve a queued table writer forever
     without the gate. *)
  let t = Lock_table.create ~max_bypass:3 Mode.no_semantics in
  ignore (Lock_table.submit t (Lock_request.make ~txn:1 ~step_type:0 Mode.S tbl));
  let tk = ticket_exn (Lock_table.submit t (Lock_request.make ~txn:2 ~step_type:0 Mode.X tbl)) in
  (* direct tuple readers bypass the queued table writer, but only
     max_bypass times — then the gate refuses further conflicting grants *)
  let grants = ref [] in
  for txn = 3 to 10 do
    if granted (Lock_table.submit t (Lock_request.make ~txn ~step_type:0 Mode.S res_a)) then
      grants := txn :: !grants
  done;
  Alcotest.(check (list int)) "gate closes after max_bypass overtakes" [ 3; 4; 5 ]
    (List.rev !grants);
  Alcotest.(check int) "starved waiter's bypass count" 3 (Lock_table.max_bypassed t);
  (* gate refusals are visible to the deadlock detector as wait edges on the
     starved waiter *)
  Alcotest.(check bool) "fairness wait edge recorded" true
    (List.mem (6, 2) (Lock_table.wait_edges t));
  (* §3.4: compensating requests are never fairness-gated *)
  Alcotest.(check bool) "compensating reader passes the closed gate" true
    (granted (Lock_table.submit t (Lock_request.make ~txn:20 ~step_type:0 ~compensating:true Mode.S res_a)));
  (* drain: the starved writer goes first once the table holder leaves (an
     absolute table grant does not sweep tuple holds — the protocol relies on
     intention locks, which these direct tuple readers skipped), then the
     deferred readers, and nothing leaks *)
  ignore (Lock_table.release_all t ~txn:1);
  Alcotest.(check bool) "starved writer granted first" false
    (Lock_table.outstanding t ~ticket:tk);
  List.iter (fun txn -> ignore (Lock_table.release_all t ~txn)) [ 3; 4; 5; 20 ];
  ignore (Lock_table.release_all t ~txn:2);
  List.iter (fun txn -> ignore (Lock_table.release_all t ~txn)) [ 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "no residue locks" 0 (Lock_table.lock_count t);
  Alcotest.(check int) "no residue waiters" 0 (Lock_table.waiter_count t)

(* An upgrade waits at the head of its queue, so the gate defers it for a
   starved waiter behind it.  That waiter is then a blocker (the two form a
   cycle the detector can break), and a promotion pass must keep the upgrade
   deferred rather than grant it past the starved waiter uncounted. *)
let test_gate_deferred_upgrade () =
  let t = Lock_table.create ~max_bypass:2 Mode.no_semantics in
  ignore (req t ~txn:4 Mode.S tbl);
  let starved = ticket_exn (req t ~txn:1 Mode.X tbl) in
  (* two direct tuple readers overtake the queued table writer *)
  ignore (req t ~txn:2 Mode.S res_a);
  ignore (req t ~txn:3 Mode.S res_b);
  Alcotest.(check int) "writer starved" 2 (Lock_table.max_bypassed t);
  let upgrade = ticket_exn (req t ~txn:4 Mode.X tbl) in
  Alcotest.(check (list int)) "deferred upgrade waits on the starved writer" [ 1 ]
    (Lock_table.blockers t ~ticket:upgrade);
  Alcotest.(check bool) "the two form a cycle" true
    (Lock_table.find_cycle t ~from:4 <> None);
  ignore (Lock_table.release_all t ~txn:2);
  Alcotest.(check bool) "promotion keeps the upgrade deferred" true
    (Lock_table.outstanding t ~ticket:upgrade);
  Alcotest.(check int) "no uncounted overtake" 2 (Lock_table.max_bypassed t);
  (* the detector's resolution: withdrawing the starved writer lets the
     upgrade through *)
  ignore (Lock_table.cancel t ~ticket:starved);
  Alcotest.(check bool) "upgrade granted" false (Lock_table.outstanding t ~ticket:upgrade)

(* The fairness bound as a property: with every request from a fresh
   transaction (so no re-entrant/upgrade exemptions apply), no waiter is ever
   overtaken more than max_bypass times, across any interleaving of grants,
   queue jumps, releases and cancels — the "granted or aborted within a
   bounded number of grant events" guarantee. *)
let bypass_ops_gen =
  QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 7) (int_range 0 5)))

let run_bypass_ops ~max_bypass ~request ~release_all ~cancel_txn ~max_bypassed ops =
  let resources = [| res_a; res_b; tbl |] in
  let next = ref 0 in
  let active = ref [] in
  let ok = ref true in
  List.iter
    (fun (k, r) ->
      (match k with
      | 0 | 1 | 2 | 3 ->
          incr next;
          active := !next :: !active;
          let mode = [| Mode.S; Mode.X; Mode.IS; Mode.IX |].(k) in
          (* intention modes only make sense on the table *)
          let res = if k >= 2 then tbl else resources.(r mod 3) in
          request ~txn:!next mode res
      | 4 | 5 -> (
          match !active with
          | [] -> ()
          | l ->
              let txn = List.nth l (r mod List.length l) in
              release_all ~txn;
              active := List.filter (fun x -> x <> txn) l)
      | _ -> (
          match !active with [] -> () | l -> cancel_txn ~txn:(List.nth l (r mod List.length l))));
      if max_bypassed () > max_bypass then ok := false)
    ops;
  !ok

let prop_bounded_bypass =
  QCheck2.Test.make ~name:"lock_table: no waiter overtaken more than max_bypass times"
    ~count:300 bypass_ops_gen (fun ops ->
      let max_bypass = 4 in
      let t = Lock_table.create ~max_bypass Mode.no_semantics in
      run_bypass_ops ~max_bypass
        ~request:(fun ~txn mode res ->
          ignore (Lock_table.submit t (Lock_request.make ~txn ~step_type:0 mode res)))
        ~release_all:(fun ~txn -> ignore (Lock_table.release_all t ~txn))
        ~cancel_txn:(fun ~txn ->
          List.iter
            (fun ticket -> ignore (Lock_table.cancel t ~ticket))
            (Lock_table.outstanding_tickets t ~txn))
        ~max_bypassed:(fun () -> Lock_table.max_bypassed t)
        ops)

(* Two bookkeeping invariants, checked after every operation of a random
   sequence (one outstanding wait per transaction, as the engines
   guarantee):
   - no waiter is stranded: every outstanding ticket has a blocker.  A
     waiter with none should have been promoted; promotion visits only the
     entries the queued-entry index lists, so an index that missed an entry
     strands its waiters here;
   - no empty entry survives: [entry_count] is exactly the number of
     resources carrying a hold or a waiter. *)
type inv_op =
  | ISubmit of { txn : int; step : int; mode : int; res : int; deadline : bool }
  | IAttach of { txn : int; step : int; mode : int; res : int }
  | IRelease of { txn : int; pick : int }
  | IRelease_where of { txn : int; res : int; scope : int }
  | ICancel of int
  | IExpire

let inv_modes = [| Mode.S; Mode.X; Mode.IS; Mode.IX; Mode.A 100; Mode.A 200; Mode.Comp 10 |]
let inv_attach_modes = [| Mode.A 100; Mode.A 200; Mode.Comp 10 |]

let inv_resources =
  let tuple t k = Resource_id.Tuple (t, [ Value.Int k ]) in
  [| Resource_id.Table "t"; tuple "t" 1; tuple "t" 2; Resource_id.Table "u"; tuple "u" 1 |]

let inv_op_gen =
  QCheck2.Gen.(
    let txn = int_range 1 4 and step = oneofl [ 0; 10; 11 ] and res = int_range 0 4 in
    oneof
      [
        map
          (fun (txn, step, mode, res, deadline) -> ISubmit { txn; step; mode; res; deadline })
          (tup5 txn step (int_range 0 6) res bool);
        map
          (fun (txn, step, mode, res) -> IAttach { txn; step; mode; res })
          (quad txn step (int_range 0 2) res);
        map2 (fun txn pick -> IRelease { txn; pick }) txn nat;
        map3 (fun txn res scope -> IRelease_where { txn; res; scope }) txn res (int_range 0 2);
        map (fun txn -> ICancel txn) txn;
        pure IExpire;
      ])

let show_inv_op = function
  | ISubmit { txn; step; mode; res; deadline } ->
      Format.asprintf "submit(T%d step%d %a %a%s)" txn step Mode.pp inv_modes.(mode)
        Resource_id.pp inv_resources.(res)
        (if deadline then " deadline" else "")
  | IAttach { txn; step; mode; res } ->
      Format.asprintf "attach(T%d step%d %a %a)" txn step Mode.pp inv_attach_modes.(mode)
        Resource_id.pp inv_resources.(res)
  | IRelease { txn; pick } -> Printf.sprintf "release(T%d #%d)" txn pick
  | IRelease_where { txn; res; scope } ->
      Format.asprintf "release_where(T%d %s)" txn
        (match scope with
        | 0 -> Format.asprintf "%a" Resource_id.pp inv_resources.(res)
        | 1 -> "conventional"
        | _ -> "all")
  | ICancel txn -> Printf.sprintf "cancel(T%d)" txn
  | IExpire -> "expire"

let prop_no_stranded_waiter =
  QCheck2.Test.make
    ~name:"lock_table: no stranded waiter, no empty entry" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_inv_op ops))
    QCheck2.Gen.(list_size (int_range 0 80) inv_op_gen)
    (fun ops ->
      let now = ref 0. in
      let t = Lock_table.create ~max_bypass:2 ~clock:(fun () -> !now) test_semantics in
      let txns = [ 1; 2; 3; 4 ] in
      let idle txn = Lock_table.outstanding_tickets t ~txn = [] in
      let invariants () =
        List.for_all
          (fun txn ->
            List.for_all
              (fun ticket -> Lock_table.blockers t ~ticket <> [])
              (Lock_table.outstanding_tickets t ~txn))
          txns
        &&
        let live res =
          Lock_table.holders t res <> []
          || List.exists
               (fun txn -> List.exists (Resource_id.equal res) (Lock_table.waiting_on t ~txn))
               txns
        in
        Lock_table.entry_count t
        = Array.fold_left (fun n res -> if live res then n + 1 else n) 0 inv_resources
      in
      List.for_all
        (fun op ->
          (match op with
          | ISubmit { txn; step; mode; res; deadline } ->
              if idle txn then
                ignore
                  (Lock_table.submit t
                     (Lock_request.make ~txn ~step_type:step
                        ?deadline:(if deadline then Some (!now +. 1.) else None)
                        inv_modes.(mode) inv_resources.(res)))
          | IAttach { txn; step; mode; res } ->
              if idle txn then
                Lock_table.attach_req t
                  (Lock_request.make ~txn ~step_type:step inv_attach_modes.(mode)
                     inv_resources.(res))
          | IRelease { txn; pick } -> (
              match Lock_table.held_by t ~txn with
              | [] -> ()
              | held ->
                  let res, mode = List.nth held (pick mod List.length held) in
                  ignore (Lock_table.release t ~txn mode res))
          | IRelease_where { txn; res; scope } ->
              let pred r m =
                match scope with
                | 0 -> Resource_id.equal r inv_resources.(res)
                | 1 -> Mode.conventional m
                | _ -> true
              in
              ignore (Lock_table.release_where t ~txn pred)
          | ICancel txn ->
              List.iter
                (fun ticket -> ignore (Lock_table.cancel t ~ticket))
                (Lock_table.outstanding_tickets t ~txn)
          | IExpire ->
              now := !now +. 1.;
              ignore (Lock_table.expire_overdue t ~now:!now));
          invariants ())
        ops)

(* Sequential-vs-sharded parity: the sharded table must agree with the
   sequential one request-for-request on the Lock_request surface.  The
   script exercises grants, queueing, upgrades, re-entry and the
   assertional/compensating modes. *)
module Sharded = Acc_parallel.Sharded_lock_table

let parity_script =
  [
    (1, 0, false, false, None, Mode.IX, tbl);
    (1, 0, false, false, None, Mode.X, res_a);
    (2, 10, false, false, None, Mode.IS, tbl);
    (2, 10, false, false, Some 99.0, Mode.S, res_a) (* queues behind txn 1 *);
    (3, 0, true, false, None, Mode.A 100, res_b);
    (3, 0, false, true, None, Mode.Comp 10, res_b);
    (1, 0, false, false, None, Mode.X, res_a) (* re-entrant *);
    (3, 0, false, false, None, Mode.A 200, Resource_id.Tuple ("t", [ Value.Int 3 ]));
  ]

let same_grant g1 g2 =
  match (g1, g2) with
  | Lock_table.Granted, Lock_table.Granted -> true
  | Lock_table.Queued _, Lock_table.Queued _ -> true
  | _ -> false

let test_sequential_sharded_parity () =
  let seq = Lock_table.create test_semantics in
  let sh = Sharded.create ~shards:4 test_semantics in
  List.iter
    (fun (txn, step_type, admission, compensating, deadline, mode, res) ->
      let req = Lock_request.make ~txn ~step_type ~admission ~compensating ?deadline mode res in
      let g_seq = Lock_table.submit seq req in
      let g_sh = Sharded.submit sh req in
      Alcotest.(check bool) "same grant decision" true (same_grant g_seq g_sh);
      (* attach on a disjoint txn space so it cannot disturb the grants *)
      let att = Lock_request.make ~txn:(txn + 100) ~step_type mode res in
      Lock_table.attach_req seq att;
      Sharded.attach_req sh att)
    parity_script;
  List.iter
    (fun res ->
      Alcotest.(check bool)
        "same holders" true
        (List.sort compare (Lock_table.holders seq res)
        = List.sort compare (Sharded.holders sh res)))
    [ tbl; res_a; res_b; Resource_id.Tuple ("t", [ Value.Int 3 ]) ];
  Alcotest.(check int) "same lock count" (Lock_table.lock_count seq) (Sharded.lock_count sh);
  Alcotest.(check int) "same waiter count" (Lock_table.waiter_count seq)
    (Sharded.waiter_count sh)

let suites =
  [
    ( "lock.mode",
      [
        Alcotest.test_case "conventional matrix" `Quick test_conventional_matrix;
        Alcotest.test_case "covers" `Quick test_covers;
        Alcotest.test_case "assertional conflicts" `Quick test_assertional_conflicts;
      ] );
    ("lock.resource", [ Alcotest.test_case "identity" `Quick test_resource_ids ]);
    ( "lock.table",
      [
        Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
        Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
        Alcotest.test_case "release wakes fifo" `Quick test_release_wakes_fifo;
        Alcotest.test_case "release wakes readers" `Quick test_release_wakes_multiple_readers;
        Alcotest.test_case "fifo no overtake" `Quick test_fifo_no_overtake;
        Alcotest.test_case "reentrant" `Quick test_reentrant;
        Alcotest.test_case "covered mode reentrant" `Quick test_covered_mode_reentrant;
        Alcotest.test_case "upgrade sole holder" `Quick test_upgrade_sole_holder;
        Alcotest.test_case "upgrade waits for reader" `Quick test_upgrade_waits_for_other_reader;
        Alcotest.test_case "upgrade ignores queue" `Quick test_upgrade_jumps_queue;
        Alcotest.test_case "release_where" `Quick test_release_where;
        Alcotest.test_case "release unheld raises" `Quick test_release_unheld_raises;
        Alcotest.test_case "cancel unblocks" `Quick test_cancel_unblocks;
        Alcotest.test_case "release_all cancels waits" `Quick test_release_all_cancels_waits;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_no_conflicting_holds;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_oracle_safety;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_release_all_drains;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_no_stranded_waiter;
      ] );
    ( "lock.assertional",
      [
        Alcotest.test_case "interfering write blocked" `Quick test_assertional_write_blocked;
        Alcotest.test_case "no self block" `Quick test_own_assertion_no_self_block;
        Alcotest.test_case "admission prefix check" `Quick test_admission_prefix_check;
        Alcotest.test_case "admission unblocked on commit" `Quick
          test_admission_unblocked_on_commit;
        Alcotest.test_case "comp lock semantics" `Quick
          test_comp_lock_blocks_interfering_assertion;
      ] );
    ( "lock.deadlock",
      [
        Alcotest.test_case "blockers" `Quick test_blockers;
        Alcotest.test_case "two-txn cycle" `Quick test_cycle_two_txns;
        Alcotest.test_case "three-txn cycle" `Quick test_cycle_three_txns;
        Alcotest.test_case "compensating flag" `Quick test_compensating_flag;
        Alcotest.test_case "wait edges via queue" `Quick test_wait_edges_via_queue;
      ] );
    ( "lock.overload",
      [
        Alcotest.test_case "deadline expiry withdraws the wait once" `Quick
          test_deadline_expiry;
        Alcotest.test_case "deadline spares compensating requests" `Quick
          test_deadline_spares_compensating;
        Alcotest.test_case "bounded-bypass gate" `Quick test_bounded_bypass_gate;
        Alcotest.test_case "gate-deferred upgrade waits on the starved waiter" `Quick
          test_gate_deferred_upgrade;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_bounded_bypass;
      ] );
    ( "lock.parity",
      [
        Alcotest.test_case "sequential and sharded tables agree on Lock_request" `Quick
          test_sequential_sharded_parity;
      ] );
    ( "lock.predicate",
      [
        Alcotest.test_case "intersection tests" `Quick test_predlock_intersection;
        Alcotest.test_case "manager" `Quick test_predlock_manager;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_may_intersect_sound;
      ] );
    ( "lock.hierarchy",
      [
        Alcotest.test_case "table S blocks tuple X" `Quick test_table_s_blocks_tuple_x;
        Alcotest.test_case "table A blocks tuple write" `Quick test_table_a_blocks_tuple_write;
        Alcotest.test_case "table A checks tuple Comp holders" `Quick
          test_table_a_checks_tuple_comp_holders;
        Alcotest.test_case "cross-level promotion" `Quick test_cross_level_promotion;
        Alcotest.test_case "entry gc" `Quick test_entry_gc;
        Alcotest.test_case "cross-level wait edges" `Quick test_cross_level_wait_edges;
      ] );
  ]
