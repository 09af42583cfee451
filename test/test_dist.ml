(* Tests for acc.dist: partitioning, the 2PC coordinator, the remote-payment
   and remote-stock paths (single-node and partitioned), the partitioned
   crash harness (no-lost-decision oracle), and partitioned runs of the
   multicore driver: cross-partition fraction, merged-database consistency,
   and the configs it refuses. *)

open Acc_tpcc
module Dist = Acc_dist
module Partition = Acc_dist.Partition
module Coordinator = Acc_dist.Coordinator
module Transport = Acc_dist.Transport
module Participant = Acc_dist.Participant
module Dist_driver = Acc_dist.Dist_driver
module P = Acc_harness.Parallel_driver
module Crash_harness = Acc_harness.Crash_harness
module Fault = Acc_fault.Fault
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Database = Acc_relation.Database
module Table = Acc_relation.Table
open Acc_relation.Value

let small_params =
  {
    Params.default with
    Params.warehouses = 4;
    districts_per_warehouse = 4;
    customers_per_district = 20;
    items = 200;
    initial_orders_per_district = 3;
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [run ()] must raise [Invalid_argument] naming [field], not run *)
let refused what field run =
  match run () with
  | _ -> Alcotest.failf "%s: ran" what
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" what msg field)
        true (contains ~sub:field msg)

(* --- partitioning --------------------------------------------------------- *)

let test_ranges () =
  Alcotest.(check (list (pair int int)))
    "4 over 2" [ (1, 2); (3, 4) ]
    (Partition.ranges ~warehouses:4 ~partitions:2);
  Alcotest.(check (list (pair int int)))
    "5 over 2: first takes the extra" [ (1, 3); (4, 5) ]
    (Partition.ranges ~warehouses:5 ~partitions:2);
  Alcotest.(check (list (pair int int)))
    "1 over 1" [ (1, 1) ]
    (Partition.ranges ~warehouses:1 ~partitions:1);
  Alcotest.(check bool) "more partitions than warehouses rejected" true
    (try
       ignore (Partition.ranges ~warehouses:1 ~partitions:2);
       false
     with Invalid_argument _ -> true)

(* partitions on plain executors, loaded through TPC-C's partitioning
   capability *)
let mk_parts ~seed ~partitions params =
  let cap = Tpcc_workload.partitioning params in
  let ranges = Partition.ranges ~warehouses:cap.Acc_workload.keys ~partitions in
  Array.of_list
    (List.mapi
       (fun id (lo, hi) ->
         let db = cap.Acc_workload.populate_range ~seed ~lo ~hi in
         Partition.make ~id ~lo ~hi (Executor.create ~sem:cap.Acc_workload.semantics db))
       ranges)

(* partition loads are exact disjoint projections: their union is the
   unpartitioned load *)
let test_load_projection () =
  let seed = 11 in
  let parts = mk_parts ~seed ~partitions:3 small_params in
  let merged = Dist_driver.merged_db (Array.to_list parts) in
  let full = Load.populate ~seed small_params in
  Alcotest.(check bool) "merged partitions = unpartitioned load" true
    (Database.equal merged full);
  Alcotest.(check (list string)) "merged load is consistent" [] (Consistency.check merged)

(* --- remote payment, single-node ------------------------------------------ *)

(* the 15% remote-customer payment on one engine: money lands in the paying
   warehouse's ytd (C1/C8 group history by h_w_id), the customer side at the
   customer's home warehouse *)
let test_remote_payment_single_node () =
  let seed = 5 in
  let db = Load.populate ~seed small_params in
  let eng = Executor.create ~sem:Txns.semantics db in
  let env = Txns.default_env ~seed small_params in
  let input =
    Txns.Payment
      {
        Txns.p_w = 1; p_d = 2; p_c_w = 3; p_c_d = 4;
        p_customer = Txns.By_id 7; p_amount = 123.25;
      }
  in
  let outcome = ref None in
  Schedule.run eng [ (fun () -> outcome := Some (Txns.run_acc eng env input)) ];
  (match !outcome with
  | Some Acc_core.Runtime.Committed -> ()
  | _ -> Alcotest.fail "remote payment did not commit");
  Alcotest.(check (list string)) "C1/C8 hold across warehouses" []
    (Consistency.check db);
  let site_rows =
    Table.scan (Database.table db "history")
      ~where:
        (Acc_relation.Predicate.conj
           [
             Acc_relation.Predicate.Eq ("h_c_w_id", Int 3);
             Acc_relation.Predicate.Eq ("h_w_id", Int 1);
           ])
  in
  Alcotest.(check int) "history row: customer home 3, payment site 1" 1
    (List.length site_rows)

(* --- cross-partition payment through the coordinator ---------------------- *)

let cross_payment =
  {
    Txns.p_w = 1; p_d = 1; p_c_w = 4; p_c_d = 2;
    p_customer = Txns.By_id 3; p_amount = 77.5;
  }

(* two local lines, one remote line supplied from w3 (partition 1 of 2) *)
let cross_new_order =
  {
    Txns.no_w = 1; no_d = 1; no_c = 2;
    no_items = [ (5, 3, 1); (6, 2, 3); (7, 1, 1) ];
    no_fail_last = false;
  }

(* one input's branches through the coordinator over its transport, as the
   partitioned driver and the crash harness run them *)
let run_cross_input remote parts env input =
  let coord = Coordinator.Remote.core remote in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let branches =
    List.map (fun (pid, inst) -> (parts.(pid), inst)) (Dist_txns.branches env ~part_of input)
  in
  let home = Partition.engine (fst (List.hd branches)) in
  let outcome = ref Coordinator.Aborted in
  Schedule.run home [ (fun () -> outcome := Coordinator.Remote.run_cross remote branches) ];
  !outcome

(* a loopback coordinator over fresh partitions, closed after [f] *)
let with_remote ~seed ~partitions f =
  let parts = mk_parts ~seed ~partitions small_params in
  let coord = Coordinator.create parts in
  let remote = Coordinator.Remote.make coord in
  Fun.protect ~finally:(fun () -> Coordinator.Remote.close remote) (fun () -> f parts coord remote)

let test_cross_payment_commit () =
  let seed = 3 in
  with_remote ~seed ~partitions:2 @@ fun parts coord remote ->
  let env = Txns.default_env ~seed small_params in
  let outcome = run_cross_input remote parts env (Txns.Payment cross_payment) in
  Alcotest.(check bool) "committed" true (outcome = Coordinator.Committed);
  Alcotest.(check int) "decision logged" 1
    (Coordinator.Decision_log.size (Coordinator.decision_log coord));
  let merged = Dist_driver.merged_db (Array.to_list parts) in
  Alcotest.(check (list string)) "C1/C8 hold across partitions" []
    (Consistency.check merged);
  (* the history row lives on the customer's partition, stamped with the
     paying site *)
  let rcust_db = Executor.db (Partition.engine (Coordinator.partition_of coord 4)) in
  let rows =
    Table.scan (Database.table rcust_db "history")
      ~where:(Acc_relation.Predicate.Eq ("h_w_id", Int 1))
  in
  Alcotest.(check int) "history on the customer's partition names site w1" 1
    (List.length rows)

(* a branch failure after the home branch prepared: the coordinator logs
   Abort and the prepared branch compensates — both ytds restored *)
let test_cross_payment_abort_compensates () =
  let seed = 3 in
  with_remote ~seed ~partitions:2 @@ fun parts _ remote ->
  let env = Txns.default_env ~seed small_params in
  let home_db = Executor.db (Partition.engine parts.(0)) in
  let w_ytd_before =
    match Table.scan (Database.table home_db "warehouse") with
    | row :: _ -> number row.(3)
    | [] -> Alcotest.fail "no warehouse row"
  in
  let input =
    Txns.Payment { cross_payment with Txns.p_customer = Txns.By_last_name "NOSUCHNAME" }
  in
  let outcome = run_cross_input remote parts env input in
  Alcotest.(check bool) "aborted" true (outcome = Coordinator.Aborted);
  let w_ytd_after =
    match Table.scan (Database.table home_db "warehouse") with
    | row :: _ -> number row.(3)
    | [] -> Alcotest.fail "no warehouse row"
  in
  Alcotest.(check (float 1e-9)) "home w_ytd restored" w_ytd_before w_ytd_after;
  Alcotest.(check (list string)) "merged state consistent" []
    (Consistency.check (Dist_driver.merged_db (Array.to_list parts)))

(* a cross-partition new_order spreads stock draws over partitions; C12
   groups by the supplying warehouse of the merged database *)
let test_cross_new_order () =
  let seed = 9 in
  with_remote ~seed ~partitions:2 @@ fun parts _ remote ->
  let env = Txns.default_env ~seed small_params in
  let outcome = run_cross_input remote parts env (Txns.New_order cross_new_order) in
  Alcotest.(check bool) "committed" true (outcome = Coordinator.Committed);
  let merged = Dist_driver.merged_db (Array.to_list parts) in
  Alcotest.(check (list string)) "C12 holds across partitions" []
    (Consistency.check merged);
  (* the remote line's quantity was drawn from w3's stock on partition 1 *)
  let p1_db = Executor.db (Partition.engine parts.(1)) in
  let stock_row =
    match
      Table.scan (Database.table p1_db "stock")
        ~where:
          (Acc_relation.Predicate.conj
             [
               Acc_relation.Predicate.Eq ("s_w_id", Int 3);
               Acc_relation.Predicate.Eq ("s_i_id", Int 6);
             ])
    with
    | [ row ] -> row
    | _ -> Alcotest.fail "remote stock row missing"
  in
  Alcotest.(check int) "remote s_ytd counts the draw" 2 (as_int stock_row.(3))

(* The branches of a cross-partition transaction pace, all told, as often as
   its single-node program does, so client compute at each pace point costs
   a partitioned run what it costs a single-node one. *)
let test_cross_pace_parity () =
  let seed = 9 in
  let counting_env () =
    let paces = ref 0 in
    ({ (Txns.default_env ~seed small_params) with Txns.pace = (fun () -> incr paces) }, paces)
  in
  let single input =
    let eng = Executor.create ~sem:Txns.semantics (Load.populate ~seed small_params) in
    let env, paces = counting_env () in
    let outcome = ref None in
    Schedule.run eng [ (fun () -> outcome := Some (Txns.run_acc eng env input)) ];
    Alcotest.(check bool) "single-node run committed" true
      (!outcome = Some Acc_core.Runtime.Committed);
    !paces
  in
  let cross input =
    with_remote ~seed ~partitions:2 @@ fun parts _ remote ->
    let env, paces = counting_env () in
    Alcotest.(check bool) "cross run committed" true
      (run_cross_input remote parts env input = Coordinator.Committed);
    !paces
  in
  List.iter
    (fun (what, input) -> Alcotest.(check int) what (single input) (cross input))
    [
      ("payment paces", Txns.Payment cross_payment);
      ("new_order with a remote line paces", Txns.New_order cross_new_order);
    ]

(* --- the partitioned driver ----------------------------------------------- *)

(* a partitioned run of the multicore driver: TPC-C ACC at [small_params] *)
let partitioned_cfg ~seed ~domains ~partitions ~txns =
  {
    P.default_config with
    P.system = P.Acc;
    seed;
    domains;
    partitions;
    txns_per_domain = Some txns;
    workload = Tpcc_workload.make ~params:small_params ();
  }

let test_driver_4_partitions () =
  let r = P.run (partitioned_cfg ~seed:21 ~domains:2 ~partitions:4 ~txns:150) in
  Alcotest.(check (list string)) "merged database consistent" [] r.P.violations;
  Alcotest.(check bool) "committed work" true (r.P.committed > 100);
  Alcotest.(check bool) "cross-partition commits happened" true (r.P.cross_committed > 0);
  (* acceptance floor: the TPC-C mix at 4 warehouses yields >= 10%
     cross-partition transactions (15% remote-customer payments + ~1%/line
     remote stock) *)
  Alcotest.(check bool)
    (Printf.sprintf "cross fraction %.3f >= 0.10" (P.cross_fraction r))
    true
    (P.cross_fraction r >= 0.10)

(* every single-node knob reaches a partitioned run: a forced-abort-heavy
   new-order/payment mix with group commit and conflict accounting aborts
   on both paths, classifies its lock decisions, and still ends consistent
   with nothing leaked *)
let test_driver_knobs_reach_partitions () =
  let r =
    P.run
      {
        (partitioned_cfg ~seed:5 ~domains:2 ~partitions:2 ~txns:120) with
        P.workload =
          Tpcc_workload.of_spec
            { Acc_workload.default_spec with scale = 4; mix = Some "nop"; abort_rate = Some 0.5 };
        group_commit = true;
        accounting = true;
      }
  in
  Alcotest.(check (list string)) "merged database consistent" [] r.P.violations;
  Alcotest.(check int) "no leaked locks" 0 r.P.leaked_locks;
  Alcotest.(check int) "no leaked waiters" 0 r.P.leaked_waiters;
  Alcotest.(check bool) "forced aborts" true (r.P.forced_aborts > 0);
  Alcotest.(check bool) "cross-partition aborts" true (r.P.cross_aborted > 0);
  Alcotest.(check bool) "conflict rows" true (r.P.conflicts <> []);
  Alcotest.(check bool) "branch steps have labels" true
    (List.exists (fun (st, _) -> r.P.step_label st = "payment_home.wh-ytd") r.P.step_hist)

(* the configs a partitioned run refuses, each by the field that rules it
   out, and the transport settings a one-partition run would ignore *)
let test_driver_refusals () =
  let base = partitioned_cfg ~seed:1 ~domains:1 ~partitions:2 ~txns:1 in
  let refused what field cfg = refused what field (fun () -> P.run cfg) in
  refused "2pl under 2PC" "system" { base with P.system = P.Baseline };
  refused "admission cap" "max_inflight" { base with P.max_inflight = Some 2 };
  refused "shed watermark" "shed_watermark" { base with P.shed_watermark = Some 100. };
  refused "no capability" "workload"
    { base with P.workload = Acc_workload.Smallbank.make Acc_workload.default_spec };
  refused "more partitions than keys" "partitions" { base with P.partitions = 5 };
  refused "pipe at one partition" "--transport" { base with P.partitions = 1; transport = `Pipe };
  refused "message faults at one partition" "ACC_NETFAULT"
    { base with P.partitions = 1; netfault = Fault.Netfault.parse "drop=1.0" }

(* the prepare-hold tally honours warmup as the cross counts do: it keeps
   only the holds recorded once the recording window opened, each of which
   belongs to a cross transaction that ended inside the window *)
let test_driver_prepare_hold_warmup () =
  let r =
    P.run
      {
        (partitioned_cfg ~seed:3 ~domains:2 ~partitions:2 ~txns:0) with
        P.txns_per_domain = None;
        duration = 1.0;
        warmup = 0.5;
      }
  in
  let holds = Acc_util.Stats.Tally.count r.P.prepare_hold in
  Alcotest.(check bool)
    (Printf.sprintf "0 < %d holds <= %d cross attempts" holds r.P.cross_attempted)
    true
    (0 < holds && holds <= r.P.cross_attempted)

module Registry = Acc_obs.Registry
module Json = Acc_obs.Json

(* Every engine stat of a 2-partition run equals its two [partition]
   series in the Prometheus exposition combined by the rule the report
   uses (counters sum, gauges take the larger, histograms merge), as
   [Registry.sample_json] (bench JSON's rendering) renders both.  Four
   domains pacing 1 ms with locks held make both partitions wait, so the
   peak gauges are mostly nonzero on both sides.  Histograms are rebuilt
   from their cumulative buckets; the exposition prints floats to 9
   digits. *)
let test_driver_stats_match_exposition () =
  Registry.clear ();
  let r =
    P.run
      { (partitioned_cfg ~seed:9 ~domains:4 ~partitions:2 ~txns:40) with P.compute_between = 0.001 }
  in
  (* (series, value) in exposition order *)
  let rows =
    List.filter_map
      (fun line ->
        match String.rindex_opt line ' ' with
        | Some i when line.[0] <> '#' ->
            Some
              ( String.sub line 0 i,
                float_of_string (String.sub line (i + 1) (String.length line - i - 1)) )
        | _ -> None)
      (String.split_on_char '\n' (Acc_obs.Prom.to_string ()))
  in
  let find key =
    match List.assoc_opt key rows with
    | Some v -> v
    | None -> Alcotest.failf "no series %s in the exposition" key
  in
  let sample_of name kind part =
    let label = Printf.sprintf "{partition=\"%d\"}" part in
    match kind with
    | Registry.S_counter _ -> Registry.S_counter (int_of_float (find (name ^ label)))
    | Registry.S_gauge _ -> Registry.S_gauge (find (name ^ label))
    | Registry.S_histogram s ->
        let prefix = Printf.sprintf "%s_bucket{partition=\"%d\",le=" name part in
        let cumulative =
          List.filter_map
            (fun (k, v) -> if String.starts_with ~prefix k then Some (int_of_float v) else None)
            rows
        in
        let _, counts =
          List.fold_left (fun (prev, acc) c -> (c, (c - prev) :: acc)) (0, []) cumulative
        in
        Registry.S_histogram
          { s with counts = Array.of_list (List.rev counts); sum = find (name ^ "_sum" ^ label) }
  in
  let rec same a b =
    match (a, b) with
    | Json.Int x, Json.Int y -> x = y
    | Json.Float x, Json.Float y ->
        (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= (1e-6 *. Float.abs x) +. 1e-12
    | Json.Obj xs, Json.Obj ys ->
        List.length xs = List.length ys
        && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
    | _ -> false
  in
  Alcotest.(check bool) "the stats are the table's" true (List.length r.P.stats > 10);
  List.iter
    (fun (name, value) ->
      let prom = Registry.prom_name name value in
      let combined =
        match (sample_of prom value 0, sample_of prom value 1) with
        | Registry.S_counter a, Registry.S_counter b -> Registry.S_counter (a + b)
        | Registry.S_gauge a, Registry.S_gauge b -> Registry.S_gauge (Float.max a b)
        | Registry.S_histogram a, Registry.S_histogram b ->
            Registry.S_histogram (Acc_util.Metrics.Histogram.Snapshot.merge a b)
        | _ -> Alcotest.failf "%s: partitions of different kinds" name
      in
      let expected = Registry.sample_json combined and got = Registry.sample_json value in
      Alcotest.(check bool)
        (Printf.sprintf "%s: report %s, exposition %s" name (Json.to_string got)
           (Json.to_string expected))
        true (same got expected))
    r.P.stats;
  Alcotest.(check bool) "both partitions flushed their WAL" true
    (List.for_all
       (fun p ->
         match sample_of "acc_wal_flushes_total" (Registry.S_counter 0) p with
         | Registry.S_counter n -> n > 0
         | _ -> false)
       [ 0; 1 ])

(* --- crash harness --------------------------------------------------------- *)

let harness_config =
  {
    (Crash_harness.default_config (Partitioned Crash_harness.default_partitioned)) with
    Crash_harness.workload =
      Tpcc_workload.make ~params:small_params ~remote_customer_rate:0.5 ~remote_item_rate:0.2 ();
    txns = 24;
    hits_per_point = 2;
  }

let check_results results =
  List.iter
    (fun r ->
      if Crash_harness.failed r then
        Alcotest.failf "%s" (Format.asprintf "%a" Crash_harness.pp_result r))
    results

let test_harness_sweep () =
  let results = Crash_harness.sweep harness_config in
  check_results results;
  Alcotest.(check bool) "sweep injected crashes" true
    (List.exists (fun r -> r.Crash_harness.r_crashes > 0) results)

let test_harness_chaos () =
  check_results [ Crash_harness.chaos { harness_config with txns = 16 } ~seed:2 ]

(* the plugin at its own remote rates: every dist point is reached (the
   sweep's coverage check) and crashed, and every recovery holds *)
let test_harness_default_rates () =
  let results =
    Crash_harness.sweep
      {
        harness_config with
        Crash_harness.workload = Tpcc_workload.make ~params:small_params ();
        txns = 40;
        hits_per_point = 1;
      }
  in
  check_results results;
  List.iter
    (fun point ->
      Alcotest.(check bool) (point ^ " crashed") true
        (List.exists
           (fun r ->
             r.Crash_harness.r_crashes > 0
             && String.starts_with ~prefix:(point ^ ":") r.Crash_harness.r_label)
           results))
    [ "dist.prepare"; "dist.decide"; "dist.decision.durable"; "dist.apply" ]

(* a workload the partitioned system cannot run is refused before any run,
   by the field that rules it out *)
let test_harness_refusals () =
  let refused what field workload =
    refused what field (fun () -> Crash_harness.sweep { harness_config with Crash_harness.workload })
  in
  refused "no capability" "workload" (Acc_workload.Smallbank.make Acc_workload.default_spec);
  refused "one warehouse at two partitions" "partitions" (Tpcc_workload.make ())

(* crash-equivalence, coordinator edition: whatever the seed, crashing at
   random points leaves every partition decided (no in-doubt, no pending),
   never loses a logged Commit, and the merged database stays consistent —
   all checked inside the harness oracle *)
let prop_no_lost_decision =
  QCheck2.Test.make ~name:"dist: chaos crashes lose no decision" ~count:6
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let config = { harness_config with Crash_harness.txns = 14; chaos_p = 0.02 } in
      let r = Crash_harness.chaos config ~seed in
      if Crash_harness.failed r then
        QCheck2.Test.fail_report (Format.asprintf "%a" Crash_harness.pp_result r)
      else true)

(* --- transport framing ----------------------------------------------------- *)

let all_msgs =
  [
    Transport.Prepare { gid = 7; part = 1 };
    Transport.Vote { gid = 7; ok = true };
    Transport.Decide { gid = 7; commit = false };
    Transport.Ack { gid = 7 };
    Transport.Resolve { gid = 9 };
  ]

let test_framing_roundtrip () =
  List.iteri
    (fun i msg ->
      let f = { Transport.seq = 100 + i; msg } in
      let f' = Transport.decode (Transport.encode f) in
      Alcotest.(check bool) ("round-trips: " ^ Transport.msg_kind msg) true (f' = f))
    all_msgs;
  Alcotest.(check (list string)) "msg_kind is the netfault ops vocabulary"
    [ "prepare"; "vote"; "decide"; "ack"; "resolve" ]
    (List.map Transport.msg_kind all_msgs);
  Alcotest.(check (list int)) "gid_of" [ 7; 7; 7; 7; 9 ] (List.map Transport.gid_of all_msgs)

let test_framing_rejects () =
  let fails s = try ignore (Transport.decode s); false with Failure _ -> true in
  let good = Transport.encode { Transport.seq = 1; msg = Transport.Ack { gid = 1 } } in
  Alcotest.(check bool) "truncated header" true (fails (String.sub good 0 3));
  let foreign = Bytes.of_string good in
  Bytes.set foreign 0 'X';
  Alcotest.(check bool) "foreign magic" true (fails (Bytes.to_string foreign));
  let hdr = Acc_wal.Log.Header.size ~magic:Transport.magic in
  let future =
    Acc_wal.Log.Header.to_string ~magic:Transport.magic ~version:(Transport.version + 1)
    ^ String.sub good hdr (String.length good - hdr)
  in
  Alcotest.(check bool) "future version" true (fails future);
  Alcotest.(check bool) "truncated payload" true
    (fails (String.sub good 0 (String.length good - 2)))

let test_transport_kinds () =
  Alcotest.(check string) "loopback name" "loopback" (Transport.kind_name `Loopback);
  Alcotest.(check string) "pipe name" "pipe" (Transport.kind_name `Pipe);
  Alcotest.(check bool) "loopback parses" true (Transport.kind_of_string "loopback" = `Loopback);
  Alcotest.(check bool) "pipe parses" true (Transport.kind_of_string "pipe" = `Pipe);
  Alcotest.(check bool) "junk rejected" true
    (try ignore (Transport.kind_of_string "carrier-pigeon"); false
     with Invalid_argument _ -> true)

(* --- idempotent participant handlers --------------------------------------- *)

(* the transport may duplicate any frame: a repeated Prepare returns the
   cached vote without re-running the branch; a repeated Decide re-Acks an
   already-applied gid; a Decide for an unknown gid is a harmless no-op *)
let test_participant_idempotent () =
  let seed = 3 in
  let parts = mk_parts ~seed ~partitions:2 small_params in
  let coord = Coordinator.create parts in
  let env = Txns.default_env ~seed small_params in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let remote_inst =
    match Dist_txns.branches env ~part_of (Txns.Payment cross_payment) with
    | [ _home; (1, inst) ] -> inst
    | _ -> Alcotest.fail "expected a home + partition-1 branch split"
  in
  let p = Participant.make parts.(1) in
  Participant.stage p ~gid:1 remote_inst;
  let history_rows () =
    Table.scan
      (Database.table (Executor.db (Partition.engine parts.(1))) "history")
      ~where:(Acc_relation.Predicate.Eq ("h_w_id", Int 1))
    |> List.length
  in
  Schedule.run (Partition.engine parts.(1))
    [
      (fun () ->
        let v1 = Participant.handle p (Transport.Prepare { gid = 1; part = 1 }) in
        Alcotest.(check bool) "prepare votes yes" true
          (v1 = Transport.Vote { gid = 1; ok = true });
        let v2 = Participant.handle p (Transport.Prepare { gid = 1; part = 1 }) in
        Alcotest.(check bool) "duplicate prepare: cached vote" true (v1 = v2);
        Alcotest.(check (list int)) "gid 1 in doubt once prepared" [ 1 ]
          (Participant.in_doubt p);
        Alcotest.(check bool) "unstaged gid votes no" true
          (Participant.handle p (Transport.Prepare { gid = 50; part = 1 })
          = Transport.Vote { gid = 50; ok = false });
        let a1 = Participant.handle p (Transport.Decide { gid = 1; commit = true }) in
        Alcotest.(check bool) "decide acks" true (a1 = Transport.Ack { gid = 1 });
        Alcotest.(check int) "branch applied exactly once" 1 (history_rows ());
        let a2 = Participant.handle p (Transport.Decide { gid = 1; commit = true }) in
        Alcotest.(check bool) "duplicate decide re-acks" true (a2 = Transport.Ack { gid = 1 });
        Alcotest.(check int) "duplicate decide did not re-apply" 1 (history_rows ());
        Alcotest.(check (list int)) "nothing left in doubt" [] (Participant.in_doubt p);
        Alcotest.(check bool) "decide for an unknown gid is a no-op ack" true
          (Participant.handle p (Transport.Decide { gid = 99; commit = false })
          = Transport.Ack { gid = 99 });
        Alcotest.(check bool) "reply kinds rejected" true
          (try ignore (Participant.handle p (Transport.Vote { gid = 1; ok = true })); false
           with Invalid_argument _ -> true);
        Alcotest.(check int) "max gid tracks every role" 99 (Participant.max_gid p));
    ]

(* the fault layer can deliver a Prepare *after* its Decide: a delay/reorder
   hold on the last Prepare retry is released by the Decide send.  The
   participant must answer the late Prepare from the recorded decision and
   never run the branch — re-running it would acquire locks into a prepared
   state no subsequent Decide or settle releases (the applied mark would
   make apply a no-op forever) *)
let test_participant_late_prepare_after_decide () =
  let seed = 3 in
  let parts = mk_parts ~seed ~partitions:2 small_params in
  let coord = Coordinator.create parts in
  let env = Txns.default_env ~seed small_params in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let remote_inst gid =
    match Dist_txns.branches env ~part_of (Txns.Payment cross_payment) with
    | [ _home; (1, inst) ] -> inst
    | _ -> Alcotest.fail (Printf.sprintf "gid %d: expected a partition-1 branch" gid)
  in
  let p = Participant.make parts.(1) in
  let history_rows () =
    Table.scan
      (Database.table (Executor.db (Partition.engine parts.(1))) "history")
      ~where:(Acc_relation.Predicate.Eq ("h_w_id", Int 1))
    |> List.length
  in
  Schedule.run (Partition.engine parts.(1))
    [
      (fun () ->
        (* gid 1: the abort decision lands before the (held-back) Prepare *)
        Participant.stage p ~gid:1 (remote_inst 1);
        Alcotest.(check bool) "decide-first acks" true
          (Participant.handle p (Transport.Decide { gid = 1; commit = false })
          = Transport.Ack { gid = 1 });
        Alcotest.(check bool) "late prepare echoes the abort decision" true
          (Participant.handle p (Transport.Prepare { gid = 1; part = 1 })
          = Transport.Vote { gid = 1; ok = false });
        Alcotest.(check int) "branch never ran" 0 (history_rows ());
        Alcotest.(check (list int)) "nothing in doubt" [] (Participant.in_doubt p);
        Alcotest.(check bool) "retried decide still a duplicate" true
          (Participant.handle p (Transport.Decide { gid = 1; commit = false })
          = Transport.Ack { gid = 1 });
        (* gid 2: same race, commit decision — the late vote is consistent *)
        Participant.stage p ~gid:2 (remote_inst 2);
        ignore (Participant.handle p (Transport.Decide { gid = 2; commit = true }));
        Alcotest.(check bool) "late prepare echoes the commit decision" true
          (Participant.handle p (Transport.Prepare { gid = 2; part = 1 })
          = Transport.Vote { gid = 2; ok = true });
        Alcotest.(check int) "commit race: branch still never ran" 0 (history_rows ());
        (* gid 3: a fresh fault-free transaction proves no locks were left
           behind by the raced gids *)
        Participant.stage p ~gid:3 (remote_inst 3);
        Alcotest.(check bool) "fresh prepare acquires locks and votes yes" true
          (Participant.handle p (Transport.Prepare { gid = 3; part = 1 })
          = Transport.Vote { gid = 3; ok = true });
        ignore (Participant.handle p (Transport.Decide { gid = 3; commit = true }));
        Alcotest.(check int) "fresh branch applied" 1 (history_rows ());
        Alcotest.(check (list int)) "all settled" [] (Participant.in_doubt p));
    ]

(* --- the durable decision log ---------------------------------------------- *)

let with_temp_log f =
  let path = Filename.temp_file "acc_dec_test" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_decision_log_durable () =
  with_temp_log @@ fun path ->
  let module L = Coordinator.Decision_log in
  let log = L.open_file path in
  Alcotest.(check bool) "file-backed" true (L.path log = Some path);
  Alcotest.(check int) "fresh log empty" 0 (L.size log);
  L.record log ~gid:5 Coordinator.Commit;
  L.record log ~gid:9 Coordinator.Abort;
  L.record log ~gid:5 Coordinator.Commit;
  (* idempotent re-record *)
  Alcotest.(check int) "re-record is a no-op" 2 (L.size log);
  L.close log;
  let log = L.open_file path in
  Alcotest.(check int) "records survive reopen" 2 (L.size log);
  Alcotest.(check bool) "commit survives" true (L.lookup log ~gid:5 = Some Coordinator.Commit);
  Alcotest.(check bool) "abort survives" true (L.lookup log ~gid:9 = Some Coordinator.Abort);
  Alcotest.(check bool) "absent gid is absent" true (L.lookup log ~gid:7 = None);
  Alcotest.(check int) "watermark" 9 (L.max_gid log);
  L.close log;
  (* a crash mid-append leaves a torn tail: reopen truncates it and the log
     accepts new records at the healed end *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\000\000\000";
  close_out oc;
  let log = L.open_file path in
  Alcotest.(check int) "torn tail truncated away" 2 (L.size log);
  L.record log ~gid:12 Coordinator.Commit;
  L.close log;
  let log = L.open_file path in
  Alcotest.(check int) "append after heal survives" 3 (L.size log);
  Alcotest.(check bool) "healed record readable" true
    (L.lookup log ~gid:12 = Some Coordinator.Commit);
  L.close log;
  (* a crash during the very first header write leaves 0 < size < header:
     the file provably holds no record, so open heals it to an empty log
     instead of failing every subsequent open *)
  Sys.remove path;
  let oc = open_out_bin path in
  output_string oc "ACC";
  close_out oc;
  let log = L.open_file path in
  Alcotest.(check int) "torn header heals to an empty log" 0 (L.size log);
  L.record log ~gid:21 Coordinator.Commit;
  L.close log;
  let log = L.open_file path in
  Alcotest.(check bool) "record survives the healed header" true
    (L.lookup log ~gid:21 = Some Coordinator.Commit);
  L.close log

let test_decision_log_foreign_file () =
  with_temp_log @@ fun path ->
  let oc = open_out_bin path in
  output_string oc "this is no decision log, and longer than any header";
  close_out oc;
  Alcotest.(check bool) "foreign file rejected" true
    (try ignore (Coordinator.Decision_log.open_file path); false with Failure _ -> true)

(* --- coordinator failover: the gid watermark ------------------------------- *)

(* The ISSUE-9 directed case: the coordinator dies at "dist.decide" with gid 2
   prepared on the participants (their WALs carry Prepare records for it) but
   the on-disk decision log stale at gid 1.  The failed-over coordinator must
   presume gid 2 aborted, and must never reissue a colliding gid: its counter
   restarts above every surviving participant's largest seen gid, not just
   above the stale log's watermark. *)
let test_failover_never_reissues_gid () =
  with_temp_log @@ fun path ->
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let seed = 3 in
  let parts = mk_parts ~seed ~partitions:2 small_params in
  let log = Coordinator.Decision_log.open_file path in
  let coord = Coordinator.create ~log parts in
  let remote = Coordinator.Remote.make coord in
  let env = Txns.default_env ~seed small_params in
  let run = run_cross_input remote parts env in
  (* gid 1 commits and is durable *)
  Alcotest.(check bool) "gid 1 committed" true
    (run (Txns.Payment cross_payment) = Coordinator.Committed);
  (* gid 2: die between the decision and its durability point *)
  Fault.arm ~point:"dist.decide" ~hit:1;
  (match run (Txns.Payment { cross_payment with Txns.p_d = 2; p_amount = 11.0 }) with
  | _ -> Alcotest.fail "expected the coordinator to crash at dist.decide"
  | exception Fault.Crash { point; _ } ->
      Alcotest.(check string) "died at the decision point" "dist.decide" point);
  Fault.disarm ();
  Alcotest.(check bool) "participants hold gid 2 in doubt" true
    (Array.exists
       (fun p -> Participant.in_doubt p = [ 2 ])
       (Coordinator.Remote.participants remote));
  let resolved = Coordinator.Remote.recover remote in
  Alcotest.(check bool) "failover resolved the in-doubt branches" true (resolved >= 1);
  let core = Coordinator.Remote.core remote in
  Alcotest.(check bool) "gid 2 presumed aborted (no log entry)" true
    (Coordinator.decision_of core ~gid:2 = None);
  Array.iter
    (fun p ->
      Alcotest.(check (list int)) "no branch left in doubt" [] (Participant.in_doubt p))
    (Coordinator.Remote.participants remote);
  (* the next transaction must not collide with the stale gid 2 *)
  Alcotest.(check bool) "post-failover txn commits" true
    (run (Txns.Payment { cross_payment with Txns.p_d = 3; p_amount = 12.0 }) = Coordinator.Committed);
  let log' = Coordinator.decision_log core in
  Alcotest.(check int) "new gid issued above the in-doubt watermark" 3
    (Coordinator.Decision_log.max_gid log');
  Alcotest.(check bool) "gid 2 still has no decision" true
    (Coordinator.Decision_log.lookup log' ~gid:2 = None);
  Alcotest.(check (list string)) "merged state consistent after failover" []
    (Consistency.check (Dist_driver.merged_db (Array.to_list parts)));
  Coordinator.Remote.close remote;
  Coordinator.Decision_log.close log'

(* --- crash-point registry once lib/dist is linked -------------------------- *)

let test_dist_registry () =
  ignore Crash_harness.default_partitioned;
  (* link the dist modules *)
  let names = Fault.registered () in
  List.iter
    (fun n -> Alcotest.(check bool) ("registered: " ^ n) true (List.mem n names))
    [ "dist.prepare"; "dist.decide"; "dist.decision.durable"; "dist.apply" ];
  Alcotest.(check (list string)) "registry is stable across reads" names (Fault.registered ());
  ignore (Fault.register "dist.decide");
  Alcotest.(check (list string)) "re-registering a dist point adds nothing" names
    (Fault.registered ())

(* --- loopback / pipe parity ------------------------------------------------ *)

(* same seed, one domain: the socketpair transport must commit exactly the
   same work as loopback — the transport is an implementation detail, not a
   semantics knob *)
let test_transport_parity () =
  let run transport =
    P.run
      { (partitioned_cfg ~seed:17 ~domains:1 ~partitions:2 ~txns:60) with P.transport }
  in
  let a = run `Loopback and b = run `Pipe in
  Alcotest.(check (list string)) "loopback consistent" [] a.P.violations;
  Alcotest.(check (list string)) "pipe consistent" [] b.P.violations;
  Alcotest.(check int) "same commits" a.P.committed b.P.committed;
  Alcotest.(check int) "same cross commits" a.P.cross_committed b.P.cross_committed;
  Alcotest.(check bool) "parity run crossed partitions" true (a.P.cross_committed > 0)

(* A branch step that loses an attempt to a lock timeout backs off
   ([Txn_effect.yield]) and retries.  On the pipe transport the branch runs
   on the partition's request-loop domain, which must handle that yield as
   a worker does; an unhandled yield drops the branch mid-transaction, with
   no vote for the coordinator and its completed steps never compensated. *)
let test_pipe_branch_retries () =
  let seed = 3 in
  let pairs = Dist_driver.make_partitions ~seed ~partitions:2 small_params in
  let parts = Array.of_list (List.map fst pairs) in
  let coord = Coordinator.create parts in
  let remote =
    Coordinator.Remote.make ~transport:`Pipe ~retries:1 ~prepare_deadline:0.5 coord
  in
  let env = Txns.default_env ~seed small_params in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let timed_out = ref false in
  let branches =
    List.map
      (fun (pid, (inst : Acc_core.Program.instance)) ->
        if pid <> part_of cross_payment.Txns.p_w then (parts.(pid), inst)
        else begin
          (* the home branch's first step times out once *)
          let steps = Array.copy inst.Acc_core.Program.i_steps in
          let sd, body = steps.(0) in
          steps.(0) <-
            ( sd,
              fun ctx ->
                if not !timed_out then begin
                  timed_out := true;
                  raise Acc_txn.Txn_effect.Lock_timeout
                end;
                body ctx );
          (parts.(pid), { inst with Acc_core.Program.i_steps = steps })
        end)
      (Dist_txns.branches env ~part_of (Txns.Payment cross_payment))
  in
  let outcome = Coordinator.Remote.run_cross remote branches in
  Coordinator.Remote.close remote;
  List.iter (fun (_, e) -> Acc_parallel.Engine.shutdown e) pairs;
  Alcotest.(check bool) "the home branch's step timed out once" true !timed_out;
  Alcotest.(check bool) "retried and committed" true (outcome = Coordinator.Committed);
  Alcotest.(check (list string)) "merged state consistent" []
    (Consistency.check (Dist_driver.merged_db (Array.to_list parts)))

(* --- dup/reorder Decide equivalence ---------------------------------------- *)

(* fixed cross-partition workload for the fault-equivalence property; every
   input commits fault-free *)
let equiv_inputs =
  [
    Txns.Payment cross_payment;
    Txns.Payment { cross_payment with Txns.p_d = 2; p_c_d = 3; p_amount = 10.5 };
    Txns.Payment
      { cross_payment with Txns.p_w = 4; p_d = 1; p_c_w = 1; p_c_d = 4; p_amount = 9.0 };
    Txns.New_order cross_new_order;
    Txns.Payment { cross_payment with Txns.p_d = 4; p_customer = Txns.By_id 5 };
  ]

let run_equiv ~seed faults =
  Txns.reset_history_seq ();
  let parts = mk_parts ~seed ~partitions:2 small_params in
  let coord = Coordinator.create parts in
  let remote = Coordinator.Remote.make ~transport:`Loopback ~faults coord in
  let env = Txns.default_env ~seed small_params in
  let outcomes = List.map (run_cross_input remote parts env) equiv_inputs in
  Coordinator.Remote.close remote;
  (outcomes, Dist_driver.merged_db (Array.to_list parts))

(* ISSUE-9 satellite: duplicated and reordered Decide messages — any mix the
   fault layer produces — leave every partition's merged state exactly equal
   to the fault-free run's.  Retries flush held frames and the handlers are
   idempotent, so dup/reorder (which never lose a message for good) must be
   invisible. *)
let prop_dup_reorder_decide_equiv =
  QCheck2.Test.make ~name:"dist: dup/reorder'd Decides = fault-free state" ~count:8
    QCheck2.Gen.(
      quad (int_range 0 1000) (int_range 0 50) (int_range 0 50) (int_range 0 1000))
    (fun (seed, dup_pct, reorder_pct, fault_seed) ->
      let faults =
        {
          Fault.Netfault.none with
          Fault.Netfault.dup = float_of_int dup_pct /. 100.;
          reorder = float_of_int reorder_pct /. 100.;
          seed = fault_seed;
          ops = [ "decide" ];
        }
      in
      let outcomes_ref, db_ref = run_equiv ~seed Fault.Netfault.none in
      let outcomes, db = run_equiv ~seed faults in
      if outcomes <> outcomes_ref then
        QCheck2.Test.fail_report "outcomes diverged under dup/reorder"
      else if not (Database.equal db db_ref) then
        QCheck2.Test.fail_report "merged state diverged under dup/reorder"
      else if Consistency.check db <> [] then
        QCheck2.Test.fail_report "faulted run inconsistent"
      else true)

(* --- the chaos matrix (quick slice) ---------------------------------------- *)

(* run [f] with file descriptor 2 redirected to a scratch file; returns
   [f]'s result and what was written there *)
let capturing_stderr f =
  let path = Filename.temp_file "acc-test-dist" ".err" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let ic = open_in_bin path in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (r, written)

(* A pipe handler that raises drops the request either way; a participant
   fault (anything but a simulated crash) also says so on stderr, once,
   naming the request kind and the exception. *)
let test_pipe_handler_failure_reported () =
  let run fail =
    capturing_stderr (fun () ->
        let first = ref true in
        let t =
          Transport.pipe (fun msg ->
              if !first then begin
                first := false;
                fail ()
              end;
              match msg with
              | Transport.Prepare { gid; _ } -> Transport.Vote { gid; ok = true }
              | m -> m)
        in
        let a = Transport.call ~deadline:0.2 t (Transport.Prepare { gid = 1; part = 0 }) in
        let b = Transport.call ~deadline:5.0 t (Transport.Prepare { gid = 2; part = 0 }) in
        Transport.close t;
        (a, b))
  in
  let answered = Some (Transport.Vote { gid = 2; ok = true }) in
  let (a, b), err = run (fun () -> failwith "participant bug") in
  Alcotest.(check bool) "failed request unanswered" true (a = None);
  Alcotest.(check bool) "next request answered" true (b = answered);
  Alcotest.(check int) "one stderr line" 1
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err)));
  Alcotest.(check bool) (Printf.sprintf "%S names the exception" err) true
    (contains ~sub:"participant bug" err && contains ~sub:"prepare" err);
  let (a, b), err = run (fun () -> raise (Fault.Crash { point = "dist.prepare"; hit = 1 })) in
  Alcotest.(check bool) "crashed request unanswered" true (a = None);
  Alcotest.(check bool) "next request answered after a crash" true (b = answered);
  Alcotest.(check string) "a simulated crash writes nothing" "" err

let test_harness_matrix_quick () =
  let config = { harness_config with Crash_harness.txns = 16; hits_per_point = 1 } in
  let results = Crash_harness.sweep_matrix ~quick:true config in
  check_results results;
  Alcotest.(check bool) "matrix injected crashes" true
    (List.exists (fun r -> r.Crash_harness.r_crashes > 0) results);
  Alcotest.(check bool) "matrix includes coordinator-kill cells" true
    (List.exists
       (fun r -> r.Crash_harness.r_crashes > 0 && contains ~sub:"[kill]" r.Crash_harness.r_label)
       results)

let suites =
  [
    ( "dist.partition",
      [
        Alcotest.test_case "warehouse ranges" `Quick test_ranges;
        Alcotest.test_case "partition loads are exact projections" `Quick
          test_load_projection;
      ] );
    ( "dist.transport",
      [
        Alcotest.test_case "frame round-trip" `Quick test_framing_roundtrip;
        Alcotest.test_case "foreign/short/future frames rejected" `Quick test_framing_rejects;
        Alcotest.test_case "transport kinds" `Quick test_transport_kinds;
        Alcotest.test_case "participant handlers idempotent" `Quick
          test_participant_idempotent;
        Alcotest.test_case "late prepare after decide answers from the decision"
          `Quick test_participant_late_prepare_after_decide;
        Alcotest.test_case "loopback/pipe parity" `Slow test_transport_parity;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xD15F |])
          prop_dup_reorder_decide_equiv;
        Alcotest.test_case "pipe: a branch step retries after a timeout" `Quick
          test_pipe_branch_retries;
        Alcotest.test_case "pipe: a handler failure is reported, a crash is not" `Quick
          test_pipe_handler_failure_reported;
      ] );
    ( "dist.decision_log",
      [
        Alcotest.test_case "durable, idempotent, heals a torn tail" `Quick
          test_decision_log_durable;
        Alcotest.test_case "foreign file rejected" `Quick test_decision_log_foreign_file;
      ] );
    ( "dist.failover",
      [
        Alcotest.test_case "failover never reissues an in-doubt gid" `Quick
          test_failover_never_reissues_gid;
        Alcotest.test_case "dist crash points registered" `Quick test_dist_registry;
      ] );
    ( "dist.payment",
      [
        Alcotest.test_case "remote payment, single node" `Quick
          test_remote_payment_single_node;
        Alcotest.test_case "cross-partition payment commits" `Quick
          test_cross_payment_commit;
        Alcotest.test_case "cross-partition abort compensates" `Quick
          test_cross_payment_abort_compensates;
        Alcotest.test_case "cross-partition new_order" `Quick test_cross_new_order;
        Alcotest.test_case "branches pace like the single-node program" `Quick
          test_cross_pace_parity;
      ] );
    ( "dist.driver",
      [
        Alcotest.test_case "4 partitions: consistent, >=10% cross" `Slow test_driver_4_partitions;
        Alcotest.test_case "single-node knobs reach a partitioned run" `Slow
          test_driver_knobs_reach_partitions;
        Alcotest.test_case "refused partitioned configs name their field" `Quick
          test_driver_refusals;
        Alcotest.test_case "engine stats equal the exposition's partition series" `Slow
          test_driver_stats_match_exposition;
        Alcotest.test_case "prepare holds honour warmup" `Slow test_driver_prepare_hold_warmup;
      ] );
    ( "dist.harness",
      [
        Alcotest.test_case "sweep survives every dist point" `Slow test_harness_sweep;
        Alcotest.test_case "chaos seed survives" `Slow test_harness_chaos;
        Alcotest.test_case "the plugin's own remote rates reach every dist point" `Slow
          test_harness_default_rates;
        Alcotest.test_case "refused workloads name their field" `Quick test_harness_refusals;
        Alcotest.test_case "chaos matrix quick slice survives" `Slow
          test_harness_matrix_quick;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xD157 |])
          prop_no_lost_decision;
      ] );
  ]
