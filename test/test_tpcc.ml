(* Tests for acc.tpcc: generators, loader, the decomposition's interference
   facts, the five transactions under both regimes, the 12-condition
   consistency checker, and crash recovery with pending compensations. *)

open Acc_tpcc
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Value = Acc_relation.Value
module Predicate = Acc_relation.Predicate
module Executor = Acc_txn.Executor
module Lock_service = Acc_lock.Lock_service
module Schedule = Acc_txn.Schedule
module Runtime = Acc_core.Runtime
module Program = Acc_core.Program
module Interference = Acc_core.Interference
module Lock_table = Acc_lock.Lock_table
module Prng = Acc_util.Prng

let v_int n = Value.Int n
let params = Params.default

let check_consistent ?(what = "consistency") db =
  match Consistency.check db with
  | [] -> ()
  | problems -> Alcotest.fail (what ^ ": " ^ String.concat "; " problems)

let fresh_engine ?(seed = 5) () =
  Executor.create ~sem:Txns.semantics (Load.populate ~seed params)

(* --- params ------------------------------------------------------------- *)

let test_params () =
  Params.validate Params.default;
  Params.validate Params.full;
  Alcotest.(check bool) "bad params rejected" true
    (try
       Params.validate { Params.default with Params.items = 0 };
       false
     with Invalid_argument _ -> true)

(* --- random generators ---------------------------------------------------- *)

let test_nurand_bounds () =
  let gen = Random_gen.create ~seed:1 params in
  for _ = 1 to 2000 do
    let v = Random_gen.nurand gen ~a:1023 ~x:1 ~y:3000 in
    Alcotest.(check bool) "in [1,3000]" true (v >= 1 && v <= 3000)
  done

let test_nurand_nonuniform () =
  (* NURand concentrates mass: the most popular value should appear far more
     often than 1/range *)
  let gen = Random_gen.create ~seed:2 params in
  let counts = Hashtbl.create 64 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Random_gen.nurand gen ~a:255 ~x:1 ~y:1000 in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "peaked distribution" true (max_count > 3 * n / 1000)

let test_customer_item_bounds () =
  let gen = Random_gen.create ~seed:3 params in
  for _ = 1 to 1000 do
    let c = Random_gen.customer gen in
    Alcotest.(check bool) "customer in range" true
      (c >= 1 && c <= params.Params.customers_per_district);
    let i = Random_gen.item gen in
    Alcotest.(check bool) "item in range" true (i >= 1 && i <= params.Params.items)
  done

let test_district_skew () =
  let gen = Random_gen.create ~seed:4 params in
  let hot = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if Random_gen.district gen ~skewed:true = 1 then incr hot
  done;
  let share = float_of_int !hot /. float_of_int n in
  Alcotest.(check bool) "district 1 gets ~55%" true (share > 0.5 && share < 0.6);
  let gen2 = Random_gen.create ~seed:4 params in
  let hot2 = ref 0 in
  for _ = 1 to n do
    if Random_gen.district gen2 ~skewed:false = 1 then incr hot2
  done;
  let share2 = float_of_int !hot2 /. float_of_int n in
  Alcotest.(check bool) "uniform gives ~10%" true (share2 > 0.07 && share2 < 0.13)

let test_distinct_items () =
  let gen = Random_gen.create ~seed:5 params in
  for _ = 1 to 200 do
    let items = Random_gen.distinct_items gen ~count:15 in
    Alcotest.(check int) "count" 15 (List.length items);
    Alcotest.(check int) "distinct" 15 (List.length (List.sort_uniq compare items))
  done

let test_last_name () =
  let gen = Random_gen.create ~seed:6 params in
  Alcotest.(check string) "name 0" "BARBARBAR" (Random_gen.last_name gen 0);
  Alcotest.(check string) "name 371" "PRICALLYOUGHT" (Random_gen.last_name gen 371);
  Alcotest.(check string) "name 999" "EINGEINGEING" (Random_gen.last_name gen 999)

let test_mix_frequencies () =
  let env = Txns.default_env ~seed:8 params in
  let counts = Hashtbl.create 8 in
  let n = 20_000 in
  for _ = 1 to n do
    let name = Txns.txn_name (Txns.gen_input env) in
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  done;
  let share name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) /. float_of_int n in
  Alcotest.(check bool) "new_order ~45%" true (Float.abs (share "new_order" -. 0.45) < 0.02);
  Alcotest.(check bool) "payment ~43%" true (Float.abs (share "payment" -. 0.43) < 0.02);
  Alcotest.(check bool) "order_status ~4%" true (Float.abs (share "order_status" -. 0.04) < 0.01);
  Alcotest.(check bool) "delivery ~4%" true (Float.abs (share "delivery" -. 0.04) < 0.01);
  Alcotest.(check bool) "stock_level ~4%" true (Float.abs (share "stock_level" -. 0.04) < 0.01)

(* --- loader ---------------------------------------------------------------- *)

let test_load_cardinalities () =
  let db = Load.populate ~seed:1 params in
  let card name = Table.cardinality (Database.table db name) in
  Alcotest.(check int) "warehouses" params.Params.warehouses (card "warehouse");
  Alcotest.(check int) "districts"
    (params.Params.warehouses * params.Params.districts_per_warehouse)
    (card "district");
  Alcotest.(check int) "customers"
    (params.Params.warehouses * params.Params.districts_per_warehouse
   * params.Params.customers_per_district)
    (card "customer");
  Alcotest.(check int) "items" params.Params.items (card "item");
  Alcotest.(check int) "stock" (params.Params.warehouses * params.Params.items) (card "stock");
  Alcotest.(check int) "orders"
    (params.Params.warehouses * params.Params.districts_per_warehouse
   * params.Params.initial_orders_per_district)
    (card "orders");
  Alcotest.(check int) "history = customers" (card "customer") (card "history")

let test_load_consistent () =
  check_consistent ~what:"fresh database" (Load.populate ~seed:1 params);
  check_consistent ~what:"fresh database (other seed)" (Load.populate ~seed:99 params)

let test_load_deterministic () =
  let a = Load.populate ~seed:11 params and b = Load.populate ~seed:11 params in
  Alcotest.(check int) "same total rows" (Database.total_rows a) (Database.total_rows b);
  let row db = Table.get_exn (Database.table db "district") (Load.district_key ~w:1 ~d:3) in
  Alcotest.(check bool) "same district row" true (row a = row b)

(* --- the decomposition ------------------------------------------------------ *)

let test_eleven_forward_steps () =
  Alcotest.(check int) "eleven distinct forward step types" 11 Txns.forward_step_count

let test_counter_vs_ytd_headline () =
  (* Sec 5.1: "updates to the counter and the year-to-date payment field do
     not interfere and hence [new-order and payment] within the same
     district [may] interleave" *)
  let si step assertion = Interference.step_interferes Txns.interference ~step_type:step ~assertion in
  (* payment's district step (id 7) does not interfere with new_order's
     counter assertion (id 1) — different columns of the same tuple *)
  Alcotest.(check bool) "payment district-ytd vs counter assertion" false (si 7 1);
  (* new_order's counter step (id 1) does not interfere with payment's
     interstep assertion (id 3) *)
  Alcotest.(check bool) "new_order counter vs payment assertion" false (si 1 3);
  (* the hand-proved monotonicity: other new_orders' counter increments do
     not invalidate the counter assertion *)
  Alcotest.(check bool) "counter increments commute" false (si 1 1);
  (* but delivery genuinely interferes with the new_order loop invariant *)
  Alcotest.(check bool) "delivery vs order lines invariant" true (si 11 2)

(* --- running transactions ---------------------------------------------------- *)

let run_inputs eng env inputs =
  let outcomes = ref [] in
  Schedule.run ~policy:Runtime.victim_policy eng
    (List.map (fun input () -> outcomes := Txns.run_acc eng env input :: !outcomes) inputs);
  List.rev !outcomes

let test_each_type_acc () =
  let eng = fresh_engine () in
  let env = Txns.default_env ~seed:21 params in
  let inputs =
    [
      Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = false };
      Txns.Payment (Txns.gen_payment env);
      Txns.Order_status { Txns.os_w = 1; os_d = 2; os_customer = Txns.By_id 3 };
      Txns.Delivery { Txns.dl_w = 1; dl_carrier = 5 };
      Txns.Stock_level { Txns.sl_w = 1; sl_d = 1; sl_threshold = 15 };
    ]
  in
  let outcomes = run_inputs eng env inputs in
  List.iter
    (fun o -> Alcotest.(check bool) "committed" true (o = Runtime.Committed))
    outcomes;
  check_consistent (Executor.db eng);
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_each_type_flat () =
  let eng = Executor.create ~sem:Acc_lock.Mode.no_semantics (Load.populate ~seed:5 params) in
  let env = Txns.default_env ~seed:21 params in
  let inputs =
    [
      Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = false };
      Txns.Payment (Txns.gen_payment env);
      Txns.Order_status { Txns.os_w = 1; os_d = 2; os_customer = Txns.By_id 3 };
      Txns.Delivery { Txns.dl_w = 1; dl_carrier = 5 };
      Txns.Stock_level { Txns.sl_w = 1; sl_d = 1; sl_threshold = 15 };
    ]
  in
  Schedule.run eng
    (List.map
       (fun input () ->
         match Txns.run_flat eng env input with
         | `Committed -> ()
         | `Aborted -> Alcotest.fail "unexpected abort")
       inputs);
  check_consistent (Executor.db eng);
  Alcotest.(check int) "locks drained" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_forced_abort_semantics () =
  (* the 1% rule: under ACC the new-order compensates and leaves a cancelled
     order; under 2PL it aborts physically and leaves no trace *)
  let env = Txns.default_env ~seed:22 params in
  let failing = { (Txns.gen_new_order env) with Txns.no_fail_last = true } in
  (* ACC *)
  let eng = fresh_engine () in
  let outcomes = run_inputs eng env [ Txns.New_order failing ] in
  (match outcomes with
  | [ Runtime.Compensated { completed_steps } ] ->
      Alcotest.(check bool) "some steps completed" true (completed_steps >= 2)
  | _ -> Alcotest.fail "expected compensation");
  check_consistent (Executor.db eng);
  let cancelled =
    Table.fold
      (fun _ row acc -> if Value.as_int row.(4) = -2 then acc + 1 else acc)
      (Database.table (Executor.db eng) "orders")
      0
  in
  Alcotest.(check int) "one cancelled order" 1 cancelled;
  (* baseline *)
  let engb = Executor.create ~sem:Acc_lock.Mode.no_semantics (Load.populate ~seed:5 params) in
  Schedule.run engb
    [
      (fun () ->
        match Txns.run_flat engb env (Txns.New_order failing) with
        | `Aborted -> ()
        | `Committed -> Alcotest.fail "expected abort");
    ];
  check_consistent (Executor.db engb);
  Alcotest.(check int) "no cancelled order under 2PL" 0
    (Table.fold
       (fun _ row acc -> if Value.as_int row.(4) = -2 then acc + 1 else acc)
       (Database.table (Executor.db engb) "orders")
       0)

let test_payment_by_last_name () =
  (* by-name selection resolves through the last-name index and the payment
     lands on the midpoint customer of that name *)
  let eng = fresh_engine () in
  let env = Txns.default_env ~seed:71 params in
  let db = Executor.db eng in
  (* find a name carried by at least one customer of district 1 *)
  let name =
    Value.as_str (Table.get_exn (Database.table db "customer") (Load.customer_key ~w:1 ~d:1 ~c:5)).(3)
  in
  let matches_before =
    Table.index_lookup (Database.table db "customer") ~index:"by_last"
      [ v_int 1; v_int 1; Value.Str name ]
  in
  Alcotest.(check bool) "name exists" true (matches_before <> []);
  let input =
    Txns.Payment
      { Txns.p_w = 1; p_d = 1; p_c_w = 1; p_c_d = 1; p_customer = Txns.By_last_name name; p_amount = 42.0 }
  in
  let outcomes = run_inputs eng env [ input ] in
  Alcotest.(check bool) "committed" true (outcomes = [ Runtime.Committed ]);
  check_consistent (Executor.db eng);
  (* the midpoint customer got the payment *)
  let midpoint = List.nth matches_before (List.length matches_before / 2) in
  let row = Table.get_exn (Database.table db "customer") midpoint in
  Alcotest.(check int) "payment count bumped" 2 (Value.as_int row.(8))

let test_payment_unknown_name_aborts () =
  let eng = fresh_engine () in
  let env = Txns.default_env ~seed:72 params in
  let input =
    Txns.Payment
      { Txns.p_w = 1; p_d = 1; p_c_w = 1; p_c_d = 1; p_customer = Txns.By_last_name "NOSUCHNAME"; p_amount = 1.0 }
  in
  let outcomes = run_inputs eng env [ input ] in
  (match outcomes with
  | [ Runtime.Compensated { completed_steps } ] ->
      (* steps 1 and 2 had applied the amounts; compensation undid them *)
      Alcotest.(check int) "failed in step 3" 2 completed_steps
  | _ -> Alcotest.fail "expected compensation");
  check_consistent (Executor.db eng)

let test_delivery_drains_queue () =
  let eng = fresh_engine () in
  let env = Txns.default_env ~seed:23 params in
  (* enqueue two orders in district 1, then deliver twice *)
  let order d =
    Txns.New_order
      { Txns.no_w = 1; no_d = d; no_c = 1; no_items = [ (1, 2, 1); (2, 1, 1) ]; no_fail_last = false }
  in
  let delivery = Txns.Delivery { Txns.dl_w = 1; dl_carrier = 9 } in
  let outcomes = run_inputs eng env [ order 1; order 1; delivery; delivery ] in
  List.iter (fun o -> Alcotest.(check bool) "committed" true (o = Runtime.Committed)) outcomes;
  let queue_len =
    Table.scan_count
      ~where:(Predicate.conj [ Predicate.Eq ("no_w_id", v_int 1); Predicate.Eq ("no_d_id", v_int 1) ])
      (Database.table (Executor.db eng) "new_order")
  in
  Alcotest.(check int) "district 1 queue drained" 0 queue_len;
  check_consistent (Executor.db eng)

let test_consistency_detects_corruption () =
  let db = Load.populate ~seed:5 params in
  check_consistent db;
  (* break C1/C9: bump a district's ytd *)
  ignore
    (Table.update (Database.table db "district") (Load.district_key ~w:1 ~d:1) (fun row ->
         row.(4) <- Value.Float (Value.number row.(4) +. 1.0);
         row));
  Alcotest.(check bool) "violation found" true (Consistency.check db <> []);
  Alcotest.(check int) "12 conditions documented" 12 (List.length Consistency.conditions)

(* --- crash recovery ----------------------------------------------------------- *)

(* Finish a report's pending compensations on an engine over its recovered
   database, each with the body its TPC-C type declares. *)
let compensate_pending (rep : Acc_wal.Recovery.report) =
  let eng = Executor.create ~sem:Txns.semantics rep.Acc_wal.Recovery.db in
  ignore (Acc_core.Replay.replay_pending ~workload:Txns.workload eng rep);
  rep.Acc_wal.Recovery.db

let test_recovery_every_prefix_mixed () =
  let baseline = Load.populate ~seed:31 params in
  let eng = Executor.create ~sem:Txns.semantics (Database.copy baseline) in
  let env = Txns.default_env ~seed:32 params in
  let inputs =
    [
      Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = false };
      Txns.Payment (Txns.gen_payment env);
      Txns.Delivery { Txns.dl_w = 1; dl_carrier = 2 };
      Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = true };
      Txns.Payment (Txns.gen_payment env);
    ]
  in
  ignore (run_inputs eng env inputs);
  let log = Executor.log eng in
  for cut = 0 to Acc_wal.Log.length log do
    let db =
      compensate_pending (Acc_wal.Recovery.recover ~baseline (Acc_wal.Log.prefix log cut))
    in
    match Consistency.check db with
    | [] -> ()
    | problems ->
        Alcotest.fail (Printf.sprintf "cut %d: %s" cut (String.concat "; " problems))
  done

let test_checkpoint_truncates_recovery () =
  (* run work, checkpoint at quiescence, run more work: recovery from the
     checkpoint over the suffix matches full recovery, compensations and all *)
  let baseline = Load.populate ~seed:41 params in
  let eng = Executor.create ~sem:Txns.semantics (Database.copy baseline) in
  let env = Txns.default_env ~seed:42 params in
  let batch n = List.init n (fun _ -> Txns.gen_input env) in
  ignore (run_inputs eng env (batch 6));
  let cp = Executor.checkpoint eng in
  ignore
    (run_inputs eng env
       (Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = true } :: batch 5));
  let log = Executor.log eng in
  (* a crash after the checkpoint, mid-suffix *)
  let cut = Acc_wal.Log.length log - 3 in
  let prefix = Acc_wal.Log.prefix log cut in
  let full = Acc_wal.Recovery.recover ~baseline prefix in
  ignore (compensate_pending full);
  (* checkpoint-based recovery only sees the suffix *)
  let suffix_records =
    List.filteri (fun i _ -> i >= Acc_wal.Checkpoint.position cp) prefix
  in
  let from_cp =
    Acc_wal.Recovery.recover ~baseline:(Acc_wal.Checkpoint.snapshot cp) suffix_records
  in
  ignore (compensate_pending from_cp);
  check_consistent ~what:"full recovery" full.Acc_wal.Recovery.db;
  check_consistent ~what:"checkpoint recovery" from_cp.Acc_wal.Recovery.db;
  (* identical databases *)
  List.iter
    (fun tname ->
      let a = Database.table full.Acc_wal.Recovery.db tname in
      let b = Database.table from_cp.Acc_wal.Recovery.db tname in
      Alcotest.(check int) (tname ^ " cardinality") (Table.cardinality a) (Table.cardinality b);
      Table.iter
        (fun pk row ->
          match Table.get b pk with
          | Some row' ->
              if row <> row' then Alcotest.fail (tname ^ ": row mismatch after recovery")
          | None -> Alcotest.fail (tname ^ ": row missing after checkpoint recovery"))
        a)
    Schema.table_names

let test_multi_warehouse () =
  let params2 = { params with Params.warehouses = 2 } in
  let db = Load.populate ~seed:51 params2 in
  Alcotest.(check int) "two warehouses" 2 (Table.cardinality (Database.table db "warehouse"));
  check_consistent ~what:"2-warehouse load" db;
  let eng = Executor.create ~sem:Txns.semantics db in
  let env = { (Txns.default_env ~seed:52 params2) with Txns.params = params2 } in
  let inputs = List.init 12 (fun _ -> Txns.gen_input env) in
  (* both warehouses get traffic *)
  Alcotest.(check bool) "traffic on both warehouses" true
    (List.exists
       (fun i -> match i with Txns.New_order n -> n.Txns.no_w = 2 | _ -> false)
       inputs
    || List.exists
         (fun i -> match i with Txns.Payment p -> p.Txns.p_w = 2 | _ -> false)
         inputs);
  ignore (run_inputs eng env inputs);
  check_consistent ~what:"after 2-warehouse mix" (Executor.db eng)

let test_full_scale_load () =
  (* the Rev 3.1 cardinalities load and pass the consistency conditions *)
  let db = Load.populate ~seed:61 Params.full in
  Alcotest.(check int) "customers" 30_000 (Table.cardinality (Database.table db "customer"));
  Alcotest.(check int) "stock" 100_000 (Table.cardinality (Database.table db "stock"));
  Alcotest.(check int) "orders" 30_000 (Table.cardinality (Database.table db "orders"));
  check_consistent ~what:"full-scale load" db

(* --- property: random concurrent mixes stay consistent -------------------- *)

let prop_concurrent_mix_consistent =
  QCheck2.Test.make ~name:"tpcc: random concurrent ACC mixes stay consistent" ~count:15
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 2 6))
    (fun (seed, n_fibers) ->
      let eng = fresh_engine ~seed:(seed mod 1000) () in
      let env = Txns.default_env ~seed params in
      let fibers =
        List.init n_fibers (fun _ ->
            let env = { env with Txns.gen = Random_gen.split env.Txns.gen } in
            fun () ->
              for _ = 1 to 3 do
                ignore (Txns.run_acc eng env (Txns.gen_input env))
              done)
      in
      Schedule.run ~policy:Runtime.victim_policy eng fibers;
      Consistency.check (Executor.db eng) = []
      && Lock_service.lock_count (Executor.lock_service eng) = 0)

let suites =
  [
    ( "tpcc.generators",
      [
        Alcotest.test_case "params" `Quick test_params;
        Alcotest.test_case "nurand bounds" `Quick test_nurand_bounds;
        Alcotest.test_case "nurand non-uniform" `Quick test_nurand_nonuniform;
        Alcotest.test_case "customer/item bounds" `Quick test_customer_item_bounds;
        Alcotest.test_case "district skew" `Quick test_district_skew;
        Alcotest.test_case "distinct items" `Quick test_distinct_items;
        Alcotest.test_case "last names" `Quick test_last_name;
        Alcotest.test_case "mix frequencies" `Quick test_mix_frequencies;
      ] );
    ( "tpcc.load",
      [
        Alcotest.test_case "cardinalities" `Quick test_load_cardinalities;
        Alcotest.test_case "fresh db consistent" `Quick test_load_consistent;
        Alcotest.test_case "deterministic" `Quick test_load_deterministic;
      ] );
    ( "tpcc.decomposition",
      [
        Alcotest.test_case "eleven forward steps" `Quick test_eleven_forward_steps;
        Alcotest.test_case "counter vs ytd (the Sec 5.1 headline)" `Quick
          test_counter_vs_ytd_headline;
      ] );
    ( "tpcc.transactions",
      [
        Alcotest.test_case "each type under ACC" `Quick test_each_type_acc;
        Alcotest.test_case "each type under 2PL" `Quick test_each_type_flat;
        Alcotest.test_case "forced abort semantics" `Quick test_forced_abort_semantics;
        Alcotest.test_case "payment by last name" `Quick test_payment_by_last_name;
        Alcotest.test_case "unknown name aborts" `Quick test_payment_unknown_name_aborts;
        Alcotest.test_case "delivery drains queue" `Quick test_delivery_drains_queue;
        Alcotest.test_case "checker detects corruption" `Quick test_consistency_detects_corruption;
      ] );
    ( "tpcc.recovery",
      [
        Alcotest.test_case "crash at every prefix (mixed types)" `Slow
          test_recovery_every_prefix_mixed;
        Alcotest.test_case "checkpoint truncates recovery" `Quick
          test_checkpoint_truncates_recovery;
        Alcotest.test_case "multi-warehouse" `Quick test_multi_warehouse;
        Alcotest.test_case "full-scale load" `Slow test_full_scale_load;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_concurrent_mix_consistent;
      ] );
  ]
