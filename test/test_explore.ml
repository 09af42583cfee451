(* Tests for the systematic interleaving explorer — and, through it,
   exhaustive verification of the ACC's semantic-correctness claim on
   concrete workload instances: EVERY schedule the scheduler can produce is
   executed and checked, not a random sample. *)

open Acc_txn
module OP = Acc_workload.Order_processing
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Schema = Acc_relation.Schema
module Value = Acc_relation.Value
module Lock_table = Acc_lock.Lock_table
module Lock_service = Acc_lock.Lock_service
module Mode = Acc_lock.Mode
module Program = Acc_core.Program
module Runtime = Acc_core.Runtime
module Footprint = Acc_core.Footprint

let v_int n = Value.Int n

let counter_schema =
  Schema.make ~name:"c" ~key:[ "id" ] [ Schema.col "id" Value.Tint; Schema.col "n" Value.Tint ]

let counter_engine () =
  let db = Database.create () in
  let t = Database.create_table db counter_schema in
  ignore (Table.insert t [| v_int 0; v_int 0 |]);
  Executor.create ~sem:Mode.no_semantics db

let counter_value eng =
  Value.as_int (Table.get_exn (Database.table (Executor.db eng) "c") [ v_int 0 ]).(1)

(* --- mechanics ------------------------------------------------------------ *)

let test_explores_all_interleavings () =
  (* two fibers, one yield each, no conflicts: the walk must terminate
     exhausted, having run each of the six orders of the four runnable
     events *)
  let make () =
    let eng = counter_engine () in
    let fiber () =
      Txn_effect.yield ();
      ()
    in
    (eng, [ fiber; fiber ])
  in
  let r = Explore.explore ~make ~check:(fun _ -> Ok ()) () in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "schedules" 6 r.Explore.schedules;
  Alcotest.(check bool) "no failure" true (r.Explore.failure = None)

let test_single_schedule_when_sequential () =
  (* one fiber: no branching at all *)
  let make () = (counter_engine (), [ (fun () -> Txn_effect.yield ()) ]) in
  let r = Explore.explore ~make ~check:(fun _ -> Ok ()) () in
  Alcotest.(check int) "one schedule" 1 r.Explore.schedules;
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted

let test_cap_respected () =
  let make () =
    let eng = counter_engine () in
    let fiber () =
      for _ = 1 to 5 do
        Txn_effect.yield ()
      done
    in
    (eng, [ fiber; fiber; fiber ])
  in
  let r = Explore.explore ~max_schedules:50 ~make ~check:(fun _ -> Ok ()) () in
  Alcotest.(check int) "capped" 50 r.Explore.schedules;
  Alcotest.(check bool) "not exhausted" false r.Explore.exhausted

(* --- the explorer finds real races ----------------------------------------- *)

let test_finds_lost_update () =
  (* a deliberately broken program: read at READ COMMITTED, yield, then write
     back the incremented stale value — a classic lost update the explorer
     must catch in some schedule *)
  let make () =
    let eng = counter_engine () in
    let broken_increment () =
      let ctx = Executor.begin_txn eng ~txn_type:"broken" ~multi_step:false in
      let v =
        match Executor.read_committed ctx "c" [ v_int 0 ] with
        | Some row -> Value.as_int row.(1)
        | None -> assert false
      in
      Txn_effect.yield ();
      Executor.set_column ctx "c" [ v_int 0 ] "n" (v_int (v + 1));
      Executor.commit ctx
    in
    (eng, [ broken_increment; broken_increment ])
  in
  let check eng =
    if counter_value eng = 2 then Ok ()
    else Error (Printf.sprintf "lost update: counter = %d" (counter_value eng))
  in
  let r = Explore.explore ~make ~check () in
  Alcotest.(check int) "found on the first schedule" 1 r.Explore.schedules;
  (match r.Explore.failure with
  | Some (msg, trace) ->
      Alcotest.(check bool) "diagnosed" true
        (String.length msg > 0 && msg.[0] = 'l');
      (* the trace reproduces the failure *)
      let eng = Explore.replay ~make trace in
      Alcotest.(check int) "replayed counter" 1 (counter_value eng)
  | None -> Alcotest.fail "explorer missed the lost update");
  (* with proper 2PL (plain read, lock held) the race disappears *)
  let make_fixed () =
    let eng = counter_engine () in
    let incr_txn () =
      let rec attempt () =
        let ctx = Executor.begin_txn eng ~txn_type:"ok" ~multi_step:false in
        try
          let v =
            match Executor.read ctx "c" [ v_int 0 ] with
            | Some row -> Value.as_int row.(1)
            | None -> assert false
          in
          Txn_effect.yield ();
          Executor.set_column ctx "c" [ v_int 0 ] "n" (v_int (v + 1));
          Executor.commit ctx
        with Txn_effect.Deadlock_victim ->
          Executor.abort_physical ctx;
          Txn_effect.yield ();
          attempt ()
      in
      attempt ()
    in
    (eng, [ incr_txn; incr_txn ])
  in
  let r2 = Explore.explore ~make:make_fixed ~check () in
  Alcotest.(check bool) "2PL version exhausts clean" true
    (r2.Explore.exhausted && r2.Explore.failure = None);
  Alcotest.(check int) "2PL version schedules" 10 r2.Explore.schedules

(* --- exhaustive semantic correctness of the §4 workload --------------------- *)

(* (item, initial stock level, price); [OP.new_order]'s default pace
   yields at the start of every line *)
let stock2 = [ (1, 15, 10); (2, 15, 20) ]

let make_engine () = Executor.create ~sem:OP.semantics (OP.make_db stock2)

let check_orders_consistent eng =
  let initial_level item =
    List.fold_left (fun acc (i, level, _) -> if i = item then level else acc) 0 stock2
  in
  match OP.check_consistency ~initial_level (Executor.db eng) with
  | exception e -> Error (Printexc.to_string e)
  | [] ->
      if Lock_service.lock_count (Executor.lock_service eng) = 0 then Ok ()
      else Error "locks leaked"
  | problems -> Error (String.concat "; " problems)

let test_exhaustive_two_new_orders () =
  (* EVERY interleaving of two decomposed new_orders (crossing item orders)
     ends in a consistent database with both committed *)
  let outcomes = ref (0, 0) in
  let make () =
    let eng = make_engine () in
    let i1, _ = OP.new_order ~items:[ (1, 10); (2, 10) ] () in
    let i2, _ = OP.new_order ~items:[ (2, 10); (1, 10) ] () in
    let fiber inst () =
      match Runtime.run eng inst with
      | Runtime.Committed -> outcomes := (fst !outcomes + 1, snd !outcomes)
      | Runtime.Compensated _ -> outcomes := (fst !outcomes, snd !outcomes + 1)
    in
    (eng, [ fiber i1; fiber i2 ])
  in
  let r = Explore.explore ~max_schedules:20_000 ~make ~check:check_orders_consistent () in
  (match r.Explore.failure with
  | Some (msg, trace) ->
      Alcotest.failf "schedule %s broke consistency: %s"
        (String.concat "," (List.map string_of_int trace))
        msg
  | None -> ());
  Alcotest.(check bool) "explored the whole tree" true r.Explore.exhausted;
  Alcotest.(check int) "schedules" 20 r.Explore.schedules;
  (* every schedule committed both (no compensation paths here) *)
  Alcotest.(check int) "no compensations" 0 (snd !outcomes)

let test_exhaustive_with_forced_abort () =
  (* same, but the second new_order aborts after its first line: every
     interleaving of forward steps with the compensating step stays
     consistent *)
  let make () =
    let eng = make_engine () in
    let i1, _ = OP.new_order ~items:[ (1, 5) ] () in
    let i2, _ = OP.new_order ~items:[ (2, 5); (1, 5) ] () in
    ( eng,
      [
        (fun () -> ignore (Runtime.run eng i1));
        (fun () -> ignore (Runtime.run ~abort_at:2 eng i2));
      ] )
  in
  let r = Explore.explore ~max_schedules:20_000 ~make ~check:check_orders_consistent () in
  (match r.Explore.failure with
  | Some (msg, trace) ->
      Alcotest.failf "schedule %s broke consistency: %s"
        (String.concat "," (List.map string_of_int trace))
        msg
  | None -> ());
  Alcotest.(check bool) "explored the whole tree" true r.Explore.exhausted;
  Alcotest.(check int) "schedules" 6 r.Explore.schedules

let test_exhaustive_new_order_with_bill () =
  (* a bill of the first order races two new_orders: the admission lock must
     hold in every schedule — the bill always totals a complete order *)
  let make () =
    let eng = make_engine () in
    let i1, o1 = OP.new_order ~items:[ (1, 2) ] () in
    let i2, _ = OP.new_order ~items:[ (2, 3) ] () in
    let fiber_bill () =
      Txn_effect.yield ();
      if !o1 >= 0 then begin
        let b, total = OP.bill ~order:!o1 in
        match Runtime.run eng b with
        | Runtime.Committed ->
            if !total <> 2 * 10 then failwith "bill totalled an incomplete order"
        | Runtime.Compensated _ -> failwith "bill compensated"
      end
    in
    ( eng,
      [
        (fun () -> ignore (Runtime.run eng i1));
        (fun () -> ignore (Runtime.run eng i2));
        fiber_bill;
      ] )
  in
  let r = Explore.explore ~max_schedules:50_000 ~make ~check:check_orders_consistent () in
  (match r.Explore.failure with
  | Some (msg, trace) ->
      Alcotest.failf "schedule %s failed: %s"
        (String.concat "," (List.map string_of_int trace))
        msg
  | None -> ());
  Alcotest.(check bool) "explored the whole tree" true r.Explore.exhausted;
  Alcotest.(check int) "schedules" 102 r.Explore.schedules

(* --- meta-property: random decompositions, exhaustively explored ----------- *)

(* Random two-transaction workloads over a small account table: each step
   moves a random amount between random accounts; compensation returns the
   completed steps' money.  For EVERY generated instance, EVERY schedule must
   conserve the total. *)

let accounts_schema =
  Schema.make ~name:"acct" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "bal" Value.Tint ]

let mk_step ~id ~index =
  Program.step ~id ~name:(Printf.sprintf "s%d" id) ~txn_type:"mover" ~index ~reads:[]
    ~writes:[ Footprint.make "acct" (Footprint.Columns [ "bal" ]) ]
    ()

let mover_steps = [ mk_step ~id:1 ~index:1; mk_step ~id:2 ~index:2; mk_step ~id:3 ~index:3 ]

let mover_comp =
  Program.step ~id:4 ~name:"undo" ~txn_type:"mover" ~index:0 ~reads:[]
    ~writes:[ Footprint.make "acct" (Footprint.Columns [ "bal" ]) ]
    ()

let mover_type =
  Program.txn_type ~name:"mover" ~steps:mover_steps ~comp:mover_comp ~assertions:[] ()

let mover_interference = Acc_core.Interference.build (Program.workload [ mover_type ])

let mover_engine () =
  let db = Database.create () in
  let t = Database.create_table db accounts_schema in
  for id = 1 to 3 do
    ignore (Table.insert t [| v_int id; v_int 100 |])
  done;
  Executor.create ~sem:(Acc_core.Interference.semantics mover_interference) db

let move ctx ~src ~dst ~amount =
  let bump id delta =
    ignore
      (Executor.update ctx "acct" [ v_int id ] (fun row ->
           row.(1) <- v_int (Value.as_int row.(1) + delta);
           row))
  in
  bump src (-amount);
  bump dst amount

(* moves: (src, dst, amount) per step, 1-3 steps *)
let mover ~moves ~abort_after =
  let arr = Array.of_list moves in
  let steps =
    List.mapi
      (fun idx (src, dst, amount) ->
        ( List.nth mover_steps idx,
          fun ctx ->
            if idx > 0 then Txn_effect.yield ();
            move ctx ~src ~dst ~amount ))
      moves
  in
  (* a mover with fewer than 3 steps uses a trimmed type: rebuild instead *)
  let def =
    Program.txn_type ~name:"mover"
      ~steps:(List.filteri (fun i _ -> i < List.length moves) mover_steps)
      ~comp:mover_comp ~assertions:[] ()
  in
  let inst =
    Program.instance ~def ~steps
      ~compensate:(fun ctx ~completed ->
        Array.iteri
          (fun idx (src, dst, amount) ->
            if idx < completed then move ctx ~src:dst ~dst:src ~amount)
          arr)
      ()
  in
  (inst, abort_after)

let move_gen =
  QCheck2.Gen.(
    list_size (int_range 1 3) (triple (int_range 1 3) (int_range 1 3) (int_range 1 20)))

let prop_random_decompositions_conserve =
  QCheck2.Test.make ~name:"explore: random decompositions conserve money in all schedules"
    ~count:25
    QCheck2.Gen.(triple move_gen move_gen (int_range 0 3))
    (fun (moves1, moves2, abort_code) ->
      let make () =
        let eng = mover_engine () in
        let i1, _ = mover ~moves:moves1 ~abort_after:None in
        let abort_after =
          if abort_code = 0 then None else Some (min abort_code (List.length moves2))
        in
        let i2, _ = mover ~moves:moves2 ~abort_after in
        ( eng,
          [
            (fun () -> ignore (Runtime.run eng i1));
            (fun () -> ignore (Runtime.run ?abort_at:abort_after eng i2));
          ] )
      in
      let check eng =
        let db = Executor.db eng in
        let total =
          Table.fold (fun _ row acc -> acc + Value.as_int row.(1)) (Database.table db "acct") 0
        in
        if total = 300 then Ok () else Error (Printf.sprintf "total %d" total)
      in
      let r = Explore.explore ~max_schedules:3_000 ~make ~check () in
      r.Explore.failure = None)

let suites =
  [
    ( "explore.mechanics",
      [
        Alcotest.test_case "explores all interleavings" `Quick test_explores_all_interleavings;
        Alcotest.test_case "sequential = one schedule" `Quick test_single_schedule_when_sequential;
        Alcotest.test_case "cap respected" `Quick test_cap_respected;
        Alcotest.test_case "finds a lost update" `Quick test_finds_lost_update;
      ] );
    ( "explore.semantic_correctness",
      [
        Alcotest.test_case "two new_orders, all schedules" `Slow test_exhaustive_two_new_orders;
        Alcotest.test_case "forced abort, all schedules" `Slow test_exhaustive_with_forced_abort;
        Alcotest.test_case "bill races new_orders, all schedules" `Slow
          test_exhaustive_new_order_with_bill;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |])
          prop_random_decompositions_conserve;
      ] );
  ]
