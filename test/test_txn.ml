(* Tests for acc.txn: the executor (locking, logging, undo), the cooperative
   scheduler (blocking, wakeups, deadlock victims), and the serializability
   checker. *)

open Acc_txn
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Schema = Acc_relation.Schema
module Value = Acc_relation.Value
module Predicate = Acc_relation.Predicate
module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id
module Lock_table = Acc_lock.Lock_table
module Lock_service = Acc_lock.Lock_service

let v_int n = Value.Int n

let accounts_schema =
  Schema.make ~name:"accounts" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "balance" Value.Tint ]

let fresh_engine rows =
  let db = Database.create () in
  let t = Database.create_table db accounts_schema in
  List.iter (fun (id, bal) -> ignore (Table.insert t [| v_int id; v_int bal |])) rows;
  Executor.create ~sem:Mode.no_semantics db

let balance eng id =
  Value.as_int (Table.get_exn (Database.table (Executor.db eng) "accounts") [ v_int id ]).(1)

let add_to_balance ctx id delta =
  ignore
    (Executor.update ctx "accounts" [ v_int id ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) + delta);
         row))

(* simple flat transaction with deadlock retry *)
let rec with_retry eng ~txn_type body =
  let ctx = Executor.begin_txn eng ~txn_type ~multi_step:false in
  try
    body ctx;
    Executor.commit ctx
  with Txn_effect.Deadlock_victim ->
    Executor.abort_physical ctx;
    (* yield one round before retrying so the deadlock winner can finish *)
    Txn_effect.yield ();
    with_retry eng ~txn_type body

(* --- basic executor behaviour ------------------------------------------ *)

let test_flat_commit () =
  let eng = fresh_engine [ (1, 100); (2, 50) ] in
  Schedule.run eng
    [
      (fun () ->
        with_retry eng ~txn_type:"transfer" (fun ctx ->
            add_to_balance ctx 1 (-30);
            add_to_balance ctx 2 30));
    ];
  Alcotest.(check int) "debited" 70 (balance eng 1);
  Alcotest.(check int) "credited" 80 (balance eng 2);
  Alcotest.(check int) "no locks leaked" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_insert_delete_ops () =
  let eng = fresh_engine [ (1, 10) ] in
  Schedule.run eng
    [
      (fun () ->
        with_retry eng ~txn_type:"admin" (fun ctx ->
            Executor.insert ctx "accounts" [| v_int 9; v_int 900 |];
            Executor.delete ctx "accounts" [ v_int 1 ];
            match Executor.read ctx "accounts" [ v_int 9 ] with
            | Some row -> Alcotest.(check int) "read back" 900 (Value.as_int row.(1))
            | None -> Alcotest.fail "inserted row missing"));
    ];
  Alcotest.(check int) "insert persisted" 900 (balance eng 9);
  Alcotest.(check bool) "delete persisted" false
    (Table.mem (Database.table (Executor.db eng) "accounts") [ v_int 1 ])

let test_abort_restores () =
  let eng = fresh_engine [ (1, 100) ] in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"doomed" ~multi_step:false in
        add_to_balance ctx 1 (-100);
        Executor.insert ctx "accounts" [| v_int 5; v_int 5 |];
        Executor.abort_physical ctx);
    ];
  Alcotest.(check int) "balance restored" 100 (balance eng 1);
  Alcotest.(check bool) "insert undone" false
    (Table.mem (Database.table (Executor.db eng) "accounts") [ v_int 5 ]);
  Alcotest.(check int) "no locks leaked" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_log_contents () =
  let eng = fresh_engine [ (1, 100) ] in
  Schedule.run eng
    [ (fun () -> with_retry eng ~txn_type:"t" (fun ctx -> add_to_balance ctx 1 1)) ];
  let records = Acc_wal.Log.to_list (Executor.log eng) in
  let kinds =
    List.map
      (function
        | Acc_wal.Record.Begin _ -> "begin"
        | Acc_wal.Record.Write _ -> "write"
        | Acc_wal.Record.Commit _ -> "commit"
        | Acc_wal.Record.Step_end _ -> "step"
        | Acc_wal.Record.Abort _ -> "abort"
        | Acc_wal.Record.Prepare _ -> "prepare")
      records
  in
  Alcotest.(check (list string)) "log shape" [ "begin"; "write"; "commit" ] kinds

let logged_writes eng =
  List.filter_map
    (function Acc_wal.Record.Write { write; _ } -> Some write | _ -> None)
    (Acc_wal.Log.to_list (Executor.log eng))

(* A Write record's images are the table's own rows, which are never written
   in place: an update's before image is the array the previous write of the
   row logged as its after image, and the step body gets a private copy. *)
let test_log_images_by_reference () =
  let eng = fresh_engine [ (1, 100) ] in
  let returned = ref [||] in
  Schedule.run eng
    [
      (fun () ->
        with_retry eng ~txn_type:"t" (fun ctx ->
            Executor.insert ctx "accounts" [| v_int 7; v_int 70 |];
            add_to_balance ctx 7 1;
            add_to_balance ctx 1 1;
            returned := Executor.update ctx "accounts" [ v_int 1 ] (fun row ->
                row.(1) <- v_int 200;
                row)));
    ];
  let image = Option.get in
  match logged_writes eng with
  | [ ins; upd7; upd1; upd1' ] ->
      Alcotest.(check bool) "inserted row is the next update's before image" true
        (image ins.Acc_wal.Record.w_after == image upd7.Acc_wal.Record.w_before);
      Alcotest.(check bool) "second update's before image is the first's after" true
        (image upd1'.Acc_wal.Record.w_before == image upd1.Acc_wal.Record.w_after);
      !returned.(1) <- v_int (-1);
      Alcotest.(check int) "table unaffected by the returned array" 200 (balance eng 1);
      Alcotest.(check bool) "logged images unaffected" true
        (List.for_all
           (fun w ->
             List.for_all
               (fun img -> Option.fold ~none:true ~some:(fun r -> r.(1) <> v_int (-1)) img)
               [ w.Acc_wal.Record.w_before; w.Acc_wal.Record.w_after ])
           (logged_writes eng))
  | ws -> Alcotest.failf "expected 4 writes, got %d" (List.length ws)

(* A step end whose area is identical to the last one's logs that very list;
   identical means bit for bit, so [-0.0] does not stand in for [0.0]. *)
let test_identical_area_logged_once () =
  let eng = fresh_engine [] in
  let area f = [ ("n", v_int 1); ("f", Value.Float f) ] in
  let ctx = Executor.begin_txn eng ~txn_type:"steps" ~multi_step:true in
  List.iteri
    (fun i f ->
      Executor.set_step ctx ~step_type:0 ~step_index:(i + 1);
      Executor.end_step ctx ~area:(area f))
    [ 0.0; 0.0; -0.0 ];
  Executor.commit ctx;
  match
    List.filter_map
      (function Acc_wal.Record.Step_end { area; _ } -> Some area | _ -> None)
      (Acc_wal.Log.to_list (Executor.log eng))
  with
  | [ a1; a2; a3 ] ->
      Alcotest.(check bool) "same area, one list" true (a1 == a2);
      Alcotest.(check bool) "0.0 -> -0.0 logs a new list" false (a3 == a2);
      Alcotest.(check bool) "the new list holds -0.0" true
        (Float.sign_bit (Value.as_float (List.assoc "f" a3)))
  | areas -> Alcotest.failf "expected 3 step ends, got %d" (List.length areas)

let test_recovery_from_engine_log () =
  (* run transactions, then replay the log against the pristine baseline *)
  let baseline_rows = [ (1, 100); (2, 50) ] in
  let eng = fresh_engine baseline_rows in
  let baseline = Database.copy (Executor.db eng) in
  Schedule.run eng
    [
      (fun () ->
        with_retry eng ~txn_type:"a" (fun ctx -> add_to_balance ctx 1 (-10));
        with_retry eng ~txn_type:"b" (fun ctx -> add_to_balance ctx 2 10));
    ];
  let r = Acc_wal.Recovery.recover ~baseline (Acc_wal.Log.to_list (Executor.log eng)) in
  Alcotest.(check int) "recovered 1" (balance eng 1)
    (Value.as_int (Table.get_exn (Database.table r.Acc_wal.Recovery.db "accounts") [ v_int 1 ]).(1));
  Alcotest.(check int) "recovered 2" (balance eng 2)
    (Value.as_int (Table.get_exn (Database.table r.Acc_wal.Recovery.db "accounts") [ v_int 2 ]).(1))

(* --- blocking and interleaving ------------------------------------------ *)

let test_write_blocks_reader () =
  let eng = fresh_engine [ (1, 100) ] in
  let observed = ref (-1) in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"writer" ~multi_step:false in
        add_to_balance ctx 1 (-100);
        Txn_effect.yield ();
        (* reader must still be blocked here *)
        Alcotest.(check int) "reader has not read" (-1) !observed;
        Executor.commit ctx);
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"reader" ~multi_step:false in
        (match Executor.read ctx "accounts" [ v_int 1 ] with
        | Some row -> observed := Value.as_int row.(1)
        | None -> Alcotest.fail "row missing");
        Executor.commit ctx);
    ];
  Alcotest.(check int) "reader saw committed value" 0 !observed

let test_readers_share () =
  let eng = fresh_engine [ (1, 100) ] in
  let both_read = ref 0 in
  let reader () =
    let ctx = Executor.begin_txn eng ~txn_type:"r" ~multi_step:false in
    ignore (Executor.read ctx "accounts" [ v_int 1 ]);
    incr both_read;
    Txn_effect.yield ();
    Executor.commit ctx
  in
  Schedule.run eng [ reader; reader ];
  Alcotest.(check int) "both readers ran" 2 !both_read

let test_scan_blocks_writer () =
  let eng = fresh_engine [ (1, 100); (2, 50) ] in
  let write_done_before_commit = ref false in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"scanner" ~multi_step:false in
        let rows = Executor.scan ctx "accounts" () in
        Alcotest.(check int) "scanned all" 2 (List.length rows);
        Txn_effect.yield ();
        Alcotest.(check bool) "writer still blocked" false !write_done_before_commit;
        Executor.commit ctx);
      (fun () ->
        with_retry eng ~txn_type:"writer" (fun ctx ->
            add_to_balance ctx 1 1;
            write_done_before_commit := true));
    ];
  Alcotest.(check int) "write applied after scan" 101 (balance eng 1)

let test_read_committed_releases_early () =
  let eng = fresh_engine [ (1, 100) ] in
  let writer_done = ref false in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"rc" ~multi_step:false in
        ignore (Executor.read_committed ctx "accounts" [ v_int 1 ]);
        Txn_effect.yield ();
        (* the writer must have been able to proceed before we commit *)
        Alcotest.(check bool) "writer proceeded" true !writer_done;
        Executor.commit ctx);
      (fun () ->
        with_retry eng ~txn_type:"writer" (fun ctx ->
            add_to_balance ctx 1 1;
            writer_done := true));
    ]

let test_scan_committed_releases_early () =
  let eng = fresh_engine [ (1, 100) ] in
  let writer_done = ref false in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"rc" ~multi_step:false in
        ignore (Executor.scan_committed ctx "accounts" ());
        Txn_effect.yield ();
        Alcotest.(check bool) "writer proceeded" true !writer_done;
        Executor.commit ctx);
      (fun () ->
        with_retry eng ~txn_type:"writer" (fun ctx ->
            add_to_balance ctx 1 1;
            writer_done := true));
    ]

let test_scan_for_update_serializes () =
  (* two for-update scanners must not meet in the S-then-upgrade deadlock:
     the second waits for the first outright *)
  let eng = fresh_engine [ (1, 10); (2, 20) ] in
  let order = ref [] in
  let scanner name () =
    with_retry eng ~txn_type:name (fun ctx ->
        ignore (Executor.scan_keys_for_update ctx "accounts" ());
        Txn_effect.yield ();
        add_to_balance ctx 1 1;
        order := name :: !order)
  in
  Schedule.run eng [ scanner "first"; scanner "second" ];
  Alcotest.(check (list string)) "strictly serialized" [ "second"; "first" ] !order;
  Alcotest.(check int) "both updates applied" 12 (balance eng 1)

let test_peek_keys_no_locks () =
  (* peeking takes no data locks: a concurrent writer is not blocked *)
  let eng = fresh_engine [ (1, 10) ] in
  let writer_done = ref false in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"peeker" ~multi_step:false in
        let keys = Executor.peek_keys ctx "accounts" () in
        Alcotest.(check int) "saw the row" 1 (List.length keys);
        Txn_effect.yield ();
        Alcotest.(check bool) "writer not blocked by peek" true !writer_done;
        Executor.commit ctx);
      (fun () ->
        with_retry eng ~txn_type:"writer" (fun ctx ->
            add_to_balance ctx 1 5;
            writer_done := true));
    ]

(* --- deadlock handling --------------------------------------------------- *)

let deadlock_pair eng ~order_1 ~order_2 =
  (* each fiber updates its two accounts in the given order, yielding after
     the first update to force the classic crossing *)
  let aborts = ref 0 in
  let fiber (a, b) () =
    let rec attempt () =
      let ctx = Executor.begin_txn eng ~txn_type:"transfer" ~multi_step:false in
      try
        add_to_balance ctx a 1;
        Txn_effect.yield ();
        add_to_balance ctx b 1;
        Executor.commit ctx
      with Txn_effect.Deadlock_victim ->
        incr aborts;
        Executor.abort_physical ctx;
        Txn_effect.yield ();
        attempt ()
    in
    attempt ()
  in
  Schedule.run eng [ fiber order_1; fiber order_2 ];
  !aborts

let test_deadlock_detected_and_resolved () =
  let eng = fresh_engine [ (1, 0); (2, 0) ] in
  let aborts = deadlock_pair eng ~order_1:(1, 2) ~order_2:(2, 1) in
  Alcotest.(check bool) "at least one victim" true (aborts >= 1);
  (* both transactions eventually applied both updates *)
  Alcotest.(check int) "account 1 total" 2 (balance eng 1);
  Alcotest.(check int) "account 2 total" 2 (balance eng 2);
  Alcotest.(check int) "no locks leaked" 0 (Lock_service.lock_count (Executor.lock_service eng))

let test_deadlock_traced () =
  (* the at-block check reports the cycle it broke and each victim it chose *)
  let module Trace = Acc_obs.Trace in
  let eng = fresh_engine [ (1, 0); (2, 0) ] in
  Trace.start ~capacity:4096 ();
  let aborts =
    try deadlock_pair eng ~order_1:(1, 2) ~order_2:(2, 1)
    with e ->
      ignore (Trace.stop ());
      raise e
  in
  let d = Trace.stop () in
  let cycles =
    List.filter_map
      (fun e -> match e.Trace.ev with Trace.Deadlock_cycle { cycle } -> Some cycle | _ -> None)
      d.Trace.events
  in
  let victims =
    List.filter_map
      (fun e ->
        match e.Trace.ev with
        | Trace.Victim { txn; spared_compensating } -> Some (txn, spared_compensating)
        | _ -> None)
      d.Trace.events
  in
  Alcotest.(check int) "one victim" 1 aborts;
  match (cycles, victims) with
  | [ cycle ], [ (victim, spared) ] ->
      Alcotest.(check int) "two-transaction cycle" 2 (List.length cycle);
      Alcotest.(check int) "youngest is the victim" (List.fold_left max 0 cycle) victim;
      Alcotest.(check bool) "requester not spared" false spared
  | _ ->
      Alcotest.failf "expected one cycle and one victim, traced %d and %d" (List.length cycles)
        (List.length victims)

let test_no_deadlock_same_order () =
  let eng = fresh_engine [ (1, 0); (2, 0) ] in
  let aborts = deadlock_pair eng ~order_1:(1, 2) ~order_2:(1, 2) in
  Alcotest.(check int) "no victims" 0 aborts;
  Alcotest.(check int) "account 2 total" 2 (balance eng 2)

let test_custom_victim_policy () =
  (* abort the *other* transaction in the cycle instead of the requester *)
  let eng = fresh_engine [ (1, 0); (2, 0) ] in
  let victims = ref [] in
  let policy locks ~requester ~cycle =
    ignore locks;
    let others = List.filter (fun t -> t <> requester) cycle in
    victims := others;
    others
  in
  let aborted_txns = ref [] in
  let fiber (a, b) () =
    let rec attempt () =
      let ctx = Executor.begin_txn eng ~txn_type:"t" ~multi_step:false in
      try
        add_to_balance ctx a 1;
        Txn_effect.yield ();
        add_to_balance ctx b 1;
        Executor.commit ctx
      with Txn_effect.Deadlock_victim ->
        aborted_txns := Executor.txn_id ctx :: !aborted_txns;
        Executor.abort_physical ctx;
        Txn_effect.yield ();
        attempt ()
    in
    attempt ()
  in
  Schedule.run ~policy eng [ fiber (1, 2); fiber (2, 1) ];
  Alcotest.(check bool) "some victim chosen" true (!victims <> []);
  Alcotest.(check bool) "victim was not requester" true
    (List.for_all (fun t -> List.mem t !victims) !aborted_txns);
  Alcotest.(check int) "account 1 total" 2 (balance eng 1);
  Alcotest.(check int) "account 2 total" 2 (balance eng 2)

let test_three_way_deadlock () =
  let eng = fresh_engine [ (1, 0); (2, 0); (3, 0) ] in
  let aborts = ref 0 in
  let fiber (a, b) () =
    let rec attempt () =
      let ctx = Executor.begin_txn eng ~txn_type:"t" ~multi_step:false in
      try
        add_to_balance ctx a 1;
        Txn_effect.yield ();
        add_to_balance ctx b 1;
        Executor.commit ctx
      with Txn_effect.Deadlock_victim ->
        incr aborts;
        Executor.abort_physical ctx;
        Txn_effect.yield ();
        attempt ()
    in
    attempt ()
  in
  Schedule.run eng [ fiber (1, 2); fiber (2, 3); fiber (3, 1) ];
  Alcotest.(check bool) "victims occurred" true (!aborts >= 1);
  List.iter (fun id -> Alcotest.(check int) (Printf.sprintf "account %d" id) 2 (balance eng id)) [ 1; 2; 3 ]

(* --- serializability checker --------------------------------------------- *)

let res x = Resource_id.Tuple ("t", [ v_int x ])

let test_checker_serial_trace () =
  let c = Serializability.create () in
  Serializability.hook c 1 `W (res 1);
  Serializability.hook c 1 `R (res 2);
  Serializability.hook c 2 `W (res 1);
  Serializability.note_commit c 1;
  Serializability.note_commit c 2;
  Alcotest.(check (list (pair int int))) "edge 1->2" [ (1, 2) ] (Serializability.conflict_edges c);
  Alcotest.(check bool) "serializable" true (Serializability.conflict_serializable c);
  Alcotest.(check bool) "witness order" true (Serializability.serial_order c = Some [ 1; 2 ])

let test_checker_nonserializable_trace () =
  (* T1 reads x before T2 writes it; T2 reads y before T1 writes it *)
  let c = Serializability.create () in
  Serializability.hook c 1 `R (res 1);
  Serializability.hook c 2 `R (res 2);
  Serializability.hook c 2 `W (res 1);
  Serializability.hook c 1 `W (res 2);
  Serializability.note_commit c 1;
  Serializability.note_commit c 2;
  Alcotest.(check bool) "cycle detected" false (Serializability.conflict_serializable c)

let test_checker_ignores_uncommitted () =
  let c = Serializability.create () in
  Serializability.hook c 1 `R (res 1);
  Serializability.hook c 2 `R (res 2);
  Serializability.hook c 2 `W (res 1);
  Serializability.hook c 1 `W (res 2);
  Serializability.note_commit c 1;
  Serializability.note_abort c 2;
  Alcotest.(check bool) "aborted txn excluded" true (Serializability.conflict_serializable c)

let test_checker_table_tuple_overlap () =
  let c = Serializability.create () in
  Serializability.hook c 1 `R (Resource_id.Table "t");
  Serializability.hook c 2 `W (res 1);
  Serializability.note_commit c 1;
  Serializability.note_commit c 2;
  Alcotest.(check (list (pair int int))) "scan conflicts with tuple write" [ (1, 2) ]
    (Serializability.conflict_edges c)

(* property: strict 2PL always yields conflict-serializable schedules *)
let prop_2pl_serializable =
  QCheck2.Test.make ~name:"executor: strict 2PL schedules are serializable" ~count:60
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (list_size (int_range 2 6)
           (list_size (int_range 1 5) (pair (int_range 1 4) bool))))
    (fun (salt, txn_specs) ->
      let eng = fresh_engine [ (1, 100); (2, 100); (3, 100); (4, 100) ] in
      let checker = Serializability.create () in
      Executor.set_trace eng (Some (Serializability.hook checker));
      let fiber spec () =
        let rec attempt () =
          let ctx = Executor.begin_txn eng ~txn_type:"p" ~multi_step:false in
          try
            List.iteri
              (fun i (acct, write) ->
                if (i + salt) mod 2 = 0 then Txn_effect.yield ();
                if write then add_to_balance ctx acct 1
                else ignore (Executor.read ctx "accounts" [ v_int acct ]))
              spec;
            Executor.commit ctx;
            Serializability.note_commit checker (Executor.txn_id ctx)
          with Txn_effect.Deadlock_victim ->
            Executor.abort_physical ctx;
            Serializability.note_abort checker (Executor.txn_id ctx);
            Txn_effect.yield ();
            attempt ()
        in
        attempt ()
      in
      Schedule.run eng (List.map fiber txn_specs);
      Serializability.conflict_serializable checker
      && Lock_service.lock_count (Executor.lock_service eng) = 0)

(* property: concurrent random transfers conserve total balance *)
let prop_transfers_conserve_money =
  QCheck2.Test.make ~name:"executor: transfers conserve total balance" ~count:60
    QCheck2.Gen.(list_size (int_range 1 8) (triple (int_range 1 4) (int_range 1 4) (int_range 1 50)))
    (fun transfers ->
      let eng = fresh_engine [ (1, 100); (2, 100); (3, 100); (4, 100) ] in
      let fiber (src, dst, amt) () =
        with_retry eng ~txn_type:"transfer" (fun ctx ->
            add_to_balance ctx src (-amt);
            Txn_effect.yield ();
            add_to_balance ctx dst amt)
      in
      Schedule.run eng (List.map fiber transfers);
      balance eng 1 + balance eng 2 + balance eng 3 + balance eng 4 = 400)

(* --- decorrelated-jitter backoff ---------------------------------------- *)

let jitter_seq ?seed n =
  let j = Backoff.Jitter.create ?seed () in
  List.init n (fun i -> Backoff.Jitter.next j ~attempt:(i + 1))

let test_jitter_seeding () =
  (* two unseeded instances must draw distinct schedules — colliding
     retriers sharing one would re-collide forever *)
  Alcotest.(check bool) "unseeded schedules differ" false (jitter_seq 32 = jitter_seq 32);
  (* an explicit seed makes the schedule reproducible *)
  Alcotest.(check bool) "explicit seed reproduces" true
    (jitter_seq ~seed:42 32 = jitter_seq ~seed:42 32);
  Alcotest.check_raises "base must be positive" (Invalid_argument
    "Backoff.Jitter.create: base must be > 0") (fun () ->
      ignore (Backoff.Jitter.create ~base:0. ()));
  Alcotest.check_raises "cap must dominate base" (Invalid_argument
    "Backoff.Jitter.create: cap must be >= base") (fun () ->
      ignore (Backoff.Jitter.create ~base:1. ~cap:0.5 ()))

(* the decorrelated walk: every delay lies in [base, min cap (3 * previous)],
   and attempt <= 1 restarts the walk from base *)
let prop_jitter_walk =
  QCheck2.Test.make ~name:"backoff: jitter delays stay in [base, min cap 3*prev]" ~count:300
    QCheck2.Gen.(pair int (int_range 2 40))
    (fun (seed, n) ->
      let base = 0.001 and cap = 0.02 in
      let j = Backoff.Jitter.create ~base ~cap ~seed () in
      let ok = ref true in
      let prev = ref base in
      for i = 1 to n do
        (* restart the sequence halfway to exercise the attempt<=1 reset *)
        let attempt = if i <= n / 2 then i else i - (n / 2) in
        if attempt <= 1 then prev := base;
        let d = Backoff.Jitter.next j ~attempt in
        if not (d >= base -. 1e-12 && d <= Float.min cap (!prev *. 3.) +. 1e-12) then
          ok := false;
        prev := d
      done;
      !ok)

let suites =
  [
    ( "txn.executor",
      [
        Alcotest.test_case "flat commit" `Quick test_flat_commit;
        Alcotest.test_case "insert/delete" `Quick test_insert_delete_ops;
        Alcotest.test_case "abort restores" `Quick test_abort_restores;
        Alcotest.test_case "log contents" `Quick test_log_contents;
        Alcotest.test_case "log images are the table's rows" `Quick test_log_images_by_reference;
        Alcotest.test_case "identical area logged once" `Quick test_identical_area_logged_once;
        Alcotest.test_case "recovery from engine log" `Quick test_recovery_from_engine_log;
      ] );
    ( "txn.blocking",
      [
        Alcotest.test_case "write blocks reader" `Quick test_write_blocks_reader;
        Alcotest.test_case "readers share" `Quick test_readers_share;
        Alcotest.test_case "scan blocks writer" `Quick test_scan_blocks_writer;
        Alcotest.test_case "read committed releases early" `Quick
          test_read_committed_releases_early;
        Alcotest.test_case "scan committed releases early" `Quick
          test_scan_committed_releases_early;
        Alcotest.test_case "scan-for-update serializes" `Quick test_scan_for_update_serializes;
        Alcotest.test_case "peek takes no data locks" `Quick test_peek_keys_no_locks;
      ] );
    ( "txn.deadlock",
      [
        Alcotest.test_case "detected and resolved" `Quick test_deadlock_detected_and_resolved;
        Alcotest.test_case "same order no deadlock" `Quick test_no_deadlock_same_order;
        Alcotest.test_case "custom victim policy" `Quick test_custom_victim_policy;
        Alcotest.test_case "three-way deadlock" `Quick test_three_way_deadlock;
        Alcotest.test_case "cycle and victim traced" `Quick test_deadlock_traced;
      ] );
    ( "txn.serializability",
      [
        Alcotest.test_case "serial trace" `Quick test_checker_serial_trace;
        Alcotest.test_case "non-serializable trace" `Quick test_checker_nonserializable_trace;
        Alcotest.test_case "ignores uncommitted" `Quick test_checker_ignores_uncommitted;
        Alcotest.test_case "table/tuple overlap" `Quick test_checker_table_tuple_overlap;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_2pl_serializable;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_transfers_conserve_money;
      ] );
    ( "txn.backoff",
      [
        Alcotest.test_case "jitter seeding" `Quick test_jitter_seeding;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_jitter_walk;
      ] );
  ]
