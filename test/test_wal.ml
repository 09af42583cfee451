(* Tests for acc.wal: the log, physical redo/undo, and crash recovery with
   step-atomic undo and pending-compensation reporting. *)

open Acc_wal
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Schema = Acc_relation.Schema
module Value = Acc_relation.Value

let v_int n = Value.Int n

let items_schema =
  Schema.make ~name:"items" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "qty" Value.Tint ]

let fresh_db rows =
  let db = Database.create () in
  let t = Database.create_table db items_schema in
  List.iter (fun (id, qty) -> ignore (Table.insert t [| v_int id; v_int qty |])) rows;
  db

let qty db id = Value.as_int (Table.get_exn (Database.table db "items") [ v_int id ]).(1)
let has db id = Table.mem (Database.table db "items") [ v_int id ]

let w_insert id qty =
  { Record.w_table = "items"; w_key = [ v_int id ]; w_before = None; w_after = Some [| v_int id; v_int qty |] }

let w_update id before after =
  {
    Record.w_table = "items";
    w_key = [ v_int id ];
    w_before = Some [| v_int id; v_int before |];
    w_after = Some [| v_int id; v_int after |];
  }

let w_delete id qty =
  { Record.w_table = "items"; w_key = [ v_int id ]; w_before = Some [| v_int id; v_int qty |]; w_after = None }

(* --- Log ---------------------------------------------------------------- *)

let test_log_append_get () =
  let log = Log.create () in
  let l0 = Log.append log (Record.Begin { txn = 1; txn_type = "t"; multi_step = false }) in
  let l1 = Log.append log (Record.Commit { txn = 1 }) in
  Alcotest.(check int) "lsn 0" 0 l0;
  Alcotest.(check int) "lsn 1" 1 l1;
  Alcotest.(check int) "length" 2 (Log.length log);
  (match Log.get log 1 with
  | Record.Commit { txn } -> Alcotest.(check int) "commit txn" 1 txn
  | _ -> Alcotest.fail "wrong record");
  Alcotest.(check int) "to_list" 2 (List.length (Log.to_list log))

let test_log_growth () =
  (* push past the initial capacity to exercise resizing *)
  let log = Log.create () in
  for i = 1 to 1000 do
    ignore (Log.append log (Record.Commit { txn = i }))
  done;
  Alcotest.(check int) "length" 1000 (Log.length log);
  match Log.get log 999 with
  | Record.Commit { txn } -> Alcotest.(check int) "last" 1000 txn
  | _ -> Alcotest.fail "wrong record"

let test_log_prefix () =
  let log = Log.create () in
  for i = 1 to 5 do
    ignore (Log.append log (Record.Commit { txn = i }))
  done;
  Alcotest.(check int) "prefix 3" 3 (List.length (Log.prefix log 3));
  Alcotest.(check int) "prefix over" 5 (List.length (Log.prefix log 99));
  Alcotest.(check int) "since 3" 2 (List.length (Log.appended_since log 3));
  Alcotest.(check int) "get oob" 5
    (try
       ignore (Log.get log 5);
       0
     with Invalid_argument _ -> 5)

let test_log_save_load () =
  let log = Log.create () in
  ignore (Log.append log (Record.Begin { txn = 1; txn_type = "t"; multi_step = true }));
  ignore (Log.append log (Record.Write { txn = 1; write = w_update 1 10 20; undo = false }));
  ignore
    (Log.append log (Record.Step_end { txn = 1; step_index = 1; area = [ ("k", v_int 3) ] }));
  ignore (Log.append log (Record.Commit { txn = 1 }));
  let path = Filename.temp_file "acc_log" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Log.save log path;
      let log' = Log.load path in
      Alcotest.(check int) "length survives" (Log.length log) (Log.length log');
      Alcotest.(check bool) "records survive" true (Log.to_list log = Log.to_list log'))

(* --- buffered appends and group commit (DESIGN.md §17) ------------------ *)

(* Buffered policy: appends stage invisibly in the domain buffer; sync makes
   them durable as one batch (one flush), in append order. *)
let test_log_buffered_sync () =
  let log = Log.create ~policy:(Log.Buffered { cap = 64 }) () in
  let l0 = Log.append log (Record.Begin { txn = 1; txn_type = "t"; multi_step = false }) in
  ignore (Log.append log (Record.Commit { txn = 1 }));
  Alcotest.(check int) "buffered append has no lsn" (-1) l0;
  Alcotest.(check int) "invisible before sync" 0 (Log.length log);
  Alcotest.(check int) "no flush yet" 0 (Log.flush_count log);
  Log.sync log;
  Alcotest.(check int) "batch landed" 2 (Log.length log);
  Alcotest.(check int) "one flush for the batch" 1 (Log.flush_count log);
  (match Log.to_list log with
  | [ Record.Begin _; Record.Commit _ ] -> ()
  | _ -> Alcotest.fail "append order lost in the batch");
  (* idle sync is free *)
  Log.sync log;
  Alcotest.(check int) "empty sync does not flush" 1 (Log.flush_count log)

(* A full buffer flushes itself: cap appends cost one flush, not cap. *)
let test_log_buffered_cap_overflow () =
  let cap = 8 in
  let log = Log.create ~policy:(Log.Buffered { cap }) () in
  for i = 1 to cap - 1 do
    ignore (Log.append log (Record.Commit { txn = i }))
  done;
  Alcotest.(check int) "under cap: still buffered" 0 (Log.length log);
  ignore (Log.append log (Record.Commit { txn = cap }));
  Alcotest.(check int) "cap overflow flushed the batch" cap (Log.length log);
  Alcotest.(check int) "one flush" 1 (Log.flush_count log)

(* flush_all drains every registered domain buffer on a quiesced log. *)
let test_log_flush_all () =
  let log = Log.create ~policy:(Log.Buffered { cap = 64 }) () in
  let domains =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            ignore (Log.append log (Record.Commit { txn = i + 1 }))))
  in
  Array.iter Domain.join domains;
  ignore (Log.append log (Record.Commit { txn = 99 }));
  Log.flush_all log;
  Alcotest.(check int) "every buffer drained" 4 (Log.length log);
  let txns =
    List.sort compare
      (List.filter_map
         (function Record.Commit { txn } -> Some txn | _ -> None)
         (Log.to_list log))
  in
  Alcotest.(check (list int)) "no record lost or duplicated" [ 1; 2; 3; 99 ] txns

(* Group commit under real concurrency: N domains each append-and-sync M
   times; every synced record must be in the log afterwards, and concurrent
   syncs must have merged (fewer flushes than syncs). *)
let test_log_group_commit_concurrent () =
  let log = Log.create ~policy:(Log.Buffered { cap = 1024 }) () in
  let domains = 4 and per = 200 in
  let workers =
    Array.init domains (fun i ->
        Domain.spawn (fun () ->
            for j = 1 to per do
              ignore (Log.append log (Record.Commit { txn = (i * per) + j }));
              Log.sync log
            done))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "every synced record durable" (domains * per) (Log.length log);
  let txns =
    List.sort compare
      (List.filter_map
         (function Record.Commit { txn } -> Some txn | _ -> None)
         (Log.to_list log))
  in
  Alcotest.(check (list int)) "no record lost or duplicated"
    (List.init (domains * per) (fun i -> i + 1))
    txns;
  Alcotest.(check bool) "flushes never exceed syncs" true
    (Log.flush_count log <= domains * per)

(* the header check must turn each corruption class into its own message,
   not a marshal crash *)
let test_log_load_rejects () =
  let with_file content f =
    let path = Filename.temp_file "acc_log" ".bin" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        content oc;
        close_out oc;
        f path)
  in
  let expect_failure label substring path =
    match Log.load path with
    | (_ : Log.t) -> Alcotest.failf "%s: load succeeded" label
    | exception Failure msg ->
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec scan i = i + ln <= lh && (String.sub hay i ln = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" label msg substring)
          true (contains msg substring)
  in
  (* a foreign file: wrong magic *)
  with_file (fun oc -> output_string oc "not a log at all")
    (expect_failure "foreign" "not a WAL file");
  (* shorter than the header *)
  with_file (fun oc -> output_string oc "ACC")
    (expect_failure "short" "not a WAL file");
  (* right magic, unreadable version *)
  with_file (fun oc -> output_string oc "ACCWAL\x00\x00")
    (expect_failure "truncated" "truncated");
  (* right magic, wrong version *)
  with_file (fun oc ->
      output_string oc "ACCWAL\x00\x00";
      output_binary_int oc 999)
    (expect_failure "version" "version 999");
  (* a version-1 log, whose work areas sat in separate records: refused *)
  with_file (fun oc ->
      output_string oc "ACCWAL\x00\x00";
      output_binary_int oc 1;
      output_string oc "garbage")
    (expect_failure "old version" "version 1, this build reads version 2");
  (* right header, corrupt payload *)
  with_file (fun oc ->
      output_string oc "ACCWAL\x00\x00";
      output_binary_int oc 2;
      output_string oc "garbage")
    (expect_failure "corrupt" "unreadable")

(* --- Record ------------------------------------------------------------- *)

let test_record_invert () =
  let w = w_update 1 10 20 in
  let inv = Record.invert w in
  Alcotest.(check bool) "before/after swapped" true
    (inv.Record.w_before = w.Record.w_after && inv.Record.w_after = w.Record.w_before);
  let ins = w_insert 5 1 in
  let inv_ins = Record.invert ins in
  Alcotest.(check bool) "insert inverts to delete" true
    (inv_ins.Record.w_before <> None && inv_ins.Record.w_after = None)

let test_record_txn_of () =
  Alcotest.(check int) "begin" 7 (Record.txn_of (Record.Begin { txn = 7; txn_type = "x"; multi_step = true }));
  Alcotest.(check int) "write" 8
    (Record.txn_of (Record.Write { txn = 8; write = w_insert 1 1; undo = false }));
  Alcotest.(check int) "step" 9
    (Record.txn_of (Record.Step_end { txn = 9; step_index = 1; area = [ ("k", v_int 1) ] }));
  Alcotest.(check int) "abort" 2 (Record.txn_of (Record.Abort { txn = 2 }))

(* --- apply_write -------------------------------------------------------- *)

let test_apply_write () =
  let db = fresh_db [ (1, 10) ] in
  Recovery.apply_write db (w_insert 2 5);
  Alcotest.(check int) "insert applied" 5 (qty db 2);
  Recovery.apply_write db (w_update 1 10 99);
  Alcotest.(check int) "update applied" 99 (qty db 1);
  Recovery.apply_write db (w_delete 2 5);
  Alcotest.(check bool) "delete applied" false (has db 2)

(* --- recovery scenarios -------------------------------------------------- *)

let begin_r ?(multi = false) txn = Record.Begin { txn; txn_type = "test"; multi_step = multi }
let write_r ?(undo = false) txn write = Record.Write { txn; write; undo }
let step_r ?(area = []) txn i = Record.Step_end { txn; step_index = i; area }
let commit_r txn = Record.Commit { txn }
let abort_r txn = Record.Abort { txn }

let test_recover_committed () =
  let baseline = fresh_db [ (1, 10) ] in
  let log =
    [ begin_r 1; write_r 1 (w_update 1 10 20); write_r 1 (w_insert 2 7); commit_r 1 ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "redone update" 20 (qty r.Recovery.db 1);
  Alcotest.(check int) "redone insert" 7 (qty r.Recovery.db 2);
  Alcotest.(check (list int)) "committed" [ 1 ] r.Recovery.committed;
  Alcotest.(check int) "no pending" 0 (List.length r.Recovery.pending);
  (* baseline untouched *)
  Alcotest.(check int) "baseline intact" 10 (qty baseline 1);
  Alcotest.(check bool) "baseline lacks insert" false (has baseline 2)

let test_recover_loser_mid_step () =
  (* flat transaction dies mid-flight: all its writes physically undone *)
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let log =
    [ begin_r 1; write_r 1 (w_update 1 10 0); write_r 1 (w_update 2 20 30); write_r 1 (w_delete 2 30) ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "item 1 restored" 10 (qty r.Recovery.db 1);
  Alcotest.(check int) "item 2 restored" 20 (qty r.Recovery.db 2);
  Alcotest.(check (list int)) "physically undone" [ 1 ] r.Recovery.physically_undone;
  Alcotest.(check int) "no pending" 0 (List.length r.Recovery.pending)

let test_recover_multistep_pending_compensation () =
  (* a multi-step txn finished step 1 (exposed), died during step 2: step 2's
     writes are physically undone; step 1 stands and compensation is pending *)
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let log =
    [
      begin_r ~multi:true 1;
      write_r 1 (w_update 1 10 11);
      (* the work area rides in the end-of-step record, as the executor
         writes it: the area is durable exactly when the step is complete *)
      step_r ~area:[ ("item", v_int 1) ] 1 1;
      write_r 1 (w_update 2 20 21);
    ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "step-1 write survives" 11 (qty r.Recovery.db 1);
  Alcotest.(check int) "step-2 write undone" 20 (qty r.Recovery.db 2);
  (match r.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "pending txn" 1 p.Recovery.p_txn;
      Alcotest.(check int) "completed steps" 1 p.Recovery.p_completed_steps;
      Alcotest.(check string) "txn type" "test" p.Recovery.p_txn_type;
      Alcotest.(check bool) "area recovered" true (p.Recovery.p_area = [ ("item", v_int 1) ])
  | _ -> Alcotest.fail "expected one pending compensation");
  Alcotest.(check int) "not physically undone" 0 (List.length r.Recovery.physically_undone)

let test_recover_multistep_before_first_boundary () =
  (* multi-step txn that never finished step 1: nothing exposed, physical undo *)
  let baseline = fresh_db [ (1, 10) ] in
  let log = [ begin_r ~multi:true 1; write_r 1 (w_update 1 10 11) ] in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "restored" 10 (qty r.Recovery.db 1);
  Alcotest.(check (list int)) "undone physically" [ 1 ] r.Recovery.physically_undone;
  Alcotest.(check int) "no pending" 0 (List.length r.Recovery.pending)

let test_recover_interrupted_rollback () =
  (* the crash hits while a step abort was already logging compensation
     records: recovery must finish the job without double-undoing *)
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let log =
    [
      begin_r 1;
      write_r 1 (w_update 1 10 11);
      write_r 1 (w_update 2 20 22);
      (* rollback in progress: newest write already undone and logged *)
      write_r ~undo:true 1 (Record.invert (w_update 2 20 22));
    ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "item 2 single undo" 20 (qty r.Recovery.db 2);
  Alcotest.(check int) "item 1 undone by recovery" 10 (qty r.Recovery.db 1)

let test_recover_aborted_txn_untouched () =
  (* an Abort record means rollback completed before the crash *)
  let baseline = fresh_db [ (1, 10) ] in
  let log =
    [
      begin_r 1;
      write_r 1 (w_update 1 10 11);
      write_r ~undo:true 1 (Record.invert (w_update 1 10 11));
      abort_r 1;
    ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "value restored by logged undo" 10 (qty r.Recovery.db 1);
  Alcotest.(check (list int)) "resolved" [ 1 ] r.Recovery.already_resolved;
  Alcotest.(check int) "no pending" 0 (List.length r.Recovery.pending)

let test_recover_mixed_txns () =
  let baseline = fresh_db [ (1, 10); (2, 20); (3, 30) ] in
  let log =
    [
      begin_r 1;
      begin_r ~multi:true 2;
      write_r 1 (w_update 1 10 100);
      write_r 2 (w_update 2 20 200);
      step_r 2 1;
      commit_r 1;
      begin_r 3;
      write_r 3 (w_update 3 30 300);
      write_r 2 (w_update 3 300 301);
      (* t3 still active, t2 in step 2 *)
    ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "t1 committed work" 100 (qty r.Recovery.db 1);
  Alcotest.(check int) "t2 step-1 survives" 200 (qty r.Recovery.db 2);
  (* t2's step-2 write on item 3 undone to 300; then t3's write undone to 30 *)
  Alcotest.(check int) "item 3 fully restored" 30 (qty r.Recovery.db 3);
  Alcotest.(check (list int)) "committed" [ 1 ] r.Recovery.committed;
  Alcotest.(check (list int)) "physical" [ 3 ] r.Recovery.physically_undone;
  Alcotest.(check int) "t2 pending" 1 (List.length r.Recovery.pending)

(* Crash injection: cut the log of a synthetic history at every prefix and
   verify that recovery always yields one of the legal states. *)
let test_area_staged_until_step_end () =
  (* step 2's area exists only in the executor until step 2's end-of-step
     record carries it: a crash before that record pairs the OLD area with
     the OLD completed-step count *)
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let log =
    [
      begin_r ~multi:true 1;
      write_r 1 (w_update 1 10 11);
      step_r ~area:[ ("v", v_int 1) ] 1 1;
      write_r 1 (w_update 2 20 21);
      (* crash here: step 2's end-of-step record never made it *)
    ]
  in
  let r = Recovery.recover ~baseline log in
  Alcotest.(check int) "step 2 write undone" 20 (qty r.Recovery.db 2);
  (match r.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "completed steps = 1" 1 p.Recovery.p_completed_steps;
      Alcotest.(check bool) "area is the step-1 area" true (p.Recovery.p_area = [ ("v", v_int 1) ])
  | _ -> Alcotest.fail "expected one pending");
  (* with the step-end present, the newer area binds *)
  let r2 = Recovery.recover ~baseline (log @ [ step_r ~area:[ ("v", v_int 2) ] 1 2 ]) in
  match r2.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "completed steps = 2" 2 p.Recovery.p_completed_steps;
      Alcotest.(check bool) "area is the step-2 area" true (p.Recovery.p_area = [ ("v", v_int 2) ])
  | _ -> Alcotest.fail "expected one pending"

let test_crash_at_every_prefix () =
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let full_log =
    [
      begin_r ~multi:true 1;
      write_r 1 (w_update 1 10 11);
      step_r 1 1;
      write_r 1 (w_update 2 20 21);
      step_r 1 2;
      commit_r 1;
    ]
  in
  for cut = 0 to List.length full_log do
    let log = List.filteri (fun i _ -> i < cut) full_log in
    let r = Recovery.recover ~baseline log in
    let q1 = qty r.Recovery.db 1 and q2 = qty r.Recovery.db 2 in
    (* legal states: nothing (10,20); step1 only (11,20); both (11,21) *)
    let legal =
      (q1 = 10 && q2 = 20) || (q1 = 11 && q2 = 20) || (q1 = 11 && q2 = 21)
    in
    Alcotest.(check bool) (Printf.sprintf "legal state at cut %d" cut) true legal;
    (* mid-step crash never leaves a torn step: q2=21 requires step 2 done *)
    if q2 = 21 then Alcotest.(check bool) "step 2 boundary passed" true (cut >= 5)
  done

(* --- checkpoints ---------------------------------------------------------- *)

let test_checkpoint_equivalence () =
  (* recovery from (checkpoint + suffix) = recovery from (baseline + full log) *)
  let baseline = fresh_db [ (1, 10); (2, 20) ] in
  let log = Log.create () in
  let db = Database.copy baseline in
  let apply r =
    ignore (Log.append log r);
    match r with Record.Write { write; _ } -> Recovery.apply_write db write | _ -> ()
  in
  List.iter apply [ begin_r 1; write_r 1 (w_update 1 10 11); commit_r 1 ];
  let cp = Checkpoint.take db log in
  Alcotest.(check int) "position" 3 (Checkpoint.position cp);
  List.iter apply
    [ begin_r ~multi:true 2; write_r 2 (w_update 2 20 21);
      step_r ~area:[ ("k", v_int 9) ] 2 1; write_r 2 (w_update 1 11 12) ];
  let from_cp = Checkpoint.recover cp log in
  let from_scratch = Recovery.recover ~baseline (Log.to_list log) in
  Alcotest.(check int) "same item 1" (qty from_scratch.Recovery.db 1) (qty from_cp.Recovery.db 1);
  Alcotest.(check int) "same item 2" (qty from_scratch.Recovery.db 2) (qty from_cp.Recovery.db 2);
  Alcotest.(check int) "same pending count" (List.length from_scratch.Recovery.pending)
    (List.length from_cp.Recovery.pending);
  (match from_cp.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "pending steps" 1 p.Recovery.p_completed_steps;
      Alcotest.(check bool) "area survived" true (p.Recovery.p_area = [ ("k", v_int 9) ])
  | _ -> Alcotest.fail "expected one pending");
  (* the snapshot is isolated from later mutation *)
  Recovery.apply_write db (w_update 2 21 99);
  Alcotest.(check int) "snapshot isolated" 20
    (qty (Checkpoint.snapshot cp) 2)

(* A logical compensating step logs its writes as compensation records
   (undo = true) and no end-of-step record: its Abort record is its commit
   point.  Every Step_end in the log therefore belongs to a forward step.
   A compensation whose writes are all durable but whose Abort is not is
   rewound like any partial step and stays pending; with the Abort, it
   stands. *)
let test_recover_comp_step_end_commits () =
  let records =
    [
      begin_r ~multi:true 1;
      write_r 1 (w_update 1 10 20);
      step_r ~area:[ ("k", v_int 1) ] 1 1;
      (* compensating step: reverses the completed step, logs no step-end *)
      write_r ~undo:true 1 (w_update 1 20 10);
      (* crash before the Abort record *)
    ]
  in
  let baseline = fresh_db [ (1, 10) ] in
  let r = Recovery.recover ~baseline records in
  Alcotest.(check int) "uncommitted compensation rewound" 20 (qty r.Recovery.db 1);
  Alcotest.(check (list int)) "not resolved" [] r.Recovery.already_resolved;
  (match r.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "pending after the forward step only" 1
        p.Recovery.p_completed_steps;
      Alcotest.(check bool) "forward step's area" true (p.Recovery.p_area = [ ("k", v_int 1) ])
  | l -> Alcotest.fail (Printf.sprintf "expected 1 pending, got %d" (List.length l)));
  let r' = Recovery.recover ~baseline (records @ [ abort_r 1 ]) in
  Alcotest.(check int) "committed compensation kept" 10 (qty r'.Recovery.db 1);
  Alcotest.(check (list int)) "the Abort resolves it" [ 1 ] r'.Recovery.already_resolved;
  Alcotest.(check int) "no pending" 0 (List.length r'.Recovery.pending)

(* Likewise a compensating step cut off mid-way: its partial writes are
   physically rewound and the transaction stays pending, so replay restarts
   the compensating step from a clean post-last-step state. *)
let test_recover_comp_partial_rewound () =
  let records =
    [
      begin_r ~multi:true 1;
      write_r 1 (w_update 1 10 20);
      write_r 1 (w_update 2 5 6);
      step_r ~area:[ ("k", v_int 1) ] 1 1;
      (* compensation in progress: one of two reversals logged, then crash *)
      write_r ~undo:true 1 (w_update 2 6 5);
    ]
  in
  let r = Recovery.recover ~baseline:(fresh_db [ (1, 10); (2, 5) ]) records in
  Alcotest.(check int) "partial comp write rewound" 6 (qty r.Recovery.db 2);
  Alcotest.(check int) "completed step untouched" 20 (qty r.Recovery.db 1);
  match r.Recovery.pending with
  | [ p ] ->
      Alcotest.(check int) "pending after step 1" 1 p.Recovery.p_completed_steps;
      Alcotest.(check bool) "area carried" true (p.Recovery.p_area = [ ("k", v_int 1) ])
  | l -> Alcotest.fail (Printf.sprintf "expected 1 pending, got %d" (List.length l))

let test_checkpoint_save_load () =
  let db = fresh_db [ (1, 10); (2, 20) ] in
  Table.add_index (Database.table db "items") ~name:"by_qty" [ "qty" ];
  let log = Log.create () in
  ignore (Log.append log (begin_r 1));
  ignore (Log.append log (write_r 1 (w_update 1 10 11)));
  Recovery.apply_write db (w_update 1 10 11);
  ignore (Log.append log (commit_r 1));
  let cp = Checkpoint.take db log in
  let path = Filename.temp_file "acc_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save cp path;
      let cp' = Checkpoint.load path in
      Alcotest.(check int) "position survives" (Checkpoint.position cp) (Checkpoint.position cp');
      Alcotest.(check bool) "snapshot survives" true
        (Database.equal (Checkpoint.snapshot cp) (Checkpoint.snapshot cp'));
      Alcotest.(check bool) "indexes rebuilt" true
        (Table.index_specs (Database.table (Checkpoint.snapshot cp') "items")
        = [ ("by_qty", [ "qty" ]) ]))

let test_checkpoint_manager () =
  let module M = Checkpoint.Manager in
  let baseline = fresh_db [ (1, 10) ] in
  let db = Database.copy baseline in
  let log = Log.create () in
  let mgr = M.create ~every:3 () in
  Alcotest.(check bool) "nothing due on empty log" false (M.maybe_take mgr db log);
  let run_txn txn before after =
    ignore (Log.append log (begin_r txn));
    ignore (Log.append log (write_r txn (w_update 1 before after)));
    Recovery.apply_write db (w_update 1 before after);
    ignore (Log.append log (commit_r txn))
  in
  run_txn 1 10 11;
  Alcotest.(check bool) "due after [every] records" true (M.maybe_take mgr db log);
  (match M.latest mgr with
  | Some c -> Alcotest.(check int) "position at log end" 3 (Checkpoint.position c)
  | None -> Alcotest.fail "no checkpoint installed");
  run_txn 2 11 12;
  run_txn 3 12 13;
  (* recovery from the checkpoint + suffix agrees with the full log *)
  let via_mgr = M.recover mgr ~baseline log in
  let via_full = Recovery.recover ~baseline (Log.to_list log) in
  Alcotest.(check bool) "manager = full recovery" true
    (Database.equal via_mgr.Recovery.db via_full.Recovery.db);
  (* the suffix only mentions transactions begun after the checkpoint *)
  Alcotest.(check (list int)) "suffix commits" [ 2; 3 ] via_mgr.Recovery.committed;
  (* a manager with no checkpoint falls back to the whole log *)
  let empty = M.create ~every:3 () in
  let via_empty = M.recover empty ~baseline log in
  Alcotest.(check bool) "fallback = full recovery" true
    (Database.equal via_empty.Recovery.db via_full.Recovery.db)

let test_checkpoint_engine_guard () =
  let module Executor = Acc_txn.Executor in
  let db = fresh_db [ (1, 10) ] in
  let eng = Executor.create ~sem:Acc_lock.Mode.no_semantics db in
  Alcotest.(check int) "idle" 0 (Executor.active_txns eng);
  let ctx = Executor.begin_txn eng ~txn_type:"t" ~multi_step:false in
  Alcotest.(check int) "one active" 1 (Executor.active_txns eng);
  Alcotest.(check bool) "checkpoint refused while active" true
    (try
       ignore (Executor.checkpoint eng);
       false
     with Invalid_argument _ -> true);
  Executor.abort_physical ctx;
  Alcotest.(check int) "idle again" 0 (Executor.active_txns eng);
  let cp = Executor.checkpoint eng in
  Alcotest.(check bool) "position at log end" true
    (Checkpoint.position cp = Log.length (Executor.log eng))

let suites =
  [
    ( "wal.log",
      [
        Alcotest.test_case "append/get" `Quick test_log_append_get;
        Alcotest.test_case "growth" `Quick test_log_growth;
        Alcotest.test_case "prefix/since" `Quick test_log_prefix;
        Alcotest.test_case "save/load" `Quick test_log_save_load;
        Alcotest.test_case "load rejects foreign/corrupt files" `Quick test_log_load_rejects;
        Alcotest.test_case "buffered: invisible until sync, one flush" `Quick
          test_log_buffered_sync;
        Alcotest.test_case "buffered: cap overflow self-flushes" `Quick
          test_log_buffered_cap_overflow;
        Alcotest.test_case "buffered: flush_all drains every domain" `Quick
          test_log_flush_all;
        Alcotest.test_case "group commit: 4 domains, nothing lost, syncs merge" `Quick
          test_log_group_commit_concurrent;
      ] );
    ( "wal.record",
      [
        Alcotest.test_case "invert" `Quick test_record_invert;
        Alcotest.test_case "txn_of" `Quick test_record_txn_of;
      ] );
    ( "wal.recovery",
      [
        Alcotest.test_case "apply_write" `Quick test_apply_write;
        Alcotest.test_case "committed redone" `Quick test_recover_committed;
        Alcotest.test_case "loser mid-step undone" `Quick test_recover_loser_mid_step;
        Alcotest.test_case "multi-step pending compensation" `Quick
          test_recover_multistep_pending_compensation;
        Alcotest.test_case "multi-step before first boundary" `Quick
          test_recover_multistep_before_first_boundary;
        Alcotest.test_case "interrupted rollback" `Quick test_recover_interrupted_rollback;
        Alcotest.test_case "aborted txn untouched" `Quick test_recover_aborted_txn_untouched;
        Alcotest.test_case "mixed transactions" `Quick test_recover_mixed_txns;
        Alcotest.test_case "work area staged until step end" `Quick
          test_area_staged_until_step_end;
        Alcotest.test_case "crash at every prefix" `Quick test_crash_at_every_prefix;
        Alcotest.test_case "comp step-end commit point is the Abort record" `Quick
          test_recover_comp_step_end_commits;
        Alcotest.test_case "partial compensation rewound" `Quick
          test_recover_comp_partial_rewound;
      ] );
    ( "wal.checkpoint",
      [
        Alcotest.test_case "checkpoint+suffix = full recovery" `Quick
          test_checkpoint_equivalence;
        Alcotest.test_case "save/load roundtrip" `Quick test_checkpoint_save_load;
        Alcotest.test_case "manager cadence + recovery" `Quick test_checkpoint_manager;
        Alcotest.test_case "engine guard" `Quick test_checkpoint_engine_guard;
      ] );
  ]
