(* Tests for acc.parallel: decision parity of the sharded lock table with the
   sequential one, real-domain blocking and victimization, metrics merging,
   and a multi-domain TPC-C stress run. *)

open Acc_lock
module Sharded = Acc_parallel.Sharded_lock_table
module Detector = Acc_parallel.Deadlock_detector
module Domain_pool = Acc_parallel.Domain_pool
module Txn_effect = Acc_txn.Txn_effect
module Metrics = Acc_util.Metrics
module Tally = Acc_util.Stats.Tally
module Value = Acc_relation.Value

(* --- parity: sharded vs sequential, same decisions --------------------- *)

(* The oracle of test_lock: step 10 interferes with assertion 100; prefix
   behind 200 interferes with 100. *)
let parity_sem =
  Mode.
    {
      step_interferes = (fun ~step_type ~assertion -> step_type = 10 && assertion = 100);
      prefix_interferes =
        (fun ~holder_assertion ~assertion -> holder_assertion = 200 && assertion = 100);
    }

let parity_resources =
  let tuple t k = Resource_id.Tuple (t, [ Value.Int k ]) in
  [|
    Resource_id.Table "t"; tuple "t" 1; tuple "t" 2;
    Resource_id.Table "u"; tuple "u" 1; tuple "u" 2;
    Resource_id.Table "v"; tuple "v" 1; tuple "v" 2;
  |]

let parity_modes = [| Mode.S; Mode.X; Mode.IS; Mode.IX; Mode.A 100; Mode.A 200; Mode.Comp 10 |]

(* attaches carry the assertional modes only, as the protocol does *)
let attach_modes = [| Mode.A 100; Mode.A 200; Mode.Comp 10 |]

type pop =
  | PReq of { txn : int; step : int; adm : bool; comp : bool; mode : int; res : int }
  | PAttach of { txn : int; step : int; mode : int; res : int }
  | PRel_where of { txn : int; res : int }
  | PRel_step of int
  | PRel_all of int
  | PCancel of int

(* Requests, attaches and step-boundary releases (which keep A/Comp)
   outweigh the releases that drop A/Comp, so assertional holds outlive many
   requests — as ACC's do, from attach to commit. *)
let pop_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (txn, step, adm, comp, mode, res) -> PReq { txn; step; adm; comp; mode; res })
            (tup6 (int_range 1 4) (oneofl [ 0; 10; 11 ]) bool bool (int_range 0 6)
               (int_range 0 8)) );
        ( 3,
          map
            (fun (txn, step, mode, res) -> PAttach { txn; step; mode; res })
            (quad (int_range 1 4) (oneofl [ 0; 10; 11 ]) (int_range 0 2) (int_range 0 8)) );
        (1, map2 (fun txn res -> PRel_where { txn; res }) (int_range 1 4) (int_range 0 8));
        (3, map (fun txn -> PRel_step txn) (int_range 1 4));
        (1, map (fun txn -> PRel_all txn) (int_range 1 4));
        (1, map (fun txn -> PCancel txn) (int_range 1 4));
      ])

let show_pop = function
  | PReq { txn; step; adm; comp; mode; res } ->
      Format.asprintf "req(T%d step%d%s%s %a %a)" txn step
        (if adm then " adm" else "")
        (if comp then " comp" else "")
        Mode.pp parity_modes.(mode) Resource_id.pp parity_resources.(res)
  | PAttach { txn; step; mode; res } ->
      Format.asprintf "attach(T%d step%d %a %a)" txn step Mode.pp attach_modes.(mode)
        Resource_id.pp parity_resources.(res)
  | PRel_where { txn; res } ->
      Format.asprintf "release_where(T%d %a)" txn Resource_id.pp parity_resources.(res)
  | PRel_step txn -> Printf.sprintf "release_step(T%d)" txn
  | PRel_all txn -> Printf.sprintf "release_all(T%d)" txn
  | PCancel txn -> Printf.sprintf "cancel(T%d)" txn

let woken_txns wakeups =
  List.sort compare (List.map (fun w -> w.Lock_table.woken_txn) wakeups)

let sorted_held tbl_held = List.sort compare tbl_held

(* Run [f] while another domain loops over the read-only walks the
   engine's tick and the deadlock detector make.  They share the shard mutexes
   with [f]'s slow sections but must never change a decision. *)
let with_walker sha f =
  let stop = Atomic.make false in
  let walker =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Sharded.waiter_count sha);
          ignore (Sharded.lock_count sha);
          for txn = 1 to 4 do
            ignore (Sharded.held_by sha ~txn)
          done;
          ignore (Sharded.wait_edges sha)
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join walker)
    f

(* Drive the same single-threaded op sequence through a sequential table and
   a sharded one and require identical decisions at every point: grant vs
   queue, who wakes on each release, and identical final holds, waits-for
   edges and counts.  (Ticket numbers differ by construction; they are never
   compared.)  Waiting is one-request-per-transaction, as the blocking engine
   guarantees.  With the fast path on, requests and attaches take it
   whenever their resource's gate is open, so the decisions compared include
   the lock-free ones and the releases cover the fast-bucket sweep;
   [PRel_step] is the step-boundary release, which drops the conventional
   modes and keeps A/Comp.  A second domain walks the table read-only all
   the while. *)
let prop_parity =
  QCheck2.Test.make ~name:"sharded table: decision parity with sequential" ~count:200
    ~print:(fun (shards, fast, ops) ->
      Printf.sprintf "shards=%d fast=%b [%s]" shards fast
        (String.concat "; " (List.map show_pop ops)))
    QCheck2.Gen.(
      triple (oneofl [ 1; 2; 4; 7 ]) bool (list_size (int_range 0 80) pop_gen))
    (fun (shards, fast, ops) ->
      let seq = Lock_table.create parity_sem in
      let sha = Sharded.create ~shards ~fast parity_sem in
      with_walker sha @@ fun () ->
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | PReq { txn; step; adm; comp; mode; res } ->
                if Lock_table.outstanding_tickets seq ~txn = [] then begin
                  let mode = parity_modes.(mode) and res = parity_resources.(res) in
                  let r =
                    Lock_request.make ~txn ~step_type:step ~admission:adm
                      ~compensating:comp mode res
                  in
                  let g1 = Lock_table.submit seq r in
                  let g2 = Sharded.submit sha r in
                  check
                    (match (g1, g2) with
                    | Lock_table.Granted, Lock_table.Granted -> true
                    | Lock_table.Queued _, Lock_table.Queued _ -> true
                    | _ -> false)
                end
            | PAttach { txn; step; mode; res } ->
                if Lock_table.outstanding_tickets seq ~txn = [] then begin
                  let r =
                    Lock_request.make ~txn ~step_type:step attach_modes.(mode)
                      parity_resources.(res)
                  in
                  Lock_table.attach_req seq r;
                  Sharded.attach_req sha r
                end
            | PRel_step txn ->
                let pred _ m = Mode.conventional m in
                let w1 = Lock_table.release_where seq ~txn pred in
                let w2 = Sharded.release_where sha ~txn pred in
                check (woken_txns w1 = woken_txns w2)
            | PRel_where { txn; res } ->
                let target = parity_resources.(res) in
                let pred r _ = Resource_id.equal r target in
                let w1 = Lock_table.release_where seq ~txn pred in
                let w2 = Sharded.release_where sha ~txn pred in
                check (woken_txns w1 = woken_txns w2)
            | PRel_all txn ->
                let w1 = Lock_table.release_all seq ~txn in
                let w2 = Sharded.release_all sha ~txn in
                check (woken_txns w1 = woken_txns w2)
            | PCancel txn ->
                let w1 =
                  List.concat_map
                    (fun ticket -> Lock_table.cancel seq ~ticket)
                    (Lock_table.outstanding_tickets seq ~txn)
                in
                let w2 =
                  List.concat_map
                    (fun ticket -> Sharded.cancel sha ~ticket)
                    (Sharded.outstanding_tickets sha ~txn)
                in
                check (woken_txns w1 = woken_txns w2))
        ops;
      (* end-state equivalence *)
      for txn = 1 to 4 do
        check
          (sorted_held (Lock_table.held_by seq ~txn) = sorted_held (Sharded.held_by sha ~txn));
        check
          (Lock_table.compensating_waiter seq ~txn = Sharded.compensating_waiter sha ~txn)
      done;
      check
        (List.sort compare (Lock_table.wait_edges seq)
        = List.sort compare (Sharded.wait_edges sha));
      check (Lock_table.lock_count seq = Sharded.lock_count sha);
      check (Lock_table.waiter_count seq = Sharded.waiter_count sha);
      check (Lock_table.entry_count seq = Sharded.entry_count sha);
      !ok)

(* --- lock-free fast path (DESIGN.md §17) -------------------------------- *)

(* Compatible installers racing on one resource: both CAS into the same fast
   bucket, in whichever order the race lands, and both holds must be present
   afterwards.  Repeated so both interleavings (and the CAS-failure retry)
   actually occur. *)
let test_fast_racing_compatible_installs () =
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  let r = Resource_id.Tuple ("t", [ Value.Int 1 ]) in
  for _ = 1 to 400 do
    ignore
      (Domain_pool.run ~domains:2 (fun i ->
           Sharded.acquire_req t (Lock_request.make ~txn:(i + 1) ~step_type:0 Mode.S r)));
    let holders = List.sort compare (List.map (fun (txn, _, _) -> txn) (Sharded.holders t r)) in
    if holders <> [ 1; 2 ] then
      Alcotest.failf "racing compatible installs lost a hold: [%s]"
        (String.concat ";" (List.map string_of_int holders));
    ignore (Sharded.release_all t ~txn:1);
    ignore (Sharded.release_all t ~txn:2)
  done;
  Alcotest.(check int) "no residue" 0 (Sharded.lock_count t);
  Alcotest.(check bool) "fast path actually exercised" true (Sharded.fast_hits t > 0)

(* Conflicting installers racing on one resource: exactly one side's CAS can
   install; the loser must land in the slow path's queue, never as a second
   incompatible hold.  Both submit orders occur across iterations. *)
let test_fast_racing_conflicting_installs () =
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  let r = Resource_id.Tuple ("t", [ Value.Int 1 ]) in
  for _ = 1 to 400 do
    let grants =
      Domain_pool.run ~domains:2 (fun i ->
          match Sharded.submit t (Lock_request.make ~txn:(i + 1) ~step_type:0 Mode.X r) with
          | Lock_table.Granted -> `Granted (i + 1)
          | Lock_table.Queued ticket -> `Queued ticket)
    in
    let granted = List.filter_map (function `Granted t -> Some t | _ -> None) grants in
    let queued = List.filter_map (function `Queued k -> Some k | _ -> None) grants in
    Alcotest.(check int) "exactly one grant" 1 (List.length granted);
    Alcotest.(check int) "the loser queued" 1 (List.length queued);
    List.iter (fun ticket -> ignore (Sharded.cancel t ~ticket)) queued;
    ignore (Sharded.release_all t ~txn:1);
    ignore (Sharded.release_all t ~txn:2)
  done;
  Alcotest.(check int) "no residue locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no residue waiters" 0 (Sharded.waiter_count t)

(* Deadline expiry racing fast-path traffic on the same shard: the sweep must
   still find (and time out) the queued waiter while another transaction
   hammers the fast surface, and nothing leaks afterwards. *)
let test_fast_expiry_race () =
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  let r1 = Resource_id.Tuple ("t", [ Value.Int 1 ]) in
  let r2 = Resource_id.Tuple ("t", [ Value.Int 2 ]) in
  (* txn 1's hold lands in a fast bucket; txn 2's conflicting wait migrates it
     into the table *)
  Sharded.acquire_req t (Lock_request.make ~txn:1 ~step_type:0 Mode.X r1);
  let d =
    Domain.spawn (fun () ->
        match
          Sharded.acquire_req t
            (Lock_request.make ~txn:2 ~step_type:0
               ~deadline:(Unix.gettimeofday () +. 0.05) Mode.X r1)
        with
        | () ->
            ignore (Sharded.release_all t ~txn:2);
            `Granted
        | exception Txn_effect.Lock_timeout ->
            ignore (Sharded.release_all t ~txn:2);
            `Timed_out)
  in
  let sweeps = ref 0 in
  while Sharded.timeout_count t = 0 && !sweeps < 5000 do
    incr sweeps;
    (* concurrent fast acquire/release traffic on the waiter's own shard *)
    Sharded.acquire_req t (Lock_request.make ~txn:3 ~step_type:0 Mode.S r2);
    ignore (Sharded.release t ~txn:3 Mode.S r2);
    Unix.sleepf 0.002;
    ignore (Sharded.expire t ~now:(Unix.gettimeofday ()))
  done;
  (match Domain.join d with
  | `Timed_out -> ()
  | `Granted -> Alcotest.fail "expected the racing wait to expire");
  Alcotest.(check int) "one timeout" 1 (Sharded.timeout_count t);
  ignore (Sharded.release_all t ~txn:1);
  Alcotest.(check int) "no residue locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no residue waiters" 0 (Sharded.waiter_count t)

(* A fast install rolled back after a slow section already migrated it into
   the lock table (the second branch of [retreat]) must publish the wakeups
   of its own release.  The waiter that release promotes is the one that
   queued behind the phantom hold; dropping its wakeup leaves it granted in
   the table but asleep forever, and the retreating transaction's slow retry
   then queues behind it.  This is the wedge of the 2-domain 2PL longreader
   run (a table-S audit queued behind a writer's rolled-back IX on
   [ledger]), reduced to its two lock calls: one domain fast-installs and
   releases IX on the table while the other takes S on it through the mutex
   path.  The race is timing-dependent, so the pair loops for a fixed
   budget; the main domain fails the test on a no-progress deadline instead
   of hanging (wedged domains cannot be joined and are left blocked). *)
let test_fast_retreat_wakes_waiter () =
  let budget = 10.0 and stall = 5.0 in
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  let ledger = Resource_id.Table "ledger" in
  let stop = Atomic.make false in
  let rounds = Atomic.make 0 in
  let client txn mode =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Sharded.acquire_req t (Lock_request.make ~txn ~step_type:0 mode ledger);
          ignore (Sharded.release_all t ~txn);
          Atomic.incr rounds
        done)
  in
  let writer = client 1 Mode.IX and reader = client 2 Mode.S in
  let started = Unix.gettimeofday () in
  let rec watch seen progressed =
    Unix.sleepf 0.05;
    let now = Unix.gettimeofday () and n = Atomic.get rounds in
    if n <> seen then (if now -. started < budget then watch n now)
    else if now -. progressed > stall then begin
      Format.eprintf "wedged lock state:@.%a" Sharded.pp_state t;
      Alcotest.failf "no lock round finished for %.0f s after %d rounds" stall n
    end
    else watch seen progressed
  in
  watch 0 started;
  Atomic.set stop true;
  Domain.join writer;
  Domain.join reader;
  Alcotest.(check int) "no residue locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no residue waiters" 0 (Sharded.waiter_count t)

let fast_counts t = (Sharded.fast_attempts t, Sharded.fast_hits t)

(* The fast gate is per resource: a table entry on one table leaves the fast
   path open for the tuples of another table in the same shard.  Table "u"
   and table "t" hash to different buckets, so txn 1's table S on "u" (a
   mode that always lives in the lock table) closes the gate only for the
   tuples of "t" that share its bucket. *)
let test_fast_gate_per_resource () =
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  Sharded.acquire_req t (Lock_request.make ~txn:1 Mode.S (Resource_id.Table "u"));
  let a0, h0 = fast_counts t in
  for k = 1 to 200 do
    let r = Resource_id.Tuple ("t", [ Value.Int k ]) in
    Sharded.acquire_req t (Lock_request.make ~txn:2 Mode.X r);
    ignore (Sharded.release t ~txn:2 Mode.X r)
  done;
  let a1, h1 = fast_counts t in
  Alcotest.(check int) "every round tried the fast path" 200 (a1 - a0);
  if h1 - h0 < 180 then
    Alcotest.failf "%d of 200 rounds hit the fast path next to another table's entry" (h1 - h0);
  ignore (Sharded.release_all t ~txn:1);
  Alcotest.(check int) "no residue" 0 (Sharded.lock_count t)

(* Fast buckets are shared: 200 tuples of one table in one shard's 64
   buckets all take the fast path, and each one counts as its own entry. *)
let test_fast_shared_buckets () =
  let t = Sharded.create ~shards:1 Mode.no_semantics in
  for k = 1 to 200 do
    Sharded.acquire_req t
      (Lock_request.make ~txn:1 Mode.X (Resource_id.Tuple ("t", [ Value.Int k ])))
  done;
  Alcotest.(check int) "every install hit" 200 (Sharded.fast_hits t);
  Alcotest.(check int) "200 holds" 200 (Sharded.lock_count t);
  Alcotest.(check int) "200 entries" 200 (Sharded.entry_count t);
  Alcotest.(check int) "no mutex taken" 0 (Sharded.mutex_acquisitions t);
  ignore (Sharded.release_all t ~txn:1);
  Alcotest.(check int) "no residue" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no entries" 0 (Sharded.entry_count t)

(* The engine tick's walks leave a long-lived assertional hold on the fast
   path.  A foreign A 100 sits on a tuple while a second domain calls
   [waiter_count], [lock_count], [wait_edges] and [expire] every
   millisecond, and X rounds on the tuple from step 11 (which does not
   interfere with 100) run for a fixed time.  The shard's table is never
   empty meanwhile: txn 3's table S on "u" always lives there, so [expire]
   visits the shard on every tick, with nothing overdue.  If a walk bumped
   the seqlock, a racing install would retreat and its slow retry would move
   the A hold into the table for good, shutting the fast path until the
   hold's release. *)
let test_fast_readonly_walks_no_retreat () =
  let t = Sharded.create ~shards:1 parity_sem in
  let r = Resource_id.Tuple ("t", [ Value.Int 1 ]) in
  Sharded.acquire_req t (Lock_request.make ~txn:3 ~step_type:0 Mode.S (Resource_id.Table "u"));
  Sharded.attach_req t (Lock_request.make ~txn:1 ~step_type:0 (Mode.A 100) r);
  let stop = Atomic.make false in
  let walker =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Sharded.waiter_count t);
          ignore (Sharded.lock_count t);
          ignore (Sharded.wait_edges t);
          ignore (Sharded.expire t ~now:(Unix.gettimeofday ()));
          Unix.sleepf 0.001
        done)
  in
  let a0, h0 = fast_counts t in
  let until = Unix.gettimeofday () +. 0.5 in
  while Unix.gettimeofday () < until do
    Sharded.acquire_req t (Lock_request.make ~txn:2 ~step_type:11 Mode.X r);
    ignore (Sharded.release t ~txn:2 Mode.X r)
  done;
  Atomic.set stop true;
  Domain.join walker;
  let a1, h1 = fast_counts t in
  let attempts = a1 - a0 and hits = h1 - h0 in
  if float_of_int hits < 0.99 *. float_of_int attempts then
    Alcotest.failf "%d of %d X rounds past the A hold hit the fast path" hits attempts;
  ignore (Sharded.release_all t ~txn:1);
  ignore (Sharded.release_all t ~txn:3);
  Alcotest.(check int) "no residue" 0 (Sharded.lock_count t)

(* Group commit's durability contract through the executor: arm the
   [wal.flush] batch-boundary crash point and commit transactions until it
   fires.  Every commit that was acknowledged before the crash must have its
   Commit record in the flushed log; the transaction whose sync crashed lost
   its whole batch — including its own, never-acknowledged commit. *)
let test_group_commit_crash_loses_no_acked_commit () =
  let module Executor = Acc_txn.Executor in
  let module Fault = Acc_fault.Fault in
  let module Log = Acc_wal.Log in
  let module Record = Acc_wal.Record in
  let db = Acc_relation.Database.create () in
  let tbl =
    Acc_relation.Database.create_table db
      (Acc_relation.Schema.make ~name:"t" ~key:[ "id" ]
         [ Acc_relation.Schema.col "id" Value.Tint; Acc_relation.Schema.col "v" Value.Tint ])
  in
  ignore (Acc_relation.Table.insert tbl [| Value.Int 1; Value.Int 0 |]);
  let locks = Sharded.create ~shards:1 Mode.no_semantics in
  let eng =
    Executor.create_with
      ~wal_policy:(Log.Buffered { cap = 64 })
      ~service:(Sharded.service locks) db
  in
  Fun.protect ~finally:Fault.disarm (fun () ->
      (* each commit syncs one non-empty batch, so hit 3 crashes txn 3's sync *)
      Fault.arm ~point:"wal.flush" ~hit:3;
      let acked = ref [] in
      (try
         for i = 1 to 10 do
           let ctx = Executor.begin_txn eng ~txn_type:"bump" ~multi_step:false in
           ignore
             (Executor.update ctx "t" [ Value.Int 1 ] (fun row ->
                  row.(1) <- Value.Int (Value.as_int row.(1) + 1);
                  row));
           Executor.commit ctx;
           acked := i :: !acked
         done;
         Alcotest.fail "armed crash point never fired"
       with Fault.Crash _ -> ());
      Alcotest.(check (list int)) "two commits acked before the crash" [ 2; 1 ] !acked;
      (* executor txn ids are internal, so compare counts: one durable Commit
         record per acked commit, and none from the crashed batch *)
      let durable_commits =
        List.length
          (List.filter
             (function Record.Commit _ -> true | _ -> false)
             (Log.to_list (Executor.log eng)))
      in
      Alcotest.(check int) "durable commits = acked commits, crashed batch lost whole"
        (List.length !acked) durable_commits)

(* --- real-domain blocking ---------------------------------------------- *)

let res_k = Resource_id.Tuple ("t", [ Value.Int 1 ])

let test_blocking_handoff () =
  let t = Sharded.create ~shards:4 Mode.no_semantics in
  Sharded.acquire_req t (Lock_request.make ~txn:1 ~step_type:0 Mode.X res_k);
  let acquired = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Sharded.acquire_req t (Lock_request.make ~txn:2 ~step_type:0 Mode.X res_k);
        Atomic.set acquired true;
        ignore (Sharded.release_all t ~txn:2))
  in
  (* give the waiter time to block, then verify it actually did *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "waiter blocked" false (Atomic.get acquired);
  Alcotest.(check int) "one waiter" 1 (Sharded.waiter_count t);
  ignore (Sharded.release_all t ~txn:1);
  Domain.join d;
  Alcotest.(check bool) "waiter ran after release" true (Atomic.get acquired);
  Alcotest.(check int) "no leaked locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no leaked waiters" 0 (Sharded.waiter_count t)

(* Two domains close an X/X cycle across two resources; the detector sweep
   must break it by victimizing exactly one side, and the survivor must then
   complete. *)
let test_deadlock_kill () =
  let t = Sharded.create ~shards:4 Mode.no_semantics in
  let a = Resource_id.Tuple ("t", [ Value.Int 1 ])
  and b = Resource_id.Tuple ("u", [ Value.Int 1 ]) in
  let holding = Atomic.make 0 in
  let worker (txn, first, second) =
    Sharded.acquire_req t (Lock_request.make ~txn ~step_type:0 Mode.X first);
    Atomic.incr holding;
    (* wait for the other side to hold its first lock before crossing *)
    while Atomic.get holding < 2 do
      Domain.cpu_relax ()
    done;
    match
      Sharded.acquire_req t (Lock_request.make ~txn ~step_type:0 Mode.X second)
    with
    | () ->
        ignore (Sharded.release_all t ~txn);
        `Done
    | exception Txn_effect.Deadlock_victim ->
        ignore (Sharded.release_all t ~txn);
        `Victim
  in
  let killer =
    Domain.spawn (fun () ->
        (* sweep until the cycle is visible and broken (bounded) *)
        let victims = ref 0 in
        let attempts = ref 0 in
        while !victims = 0 && !attempts < 2000 do
          incr attempts;
          Unix.sleepf 0.002;
          victims := !victims + Detector.sweep t
        done;
        !victims)
  in
  let outcomes = Domain_pool.run ~domains:2 (fun i ->
      worker (if i = 0 then (1, a, b) else (2, b, a))) in
  let victims = Domain.join killer in
  Alcotest.(check int) "one wait victimized" 1 victims;
  Alcotest.(check int) "exactly one Victim outcome" 1
    (List.length (List.filter (fun o -> o = `Victim) outcomes));
  Alcotest.(check int) "the other side completed" 1
    (List.length (List.filter (fun o -> o = `Done) outcomes));
  Alcotest.(check int) "no leaked locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no leaked waiters" 0 (Sharded.waiter_count t)

(* §3.4: a compensating waiter is never the victim — the transactions
   delaying it are. *)
let test_victim_policy_spares_compensation () =
  let t = Sharded.create ~shards:4 Mode.no_semantics in
  let a = Resource_id.Tuple ("t", [ Value.Int 1 ])
  and b = Resource_id.Tuple ("u", [ Value.Int 1 ]) in
  (* txn 1 (compensating) holds a, waits for b; txn 2 holds b, waits for a *)
  Sharded.acquire_req t (Lock_request.make ~txn:1 ~step_type:0 Mode.X a);
  Sharded.acquire_req t (Lock_request.make ~txn:2 ~step_type:0 Mode.X b);
  ignore (Sharded.submit t (Lock_request.make ~txn:1 ~step_type:0 ~compensating:true Mode.X b));
  ignore (Sharded.submit t (Lock_request.make ~txn:2 ~step_type:0 Mode.X a));
  ignore (Detector.sweep t);
  (* txn 1's wait must survive; txn 2's must have been cancelled *)
  Alcotest.(check int) "compensating wait survives" 1
    (List.length (Sharded.outstanding_tickets t ~txn:1));
  Alcotest.(check int) "non-compensating wait killed" 0
    (List.length (Sharded.outstanding_tickets t ~txn:2))

(* --- lock-wait deadlines under real domains (DESIGN.md §13) ------------- *)

(* A real two-domain deadlock where one side carries a wait deadline: the
   expiry sweep (the engine tick's job, driven manually here) must break the
   cycle by timing that side out, and the subsequent detector pass and kill
   must find nothing left — timeout before detection never double-aborts or
   leaks a queue entry. *)
let test_timeout_breaks_cycle () =
  let t = Sharded.create ~shards:4 Mode.no_semantics in
  let a = Resource_id.Tuple ("t", [ Value.Int 1 ])
  and b = Resource_id.Tuple ("u", [ Value.Int 1 ]) in
  Sharded.acquire_req t (Lock_request.make ~txn:1 ~step_type:0 Mode.X a);
  let d =
    Domain.spawn (fun () ->
        Sharded.acquire_req t (Lock_request.make ~txn:2 ~step_type:0 Mode.X b);
        match
          Sharded.acquire_req t
            (Lock_request.make ~txn:2 ~step_type:0
               ~deadline:(Unix.gettimeofday () +. 0.05) Mode.X a)
        with
        | () ->
            ignore (Sharded.release_all t ~txn:2);
            `Granted
        | exception Txn_effect.Lock_timeout ->
            (* the executor's abort path: release everything *)
            ignore (Sharded.release_all t ~txn:2);
            `Timed_out)
  in
  (* wait until txn 2 is queued on a, then close the cycle from this side
     with a synchronous (non-blocking) request *)
  let spins = ref 0 in
  while Sharded.waiter_count t = 0 && !spins < 5000 do
    incr spins;
    Unix.sleepf 0.001
  done;
  let g = Sharded.submit t (Lock_request.make ~txn:1 ~step_type:0 Mode.X b) in
  let sweeps = ref 0 in
  while Sharded.timeout_count t = 0 && !sweeps < 5000 do
    incr sweeps;
    Unix.sleepf 0.002;
    ignore (Sharded.expire t ~now:(Unix.gettimeofday ()))
  done;
  (match Domain.join d with
  | `Timed_out -> ()
  | `Granted -> Alcotest.fail "deadlocked wait was granted");
  Alcotest.(check int) "exactly one timeout" 1 (Sharded.timeout_count t);
  (* the cycle is already broken: detection and victimization find nothing *)
  Alcotest.(check int) "detector sweep finds no cycle" 0 (Detector.sweep t);
  Alcotest.(check int) "kill after timeout is a no-op" 0 (Sharded.kill t ~txn:2);
  (* txn 2's release promoted the survivor's queued request *)
  (match g with
  | Lock_table.Granted -> ()
  | Lock_table.Queued ticket ->
      Alcotest.(check bool) "survivor promoted" false (Sharded.outstanding t ~ticket));
  ignore (Sharded.release_all t ~txn:1);
  Alcotest.(check int) "no leaked locks" 0 (Sharded.lock_count t);
  Alcotest.(check int) "no leaked waiters" 0 (Sharded.waiter_count t)

(* Same fairness bound as test_lock's property, through the sharded table's
   synchronous surface: fresh transactions only, so every grant avenue is the
   gated one. *)
let shard_res = [| res_k; Resource_id.Tuple ("u", [ Value.Int 1 ]); Resource_id.Table "t" |]

let prop_sharded_bounded_bypass =
  QCheck2.Test.make ~name:"sharded table: no waiter overtaken more than max_bypass times"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 7) (int_range 0 5)))
    (fun ops ->
      let max_bypass = 4 in
      let t = Sharded.create ~shards:4 ~max_bypass Mode.no_semantics in
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
              let res = if k >= 2 then shard_res.(2) else shard_res.(r mod 2) in
              ignore (Sharded.submit t (Lock_request.make ~txn:!next ~step_type:0 mode res))
          | 4 | 5 -> (
              match !active with
              | [] -> ()
              | l ->
                  let txn = List.nth l (r mod List.length l) in
                  ignore (Sharded.release_all t ~txn);
                  active := List.filter (fun x -> x <> txn) l)
          | _ -> (
              match !active with
              | [] -> ()
              | l ->
                  let txn = List.nth l (r mod List.length l) in
                  List.iter
                    (fun ticket -> ignore (Sharded.cancel t ~ticket))
                    (Sharded.outstanding_tickets t ~txn)));
          if Sharded.max_bypassed t > max_bypass then ok := false)
        ops;
      !ok)

(* --- admission control --------------------------------------------------- *)

module Engine = Acc_parallel.Engine

let inflight e =
  match List.assoc "admission.inflight" (Engine.stats e) with
  | Acc_obs.Registry.S_gauge v -> v
  | _ -> Alcotest.fail "admission.inflight is not a gauge"

let test_admission_gate () =
  let db = Acc_relation.Database.create () in
  let e = Engine.create ~shards:2 ~max_inflight:2 ~sem:Mode.no_semantics db in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      match (Engine.try_admit e, Engine.try_admit e) with
      | Engine.Admitted, Engine.Admitted ->
          (match Engine.try_admit e with
          | Engine.Shed "capacity" -> ()
          | Engine.Shed r -> Alcotest.fail ("unexpected shed reason: " ^ r)
          | Engine.Admitted -> Alcotest.fail "admitted past the cap");
          Alcotest.(check int) "shed counted" 1 (Engine.counter (Engine.stats e) "admission.shed");
          Alcotest.(check (float 0.)) "inflight at cap" 2. (inflight e);
          Engine.finish e;
          (match Engine.try_admit e with
          | Engine.Admitted -> ()
          | Engine.Shed _ -> Alcotest.fail "returned token not re-admitted");
          Engine.finish e;
          Engine.finish e;
          Alcotest.(check (float 0.)) "inflight drains to zero" 0. (inflight e)
      | _ -> Alcotest.fail "initial admissions refused")

(* The tick samples its gauges after it expires: a waiter whose 100 ms
   deadline passes is withdrawn by the tick that finds it overdue before
   that tick sums up the waits, so the peak oldest wait stays below the
   deadline, while earlier ticks saw the waiter queued and later ones see
   the queue empty. *)
let test_gauges_after_expiry () =
  let e = Engine.create ~shards:2 ~sem:Mode.no_semantics (Acc_relation.Database.create ()) in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let locks = Engine.locks e in
      let r = Resource_id.Table "t" and deadline = 0.1 in
      Sharded.acquire_req locks (Lock_request.make ~txn:1 ~step_type:0 Mode.X r);
      let waiter =
        Domain.spawn (fun () ->
            match
              Sharded.acquire_req locks
                (Lock_request.make ~txn:2 ~step_type:0
                   ~deadline:(Unix.gettimeofday () +. deadline) Mode.X r)
            with
            | () -> `Granted
            | exception Txn_effect.Lock_timeout -> `Timed_out)
      in
      Alcotest.(check bool) "the wait timed out" true (Domain.join waiter = `Timed_out);
      (* two more ticks: the expiring one has then sampled its gauges *)
      let ticks () = Engine.counter (Engine.stats e) "watchdog.ticks" in
      let t0 = ticks () in
      while ticks () < t0 + 2 do
        Unix.sleepf 0.001
      done;
      let stats = Engine.stats e in
      let gauge name =
        match List.assoc name stats with
        | Acc_obs.Registry.S_gauge v -> v
        | _ -> Alcotest.failf "%s is not a gauge" name
      in
      Alcotest.(check int) "one timeout" 1 (Engine.counter stats "lock.timeouts");
      Alcotest.(check (float 0.)) "peak queue depth saw the waiter" 1.
        (gauge "watchdog.peak_queue_depth");
      let peak = gauge "watchdog.peak_oldest_wait_s" in
      if not (peak > 0. && peak < deadline) then
        Alcotest.failf "peak oldest wait %.4f s, not within (0, %.3f s)" peak deadline;
      Alcotest.(check (float 0.)) "queue empty after expiry" 0. (gauge "watchdog.queue_depth");
      Alcotest.(check (float 0.)) "no oldest wait after expiry" 0.
        (gauge "watchdog.oldest_wait_s");
      ignore (Sharded.release_all locks ~txn:1))

(* --- the engine's background domain ------------------------------------- *)

(* One domain runs the tick and, when two transactions wait, the deadlock
   sweep: ticks keep advancing, a cross-domain deadlock is broken with
   exactly one victim, and [shutdown] joins the domain.  The tick bound is a
   quarter of the nominal count, so a slow runner does not flake. *)
let test_background_domain () =
  let e = Engine.create ~shards:4 ~sem:Mode.no_semantics (Acc_relation.Database.create ()) in
  let stat name = Engine.counter (Engine.stats e) name in
  let counts () = (stat "lock.detector_sweeps", stat "watchdog.ticks") in
  let t0 = stat "watchdog.ticks" in
  Unix.sleepf 0.1;
  let ticks = stat "watchdog.ticks" - t0 in
  Alcotest.(check bool) (Printf.sprintf "%d ticks in 100 ms" ticks) true (ticks >= 5);
  let t = Engine.locks e in
  let a = Resource_id.Tuple ("t", [ Value.Int 1 ])
  and b = Resource_id.Tuple ("u", [ Value.Int 1 ]) in
  let holding = Atomic.make 0 in
  let outcomes =
    Domain_pool.run ~domains:2 (fun i ->
        let txn, first, second = if i = 0 then (1, a, b) else (2, b, a) in
        Sharded.acquire_req t (Lock_request.make ~txn ~step_type:0 Mode.X first);
        Atomic.incr holding;
        while Atomic.get holding < 2 do
          Domain.cpu_relax ()
        done;
        let outcome =
          match Sharded.acquire_req t (Lock_request.make ~txn ~step_type:0 Mode.X second) with
          | () -> `Done
          | exception Txn_effect.Deadlock_victim -> `Victim
        in
        ignore (Sharded.release_all t ~txn);
        outcome)
  in
  Alcotest.(check int) "one victim" 1 (List.length (List.filter (fun o -> o = `Victim) outcomes));
  Alcotest.(check int) "victims counted" 1 (stat "lock.victims");
  Alcotest.(check bool) "the deadlock was swept" true (stat "lock.detector_sweeps" >= 1);
  Engine.shutdown e;
  let joined = counts () in
  Unix.sleepf 0.04;
  Alcotest.(check bool) "nothing runs after shutdown" true (counts () = joined)

(* --- metrics ------------------------------------------------------------ *)

let test_metrics_multicore () =
  let c = Metrics.Counter.create () in
  let lat = Metrics.Latency.create () in
  let per_domain = 25_000 in
  ignore
    (Domain_pool.run ~domains:4 (fun i ->
         let slot = Metrics.Latency.slot lat in
         for j = 1 to per_domain do
           Metrics.Counter.incr c;
           if j <= 100 then Metrics.Latency.record slot (float_of_int (i + 1))
         done));
  Alcotest.(check int) "atomic counter exact under contention" (4 * per_domain)
    (Metrics.Counter.get c);
  Alcotest.(check int) "all latency samples merged" 400 (Metrics.Latency.count lat);
  let merged = Metrics.Latency.merged lat in
  Alcotest.(check (float 1e-9)) "merged mean" 2.5 (Tally.mean merged)

(* --- multi-domain TPC-C stress ------------------------------------------ *)

module P = Acc_harness.Parallel_driver

let stress_cfg system txns =
  {
    P.default_config with
    P.system;
    domains = 4;
    duration = 60.0 (* safety net; txns_per_domain bounds the run *);
    txns_per_domain = Some txns;
    workload = Acc_tpcc.Tpcc_workload.make ~mix:Acc_tpcc.Tpcc_workload.New_order_payment ();
    seed = 11;
  }

let test_stress_acc () =
  let r = P.run (stress_cfg P.Acc 250) in
  Alcotest.(check (list string)) "no consistency violations" [] r.P.violations;
  Alcotest.(check int) "no leaked locks" 0 r.P.leaked_locks;
  Alcotest.(check int) "no leaked waiters" 0 r.P.leaked_waiters;
  Alcotest.(check bool) "committed transactions" true (r.P.committed > 900);
  Alcotest.(check int) "four domains reported" 4 (List.length r.P.per_domain_committed)

let test_stress_2pl () =
  let r = P.run (stress_cfg P.Baseline 100) in
  Alcotest.(check (list string)) "no consistency violations" [] r.P.violations;
  Alcotest.(check int) "no leaked locks" 0 r.P.leaked_locks;
  Alcotest.(check int) "no leaked waiters" 0 r.P.leaked_waiters;
  Alcotest.(check bool) "committed transactions" true (r.P.committed > 300)

(* Saturation: 4 domains against an admission cap of 1, a district hotspot,
   and a 20ms lock-wait deadline, in duration mode (so the deadline-drain
   path runs too).  The robustness contract: the run completes (no hung
   worker), the gate actually shed, and the drain leaves a consistent
   database with zero leaked locks or wait-queue entries. *)
let test_overload_admission () =
  let r =
    P.run
      {
        P.default_config with
        P.system = P.Acc;
        domains = 4;
        duration = 1.0;
        workload =
          Acc_tpcc.Tpcc_workload.make ~mix:Acc_tpcc.Tpcc_workload.New_order_payment
            ~skewed_district:true ();
        seed = 23;
        compute_between = 0.0005;
        lock_deadline = Some 0.02;
        max_inflight = Some 1;
        shed_watermark = Some 500.;
      }
  in
  Alcotest.(check (list string)) "consistent after drain" [] r.P.violations;
  Alcotest.(check int) "no leaked locks" 0 r.P.leaked_locks;
  Alcotest.(check int) "no leaked waiters" 0 r.P.leaked_waiters;
  Alcotest.(check bool) "made progress" true (r.P.committed > 0);
  Alcotest.(check bool) "gate shed under 4x overload" true
    (Engine.counter r.P.stats "admission.shed" > 0)

(* Reading the stats takes no shard mutex, so polling them (the metrics
   dump does every 250 ms) moves no counter, [lock.mutex_acq] included,
   while a request on the mutex path moves it by one.  Table X locks take
   the mutex path; the first leaves its shard non-empty, so every tick
   looks at that shard meanwhile, in read-only sections that do not
   count. *)
let test_stats_read_lock_free () =
  let e = Engine.create ~shards:2 ~sem:Mode.no_semantics (Acc_relation.Database.create ()) in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let locks = Engine.locks e in
      let x txn table = Lock_request.make ~txn ~step_type:0 Mode.X (Resource_id.Table table) in
      ignore (Sharded.submit locks (x 1 "t"));
      let acq () = Engine.counter (Engine.stats e) "lock.mutex_acq" in
      let before = acq () in
      for _ = 1 to 200 do
        ignore (Engine.stats e)
      done;
      let after = acq () in
      Alcotest.(check int) "200 stats reads take no shard mutex" before after;
      ignore (Sharded.submit locks (x 2 "u"));
      Alcotest.(check int) "a mutex-path request takes one" (after + 1) (acq ()))

(* An idle engine's tick is not lock traffic.  With one table X lock held
   (so every tick looks at its shard) and no waiter, half a second of ticks
   leaves [lock.mutex_acq] where it was, and runs no deadlock sweep: a
   waits-for cycle needs two waiting transactions. *)
let test_idle_tick_quiet () =
  let e = Engine.create ~shards:2 ~sem:Mode.no_semantics (Acc_relation.Database.create ()) in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      ignore
        (Sharded.submit (Engine.locks e)
           (Lock_request.make ~txn:1 ~step_type:0 Mode.X (Resource_id.Table "t")));
      let read name = Engine.counter (Engine.stats e) name in
      let names = [ "lock.mutex_acq"; "lock.detector_sweeps"; "watchdog.ticks" ] in
      let before = List.map read names in
      Unix.sleepf 0.5;
      match List.map2 (fun name b -> read name - b) names before with
      | [ acq; sweeps; ticks ] ->
          Alcotest.(check int) "idle ticks take no shard mutex" 0 acq;
          Alcotest.(check int) "no sweep without two waiters" 0 sweeps;
          Alcotest.(check bool) (Printf.sprintf "%d ticks in 0.5 s" ticks) true (ticks >= 25)
      | _ -> assert false)

let suites =
  [
    ( "parallel.lock",
      [
        Alcotest.test_case "blocking handoff across domains" `Quick test_blocking_handoff;
        Alcotest.test_case "detector breaks a cross-domain deadlock" `Quick
          test_deadlock_kill;
        Alcotest.test_case "victim policy spares compensating waiter" `Quick
          test_victim_policy_spares_compensation;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_parity;
        Alcotest.test_case "one background domain: sweeps, ticks, joins" `Quick
          test_background_domain;
      ] );
    ( "parallel.fastpath",
      [
        Alcotest.test_case "racing compatible installs both land" `Quick
          test_fast_racing_compatible_installs;
        Alcotest.test_case "racing conflicting installs: one grant, one queued" `Quick
          test_fast_racing_conflicting_installs;
        Alcotest.test_case "deadline expiry races fast-path traffic" `Quick
          test_fast_expiry_race;
        Alcotest.test_case "retreat after migration wakes the queued waiter" `Slow
          test_fast_retreat_wakes_waiter;
        Alcotest.test_case "gate is per resource, not per shard" `Quick
          test_fast_gate_per_resource;
        Alcotest.test_case "tuples share buckets, all 200 hit" `Quick test_fast_shared_buckets;
        Alcotest.test_case "read-only walks cause no retreat" `Quick
          test_fast_readonly_walks_no_retreat;
        Alcotest.test_case "group-commit crash loses no acked commit" `Quick
          test_group_commit_crash_loses_no_acked_commit;
      ] );
    ( "parallel.overload",
      [
        Alcotest.test_case "timeout breaks a cycle, detector finds nothing" `Quick
          test_timeout_breaks_cycle;
        Alcotest.test_case "admission gate caps in-flight and sheds" `Quick
          test_admission_gate;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0xACC |])
          prop_sharded_bounded_bypass;
        Alcotest.test_case "4 domains vs cap 1: sheds, drains, stays consistent" `Slow
          test_overload_admission;
        Alcotest.test_case "gauges sampled after expiry" `Quick test_gauges_after_expiry;
      ] );
    ( "parallel.metrics",
      [
        Alcotest.test_case "counters and tallies across 4 domains" `Quick test_metrics_multicore;
        Alcotest.test_case "stats reads take no shard mutex" `Quick test_stats_read_lock_free;
        Alcotest.test_case "idle ticks take no mutex and run no sweep" `Quick
          test_idle_tick_quiet;
      ] );
    ( "parallel.tpcc",
      [
        Alcotest.test_case "4 domains x 250 acc txns, consistent, no leaks" `Slow
          test_stress_acc;
        Alcotest.test_case "4 domains x 100 2pl txns, consistent, no leaks" `Slow
          test_stress_2pl;
      ] );
  ]
