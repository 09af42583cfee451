(* Crash recovery for decomposed transactions (Sec 3.4 of the paper).

   A multi-step transaction exposes its intermediate results at every step
   boundary, so a crash cannot simply restore before-images: completed steps
   must be undone *logically* by the compensating step, while the
   interrupted step is undone physically (steps are atomic).

   This demo runs TPC-C new-orders against the engine, then "crashes" at
   every prefix of the write-ahead log, recovers each time, applies the
   pending compensations that recovery reports, and checks the twelve-part
   TPC-C consistency constraint on the result.

   Run with:  dune exec examples/recovery_demo.exe *)

module Database = Acc_relation.Database
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Runtime = Acc_core.Runtime
module Replay = Acc_core.Replay
module Log = Acc_wal.Log
module Recovery = Acc_wal.Recovery
open Acc_tpcc

let () =
  let params = Params.default in
  let db = Load.populate ~seed:42 params in
  let baseline = Database.copy db in
  let eng = Executor.create ~sem:Txns.semantics db in
  let env = Txns.default_env ~seed:7 params in

  (* run a handful of new-orders (one of them aborts on its last item) *)
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        for _ = 1 to 5 do
          let input = Txns.New_order { (Txns.gen_new_order env) with Txns.no_fail_last = false } in
          ignore (Txns.run_acc eng env input)
        done;
        let failing = { (Txns.gen_new_order env) with Txns.no_fail_last = true } in
        ignore (Txns.run_acc eng env (Txns.New_order failing)));
    ];
  let log = Executor.log eng in
  Format.printf "history: %d log records from 6 new-orders (one self-aborting)@." (Log.length log);

  (* crash at every prefix; recover; finish pending compensations; check *)
  let worst_pending = ref 0 in
  for cut = 0 to Log.length log do
    let r = Recovery.recover ~baseline (Log.prefix log cut) in
    (* the compensating bodies run on an engine over the recovered
       database; each pending type's body is the one [Txns.workload]
       declares *)
    let eng' = Executor.create ~sem:Txns.semantics r.Recovery.db in
    ignore (Replay.replay_pending ~workload:Txns.workload eng' r);
    worst_pending := max !worst_pending (List.length r.Recovery.pending);
    match Consistency.check r.Recovery.db with
    | [] -> ()
    | problems ->
        Format.printf "crash at %d: INCONSISTENT:@." cut;
        List.iter print_endline problems;
        exit 1
  done;
  Format.printf
    "crashed at all %d prefixes: consistent after recovery every time (up to %d pending \
     compensations per crash)@."
    (Log.length log + 1) !worst_pending
