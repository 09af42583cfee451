(* Crash-time completion of pending compensations (§3.4): the TPC-C
   compensating bodies registered as [Replay] handlers.

   The bodies live with their programs ([Txns], [Dist_txns]) and read only
   the work area, so the function an instance passes as [~compensate] is
   the one registered here: an inline abort and crash replay run the same
   code.  Replay runs them through a live [Executor.ctx] (created by
   [Replay.replay_one] via [Executor.adopt_pending]), so replayed
   compensation takes compensation locks, appends WAL records, and is itself
   crash-recoverable — a second crash mid-replay re-derives the same pending
   obligation from the new engine's log. *)

module Executor = Acc_txn.Executor
module Recovery = Acc_wal.Recovery
module Replay = Acc_core.Replay
module Program = Acc_core.Program

(* Linking this module is enough to make TPC-C recoverable: the bodies are
   registered at module-initialization time, keyed by transaction-type name
   and carrying the design-time id of each compensating step.  Each home
   branch of a partitioned transaction shares its single-node body. *)
let () =
  List.iter
    (fun (txn_type, (comp : Program.step_def), body) ->
      Replay.register ~txn_type ~step_type:comp.Program.sd_id body)
    [
      ("new_order", Txns.no_comp, Txns.new_order_compensate);
      ("payment", Txns.pay_comp, Txns.payment_compensate);
      ("delivery", Txns.dl_comp, Txns.delivery_compensate);
      ("new_order_home", Dist_txns.nh_comp, Txns.new_order_compensate);
      ("payment_home", Dist_txns.ph_comp, Txns.payment_compensate);
      ("payment_rcust", Dist_txns.pr_comp, Dist_txns.payment_rcust_compensate);
      ("new_order_rstock", Dist_txns.nr_comp, Dist_txns.new_order_rstock_compensate);
    ]

let replay_engine db = Executor.create ~sem:Txns.semantics db

let complete db (p : Recovery.pending) = Replay.replay_one (replay_engine db) p

let complete_all db (report : Recovery.report) =
  ignore (Replay.replay_pending (replay_engine db) report)

let recover_and_compensate ~baseline records =
  let report = Recovery.recover ~baseline records in
  complete_all report.Recovery.db report;
  report.Recovery.db
