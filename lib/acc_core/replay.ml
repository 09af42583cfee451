(* Automated compensation replay: turn [Recovery.pending] obligations back
   into clean state.

   Recovery (lib/wal) can only report that a multi-step loser had completed
   [k] steps with work area [a] — the compensating logic itself is program
   code.  Each compensable transaction type declares its compensating body
   ([Program.txn_type ~compensate], the body every instance runs on an
   inline abort, reading nothing but the work area), and [replay_pending]
   looks it up by type name in the workload the engine serves and
   re-executes it for every pending obligation through
   [Runtime.run_compensation], the loop an inline abort runs: the context is
   flagged compensating (so its lock requests are never chosen as deadlock
   victims — the §3.4 sparing rule), the step runs at index [k + 1], and a
   victimization, a timeout or an injected fault rolls the attempt back,
   releases its locks and retries with backoff.

   [Executor.adopt_pending] first re-logs the obligation (Begin, and the
   last completed step's end record with its work area) on the recovered
   engine's log, so a second crash in the middle of the replay leaves the
   very same pending transaction re-derivable from the durable history — the
   pre-crash log followed by this engine's log: replay is idempotent across
   repeated crashes.  (The pre-crash records stay part of that history: a
   recovered-but-not-yet-compensated snapshot alone is not a quiescent
   baseline, and a crash before an obligation is re-logged must still find
   it in the old tail.) *)

module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Mode = Acc_lock.Mode
module Recovery = Acc_wal.Recovery

(* Run the type's compensating step on a freshly adopted context; the
   adoption happens only once the body is known to exist. *)
let compensate_adopted ~workload ~txn ~txn_type ~completed adopt =
  let fail why = failwith (Printf.sprintf "Replay: %s (txn %d) %s" txn_type txn why) in
  match Program.find_txn_type workload txn_type with
  | exception Invalid_argument _ -> fail "is not a type of the engine's workload"
  | { Program.tt_comp = Some comp; tt_compensate = Some body; _ } ->
      let ctx = adopt () in
      (* replay runs on a quiesced engine: a retry's [Yield] resumes at
         once, and a lock wait, which no one could grant, is a bug *)
      Txn_effect.run_inline ~on_yield:ignore (fun () ->
          Runtime.run_compensation ctx ~step_type:comp.Program.sd_id ~completed
            ~release:(fun _ mode -> Mode.conventional mode)
            body)
  | _ -> fail "declares no compensating body"

let replay_one ~workload eng (p : Recovery.pending) =
  compensate_adopted ~workload ~txn:p.Recovery.p_txn ~txn_type:p.Recovery.p_txn_type
    ~completed:p.Recovery.p_completed_steps (fun () ->
      Executor.adopt_pending eng ~txn:p.Recovery.p_txn ~txn_type:p.Recovery.p_txn_type
        ~completed_steps:p.Recovery.p_completed_steps ~area:p.Recovery.p_area)

let replay_pending ~workload eng (report : Recovery.report) =
  List.iter (replay_one ~workload eng) report.Recovery.pending;
  List.length report.Recovery.pending

(* In-doubt 2PC participants resolve from the coordinator's decision, not on
   their own: commit finishes the adopted branch directly; abort runs the
   type's compensating body exactly as [replay_one] would.  Either way
   [adopt_in_doubt] re-logged the Prepare record first, so a crash
   mid-resolution re-derives the same in-doubt obligation (and a commit
   decision, being read again from the decision log, is never undone). *)
let resolve_in_doubt ~workload eng ~commit (d : Recovery.in_doubt) =
  let adopt () =
    Executor.adopt_in_doubt eng ~txn:d.Recovery.i_txn ~txn_type:d.Recovery.i_txn_type
      ~completed_steps:d.Recovery.i_completed_steps ~area:d.Recovery.i_area
      ~gid:d.Recovery.i_gid
  in
  if commit then Executor.commit (adopt ())
  else
    compensate_adopted ~workload ~txn:d.Recovery.i_txn ~txn_type:d.Recovery.i_txn_type
      ~completed:d.Recovery.i_completed_steps adopt;
  if Acc_obs.Trace.enabled () then
    Acc_obs.Trace.emit
      (Acc_obs.Trace.Resolve { txn = d.Recovery.i_txn; gid = d.Recovery.i_gid; commit })
