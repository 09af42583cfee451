(* Automated compensation replay: turn [Recovery.pending] obligations back
   into clean state.

   Recovery (lib/wal) can only report that a multi-step loser had completed
   [k] steps with work area [a] — the compensating logic itself is program
   code.  Transaction programs therefore register their compensating body
   here, keyed by transaction-type name — the very function their instances
   pass as [~compensate], which reads nothing but the work area — and
   [replay_pending] re-executes it for every pending obligation through
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

type handler = Executor.ctx -> completed:int -> unit

(* txn_type -> (design-time step type of the compensating step, handler) *)
let registry : (string, int * handler) Hashtbl.t = Hashtbl.create 8

let register ~txn_type ~step_type handler =
  Hashtbl.replace registry txn_type (step_type, handler)

let handler txn_type = Option.map snd (Hashtbl.find_opt registry txn_type)

(* Run the registered compensating step on a freshly adopted context; the
   adoption happens only once the handler is known to exist. *)
let compensate_adopted ~txn ~txn_type ~completed adopt =
  match Hashtbl.find_opt registry txn_type with
  | None ->
      failwith
        (Printf.sprintf "Replay: no compensation handler registered for %s (txn %d)" txn_type
           txn)
  | Some (step_type, body) ->
      let ctx = adopt () in
      (* replay runs on a quiesced engine: a retry's [Yield] resumes at
         once, and a lock wait, which no one could grant, is a bug *)
      Txn_effect.run_inline ~on_yield:ignore (fun () ->
          Runtime.run_compensation ctx ~step_type ~completed
            ~release:(fun _ mode -> Mode.conventional mode)
            body)

let replay_one eng (p : Recovery.pending) =
  compensate_adopted ~txn:p.Recovery.p_txn ~txn_type:p.Recovery.p_txn_type
    ~completed:p.Recovery.p_completed_steps (fun () ->
      Executor.adopt_pending eng ~txn:p.Recovery.p_txn ~txn_type:p.Recovery.p_txn_type
        ~completed_steps:p.Recovery.p_completed_steps ~area:p.Recovery.p_area)

let replay_pending eng (report : Recovery.report) =
  List.iter (replay_one eng) report.Recovery.pending;
  List.length report.Recovery.pending

(* In-doubt 2PC participants resolve from the coordinator's decision, not on
   their own: commit finishes the adopted branch directly; abort runs the
   registered compensating body exactly as [replay_one] would.  Either way
   [adopt_in_doubt] re-logged the Prepare record first, so a crash
   mid-resolution re-derives the same in-doubt obligation (and a commit
   decision, being read again from the decision log, is never undone). *)
let resolve_in_doubt eng ~commit (d : Recovery.in_doubt) =
  let adopt () =
    Executor.adopt_in_doubt eng ~txn:d.Recovery.i_txn ~txn_type:d.Recovery.i_txn_type
      ~completed_steps:d.Recovery.i_completed_steps ~area:d.Recovery.i_area
      ~gid:d.Recovery.i_gid
  in
  if commit then Executor.commit (adopt ())
  else
    compensate_adopted ~txn:d.Recovery.i_txn ~txn_type:d.Recovery.i_txn_type
      ~completed:d.Recovery.i_completed_steps adopt;
  if Acc_obs.Trace.enabled () then
    Acc_obs.Trace.emit
      (Acc_obs.Trace.Resolve { txn = d.Recovery.i_txn; gid = d.Recovery.i_gid; commit })
