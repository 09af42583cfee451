module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id
module Fault = Acc_fault.Fault

(* the window after a transaction's last forward step completes and before
   its compensating step starts writing *)
let cp_comp_begin = Fault.register "comp.begin"

type outcome = Committed | Compensated of { completed_steps : int }

type granularity = Item | Table

type options = {
  step_retry_limit : int;
  verify_assertions : bool;
  assertion_granularity : granularity;
}

let default_options =
  {
    step_retry_limit = 1;
    verify_assertions = false;
    assertion_granularity = Item;
  }

exception Assertion_violated of { txn : int; assertion : string; at_step : int }

(* Locks released at a step boundary under the instance's read-isolation
   level: a Snapshot reader keeps its S locks (and the isolation assertion)
   until commit so every read stays stable. *)
let step_release_mode inst _res mode =
  match (inst.Program.i_read_isolation, mode) with
  | Program.Snapshot, Mode.S -> false
  | Program.Snapshot, Mode.A a when a = Assertion.legacy_isolation_id -> false
  | (Program.Exposed | Program.Committed_only | Program.Snapshot), _ -> Mode.conventional mode

(* Assertions whose lock must be attached while executing dynamic step [j]:
   active ones (from <= j) and the one granted for the next boundary
   (from = j + 1), per the "unconditionally grant A(pre(S_{i,j+1})) before
   initiating S_ij" rule. *)
let attachable (ai : Program.assertion_instance) j =
  ai.Program.ai_from - 1 <= j && j <= ai.Program.ai_until

let active (ai : Program.assertion_instance) j =
  ai.Program.ai_from <= j && j <= ai.Program.ai_until

let verify_active_assertions eng inst ~txn ~at_step =
  List.iter
    (fun ai ->
      if active ai at_step then
        match ai.Program.ai_check with
        | Some check ->
            if not (check (Executor.db eng)) then
              raise
                (Assertion_violated
                   {
                     txn;
                     assertion = ai.Program.ai_assertion.Assertion.name;
                     at_step;
                   })
        | None -> ())
    inst.Program.i_assertions

(* The dynamic-acquisition hook: piggyback assertional locks (and the
   compensation lock for writes) on every conventional lock the step takes.
   Under [Table] granularity (the two-level ablation) assertional locks
   attach to whole tables, reproducing the false conflicts of §3.2. *)
let install_lock_hook ctx inst ~granularity ~step_dyn_index =
  let comp_step_id =
    match inst.Program.i_def.Program.tt_comp with
    | Some c -> Some c.Program.sd_id
    | None -> None
  in
  (* the step's attach plan, built once: each attachable assertion's [A]
     mode and the tables it refers to, in assertion-list order *)
  let plan =
    List.filter_map
      (fun ai ->
        let a = ai.Program.ai_assertion in
        if attachable ai step_dyn_index then Some (Mode.A a.Assertion.id, Assertion.tables a)
        else None)
      inst.Program.i_assertions
  in
  Executor.set_on_lock ctx (fun res mode ->
      (* assertional locks anchor on tuples: a table-level attachment would
         assert about every row of the table and block unrelated fresh-row
         writers; table-level assertional locks are reserved for the legacy
         full-isolation path, where that meaning is intended *)
      (match (res, mode) with
      | Resource_id.Tuple _, (Mode.S | Mode.X) ->
          let table = Resource_id.table_of res in
          let anchor = match granularity with Item -> res | Table -> Resource_id.Table table in
          List.iter
            (fun (a_mode, tables) ->
              if List.mem table tables then Executor.attach_lock ctx a_mode anchor)
            plan
      | _, (Mode.IS | Mode.IX | Mode.A _ | Mode.Comp _) | Resource_id.Table _, _ -> ());
      match (res, mode, comp_step_id) with
      | Resource_id.Tuple _, Mode.X, Some cs ->
          (* checked request: must wait out foreign assertions the
             compensating step would interfere with (§3.4); the lock
             manager's hierarchical check makes this tuple-level exposure
             marker visible to table-level readers *)
          Executor.acquire ctx (Mode.Comp cs) res
      | _, (Mode.X | Mode.S | Mode.IS | Mode.IX | Mode.A _ | Mode.Comp _), _ -> ())

let remove_lock_hook ctx = Executor.set_on_lock ctx (fun _ _ -> ())

(* Release, at the end of dynamic step [j], the conventional locks and the
   assertional locks whose window closed. *)
let end_of_step_release ctx inst j =
  let closing =
    List.filter_map
      (fun ai ->
        if ai.Program.ai_until = j then Some ai.Program.ai_assertion.Assertion.id else None)
      inst.Program.i_assertions
  in
  Executor.release_locks ctx (fun res mode ->
      step_release_mode inst res mode
      || match mode with Mode.A a -> List.mem a closing | _ -> false)

(* The compensating step, the one loop an inline abort ([compensate]) and
   crash replay ([Replay]) both run: enter step [completed + 1] flagged
   compensating, trip [comp.begin], run [body] until an attempt completes,
   then end the transaction — the [Abort] record commits the compensation. *)
let run_compensation ctx ~step_type ~completed ~release body =
  Executor.set_compensating ctx true;
  Executor.set_step ctx ~step_type ~step_index:(completed + 1);
  Fault.trip cp_comp_begin;
  let rec attempt n =
    try
      Fault.step_trip ();
      body ctx ~completed
    with Txn_effect.Deadlock_victim | Txn_effect.Lock_timeout | Fault.Step_fault ->
      (* §3.4 guarantees the policy aborts the steps delaying a
         compensating step rather than the step itself; if we are
         nonetheless victimized (all-compensating cycle) or fault injected,
         undo this attempt, back off, and try again.  [Lock_timeout] cannot
         arise here — compensating requests carry no deadline — but is
         caught for defence in depth.  The attempt's conventional locks go
         with it, as on the forward path: a retry that kept them (a scan's
         table S, say) would re-close the same cycle every time. *)
      Executor.rollback_current_step ctx;
      Executor.release_locks ctx release;
      Txn_effect.yield ~attempt:n ();
      attempt (n + 1)
  in
  attempt 1;
  Executor.finish_compensated ctx

let compensate ctx inst ~completed =
  if completed = 0 then begin
    (* nothing exposed: plain physical rollback *)
    Executor.abort_physical ctx;
    Compensated { completed_steps = 0 }
  end
  else begin
    match (inst.Program.i_compensate, inst.Program.i_def.Program.tt_comp) with
    | Some body, Some comp_def ->
        remove_lock_hook ctx;
        run_compensation ctx ~step_type:comp_def.Program.sd_id ~completed
          ~release:(step_release_mode inst) body;
        Compensated { completed_steps = completed }
    | None, _ | _, None ->
        (* a multi-step instance without compensation cannot be here: the
           instance constructor enforces a body when tt_comp exists, and a
           single-step instance always has completed = 0 on failure *)
        assert false
  end

(* Admission plus the per-step loop, stopping short of the commit decision:
   [Error outcome] when the instance failed (compensated) along the way,
   [Ok ctx] with every step completed, conventional locks released at the
   last step boundary, and the until-commit assertional and compensation
   locks still held.  [run] commits immediately; [prepare] interposes the
   2PC vote, leaving the transaction open across the in-doubt window. *)
let run_steps ?(options = default_options) ?abort_at ?stop eng inst =
  let n_steps = Array.length inst.Program.i_steps in
  (* [multi_step] is recovery's "compensable ACC program" flag: a loser with
     a durable completed step must go to compensation replay.  That covers
     single-step programs too when they declare a compensating step (the
     partitioned branch programs) — their one completed step is durable the
     moment its step-end record is, and only compensation can take it back. *)
  let multi_step = n_steps > 1 || Option.is_some inst.Program.i_compensate in
  let ctx = Executor.begin_txn eng ~txn_type:inst.Program.i_def.Program.tt_name ~multi_step in
  let stopped () = match stop with Some f -> f () | None -> false in
  let outcome = ref None in
  (try
     (* --- admission: lock pre(S_1) ------------------------------------- *)
     Executor.charge eng (Executor.cost eng).Acc_txn.Cost_model.admission;
     let rec admit n =
       try
         List.iter
           (fun (ai, items) ->
             List.iter
               (fun item ->
                 Executor.acquire ctx ~admission:true
                   (Mode.A ai.Program.ai_assertion.Assertion.id) item)
               items)
           inst.Program.i_admission
       with Txn_effect.Deadlock_victim | Txn_effect.Lock_timeout ->
         (* nothing executed yet: drop what we got, let the winner finish, and
            re-admit — or abandon admission entirely when the driver is
            draining *)
         Executor.release_locks ctx (fun _ _ -> true);
         if stopped () then begin
           outcome := Some (compensate ctx inst ~completed:0);
           raise Exit
         end;
         Txn_effect.yield ~attempt:n ();
         admit (n + 1)
     in
     admit 1;
     (* --- steps ---------------------------------------------------------- *)
     for j0 = 0 to n_steps - 1 do
       let j = j0 + 1 in
       (* drain check at the step boundary: a stopped driver wants no {e new}
          steps issued, so compensate what completed and get off the locks;
          this is what bounds shutdown and lets the watchdog distinguish a
          drain from a wedge *)
       if stopped () then begin
         outcome := Some (compensate ctx inst ~completed:(j - 1));
         raise Exit
       end;
       let step_def, body = inst.Program.i_steps.(j0) in
       Executor.set_step ctx ~step_type:step_def.Program.sd_id ~step_index:j;
       install_lock_hook ctx inst ~granularity:options.assertion_granularity
         ~step_dyn_index:j;
       (* read-isolation restrictions ([Gerstl et al., TR 96/07], cf. §3.3):
          reads must not observe values an in-flight transaction could still
          compensate away, so the isolation assertional lock precedes each
          read lock and waits out compensation locks *)
       (match inst.Program.i_read_isolation with
       | Program.Exposed -> ()
       | Program.Committed_only | Program.Snapshot ->
           Executor.set_on_before_lock ctx (fun res mode ->
               match mode with
               | Mode.S ->
                   Executor.acquire ctx (Mode.A Assertion.legacy_isolation_id) res
               | Mode.X | Mode.IS | Mode.IX | Mode.A _ | Mode.Comp _ -> ()));
       if options.verify_assertions then
         verify_active_assertions eng inst ~txn:(Executor.txn_id ctx) ~at_step:j;
       let rec attempt ~n retries_left =
         try
           Fault.step_trip ();
           body ctx
         with
         | Txn_effect.Deadlock_victim | Txn_effect.Lock_timeout | Fault.Step_fault ->
             (* a lock-wait timeout takes the same compensating-abort path a
                deadlock victim does: roll the step back physically, retry
                within budget, compensate past it *)
             Executor.rollback_current_step ctx;
             Executor.release_locks ctx (step_release_mode inst);
             (* back off so the winner of the deadlock (or the faulted
                resource) can make progress; the attempt number makes the
                scheduler's delay grow exponentially, capped (Backoff) *)
             Txn_effect.yield ~attempt:n ();
             if retries_left > 0 && not (stopped ()) then
               attempt ~n:(n + 1) (retries_left - 1)
             else begin
               remove_lock_hook ctx;
               outcome := Some (compensate ctx inst ~completed:(j - 1));
               raise Exit
             end
         | Txn_effect.Abort_requested ->
             (* the program decided to fail (e.g. TPC-C's 1% new-orders):
                undo the current step physically, compensate the rest *)
             Executor.rollback_current_step ctx;
             Executor.release_locks ctx (step_release_mode inst);
             remove_lock_hook ctx;
             outcome := Some (compensate ctx inst ~completed:(j - 1));
             raise Exit
         | e when not (Fault.is_crash e) ->
             (* an unexpected failure in a step body: fail the transaction
                the same way a programmatic abort would — physical undo of
                the current step, compensation for the completed ones — and
                only then let the exception surface.  A buggy body must not
                leave locks behind.  [Fault.Crash] is exempt: it models the
                process dying, which runs no cleanup — it must propagate
                with the log exactly as the crash left it. *)
             Executor.rollback_current_step ctx;
             Executor.release_locks ctx (step_release_mode inst);
             remove_lock_hook ctx;
             (try ignore (compensate ctx inst ~completed:(j - 1))
              with _ ->
                (* the compensation failed too: drop everything so other
                   transactions can proceed; the database may need recovery *)
                Executor.release_locks ctx (fun _ _ -> true));
             raise e
       in
       attempt ~n:1 options.step_retry_limit;
       remove_lock_hook ctx;
       Executor.end_step ctx ~area:(inst.Program.i_comp_area ());
       end_of_step_release ctx inst j;
       match abort_at with
       | Some k when k = j ->
           outcome := Some (compensate ctx inst ~completed:j);
           raise Exit
       | Some _ | None -> ()
     done
   with Exit -> ());
  match !outcome with
  | Some o -> Error o
  | None ->
      if options.verify_assertions then
        verify_active_assertions eng inst ~txn:(Executor.txn_id ctx) ~at_step:n_steps;
      Ok ctx

let run ?options ?abort_at ?stop eng inst =
  match run_steps ?options ?abort_at ?stop eng inst with
  | Error o -> o
  | Ok ctx ->
      Executor.commit ctx;
      Committed

type prepared = { pr_ctx : Executor.ctx; pr_inst : Program.instance; pr_txn : int }

let prepare ?options ?stop eng inst ~gid =
  if Option.is_none inst.Program.i_compensate then
    invalid_arg
      (inst.Program.i_def.Program.tt_name
      ^ ": a 2PC participant branch must declare a compensating step");
  match run_steps ?options ?stop eng inst with
  | Error o -> Error o
  | Ok ctx ->
      Executor.prepare ctx ~gid;
      Ok { pr_ctx = ctx; pr_inst = inst; pr_txn = Executor.txn_id ctx }

let prepared_txn p = p.pr_txn
let commit_prepared p = Executor.commit p.pr_ctx

let abort_prepared p =
  (* distributed cancel: every step completed, so this is always the logical
     path — the compensating step, exactly as [run ~abort_at:n] takes it *)
  ignore
    (compensate p.pr_ctx p.pr_inst ~completed:(Array.length p.pr_inst.Program.i_steps))

let run_legacy ?(options = default_options) ?stop eng ~txn_type body =
  ignore options;
  let stopped () = match stop with Some f -> f () | None -> false in
  let rec attempt n =
    let ctx = Executor.begin_txn eng ~txn_type ~multi_step:false in
    Executor.set_step ctx ~step_type:Program.legacy_step_id ~step_index:1;
    (* full isolation: the legacy-isolation assertional lock precedes every
       conventional data lock and is held to commit; acquiring it first means
       the transaction queues on in-flight multi-step writers (their Comp
       locks) without holding the data lock across the wait *)
    Executor.set_on_before_lock ctx (fun res mode ->
        match mode with
        | Mode.S | Mode.X ->
            Executor.acquire ctx (Mode.A Assertion.legacy_isolation_id) res
        | Mode.IS | Mode.IX | Mode.A _ | Mode.Comp _ -> ());
    try
      Fault.step_trip ();
      body ctx;
      Executor.commit ctx;
      Committed
    with
    | Txn_effect.Deadlock_victim | Txn_effect.Lock_timeout | Fault.Step_fault ->
        Executor.abort_physical ctx;
        if stopped () then Compensated { completed_steps = 0 }
        else begin
          Txn_effect.yield ~attempt:n ();
          attempt (n + 1)
        end
    | e when not (Fault.is_crash e) ->
        (* unexpected failure: a flat transaction can abort physically; a
           simulated crash must propagate without appending anything *)
        Executor.abort_physical ctx;
        raise e
  in
  attempt 1

let victim_policy = Acc_txn.Schedule.spare_compensating
