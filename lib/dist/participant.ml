(* The participant half of 2PC: one per partition, owning the protocol
   state the coordinator's RPCs act on.

   [stage] is the same-process surrogate for shipping a branch program to
   the partition; the later [Prepare {gid}] RPC runs it.  Handlers are
   idempotent — the transport may duplicate any frame and the coordinator
   retries on timeout — so every answer is derived from (and recorded in)
   per-gid tables:

   - a duplicate Prepare returns the cached vote without re-running the
     branch;
   - a duplicate Decide finds the gid already applied and just re-Acks;
   - a Prepare that arrives *after* its Decide (a delay/reorder hold on
     the last Prepare retry, released by the Decide send) answers from
     the recorded decision without running the branch — re-running it
     would pin locks into a prepared state no later Decide releases.

   "dist.apply" is this module's crash point: the participant dying after
   the decision reached it but before the branch applied it.  The branch's
   WAL Prepare record is then still the last word on disk, so recovery
   reports it in doubt and the decision log resolves it — the same path as
   a decision that never arrived.

   [settle]/[settle_gid] is the participant side of recovery: ask the
   coordinator ([ask], usually a Resolve RPC with a durable-log fallback)
   for each in-doubt gid and apply what comes back.  A [None] answer
   leaves the branch blocked — presumed abort is the *coordinator's* call
   (it knows whether a decision could have been logged), never the
   participant's default. *)

module Runtime = Acc_core.Runtime
module Program = Acc_core.Program
module Fault = Acc_fault.Fault
module Trace = Acc_obs.Trace

let cp_apply = Fault.register "dist.apply"

type t = {
  part : Partition.t;
  stop : (unit -> bool) option;
  mu : Mutex.t;
  staged : (int, Program.instance) Hashtbl.t;
  prepared : (int, Runtime.prepared) Hashtbl.t;
  votes : (int, bool) Hashtbl.t;
  applied : (int, bool) Hashtbl.t;
}

let make ?stop part =
  {
    part;
    stop;
    mu = Mutex.create ();
    staged = Hashtbl.create 64;
    prepared = Hashtbl.create 64;
    votes = Hashtbl.create 64;
    applied = Hashtbl.create 64;
  }

let partition t = t.part

let stage t ~gid inst =
  Mutex.lock t.mu;
  Hashtbl.replace t.staged gid inst;
  Mutex.unlock t.mu

let forget t ~gid =
  Mutex.lock t.mu;
  Hashtbl.remove t.staged gid;
  Mutex.unlock t.mu

let in_doubt t =
  Mutex.lock t.mu;
  let gids = Hashtbl.fold (fun gid _ acc -> gid :: acc) t.prepared [] in
  Mutex.unlock t.mu;
  List.sort compare gids

let max_gid t =
  Mutex.lock t.mu;
  let m = ref 0 in
  let see gid _ = if gid > !m then m := gid in
  Hashtbl.iter see t.staged;
  Hashtbl.iter see t.prepared;
  Hashtbl.iter see t.votes;
  Hashtbl.iter see t.applied;
  Mutex.unlock t.mu;
  !m

(* The branch itself runs outside [mu]: a prepare can block on locks for
   up to the lock deadline, and the tables must stay reachable meanwhile
   (per-connection call serialization already orders same-gid requests). *)
let handle_prepare t ~gid =
  Mutex.lock t.mu;
  let decided = Hashtbl.find_opt t.applied gid in
  let cached =
    match decided with
    | Some _ -> None
    | None -> Hashtbl.find_opt t.votes gid
  in
  let inst =
    match (decided, cached) with
    | Some _, _ | None, Some _ -> None
    | None, None -> (
        match Hashtbl.find_opt t.staged gid with
        | Some i ->
            Hashtbl.remove t.staged gid;
            Some i
        | None ->
            (* nothing staged: a Prepare for a transaction this partition
               never saw can only vote no *)
            Hashtbl.replace t.votes gid false;
            None)
  in
  Mutex.unlock t.mu;
  match (decided, cached, inst) with
  | Some commit, _, _ ->
      (* the decision already landed here: this Prepare lost a race with
         its own Decide.  Answer consistently with the decision and do
         NOT run the branch — apply is done with this gid, so a branch
         prepared now could never be committed or compensated *)
      Transport.Vote { gid; ok = commit }
  | None, Some ok, _ -> Transport.Vote { gid; ok }
  | None, None, None -> Transport.Vote { gid; ok = false }
  | None, None, Some i -> (
      match
        Runtime.prepare ?stop:t.stop (Partition.engine t.part) i ~gid
      with
      | Ok p ->
          Mutex.lock t.mu;
          Hashtbl.replace t.prepared gid p;
          Hashtbl.replace t.votes gid true;
          Mutex.unlock t.mu;
          Transport.Vote { gid; ok = true }
      | Error _ ->
          Mutex.lock t.mu;
          Hashtbl.replace t.votes gid false;
          Mutex.unlock t.mu;
          Transport.Vote { gid; ok = false })

let apply t ~gid ~commit =
  let todo =
    Mutex.lock t.mu;
    let r =
      match Hashtbl.find_opt t.prepared gid with
      | Some p ->
          (* a prepared branch is always settled, even if [applied]
             already has the gid (a branch that slipped into prepared
             after the decision landed still holds its locks); the
             recorded decision wins over the caller's argument *)
          let commit =
            match Hashtbl.find_opt t.applied gid with
            | Some d -> d
            | None -> commit
          in
          Some (p, commit)
      | None ->
          (* decided but never prepared here (the branch failed before
             voting, or the Prepare never arrived): record so a late
             duplicate Prepare still answers consistently *)
          if not (Hashtbl.mem t.applied gid) then
            Hashtbl.replace t.applied gid commit;
          None
    in
    Mutex.unlock t.mu;
    r
  in
  match todo with
  | None -> ()
  | Some (p, commit) ->
      Fault.trip cp_apply;
      if commit then Runtime.commit_prepared p else Runtime.abort_prepared p;
      Mutex.lock t.mu;
      Hashtbl.remove t.prepared gid;
      Hashtbl.replace t.applied gid commit;
      Mutex.unlock t.mu

let handle t = function
  | Transport.Prepare { gid; _ } -> handle_prepare t ~gid
  | Transport.Decide { gid; commit } ->
      apply t ~gid ~commit;
      Transport.Ack { gid }
  | (Transport.Vote _ | Transport.Ack _ | Transport.Resolve _) as m ->
      invalid_arg
        ("Participant.handle: unexpected request " ^ Transport.msg_kind m)

let settle_gid t ~ask gid =
  Mutex.lock t.mu;
  let p = Hashtbl.find_opt t.prepared gid in
  Mutex.unlock t.mu;
  match p with
  | None -> true
  | Some p -> (
      match ask gid with
      | Some commit ->
          if Trace.enabled () then
            Trace.emit
              (Trace.Resolve { txn = Runtime.prepared_txn p; gid; commit });
          apply t ~gid ~commit;
          true
      | None -> false)

let settle t ~ask =
  List.fold_left
    (fun (ok, blocked) gid ->
      if settle_gid t ~ask gid then (ok + 1, blocked) else (ok, blocked + 1))
    (0, 0) (in_doubt t)
