(* Crash-restart harness: run a workload, kill the process at a registered
   crash point, restart from what a dead process leaves behind, and check
   the recovery invariants the paper's §3.4 story depends on (listed in the
   .mli).  One driver serves both systems under test:

   - the single engine: one executor under group commit with quiescent
     checkpoints; restart sees the baseline snapshot, the WAL and the last
     durable checkpoint;
   - the partitioned system: N partitions of the workload's partitioning
     capability behind the 2PC coordinator, driven over the loopback
     transport (framing, fault layer, retries and idempotent handlers all
     under test, while loopback consults no wall clock, so runs stay
     deterministic) with a file-backed, fsynced decision log; restart sees
     each partition's (baseline, WAL) and the reopened decision log — or,
     with [coordinator_kill], only the coordinator dies and fails over.

   Both systems learn what they run from the workload plugin alone.  A
   "crash" is {!Acc_fault.Fault.Crash} propagating out of the scheduler:
   the engines are discarded un-cleaned-up, exactly as a dead process
   leaves them.  The driver (observe-then-sweep with a coverage check,
   single crashes, the chaos matrix, seeded chaos) never looks inside a
   system: each one builds fresh incarnations as records of closures and
   describes itself as data ([sut] below). *)

module Fault = Acc_fault.Fault
module Netfault = Fault.Netfault
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Database = Acc_relation.Database
module Lock_service = Acc_lock.Lock_service
module Log = Acc_wal.Log
module Record = Acc_wal.Record
module Recovery = Acc_wal.Recovery
module Checkpoint = Acc_wal.Checkpoint
module Replay = Acc_core.Replay
module Coordinator = Acc_dist.Coordinator
module Decision_log = Coordinator.Decision_log
module Partition = Acc_dist.Partition
module Transport = Acc_dist.Transport

type single = {
  coverage : bool;
  step_fault_p : float;
  checkpoint_every : int;
}

type partitioned = {
  partitions : int;
  netfault : Netfault.spec;
  coordinator_kill : bool;
}

type system = Single of single | Partitioned of partitioned

type config = {
  workload : Acc_workload.t;
  seed : int;
  txns : int;
  hits_per_point : int;
  chaos_p : float;
  verbose : bool;
  system : system;
}

let default_single = { coverage = true; step_fault_p = 0.05; checkpoint_every = 16 }
let default_partitioned = { partitions = 2; netfault = Netfault.none; coordinator_kill = false }

let default_config system =
  (* TPC-C's forced-abort and remote rates, elevated well past the spec's 1%
     and 15%/1% so that short runs exercise inline compensation (and its
     comp.* points) and cross partitions often enough to trip every dist.*
     point repeatedly *)
  let single =
    { workload = Acc_tpcc.Tpcc_workload.make ~abort_rate:0.15 (); seed = 7; txns = 48;
      hits_per_point = 3; chaos_p = 0.004; verbose = false; system }
  in
  match system with
  | Single _ -> single
  | Partitioned _ ->
      let params = { Acc_tpcc.Params.default with warehouses = 4 } in
      { single with
        workload =
          Acc_tpcc.Tpcc_workload.make ~params ~remote_customer_rate:0.5 ~remote_item_rate:0.2 ();
        txns = 40; chaos_p = 0.01 }

type result = { r_label : string; r_crashes : int; r_errors : string list }

let failed r = r.r_errors <> []

let say cfg fmt =
  if cfg.verbose then Printf.printf (fmt ^^ "\n%!") else Printf.ifprintf stdout fmt

let err errs label fmt =
  Printf.ksprintf (fun msg -> errs := (label ^ ": " ^ msg) :: !errs) fmt

let check_consistency errs label problems =
  List.iter (fun c -> err errs label "consistency: %s" c) problems

(* ------------------------------------------------------------------ *)
(* What the driver needs of a system under test. *)

type crash = { point : string; hit : int; at : int }

exception Crashed of crash
(** A crash at [point]'s [hit]-th passage while input [at] was executing. *)

(* One machine: a fresh boot and the restarts that follow its crashes.  The
   closures share the system's mutable state, so [recover] knows what
   [exec_from] recorded when the crashed input started. *)
type incarnation = {
  exec_from : int -> unit;  (** run the inputs from this index on; raises [Crashed] *)
  recover : string list ref -> string -> crash -> int;
      (** restart after the crash, adding violated invariants to the error
          list under the label; returns the input index to resume from *)
  consistency : unit -> string list;  (** the oracle over the live state *)
  teardown : unit -> unit;
}

(* A system under test: how to boot it, and what the driver must know about
   it, as data. *)
type sut = {
  fresh : unit -> incarnation;
  owns : string -> bool;  (** the crash points the sweep and the matrix visit *)
  coverage : bool;  (** the sweep must trip every point the system owns *)
  rearm : bool;
      (** chaos: disarm for each recovery and re-arm with a derived seed
          after it, rather than leave the faults armed through recovery *)
  give_up : int;  (** chaos: crashes after which the run finishes disarmed *)
  recovering : string;  (** narration after "crashed at txn N, " *)
  chaos_label : int -> string;
  cells : quick:bool -> string -> (string * bool * config) list;
      (** chaos-matrix cells at a point: net-fault tag, coordinator kill,
          and the config that runs the cell *)
}

(* Run inputs [from .. n-1], tagging a crash with the input it hit. *)
let exec_each n run from =
  for at = from to n - 1 do
    try run at with Fault.Crash { point; hit } -> raise (Crashed { point; hit; at })
  done

(* Did the work logged since [start_lsn] reach a commit record?  (Deadlock
   and fault retries of one input log Abort for the dead attempts; only a
   Commit means the work is durable.) *)
let committed_since log start_lsn =
  List.exists
    (function Record.Commit _ -> true | _ -> false)
    (Log.appended_since log start_lsn)

let is_dist name = String.starts_with ~prefix:"dist." name

(* ------------------------------------------------------------------ *)
(* The single engine. *)

(* The harness runs under group commit so the sweep covers the [wal.flush]
   batch-boundary crash window (§17's widened loss unit): a crash loses whole
   un-synced batches, and the flushed log prefix is what restart sees. *)
let harness_wal = Log.Buffered { cap = Log.default_cap }

type engine = { baseline : Database.t; eng : Executor.t; mgr : Checkpoint.Manager.t }

(* Recover the crashed engine and check everything that must hold before
   any compensation is replayed.  Pure log reading: no crash point fires
   here. *)
let recover_verified errs label e =
  let records = Log.to_list (Executor.log e.eng) in
  let rep = Recovery.recover ~baseline:e.baseline records in
  (* replaying the WAL a second time from the same baseline is a no-op:
     recovery is a pure function of (baseline, log) *)
  let again = Recovery.recover ~baseline:e.baseline records in
  if not (Database.equal rep.Recovery.db again.Recovery.db) then
    err errs label "double WAL replay diverged";
  (* restarting from the last durable checkpoint must agree with replaying
     the whole log from the baseline *)
  let from_ckpt = Checkpoint.Manager.recover e.mgr ~baseline:e.baseline (Executor.log e.eng) in
  if not (Database.equal rep.Recovery.db from_ckpt.Recovery.db) then begin
    err errs label "checkpoint recovery diverged from full-log recovery";
    List.iter (fun l -> err errs label "  %s" l)
      (Database.diff rep.Recovery.db from_ckpt.Recovery.db)
  end;
  let pending_sig rep =
    List.map
      (fun p -> (p.Recovery.p_txn, p.Recovery.p_completed_steps, p.Recovery.p_area))
      rep.Recovery.pending
    |> List.sort compare
  in
  if pending_sig rep <> pending_sig from_ckpt then
    err errs label "checkpoint recovery reports a different pending set";
  rep

(* What a restart incarnation hands the next one: recovery's output is an
   atomically-installed checkpoint — the recovered snapshot plus the
   obligations still pending against it.  The next incarnation recovers
   from its own (snapshot, log) pair and merges: an obligation is dropped
   once the log resolves it (its compensation's Abort is durable),
   superseded by the log's fresher view if the log rewound a partial
   attempt, and carried unchanged if the crash cut it off before
   [adopt_pending] finished re-logging it — the case that makes carrying
   necessary at all. *)
let merge_carried carried (rep : Recovery.report) =
  List.filter_map
    (fun (p : Recovery.pending) ->
      if
        List.mem p.Recovery.p_txn rep.Recovery.committed
        || List.mem p.Recovery.p_txn rep.Recovery.already_resolved
      then None
      else
        match
          List.find_opt (fun (q : Recovery.pending) -> q.Recovery.p_txn = p.Recovery.p_txn)
            rep.Recovery.pending
        with
        | Some q -> Some q
        | None -> Some p)
    carried

(* Replay all pending compensations.  A crash can land inside the replay
   itself (comp.begin, comp.write, the WAL points): each retry re-recovers
   from the incarnation's snapshot over its own log, merges the carried
   obligations, and replays what is left.  Past 100 tries the faults are
   disarmed so chaos mode always terminates. *)
let replay_with_retries errs label ~workload ~sem rep0 =
  let rec go ~snapshot ~carried ~tries =
    let eng' = Executor.create ~wal_policy:harness_wal ~sem (Database.copy snapshot) in
    match List.iter (Replay.replay_one ~workload eng') carried with
    | () -> (snapshot, carried, eng')
    | exception Fault.Crash _ ->
        if tries >= 100 then Fault.disarm ();
        let rep = Recovery.recover ~baseline:snapshot (Log.to_list (Executor.log eng')) in
        go ~snapshot:rep.Recovery.db ~carried:(merge_carried carried rep) ~tries:(tries + 1)
  in
  let snapshot, carried, eng' =
    go ~snapshot:rep0.Recovery.db ~carried:rep0.Recovery.pending ~tries:0
  in
  (* re-deriving the incarnation from its snapshot + log must show every
     obligation resolved and reproduce the live state: compensation replay
     is crash-idempotent and complete *)
  let rep' = Recovery.recover ~baseline:snapshot (Log.to_list (Executor.log eng')) in
  (match merge_carried carried rep' with
  | [] -> ()
  | left -> err errs label "%d pending compensations survive replay" (List.length left));
  if not (Database.equal rep'.Recovery.db (Executor.db eng')) then
    err errs label "re-recovery of the replay log diverges from the live state";
  let locks = Executor.lock_service eng' in
  if Lock_service.lock_count locks <> 0 then
    err errs label "%d dangling locks after replay" (Lock_service.lock_count locks);
  if Lock_service.waiter_count locks <> 0 then
    err errs label "%d dangling waiters after replay" (Lock_service.waiter_count locks);
  Executor.db eng'

let single cfg s =
  let module W = (val cfg.workload : Acc_workload.S) in
  (* generated once, so every incarnation resubmits the same transactions
     (bodies draw no randomness — the crash-determinism rule every workload
     plugin obeys) *)
  W.reset_global ();
  let env = W.make_env ~seed:cfg.seed () in
  let inputs = Array.init cfg.txns (fun _ -> W.gen_input env) in
  let boot db =
    {
      baseline = Database.copy db;
      eng = Executor.create ~wal_policy:harness_wal ~sem:W.semantics db;
      mgr = Checkpoint.Manager.create ~every:s.checkpoint_every ();
    }
  in
  let fresh () =
    if s.step_fault_p > 0. then Fault.arm_step_faults ~seed:(cfg.seed + 1) ~p:s.step_fault_p;
    W.reset_global ();
    let e = ref (boot (W.populate ~seed:cfg.seed)) in
    let start_lsn = ref 0 in
    (* one fiber per transaction, and a quiescent checkpoint every
       [checkpoint_every] log records *)
    let run at =
      let { eng; mgr; _ } = !e in
      start_lsn := Log.length (Executor.log eng);
      Schedule.run eng [ (fun () -> ignore (W.run_acc eng env inputs.(at))) ];
      ignore (Checkpoint.Manager.maybe_take mgr (Executor.db eng) (Executor.log eng))
    in
    (* crash → recover → replay → verify, then restart on the recovered
       database; the crashed input is re-submitted unless its commit record
       was durable *)
    let recover errs label c =
      let committed = committed_since (Executor.log !e.eng) !start_lsn in
      let db =
        replay_with_retries errs label ~workload:W.workload ~sem:W.semantics
          (recover_verified errs label !e)
      in
      check_consistency errs label (W.consistency db);
      e := boot db;
      if committed then c.at + 1 else c.at
    in
    {
      exec_from = exec_each (Array.length inputs) run;
      recover;
      consistency = (fun () -> W.consistency (Executor.db !e.eng));
      teardown = ignore;
    }
  in
  {
    fresh;
    (* the dist.* points and the Prepare record belong to two-phase commit,
       which a single engine never enters *)
    owns = (fun name -> not (is_dist name) && name <> "wal.append.prepare");
    coverage = s.coverage;
    (* crashes also land inside the compensation replay, exercising its
       re-recovery path *)
    rearm = false;
    give_up = 500;
    recovering = "recovering";
    chaos_label = (fun seed -> Printf.sprintf "chaos(seed=%d,p=%g)" seed cfg.chaos_p);
    (* no network and one restart mode *)
    cells = (fun ~quick:_ _ -> [ ("net=none", false, cfg) ]);
  }

(* ------------------------------------------------------------------ *)
(* The partitioned system. *)

let coordinator_point = function
  | "dist.decide" | "dist.decision.durable" -> true
  | _ -> false

let matrix_faults =
  [
    ("net=none", Netfault.none);
    ("net=drop", Netfault.parse "drop=0.2,seed=11");
    ("net=dup", Netfault.parse "dup=0.2,seed=11");
    ("net=delay", Netfault.parse "delay=0.2,seed=11");
    ("net=reorder", Netfault.parse "reorder=0.2,seed=11");
    ("net=disconnect", Netfault.parse "disconnect=0.1,seed=11");
  ]

type deployment = {
  parts : Partition.t array;  (** rebuilt in place on restart *)
  baselines : Database.t array;
  dlog_path : string;  (** durable: the file survives every crash *)
  mutable remote : Coordinator.Remote.t;
  mutable start_lsns : Log.lsn array;  (** each partition's log length when the input started *)
  mutable gid_before : int;  (** the decision log's largest gid then *)
}

let coord d = Coordinator.Remote.core d.remote
let dlog d = Coordinator.decision_log (coord d)
let part_of d key = Partition.id (Coordinator.partition_of (coord d) key)

(* Was the crashed input's work durable, given the partitions it routes
   to?  Single-partition: a Commit record in its home-log suffix.
   Cross-partition: a Commit decision logged for a gid drawn after
   [gid_before] — the decision log is the commit point; everything after it
   is recovery's responsibility. *)
let durably_committed d = function
  | [ pid ] -> committed_since (Executor.log (Partition.engine d.parts.(pid))) d.start_lsns.(pid)
  | _ ->
      let g = Decision_log.max_gid (dlog d) in
      g > d.gid_before && Decision_log.lookup (dlog d) ~gid:g = Some Coordinator.Commit

(* Resolution decisions travel over a (fault-wrapped) Resolve connection
   against the given log, exactly as a restarted participant would ask a
   recovered coordinator; the direct log read is the liveness fallback when
   the fault layer eats every retry, applying the same presumed-abort rule
   the resolver itself does. *)
let transport_ask netfault log =
  let conn =
    Transport.loopback ~faults:netfault (function
      | Transport.Resolve { gid } ->
          Transport.Decide { gid; commit = Decision_log.lookup log ~gid = Some Coordinator.Commit }
      | m -> invalid_arg ("Crash_harness resolver: unexpected request " ^ Transport.msg_kind m))
  in
  fun gid ->
    let rec go attempt =
      if attempt > 5 then Some (Decision_log.lookup log ~gid = Some Coordinator.Commit)
      else
        match Transport.call conn (Transport.Resolve { gid }) with
        | Some (Transport.Decide { commit; _ }) -> Some commit
        | Some _ | None -> go (attempt + 1)
    in
    go 1

(* Recover one partition: full-log replay from its baseline, decision
   resolution of the in-doubt branches over the transport, compensation
   replay of the pending ones, and the re-derivation oracle.  Returns the
   recovered database and the largest gid seen in doubt. *)
let recover_partition errs label ~workload ~sem ~netfault d ~fresh_log idx =
  let records = Log.to_list (Executor.log (Partition.engine d.parts.(idx))) in
  let rep = Recovery.recover ~baseline:d.baselines.(idx) records in
  (* recovery is a pure function of (baseline, log) *)
  let again = Recovery.recover ~baseline:d.baselines.(idx) records in
  if not (Database.equal rep.Recovery.db again.Recovery.db) then
    err errs label "partition %d: double WAL replay diverged" idx;
  let max_doubt_gid =
    List.fold_left (fun m (x : Recovery.in_doubt) -> max m x.Recovery.i_gid) 0 rep.Recovery.in_doubt
  in
  let base2 = Database.copy rep.Recovery.db in
  let eng' = Executor.create ~sem rep.Recovery.db in
  let resolved, blocked =
    Coordinator.resolve_in_doubt_via ~ask:(transport_ask netfault fresh_log) ~workload eng' rep
  in
  if blocked > 0 then err errs label "partition %d: %d in-doubt branches left blocked" idx blocked;
  if resolved <> List.length rep.Recovery.in_doubt then
    err errs label "partition %d: %d in-doubt branches, %d resolved" idx
      (List.length rep.Recovery.in_doubt)
      resolved;
  ignore (Replay.replay_pending ~workload eng' rep);
  (* the oracle: re-deriving the partition from (post-recovery snapshot,
     resolution log) must show nothing in doubt and nothing pending — a
     second crash right here would find a fully decided partition *)
  let rep' = Recovery.recover ~baseline:base2 (Log.to_list (Executor.log eng')) in
  if rep'.Recovery.in_doubt <> [] then
    err errs label "partition %d: %d branches STILL in doubt after resolution" idx
      (List.length rep'.Recovery.in_doubt);
  if rep'.Recovery.pending <> [] then
    err errs label "partition %d: %d compensations survive replay" idx
      (List.length rep'.Recovery.pending);
  if not (Database.equal rep'.Recovery.db (Executor.db eng')) then
    err errs label "partition %d: re-recovery diverges from the live state" idx;
  let locks = Executor.lock_service eng' in
  if Lock_service.lock_count locks <> 0 then
    err errs label "partition %d: %d dangling locks after resolution" idx
      (Lock_service.lock_count locks);
  (Executor.db eng', max_doubt_gid)

let partitioned cfg p =
  let module W = (val cfg.workload : Acc_workload.S) in
  let cap =
    Acc_workload.capability ~who:"Crash_harness" ~name:W.name ~partitions:p.partitions
      W.partitioning
  in
  W.reset_global ();
  let env = W.make_env ~seed:cfg.seed () in
  let inputs = Array.init cfg.txns (fun _ -> W.gen_input env) in
  let ranges = Array.of_list (Partition.ranges ~warehouses:cap.keys ~partitions:p.partitions) in
  let partition id db =
    let lo, hi = ranges.(id) in
    Partition.make ~id ~lo ~hi (Executor.create ~sem:cap.semantics db)
  in
  let make_remote core = Coordinator.Remote.make ~transport:`Loopback ~faults:p.netfault core in
  let fresh () =
    W.reset_global ();
    let baselines = Array.make (Array.length ranges) (Database.create ()) in
    let parts =
      Array.mapi
        (fun id (lo, hi) ->
          let db = cap.populate_range ~seed:cfg.seed ~lo ~hi in
          baselines.(id) <- Database.copy db;
          partition id db)
        ranges
    in
    let dlog_path = Filename.temp_file "acc_decision" ".log" in
    let remote = make_remote (Coordinator.create ~log:(Decision_log.open_file dlog_path) parts) in
    let d = { parts; baselines; dlog_path; remote; start_lsns = [||]; gid_before = 0 } in
    let route input = cap.route ~part_of:(part_of d) input in
    let consistency () =
      cap.consistency (Array.to_list (Array.map (fun p -> Executor.db (Partition.engine p)) d.parts))
    in
    (* one transaction per scheduler run: a single-partition input on its
       home engine, a cross-partition one through the coordinator *)
    let run at =
      let input = inputs.(at) in
      d.start_lsns <- Array.map (fun p -> Log.length (Executor.log (Partition.engine p))) d.parts;
      d.gid_before <- Decision_log.max_gid (dlog d);
      match route input with
      | [ pid ] ->
          let eng = Partition.engine d.parts.(pid) in
          Schedule.run eng [ (fun () -> ignore (W.run_acc eng env input)) ]
      | _ ->
          let branches =
            List.map
              (fun (pid, inst) -> (d.parts.(pid), inst))
              (cap.branches env ~part_of:(part_of d) input)
          in
          let home = Partition.engine (fst (List.hd branches)) in
          Schedule.run home [ (fun () -> ignore (Coordinator.Remote.run_cross d.remote branches)) ]
    in
    (* Full restart: recover every partition, then reopen the on-disk
       decision log and rebuild coordinator + transport over it, the gid
       counter above every surviving gid.  The crashed coordinator's fd goes
       down with it; recovery reads the file back — load-time recovery is
       part of what is under test. *)
    let restart errs label ~at =
      Coordinator.Remote.close d.remote;
      Decision_log.close (dlog d);
      let fresh_log = Decision_log.open_file d.dlog_path in
      let max_gid = ref 0 in
      Array.iteri
        (fun idx _ ->
          let db, doubt_gid =
            recover_partition errs label ~workload:cap.workload ~sem:cap.semantics
              ~netfault:p.netfault d ~fresh_log idx
          in
          max_gid := max !max_gid doubt_gid;
          d.baselines.(idx) <- Database.copy db;
          d.parts.(idx) <- partition idx db)
        d.parts;
      d.remote <- make_remote (Coordinator.create ~log:fresh_log ~first_gid:(!max_gid + 1) d.parts);
      (* the system is quiescent right after recovery (the crashed
         transaction was either finished by resolution or wholly undone), so
         the merged database must already be consistent here, not only at
         the end *)
      check_consistency errs (label ^ Printf.sprintf "[post-crash txn %d]" at) (consistency ())
    in
    (* Coordinator kill: only the coordinator process dies.  The partitions'
       engines survive — prepared branches still hold their until-commit and
       compensation locks — and {!Coordinator.Remote.recover} fails over:
       reopen the log, restart the gid counter above every survivor, settle
       the in-doubt branches over the transport.  No WAL replay happens, so
       this is the pure failover path; presumed abort is sound here because
       the old coordinator died before its durability point. *)
    let failover errs label ~at =
      (match Coordinator.Remote.recover d.remote with
      | _resolved -> ()
      | exception e -> err errs label "failover raised %s" (Printexc.to_string e));
      Array.iteri
        (fun idx p ->
          let locks = Executor.lock_service (Partition.engine p) in
          if Lock_service.lock_count locks <> 0 then
            err errs label "partition %d: %d locks survive failover settlement" idx
              (Lock_service.lock_count locks))
        d.parts;
      check_consistency errs (label ^ Printf.sprintf "[post-failover txn %d]" at) (consistency ())
    in
    let recover errs label c =
      let committed = durably_committed d (route inputs.(c.at)) in
      if p.coordinator_kill && coordinator_point c.point then failover errs label ~at:c.at
      else restart errs label ~at:c.at;
      if committed then c.at + 1 else c.at
    in
    {
      exec_from = exec_each (Array.length inputs) run;
      recover;
      consistency;
      teardown =
        (fun () ->
          Coordinator.Remote.close d.remote;
          Decision_log.close (dlog d);
          try Sys.remove d.dlog_path with Sys_error _ -> ());
    }
  in
  {
    fresh;
    owns = is_dist;
    (* a partitioned workload that never reaches a dist point is not
       testing two-phase commit at all *)
    coverage = true;
    (* a restarted process boots with no crash injector armed; the
       message-fault layer stays live throughout — the network does not
       heal because a process died *)
    rearm = true;
    give_up = 200;
    recovering = Printf.sprintf "recovering %d partitions" (Array.length ranges);
    chaos_label =
      (fun seed ->
        Printf.sprintf "dist-chaos(seed=%d,p=%g%s%s)" seed cfg.chaos_p
          (if Netfault.is_none p.netfault then "" else "," ^ Netfault.to_string p.netfault)
          (if p.coordinator_kill then ",kill" else ""));
    (* killing the coordinator at a participant-side point is a no-op
       pairing, so [kill] cells only exist for coordinator-side points *)
    cells =
      (fun ~quick point ->
        List.concat_map
          (fun (tag, netfault) ->
            List.filter_map
              (fun kill ->
                if kill && not (coordinator_point point) then None
                else
                  Some
                    ( tag,
                      kill,
                      { cfg with system = Partitioned { p with netfault; coordinator_kill = kill } }
                    ))
              [ false; true ])
          (if quick then [ List.nth matrix_faults 1 ] else matrix_faults));
  }

let system cfg =
  match cfg.system with Single s -> single cfg s | Partitioned p -> partitioned cfg p

(* ------------------------------------------------------------------ *)
(* The driver. *)

(* Dry-run the workload with counters live but nothing armed, to learn how
   many passages each owned crash point sees. *)
let observe sys =
  Fault.observe ();
  let inc = sys.fresh () in
  inc.exec_from 0;
  let counts =
    List.filter_map
      (fun name -> if sys.owns name then Some (name, Fault.trips_of name) else None)
      (Fault.registered ())
  in
  Fault.disarm ();
  (counts, inc)

(* [1; …; n] spread over [want] evenly-spaced values. *)
let hit_spread ~want n =
  if n <= 0 then []
  else
    let want = max 1 (min want n) in
    List.init want (fun k -> if want = 1 then 1 else 1 + (k * (n - 1) / (want - 1)))
    |> List.sort_uniq compare

let finish inc errs label crashes =
  Fault.disarm ();
  check_consistency errs label (inc.consistency ());
  inc.teardown ();
  { r_label = label; r_crashes = crashes; r_errors = List.rev !errs }

let run_in sys cfg ~tag ~point ~hit =
  let label = Printf.sprintf "%s:%d%s" point hit tag in
  let errs = ref [] in
  Fault.arm ~point ~hit;
  let inc = sys.fresh () in
  let crashes = ref 0 in
  let rec go from =
    match inc.exec_from from with
    | () -> ()
    | exception Crashed c ->
        incr crashes;
        say cfg "  %s: crashed at txn %d, %s" label c.at sys.recovering;
        (* the armed hit fired; recovery and the resumed run must survive
           with nothing armed, as a restarted process would *)
        Fault.disarm ();
        go (inc.recover errs label c)
  in
  go 0;
  if !crashes = 0 then err errs label "armed crash never fired";
  finish inc errs label !crashes

let run_one cfg ~point ~hit = run_in (system cfg) cfg ~tag:"" ~point ~hit

let sweep cfg =
  let sys = system cfg in
  let counts, clean = observe sys in
  let errs0 = ref [] in
  check_consistency errs0 "baseline(no faults)" (clean.consistency ());
  clean.teardown ();
  if sys.coverage then
    List.iter
      (fun (name, n) ->
        if n = 0 then err errs0 "coverage" "crash point %s never tripped by the workload" name)
      counts;
  let base = { r_label = "baseline(no faults)"; r_crashes = 0; r_errors = List.rev !errs0 } in
  let per_point =
    List.concat_map
      (fun (point, n) ->
        List.map
          (fun hit ->
            say cfg "sweep %s hit %d/%d" point hit n;
            run_in sys cfg ~tag:"" ~point ~hit)
          (hit_spread ~want:cfg.hits_per_point n))
      counts
  in
  base :: per_point

let sweep_matrix ?(quick = false) cfg =
  let sys = system cfg in
  List.concat_map
    (fun point ->
      List.map
        (fun (net, kill, cell) ->
          say cfg "matrix %s %s kill=%b" point net kill;
          let tag = Printf.sprintf "[%s]%s" net (if kill then "[kill]" else "") in
          run_in (system cell) cell ~tag ~point ~hit:1)
        (sys.cells ~quick point))
    (List.filter sys.owns (Fault.registered ()))

let chaos cfg ~seed =
  let sys = system cfg in
  let label = sys.chaos_label seed in
  let errs = ref [] in
  Fault.arm_chaos ~seed ~p:cfg.chaos_p;
  let inc = sys.fresh () in
  let crashes = ref 0 in
  let rec go from =
    if !crashes > sys.give_up then begin
      (* chaos drew an unluckily hot sequence; finish deterministically so
         the run terminates and the invariants still get checked *)
      Fault.disarm ();
      err errs label "gave up injecting after %d crashes" sys.give_up
    end;
    match inc.exec_from from with
    | () -> ()
    | exception Crashed c ->
        incr crashes;
        say cfg "  %s: crash #%d at %s:%d (txn %d)" label !crashes c.point c.hit c.at;
        if sys.rearm then Fault.disarm ();
        let resume = inc.recover errs label c in
        (* a derived seed, so successive crashes land at different points *)
        if sys.rearm then Fault.arm_chaos ~seed:(seed + (7919 * !crashes)) ~p:cfg.chaos_p;
        go resume
  in
  go 0;
  finish inc errs label !crashes

let pp_result ppf r =
  if failed r then
    Format.fprintf ppf "@[<v2>FAIL %s (%d crashes):@,%a@]" r.r_label r.r_crashes
      (Format.pp_print_list Format.pp_print_string)
      r.r_errors
  else Format.fprintf ppf "ok   %s (%d crashes)" r.r_label r.r_crashes
