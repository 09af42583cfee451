(* Two-phase commit over ACC partitions.

   A cross-partition transaction is a set of per-partition branches, each a
   normal ACC program instance.  The coordinator drives them through
   prepare/decide/apply:

   - branches prepare in ascending partition-id order, each on its own
     {!Participant} over the transport ([Runtime.prepare] runs every step,
     logs the Prepare vote, and keeps the assertional and compensation
     locks held across the in-doubt window — the conventional locks were
     already released at each step boundary, so the prepare window pins
     only what ACC would pin anyway);
   - the decision is durable once it is in the decision log (the
     coordinator's analogue of a commit record); no logged decision means
     abort — presumed abort, so a crash before logging needs no cleanup;
   - each participant applies [Runtime.commit_prepared] on commit and
     [Runtime.abort_prepared] on abort, i.e. compensation replay, ACC's
     logical undo, as the distributed cancel path.

   Crash points:
   - "dist.prepare"          (in Executor.prepare: vote logged, locks held)
   - "dist.decide"           (decision chosen, not yet durable -> presumed
                              abort on recovery)
   - "dist.decision.durable" (decision durable, participants untold -> the
                              decision log resolves the in-doubt branches) *)

module Replay = Acc_core.Replay
module Program = Acc_core.Program
module Recovery = Acc_wal.Recovery
module Fault = Acc_fault.Fault
module Trace = Acc_obs.Trace
module Stats = Acc_util.Stats

let cp_decide = Fault.register "dist.decide"
let cp_decision_durable = Fault.register "dist.decision.durable"

type decision = Commit | Abort

(* The coordinator's commit record.  In-memory ([Mem]) for tests that only
   need the protocol; file-backed ([File]) for anything that survives a
   coordinator death: an append-only log of fixed 9-byte records (8-byte
   big-endian gid, 1 decision byte) behind the WAL's magic+version header
   discipline.  [record] fsyncs before returning — "dist.decision.durable"
   really means the bytes are on disk — and a torn tail (a crash mid-append)
   is truncated away at open, exactly like the WAL's load path.  Lookups
   always hit the in-memory mirror; the file is only read at open. *)
module Decision_log = struct
  type backend = Mem | File of { fd : Unix.file_descr; path : string }

  type t = { mu : Mutex.t; tbl : (int, decision) Hashtbl.t; backend : backend }

  let magic = "ACCDEC\x00\x00"
  let format_version = 1
  let record_size = 9

  let create () =
    { mu = Mutex.create (); tbl = Hashtbl.create 64; backend = Mem }

  let path t = match t.backend with Mem -> None | File f -> Some f.path

  let encode_record gid d =
    let b = Bytes.create record_size in
    Bytes.set_int64_be b 0 (Int64.of_int gid);
    Bytes.set b 8 (match d with Commit -> '\001' | Abort -> '\000');
    b

  (* A record is only as durable as every one of its bytes: loop short
     writes to completion and fail loudly if the kernel cannot take them
     — silently dropping a tail here would turn an acked commit into a
     torn record the next open truncates away. *)
  let rec write_all ~who fd b off len =
    if len > 0 then
      match Unix.write fd b off len with
      | 0 -> failwith (who ^ ": short write to decision log")
      | n -> write_all ~who fd b (off + n) (len - n)

  let open_file path =
    let module Header = Acc_wal.Log.Header in
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let size = (Unix.fstat fd).Unix.st_size in
    let tbl = Hashtbl.create 64 in
    let hlen = Header.size ~magic in
    if size < hlen then begin
      (* empty, or a crash during the initial header write left a torn
         header: either way the file provably contains no complete
         record, so reinitialise rather than failing every open *)
      if size > 0 then begin
        Unix.ftruncate fd 0;
        ignore (Unix.lseek fd 0 Unix.SEEK_SET)
      end;
      let h = Header.to_string ~magic ~version:format_version in
      write_all ~who:"Decision_log.open_file" fd
        (Bytes.unsafe_of_string h) 0 (String.length h);
      Unix.fsync fd
    end
    else begin
      let rec really_read b off len =
        if len > 0 then
          match Unix.read fd b off len with
          | 0 -> off
          | n -> really_read b (off + n) (len - n)
        else off
      in
      let hb = Bytes.create hlen in
      let got = really_read hb 0 hlen in
      Header.check ~magic ~version:format_version ~what:"decision log"
        ~who:"Decision_log.open_file" ~path
        (Bytes.sub_string hb 0 got);
      let body = size - hlen in
      let whole = body / record_size * record_size in
      let b = Bytes.create whole in
      let got = really_read b 0 whole in
      let n = got / record_size in
      for i = 0 to n - 1 do
        let off = i * record_size in
        let gid = Int64.to_int (Bytes.get_int64_be b off) in
        let d = if Bytes.get b (off + 8) = '\001' then Commit else Abort in
        Hashtbl.replace tbl gid d
      done;
      if whole < body then
        (* torn tail: a crash mid-append left a partial record *)
        Unix.ftruncate fd (hlen + whole);
      ignore (Unix.lseek fd 0 Unix.SEEK_END)
    end;
    { mu = Mutex.create (); tbl; backend = File { fd; path } }

  let record t ~gid d =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let fresh = Hashtbl.find_opt t.tbl gid <> Some d in
        if fresh then begin
          Hashtbl.replace t.tbl gid d;
          match t.backend with
          | Mem -> ()
          | File { fd; _ } ->
              let b = encode_record gid d in
              write_all ~who:"Decision_log.record" fd b 0 record_size;
              Unix.fsync fd
        end)

  let lookup t ~gid =
    Mutex.lock t.mu;
    let r = Hashtbl.find_opt t.tbl gid in
    Mutex.unlock t.mu;
    r

  let size t =
    Mutex.lock t.mu;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mu;
    n

  let max_gid t =
    Mutex.lock t.mu;
    let m = Hashtbl.fold (fun gid _ m -> max gid m) t.tbl 0 in
    Mutex.unlock t.mu;
    m

  let close t =
    match t.backend with
    | Mem -> ()
    | File { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
end

type t = {
  parts : Partition.t array;
  log : Decision_log.t;
  next_gid : int Atomic.t;
  committed : int Atomic.t;
  aborted : int Atomic.t;
  stats_mu : Mutex.t;
  prepare_hold : Stats.Tally.t;  (* seconds, guarded by stats_mu *)
  prepare_hold_hist : Acc_util.Metrics.Histogram.t;
      (* same windows as [prepare_hold], but quantile-capable and lock-free
         to read — the registry's acc_coordinator_prepare_hold_seconds *)
}

(* [first_gid] matters when rebuilding after a crash: a fresh gid counter
   restarting at 1 could collide with a stale in-doubt branch's gid and make
   an old decision-log entry speak for a new transaction.  Restart above the
   watermark of every surviving gid (decision log + prepared WAL records). *)
let create ?log ?(first_gid = 1) parts =
  if Array.length parts = 0 then invalid_arg "Coordinator.create: no partitions";
  let sorted = Array.copy parts in
  Array.sort (fun a b -> compare (Partition.id a) (Partition.id b)) sorted;
  let log = match log with Some l -> l | None -> Decision_log.create () in
  let t =
    {
      parts = sorted;
      log;
      next_gid = Atomic.make (max first_gid (Decision_log.max_gid log + 1));
      committed = Atomic.make 0;
      aborted = Atomic.make 0;
      stats_mu = Mutex.create ();
      prepare_hold = Stats.Tally.create ();
      prepare_hold_hist = Acc_util.Metrics.Histogram.create ();
    }
  in
  let reg ?help name v = Acc_obs.Registry.register ?help name v in
  reg "acc_coordinator_cross_committed_total" ~help:"cross-partition 2PC commits"
    (Acc_obs.Registry.Poll_counter (fun () -> Atomic.get t.committed));
  reg "acc_coordinator_cross_aborted_total" ~help:"cross-partition 2PC aborts"
    (Acc_obs.Registry.Poll_counter (fun () -> Atomic.get t.aborted));
  reg "acc_coordinator_decisions_total" ~help:"durable decision-log entries"
    (Acc_obs.Registry.Poll_counter (fun () -> Decision_log.size t.log));
  reg "acc_coordinator_prepare_hold_seconds"
    ~help:"first prepare to decision applied, per cross transaction"
    (Acc_obs.Registry.Histogram t.prepare_hold_hist);
  t

let partitions t = t.parts
let decision_log t = t.log

let partition_of t w =
  let rec find i =
    if i >= Array.length t.parts then
      invalid_arg (Printf.sprintf "Coordinator.partition_of: warehouse %d unowned" w)
    else if Partition.owns t.parts.(i) w then t.parts.(i)
    else find (i + 1)
  in
  find 0

let decision_of t ~gid = Decision_log.lookup t.log ~gid


let prepare_hold_snapshot t =
  Mutex.lock t.stats_mu;
  let s = Stats.Tally.merge t.prepare_hold (Stats.Tally.create ()) in
  Mutex.unlock t.stats_mu;
  s

let record_hold t dt =
  Mutex.lock t.stats_mu;
  Stats.Tally.add t.prepare_hold dt;
  Mutex.unlock t.stats_mu;
  Acc_util.Metrics.Histogram.record t.prepare_hold_hist dt

type outcome = Committed | Aborted

(* Post-recovery resolution of a partition's in-doubt branches: the
   decision comes from [ask] (normally a Resolve RPC against the
   coordinator, with the durable log as fallback).  [None] leaves the
   branch blocked — the caller decides whether presumed abort applies, not
   this function. *)
let resolve_in_doubt_via ~ask ~workload eng (report : Recovery.report) =
  List.fold_left
    (fun (resolved, blocked) (d : Recovery.in_doubt) ->
      match ask d.Recovery.i_gid with
      | Some commit ->
          Replay.resolve_in_doubt ~workload eng ~commit d;
          (resolved + 1, blocked)
      | None -> (resolved, blocked + 1))
    (0, 0) report.Recovery.in_doubt

(* The coordinator driven over the RPC transport: one participant and one
   connection per partition, plus a resolver connection that answers
   Resolve from whatever core currently holds the decision log (so a
   failed-over core picks up resolution duty the instant [recover] swaps
   it in).

   Timeouts vote no / retry with decorrelated jitter; every handler on the
   other side is idempotent, so a retry that duplicates a delivered frame
   is safe.  After the decision is durable, the coordinator never gives up
   on a participant: a Decide lost to the wire is settled from the durable
   log before [run_cross] returns, so an acked commit cannot be lost to a
   transport fault. *)
module Remote = struct
  module Backoff = Acc_txn.Backoff

  type link = { participant : Participant.t; conn : Transport.t }

  type nonrec t = {
    cell : t ref;  (* the current core; [recover] swaps it *)
    links : link array;
    resolver : Transport.t;
    transport_kind : Transport.kind;
    retries : int;
    prepare_deadline : float;
  }

  (* each wait for a decision's acknowledgement on the pipe transport *)
  let decide_deadline = 0.2

  let core r = !(r.cell)
  let participants r = Array.map (fun l -> l.participant) r.links
  let transport r = r.transport_kind

  let make ?stop ?(retries = 4) ?(transport = `Loopback)
      ?(faults = Fault.Netfault.none) ?(prepare_deadline = 5.0) core =
    let connect handler =
      match transport with
      | `Loopback -> Transport.loopback ~faults handler
      | `Pipe ->
          (* the request loop runs on its own domain, outside any caller's
             scheduler: a branch that backs off before retrying a step
             ([Txn_effect.yield]) needs the engine's handler there, or the
             yield escapes and the branch is dropped mid-transaction *)
          Transport.pipe ~faults (fun m ->
              Acc_parallel.Engine.run_txn (fun () -> handler m))
    in
    let links =
      Array.map
        (fun part ->
          let participant = Participant.make ?stop part in
          { participant; conn = connect (Participant.handle participant) })
        (partitions core)
    in
    let cell = ref core in
    let resolver =
      connect (function
        | Transport.Resolve { gid } ->
            Transport.Decide
              { gid; commit = decision_of !cell ~gid = Some Commit }
        | m ->
            invalid_arg
              ("Coordinator.Remote resolver: unexpected request "
              ^ Transport.msg_kind m))
    in
    {
      cell;
      links;
      resolver;
      transport_kind = transport;
      retries;
      prepare_deadline;
    }

  let link_of r part =
    let id = Partition.id part in
    match
      Array.find_opt
        (fun l -> Partition.id (Participant.partition l.participant) = id)
        r.links
    with
    | Some l -> l
    | None -> invalid_arg "Coordinator.Remote: branch on an unknown partition"

  let rpc r conn ~deadline msg =
    let bo = Backoff.Jitter.create () in
    let rec go attempt =
      match Transport.call ~deadline conn msg with
      | Some reply -> Some reply
      | None ->
          if attempt > r.retries then None
          else begin
            if Trace.enabled () then
              Trace.emit
                (Trace.Rpc_retry
                   {
                     msg = Transport.msg_kind msg;
                     gid = Transport.gid_of msg;
                     attempt;
                   });
            (match r.transport_kind with
            | `Pipe -> Unix.sleepf (Backoff.Jitter.next bo ~attempt)
            | `Loopback -> ());
            go (attempt + 1)
          end
    in
    go 1

  let run_cross r branches =
    if branches = [] then
      invalid_arg "Coordinator.Remote.run_cross: no branches";
    let core = !(r.cell) in
    let branches =
      List.sort
        (fun (p1, _) (p2, _) -> compare (Partition.id p1) (Partition.id p2))
        branches
    in
    let gid = Atomic.fetch_and_add core.next_gid 1 in
    let t0 = Unix.gettimeofday () in
    let touched, all_voted =
      List.fold_left
        (fun (acc, ok) (part, inst) ->
          if not ok then (acc, false)
          else begin
            let link = link_of r part in
            Participant.stage link.participant ~gid inst;
            match
              rpc r link.conn ~deadline:r.prepare_deadline
                (Transport.Prepare { gid; part = Partition.id part })
            with
            | Some (Transport.Vote { ok = v; _ }) -> (link :: acc, v)
            | Some _ | None -> (link :: acc, false)
          end)
        ([], true) branches
    in
    let touched = List.rev touched in
    let commit = all_voted in
    Fault.trip cp_decide;
    Decision_log.record core.log ~gid (if commit then Commit else Abort);
    Fault.trip cp_decision_durable;
    if Trace.enabled () then
      Trace.emit
        (Trace.Decide { gid; commit; participants = List.length branches });
    List.iter
      (fun link ->
        (match
           rpc r link.conn ~deadline:decide_deadline
             (Transport.Decide { gid; commit })
         with
        | Some (Transport.Ack _) -> ()
        | Some _ | None -> ());
        (* the decision is durable: a participant the wire failed is
           settled from the log right now, never left in doubt *)
        ignore
          (Participant.settle_gid link.participant
             ~ask:(fun g ->
               match Decision_log.lookup core.log ~gid:g with
               | Some Commit -> Some true
               | Some Abort -> Some false
               | None -> None)
             gid);
        Participant.forget link.participant ~gid)
      touched;
    record_hold core (Unix.gettimeofday () -. t0);
    if commit then begin
      Atomic.incr core.committed;
      Committed
    end
    else begin
      Atomic.incr core.aborted;
      Aborted
    end

  (* Coordinator failover: the old core died (its in-memory state is gone);
     rebuild from the on-disk decision log, restart the gid counter above
     every surviving gid, swap the core in, and drive every participant's
     in-doubt branches to resolution over the transport.  Presumed abort is
     sound here precisely because failover runs quiescently: an unlogged
     decision can only belong to a coordinator that died before its
     durability point. *)
  let recover ?first_gid r =
    let old = !(r.cell) in
    let path =
      match Decision_log.path old.log with
      | Some p -> p
      | None ->
          invalid_arg
            "Coordinator.Remote.recover: decision log is not file-backed"
    in
    Decision_log.close old.log;
    let log = Decision_log.open_file path in
    let survivors =
      Array.fold_left
        (fun m l -> max m (Participant.max_gid l.participant))
        0 r.links
      + 1
    in
    let first_gid = max (Option.value first_gid ~default:1) survivors in
    r.cell := create ~log ~first_gid (partitions old);
    let ask g =
      match
        rpc r r.resolver ~deadline:decide_deadline
          (Transport.Resolve { gid = g })
      with
      | Some (Transport.Decide { commit; _ }) -> Some commit
      | Some _ | None ->
          (* wire too faulty even with retries: read the durable log
             directly (same presumed-abort rule the resolver applies) *)
          Some (Decision_log.lookup log ~gid:g = Some Commit)
    in
    Array.fold_left
      (fun n l -> n + fst (Participant.settle l.participant ~ask))
      0 r.links

  let close r =
    Array.iter (fun l -> Transport.close l.conn) r.links;
    Transport.close r.resolver
end
