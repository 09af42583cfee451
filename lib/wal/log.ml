type lsn = int

type policy = Direct | Buffered of { cap : int }

let default_cap = 64

(* A domain-local staging buffer: appends land here without any shared-state
   round trip and reach the log array only on {!sync} (or when [cap]
   overflows).  [items] is newest-first. *)
type buffer = { mutable items : Record.t list; mutable count : int }

(* [mu] serializes the flushed array only: every transaction on every domain
   appends, but readers (recovery, tests, checkpointing) run on a quiesced
   engine.  Under [Buffered] policies the array holds exactly the {e flushed}
   records — a crash loses the buffered tails, which is the point of the
   group-commit durability contract (DESIGN.md §17): an operation is durable
   iff its batch was flushed, and commit acknowledgement orders after the
   {!sync} of the batch holding the commit record. *)
type t = {
  mutable records : Record.t array;
  mutable len : int;
  mu : Mutex.t;
  policy : policy;
  flushes : int Atomic.t;
      (* durability round trips: one per append under [Direct], one per
         flushed batch under [Buffered] — the "WAL flushes" of bench scale *)
  buffers : buffer list Atomic.t;  (* every domain's buffer, for flush_all *)
  key : buffer Domain.DLS.key;  (* this domain's buffer (per-log key) *)
  (* group-commit state, used only by [Buffered] *)
  gmu : Mutex.t;
  gcond : Condition.t;
  mutable staged : Record.t list list;  (* staged batches, staging order *)
  mutable staged_ticket : int;  (* ticket of the newest staged batch *)
  mutable flushed_ticket : int;  (* batches up to here are in the array *)
  mutable leader_active : bool;
}

(* One crash point per record kind, tripped just before the append becomes
   visible: a crash here models losing the record (and everything the
   transaction would have done after it) — the recovery-critical window for
   each record type.  Keyed by [Record.kind] so Write/undo distinguish. *)
let crash_points =
  List.map
    (fun kind -> (kind, Acc_fault.Fault.register ("wal.append." ^ kind)))
    [ "begin"; "write"; "undo"; "step_end"; "commit"; "abort"; "prepare" ]

let trip_for r = Acc_fault.Fault.trip (List.assoc (Record.kind r) crash_points)

(* The batch-boundary crash point: tripping here loses the whole un-flushed
   batch (every record since the previous flush), the window group commit
   widens and the recovery tests must therefore cover.  Tripped at the top
   of {!sync}, before any batch is staged, so an injected crash can never
   strand group-commit followers behind a dead leader. *)
let cp_flush = Acc_fault.Fault.register "wal.flush"

let create ?(policy = Direct) () =
  let buffers = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let b = { items = []; count = 0 } in
        let rec register () =
          let old = Atomic.get buffers in
          if not (Atomic.compare_and_set buffers old (b :: old)) then register ()
        in
        register ();
        b)
  in
  {
    records = Array.make 256 (Record.Commit { txn = -1 });
    len = 0;
    mu = Mutex.create ();
    policy;
    flushes = Atomic.make 0;
    buffers;
    key;
    gmu = Mutex.create ();
    gcond = Condition.create ();
    staged = [];
    staged_ticket = -1;
    flushed_ticket = -1;
    leader_active = false;
  }

let policy t = t.policy
let flush_count t = Atomic.get t.flushes

(* Append one record to the flushed array.  Caller holds [t.mu]. *)
let push_record t r =
  if t.len = Array.length t.records then begin
    let bigger = Array.make (2 * t.len) r in
    Array.blit t.records 0 bigger 0 t.len;
    t.records <- bigger
  end;
  t.records.(t.len) <- r;
  t.len <- t.len + 1;
  t.len - 1

(* Flush one batch (append order) under a single [t.mu] round trip. *)
let flush_batch t items =
  match items with
  | [] -> ()
  | items ->
      Mutex.lock t.mu;
      List.iter (fun r -> ignore (push_record t r)) items;
      Mutex.unlock t.mu;
      Atomic.incr t.flushes;
      if Acc_obs.Trace.enabled () then
        Acc_obs.Trace.emit (Acc_obs.Trace.Wal_flush { records = List.length items })

(* Group commit: stage the batch, then either lead — drain {e every} staged
   batch under one [t.mu] round trip, repeat until nothing is staged — or
   wait until a leader's flush covers our ticket.  Commit acknowledgement
   (the caller's return from {!sync}) therefore orders after the flush of
   the batch holding the commit record, never before. *)
let sync_group t items =
  Mutex.lock t.gmu;
  t.staged_ticket <- t.staged_ticket + 1;
  let my = t.staged_ticket in
  t.staged <- t.staged @ [ items ];
  if t.leader_active then begin
    while t.flushed_ticket < my do
      Condition.wait t.gcond t.gmu
    done;
    Mutex.unlock t.gmu
  end
  else begin
    t.leader_active <- true;
    while t.flushed_ticket < t.staged_ticket do
      let batches = t.staged in
      let upto = t.staged_ticket in
      t.staged <- [];
      Mutex.unlock t.gmu;
      flush_batch t (List.concat batches);
      Mutex.lock t.gmu;
      t.flushed_ticket <- upto;
      Condition.broadcast t.gcond
    done;
    t.leader_active <- false;
    Mutex.unlock t.gmu
  end

(* Make everything this domain appended durable.  No-op under [Direct]
   (appends are already in the array) and on an empty buffer. *)
let sync t =
  match t.policy with
  | Direct -> ()
  | Buffered _ ->
      let b = Domain.DLS.get t.key in
      if b.items <> [] then begin
        let items = List.rev b.items in
        b.items <- [];
        b.count <- 0;
        Acc_fault.Fault.trip cp_flush;
        sync_group t items
      end

(* Drain every domain's buffer.  Only callable on a quiesced engine (no
   in-flight appends), e.g. by {!Executor.checkpoint} before it reads the
   log; buffer order across domains is arbitrary, which is fine — records
   of one domain stay in order, and inter-domain order of unsynced records
   was never promised. *)
let flush_all t =
  match t.policy with
  | Direct -> ()
  | Buffered _ ->
      List.iter
        (fun b ->
          if b.items <> [] then begin
            let items = List.rev b.items in
            b.items <- [];
            b.count <- 0;
            flush_batch t items
          end)
        (Atomic.get t.buffers)

let append t r =
  trip_for r;
  match t.policy with
  | Buffered { cap } ->
      let b = Domain.DLS.get t.key in
      b.items <- r :: b.items;
      b.count <- b.count + 1;
      if Acc_obs.Trace.enabled () then
        Acc_obs.Trace.emit
          (Acc_obs.Trace.Wal_append { txn = Record.txn_of r; lsn = -1; kind = Record.kind r; dur = 0. });
      if b.count >= cap then sync t;
      (* buffered records have no LSN until their batch flushes *)
      -1
  | Direct ->
      (* the clock runs only under tracing, so the disabled path stays two
         mutex ops + the one [enabled] guard *)
      let t0 = if Acc_obs.Trace.enabled () then Unix.gettimeofday () else 0. in
      Mutex.lock t.mu;
      let lsn = push_record t r in
      Mutex.unlock t.mu;
      Atomic.incr t.flushes;
      if Acc_obs.Trace.enabled () then begin
        let dur = if t0 = 0. then 0. else Unix.gettimeofday () -. t0 in
        Acc_obs.Trace.emit
          (Acc_obs.Trace.Wal_append { txn = Record.txn_of r; lsn; kind = Record.kind r; dur })
      end;
      lsn

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Log.get: lsn out of range";
  t.records.(i)

let to_list t = Array.to_list (Array.sub t.records 0 t.len)

let iter f t =
  for i = 0 to t.len - 1 do
    f i t.records.(i)
  done

let prefix t n = Array.to_list (Array.sub t.records 0 (min n t.len))

let appended_since t lsn =
  let from = max 0 lsn in
  if from >= t.len then [] else Array.to_list (Array.sub t.records from (t.len - from))

(* The on-disk format is a fixed magic string, a format-version integer, then
   the marshalled record list.  Marshal payloads are build-fragile, so the
   header is what turns "Marshal.from_channel blew up" into an actionable
   error: a foreign file fails on the magic, an old/new log fails on the
   version.  The header discipline is shared — the coordinator's durable
   decision log and the RPC framing reuse it with their own magic. *)
module Header = struct
  let size ~magic = String.length magic + 4

  let to_string ~magic ~version =
    let m = String.length magic in
    let b = Bytes.create (m + 4) in
    Bytes.blit_string magic 0 b 0 m;
    Bytes.set_int32_be b m (Int32.of_int version);
    Bytes.unsafe_to_string b

  let check ~magic ~version ~what ~who ~path s =
    let m = String.length magic in
    if String.length s < m then
      failwith
        (Printf.sprintf "%s: %s is not a %s file (shorter than the header)" who path what);
    if String.sub s 0 m <> magic then
      failwith (Printf.sprintf "%s: %s is not a %s file (bad magic)" who path what);
    if String.length s < m + 4 then
      failwith (Printf.sprintf "%s: %s is truncated (no format version)" who path);
    let v = Int32.to_int (String.get_int32_be s m) in
    if v <> version then
      failwith
        (Printf.sprintf "%s: %s has %s format version %d, this build reads version %d" who
           path what v version)
end

let magic = "ACCWAL\x00\x00"
(* bumped on every change to the record format, so the header check
   refuses an older log loudly instead of mis-reading it (version 2 put the
   work area into the step-end record) *)
let format_version = 2

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Header.to_string ~magic ~version:format_version);
      Marshal.to_channel oc (to_list t) []);
  if Acc_obs.Trace.enabled () then
    Acc_obs.Trace.emit (Acc_obs.Trace.Wal_flush { records = t.len })

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header =
        let n = Header.size ~magic in
        let b = Buffer.create n in
        (try
           while Buffer.length b < n do
             Buffer.add_channel b ic 1
           done
         with End_of_file -> ());
        Buffer.contents b
      in
      Header.check ~magic ~version:format_version ~what:"WAL" ~who:"Log.load" ~path header;
      let records : Record.t list =
        try Marshal.from_channel ic
        with _ -> failwith ("Log.load: unreadable log file " ^ path)
      in
      let t = create () in
      List.iter (fun r -> ignore (append t r)) records;
      t)

let pp ppf t = iter (fun i r -> Format.fprintf ppf "%4d %a@." i Record.pp r) t
