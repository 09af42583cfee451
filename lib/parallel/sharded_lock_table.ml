module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id
module Lock_table = Acc_lock.Lock_table
module Lock_core = Acc_lock.Lock_core
module Lock_request = Acc_lock.Lock_request
module Lock_service = Acc_lock.Lock_service
module Txn_effect = Acc_txn.Txn_effect

(* Each shard is a complete sequential {!Lock_table} behind its own mutex:
   all compatibility, queuing and upgrade logic is the single-threaded code
   path, verbatim, which is what makes the sharded table decision-equivalent
   to the sequential one (property-tested in test/test_parallel.ml).

   The shard key is the {e table name} of the resource, so a tuple always
   lands in the same shard as its parent table: the hierarchical checks
   (intention modes, reach-down of absolute table locks, the child sweep of
   checked table-level assertional requests) and grant promotion never cross
   a shard boundary.  Different tables spread across shards, which is where
   the parallelism comes from — TPC-C's nine tables give nine independent
   hot paths.

   On top of the mutex path sits a lock-free {e fast path} (DESIGN.md §17)
   for the uncontended common case.  Uncontended holds live in per-shard
   {e fast slots} — 64 CAS-updated buckets keyed by resource hash — instead
   of the lock table; a fast slot holds the records of exactly one resource.
   A fast install is permitted only while the shard's lock table is
   completely empty ([slow_entries] = 0): any waiter, and any hold that has
   ever been contended, lives in the table, so an empty table means no queue
   to respect, no bypass accounting to update, and no cross-level waiter to
   consult — the grant decision collapses to {!Lock_core.holds_compatible}
   over the resource's slot and the reach-down holds of its parent's slot.

   Validation is a per-shard seqlock: [seq] is odd while a mutex-held
   mutating section ("slow section") is in progress and bumped again on
   exit, after refreshing [slow_entries].  A fast install reads [seq],
   decides, CAS-installs, and re-reads [seq]; if it moved, a slow section
   overlapped the decision window and the install is rolled back (it was
   never acknowledged, so at worst it transiently over-blocked — never
   under-blocks).  Conversely, a slow request {e migrates} the fast holds of
   its resource (and parent, and — for child-sweep requests — the whole
   table) into the lock table before deciding, so the sequential decision
   path sees every hold.  Either the migration's seq bump precedes the fast
   install's recheck (install rolls back) or the CAS precedes the
   migration's drain (the drain imports it): the SC atomics make one of the
   two orders definite. *)

type fhold = { f_txn : int; f_mode : Mode.t; f_step : int; f_count : int }

(* number of fast slots and per-txn activity counters per shard *)
let n_fast = 64

let hold_of_f fh =
  { Lock_core.h_txn = fh.f_txn; h_mode = fh.f_mode; h_step = fh.f_step; h_count = fh.f_count }

type shard = {
  mu : Mutex.t;
  cond : Condition.t;
  table : Lock_table.t;
  granted : (int, unit) Hashtbl.t;  (* global tickets granted while waiter slept *)
  victims : (int, unit) Hashtbl.t;  (* global tickets cancelled by the detector *)
  timed_out : (int, unit) Hashtbl.t;  (* global tickets expired by the watchdog *)
  seq : int Atomic.t;
      (* seqlock: odd while a mutex-held mutating section runs; even and
         stable across a fast path's [read … CAS … recheck] window proves no
         slow section overlapped the decision *)
  slow_entries : int Atomic.t;
      (* snapshot of [Lock_table.entry_count table], refreshed on every slow
         section exit: 0 ⇒ the shard's lock table is empty ⇒ no waiters, no
         contended holds — the fast-install precondition, and the license to
         skip this shard in waiter-directed sweeps (expire/kill/wait_edges) *)
  fast : (Resource_id.t * fhold list) option Atomic.t array;
      (* the fast slots; index = [Resource_id.hash res land (n_fast - 1)];
         a slot holds records of one resource only (collisions go slow) *)
  activity : int Atomic.t array;
      (* per-txn-hash count of hold records and waiters in this shard, fast
         slots and lock table combined (the table side feeds it through
         {!Lock_table.set_activity_hook}); 0 ⇒ the txn has nothing here, so
         release_where/release_all/held_by sweeps skip the shard without
         touching its mutex.  Hash collisions only cause extra visits. *)
}

type t = {
  shards : shard array;
  sem : Mode.semantics;
  use_fast : bool;
  timeouts : int Atomic.t;  (* lock waits expired over the table's lifetime *)
  mutex_ops : int Atomic.t;
      (* explicit shard-mutex acquisitions (one per synchronous operation, one
         per blocking acquire, one per shard group of a batch) — the quantity
         acquire_batch amortizes and the fast path avoids entirely.
         Condition.wait's internal reacquisitions are not counted: they are
         wakeups, not request round-trips. *)
  fast_attempts : int Atomic.t;  (* fast-path installs attempted *)
  fast_hits : int Atomic.t;  (* fast-path installs that stuck *)
  mutable obs : (Lock_table.observation -> unit) option;
      (* the same observer installed on every shard table, kept here so the
         lock-free path can emit grant/attach/release observations without a
         mutex (observers are already called concurrently from different
         shards, so they are domain-safe by contract) *)
  mutable on_wait : (float -> unit) option;
      (* called with each completed blocking wait's duration (seconds); the
         engine points this at its lock-wait histogram *)
}

let default_shards = 16

let txn_slot txn = txn land (n_fast - 1)
let slot_index res = Resource_id.hash res land (n_fast - 1)

(* OCaml's [Condition] has no timed wait, so deadline expiry cannot be driven
   by the waiter itself: an external sweeper (the engine's watchdog domain)
   calls {!expire} periodically, which cancels overdue waits and broadcasts.
   The shard clock is wall-clock time; deadlines passed to {!acquire} are
   absolute [Unix.gettimeofday] values. *)
let create ?(shards = default_shards) ?max_bypass ?(fast = true) sem =
  if shards < 1 then invalid_arg "Sharded_lock_table.create: shards must be >= 1";
  let t =
    {
      shards =
        Array.init shards (fun _ ->
            let activity = Array.init n_fast (fun _ -> Atomic.make 0) in
            let table = Lock_table.create ?max_bypass ~clock:Unix.gettimeofday sem in
            Lock_table.set_activity_hook table
              (Some
                 (fun txn delta ->
                   ignore (Atomic.fetch_and_add activity.(txn_slot txn) delta)));
            {
              mu = Mutex.create ();
              cond = Condition.create ();
              table;
              granted = Hashtbl.create 16;
              victims = Hashtbl.create 16;
              timed_out = Hashtbl.create 16;
              seq = Atomic.make 0;
              slow_entries = Atomic.make 0;
              fast = Array.init n_fast (fun _ -> Atomic.make None);
              activity;
            });
      sem;
      use_fast = fast;
      timeouts = Atomic.make 0;
      mutex_ops = Atomic.make 0;
      fast_attempts = Atomic.make 0;
      fast_hits = Atomic.make 0;
      obs = None;
      on_wait = None;
    }
  in
  t

let set_on_wait t f = t.on_wait <- f
let timeout_count t = Atomic.get t.timeouts
let mutex_acquisitions t = Atomic.get t.mutex_ops
let fast_attempts t = Atomic.get t.fast_attempts
let fast_hits t = Atomic.get t.fast_hits

let n_shards t = Array.length t.shards

(* --- slow sections ------------------------------------------------------ *)

let enter_slow s = Atomic.incr s.seq

let exit_slow s =
  Atomic.set s.slow_entries (Lock_table.entry_count s.table);
  Atomic.incr s.seq

let lock_shard t s =
  Atomic.incr t.mutex_ops;
  Mutex.lock s.mu;
  enter_slow s

let unlock_shard s =
  exit_slow s;
  Mutex.unlock s.mu

let with_shard t s f =
  lock_shard t s;
  Fun.protect ~finally:(fun () -> unlock_shard s) f

let set_observer t obs =
  t.obs <- obs;
  Array.iter (fun s -> with_shard t s (fun () -> Lock_table.set_observer s.table obs)) t.shards

let shard_index t res = Hashtbl.hash (Resource_id.table_of res) mod n_shards t

(* ticket encoding: local tickets are per-shard counters, so globalize as
   [local * n_shards + shard] — unique, and decodable without a map *)
let globalize t idx local = (local * n_shards t) + idx
let ticket_shard t g = g mod n_shards t
let localize t g = g / n_shards t

(* Publish wakeups to sleeping acquirers.  Caller holds [s.mu]. *)
let publish t idx s (wakeups : Lock_table.wakeup list) =
  match wakeups with
  | [] -> []
  | _ ->
      let global =
        List.map
          (fun w ->
            let g = globalize t idx w.Lock_table.woken_ticket in
            Hashtbl.replace s.granted g ();
            { w with Lock_table.woken_ticket = g })
          wakeups
      in
      Condition.broadcast s.cond;
      global

(* --- migration: fast slots → lock table --------------------------------- *)

(* Drain [res]'s fast slot (if it currently homes [res]) into the shard's
   lock table.  Caller holds [s.mu] inside a slow section, so the only CAS
   contention is lock-free installers/releasers — retry until it sticks.
   [import_hold] feeds the activity counter (+1 per record) through the
   table hook before the matching slot-side decrement, so the counter never
   transiently under-counts (a concurrent sweep reading 0 may skip the
   shard). *)
let drain_res s res =
  let slot = s.fast.(slot_index res) in
  let rec loop () =
    match Atomic.get slot with
    | Some (r', fhs) as old when Resource_id.equal r' res ->
        if Atomic.compare_and_set slot old None then
          List.iter
            (fun fh ->
              Lock_table.import_hold s.table ~txn:fh.f_txn ~step_type:fh.f_step
                ~mode:fh.f_mode ~count:fh.f_count res;
              ignore (Atomic.fetch_and_add s.activity.(txn_slot fh.f_txn) (-1)))
            fhs
        else loop ()
    | _ -> ()
  in
  loop ()

(* Bring every hold a slow decision on [r] could consult into the lock
   table: the resource's own slot, the parent table's slot (reach-down
   holds), and — for checked table-level assertional requests — every slot
   homing a tuple of the table (the child sweep). *)
let migrate_for s (r : Lock_request.t) =
  let res = r.Lock_request.resource in
  drain_res s res;
  (match Resource_id.parent res with Some p -> drain_res s p | None -> ());
  if Lock_core.needs_child_sweep res ~mode:r.Lock_request.mode then
    let tname = Resource_id.table_of res in
    Array.iter
      (fun slot ->
        match Atomic.get slot with
        | Some (r', _) when String.equal (Resource_id.table_of r') tname ->
            drain_res s r'
        | _ -> ())
      s.fast

(* --- the lock-free fast path -------------------------------------------- *)

(* Only tuples (any mode) and table intention locks are fast-eligible:
   table-level S/X/A/Comp reach down to tuples (and checked table A requests
   sweep children), so they always take the sequential path — which also
   means a reach-down hold can only ever appear via a slow section, and the
   seqlock recheck catches it racing a fast tuple install. *)
let fast_eligible (r : Lock_request.t) =
  match (r.Lock_request.resource, r.Lock_request.mode) with
  | Resource_id.Tuple _, _ -> true
  | Resource_id.Table _, (Mode.IS | Mode.IX) -> true
  | Resource_id.Table _, _ -> false

let observe t ob = match t.obs with None -> () | Some f -> f ob

let observe_fast_grant t (r : Lock_request.t) ~reentrant ~rel ~requester =
  match t.obs with
  | None -> ()
  | Some f ->
      let txn = r.Lock_request.txn and mode = r.Lock_request.mode in
      let decision =
        if reentrant then
          Lock_table.Dec_granted { past_2pl = 0; reentrant = true; checks = [] }
        else
          Lock_table.Dec_granted
            {
              past_2pl = Lock_core.past_2pl_count rel ~txn ~mode;
              reentrant = false;
              checks = Lock_core.checks_against t.sem rel ~txn ~mode ~requester;
            }
      in
      f
        (Lock_table.Ob_request
           {
             or_txn = txn;
             or_step_type = r.Lock_request.step_type;
             or_mode = mode;
             or_resource = r.Lock_request.resource;
             or_decision = decision;
           })

(* Withdraw a fast install whose validation failed (the seqlock moved across
   the decision window).  The grant was never acknowledged, so until now it
   could only have {e over}-blocked others — which is safe, merely
   pessimistic.  Usually the record is still in the slot (CAS it out); if a
   concurrent slow section already migrated it into the lock table, withdraw
   it there and poke the promotion sweep, since the phantom may have queued
   a waiter behind it. *)
let retreat t idx s res (fh : fhold) =
  let slot = s.fast.(slot_index res) in
  let rec undo () =
    match Atomic.get slot with
    | Some (r', fhs) as old when Resource_id.equal r' res && List.memq fh fhs ->
        let kept = List.filter (fun x -> x != fh) fhs in
        let next = match kept with [] -> None | _ -> Some (res, kept) in
        if Atomic.compare_and_set slot old next then
          ignore (Atomic.fetch_and_add s.activity.(txn_slot fh.f_txn) (-1))
        else undo ()
    | _ ->
        lock_shard t s;
        (* the release's own wakeups must be published too: the waiter it
           promotes is the one that queued behind the phantom, and it sleeps
           until its ticket shows up in [s.granted] *)
        let woken =
          try Lock_table.release s.table ~txn:fh.f_txn fh.f_mode res
          with Invalid_argument _ -> []
        in
        ignore
          (publish t idx s
             (woken @ Lock_table.promote s.table ~table:(Resource_id.table_of res)));
        unlock_shard s
  in
  undo ()

(* One fast-install attempt.  Returns true iff the request is granted and
   the grant validated; false means "take the mutex path" (no partial state
   is left behind).  The decision itself is {!Lock_core} — the same
   compatibility predicate the sequential table runs — applied to the
   resource's slot plus the parent slot's reach-down holds; the empty-table
   precondition makes those the {e only} holds a sequential decision would
   consult, and queue/fairness checks vacuous. *)
let fast_acquire t idx s (r : Lock_request.t) =
  Atomic.incr t.fast_attempts;
  let res = r.Lock_request.resource
  and txn = r.Lock_request.txn
  and mode = r.Lock_request.mode
  and step_type = r.Lock_request.step_type in
  let seq0 = Atomic.get s.seq in
  if seq0 land 1 <> 0 || Atomic.get s.slow_entries <> 0 then false
  else begin
    let slot = s.fast.(slot_index res) in
    let old = Atomic.get slot in
    match old with
    | Some (r', _) when not (Resource_id.equal r' res) -> false (* collision *)
    | _ -> (
        let here = match old with Some (_, fhs) -> fhs | None -> [] in
        let covering =
          List.find_opt (fun fh -> fh.f_txn = txn && Mode.covers fh.f_mode mode) here
        in
        match covering with
        | Some fh ->
            (* re-entrant grant: bumping our own hold's count is valid
               whatever runs concurrently — CAS success alone proves the
               slot (hence our hold) was untouched, so no seq recheck *)
            let bumped =
              List.map (fun x -> if x == fh then { x with f_count = x.f_count + 1 } else x) here
            in
            if Atomic.compare_and_set slot old (Some (res, bumped)) then begin
              Atomic.incr t.fast_hits;
              observe_fast_grant t r ~reentrant:true ~rel:[]
                ~requester:Mode.{ req_step_type = step_type; req_admission = false };
              true
            end
            else false
        | None -> (
            let parent_ok =
              match Resource_id.parent res with
              | None -> Some []
              | Some p -> (
                  match Atomic.get s.fast.(slot_index p) with
                  | None -> Some []
                  | Some (r', fhs) when Resource_id.equal r' p ->
                      Some
                        (List.filter_map
                           (fun fh ->
                             let h = hold_of_f fh in
                             if Lock_core.reaches_down h then Some h else None)
                           fhs)
                  | Some _ -> None (* parent slot homes another resource *))
            in
            match parent_ok with
            | None -> false
            | Some parent_holds ->
                let rel = List.map hold_of_f here @ parent_holds in
                let requester =
                  Mode.
                    {
                      req_step_type = step_type;
                      req_admission = r.Lock_request.admission;
                    }
                in
                if not (Lock_core.holds_compatible t.sem rel ~txn ~mode ~requester)
                then false
                else begin
                  let fh = { f_txn = txn; f_mode = mode; f_step = step_type; f_count = 1 } in
                  (* count the record before publishing it, so the activity
                     counter never under-counts a visible hold *)
                  ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) 1);
                  if not (Atomic.compare_and_set slot old (Some (res, here @ [ fh ])))
                  then begin
                    ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) (-1));
                    false
                  end
                  else if Atomic.get s.seq = seq0 then begin
                    Atomic.incr t.fast_hits;
                    observe_fast_grant t r ~reentrant:false ~rel ~requester;
                    true
                  end
                  else begin
                    retreat t idx s res fh;
                    false
                  end
                end))
  end

(* Fast unconditional attach.  No validation recheck is needed: an attach is
   granted whatever it coexists with, and any concurrent decision that did
   not see the record simply serializes before it — a legal order for two
   racing operations.  The empty-table precondition keeps the §13 bypass
   accounting exact (no waiter exists to be overtaken). *)
let fast_attach t s (r : Lock_request.t) =
  let res = r.Lock_request.resource
  and txn = r.Lock_request.txn
  and mode = r.Lock_request.mode
  and step_type = r.Lock_request.step_type in
  let seq0 = Atomic.get s.seq in
  if seq0 land 1 <> 0 || Atomic.get s.slow_entries <> 0 then false
  else begin
    let slot = s.fast.(slot_index res) in
    let old = Atomic.get slot in
    match old with
    | Some (r', _) when not (Resource_id.equal r' res) -> false
    | _ -> (
        let here = match old with Some (_, fhs) -> fhs | None -> [] in
        match
          List.find_opt (fun fh -> fh.f_txn = txn && Mode.equal fh.f_mode mode) here
        with
        | Some fh ->
            let bumped =
              List.map (fun x -> if x == fh then { x with f_count = x.f_count + 1 } else x) here
            in
            if Atomic.compare_and_set slot old (Some (res, bumped)) then begin
              observe t
                (Lock_table.Ob_attach
                   { oa_txn = txn; oa_step_type = step_type; oa_mode = mode; oa_resource = res });
              true
            end
            else false
        | None ->
            let fh = { f_txn = txn; f_mode = mode; f_step = step_type; f_count = 1 } in
            ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) 1);
            if Atomic.compare_and_set slot old (Some (res, here @ [ fh ])) then begin
              observe t
                (Lock_table.Ob_attach
                   { oa_txn = txn; oa_step_type = step_type; oa_mode = mode; oa_resource = res });
              true
            end
            else begin
              ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) (-1));
              false
            end)
  end

(* Fast release of one unit of an exactly-matching fast hold.  CAS success
   is decisive: a migration would have drained the slot (failing the CAS),
   so the record really was the live copy.  If a slow section overlapped
   anyway, poke the promotion sweep defensively — cheap, and only possible
   on a rare race. *)
let fast_release t idx s ~txn mode res =
  let slot = s.fast.(slot_index res) in
  let rec go () =
    match Atomic.get slot with
    | Some (r', fhs) as old when Resource_id.equal r' res -> (
        match
          List.find_opt (fun fh -> fh.f_txn = txn && Mode.equal fh.f_mode mode) fhs
        with
        | None -> false
        | Some fh ->
            let seq0 = Atomic.get s.seq in
            let next =
              if fh.f_count > 1 then
                Some
                  ( res,
                    List.map
                      (fun x -> if x == fh then { x with f_count = x.f_count - 1 } else x)
                      fhs )
              else
                match List.filter (fun x -> x != fh) fhs with
                | [] -> None
                | kept -> Some (res, kept)
            in
            if not (Atomic.compare_and_set slot old next) then go ()
            else begin
              if fh.f_count = 1 then begin
                ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) (-1));
                observe t
                  (Lock_table.Ob_release { ol_txn = txn; ol_mode = mode; ol_resource = res })
              end;
              if Atomic.get s.seq <> seq0 then begin
                lock_shard t s;
                ignore
                  (publish t idx s
                     (Lock_table.promote s.table ~table:(Resource_id.table_of res)));
                unlock_shard s
              end;
              true
            end)
    | _ -> false
  in
  go ()

(* Remove every fast record of [txn] accepted by [pred], emitting the
   release observations and activity decrements.  Safe under the shard mutex
   (no migration can race) and safe lock-free (the CAS retries absorb racing
   installers; each record is removed exactly once).  A slot holding none of
   the txn's matching records is only read: no closure, no partition. *)
let rec matches_txn ~txn pred res = function
  | [] -> false
  | fh :: rest -> (fh.f_txn = txn && pred res fh.f_mode) || matches_txn ~txn pred res rest

let rec sweep_slot t s ~txn pred slot =
  match Atomic.get slot with
  | Some (res, fhs) as old when matches_txn ~txn pred res fhs ->
      let mine, kept = List.partition (fun fh -> fh.f_txn = txn && pred res fh.f_mode) fhs in
      let next = match kept with [] -> None | _ -> Some (res, kept) in
      if Atomic.compare_and_set slot old next then
        List.iter
          (fun fh ->
            ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) (-1));
            observe t
              (Lock_table.Ob_release { ol_txn = txn; ol_mode = fh.f_mode; ol_resource = res }))
          mine
      else sweep_slot t s ~txn pred slot
  | Some _ | None -> ()

let sweep_fast t s ~txn pred =
  for i = 0 to n_fast - 1 do
    sweep_slot t s ~txn pred s.fast.(i)
  done

(* --- the synchronous surface (parity tests, detector, introspection) ---- *)

let submit t (r : Lock_request.t) =
  let idx = shard_index t r.Lock_request.resource in
  let s = t.shards.(idx) in
  with_shard t s (fun () ->
      migrate_for s r;
      match Lock_table.submit s.table r with
      | Lock_table.Granted -> Lock_table.Granted
      | Lock_table.Queued local -> Lock_table.Queued (globalize t idx local))

(* A mutex-path attach first drains the resource's fast slot, so an attach
   re-entering a fast hold merges into it in the table instead of splitting
   one (txn, mode) hold across slot and table.  Caller holds [s.mu] inside a
   slow section. *)
let slow_attach s (r : Lock_request.t) =
  drain_res s r.Lock_request.resource;
  Lock_table.attach_req s.table r

let attach_req t (r : Lock_request.t) =
  let s = t.shards.(shard_index t r.Lock_request.resource) in
  if t.use_fast && fast_eligible r && fast_attach t s r then ()
  else with_shard t s (fun () -> slow_attach s r)

(* Attaches are unconditional, so batching is just per-shard grouping (caller
   order preserved within each shard) under one mutex acquisition each; each
   member first tries the lock-free install. *)
let attach_batch t reqs =
  match reqs with
  | [] -> ()
  | reqs ->
      let groups = Array.make (n_shards t) [] in
      List.iter
        (fun (r : Lock_request.t) ->
          let idx = shard_index t r.Lock_request.resource in
          let s = t.shards.(idx) in
          if not (t.use_fast && fast_eligible r && fast_attach t s r) then
            groups.(idx) <- r :: groups.(idx))
        reqs;
      Array.iteri
        (fun idx group ->
          match List.rev group with
          | [] -> ()
          | group ->
              let s = t.shards.(idx) in
              with_shard t s (fun () -> List.iter (slow_attach s) group))
        groups

let release t ~txn mode res =
  let idx = shard_index t res in
  let s = t.shards.(idx) in
  if t.use_fast && fast_release t idx s ~txn mode res then []
  else
    with_shard t s (fun () -> publish t idx s (Lock_table.release s.table ~txn mode res))

(* Per-txn sweeps visit only shards whose activity counter says the txn has
   (or may have — collisions over-approximate) records there; a visited
   shard whose lock table is provably untouched across the lock-free slot
   sweep (seqlock stable, no entries) never takes the mutex at all.  If a
   slow section overlapped the lock-free sweep, records may have migrated
   into the table mid-sweep, so the shard is redone under the mutex (each
   record is still released exactly once: the CAS removals and the table op
   partition them). *)
let txn_sweep t ~txn ~pred ~table_op =
  let out = ref [] in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 then begin
        let seq0 = Atomic.get s.seq in
        let slow () =
          out :=
            !out
            @ with_shard t s (fun () ->
                  sweep_fast t s ~txn pred;
                  publish t idx s (table_op s))
        in
        if t.use_fast && seq0 land 1 = 0 && Atomic.get s.slow_entries = 0 then begin
          sweep_fast t s ~txn pred;
          if Atomic.get s.seq <> seq0 then slow ()
        end
        else slow ()
      end)
    t.shards;
  !out

let release_where t ~txn pred =
  txn_sweep t ~txn ~pred ~table_op:(fun s -> Lock_table.release_where s.table ~txn pred)

let release_all t ~txn =
  txn_sweep t ~txn
    ~pred:(fun _ _ -> true)
    ~table_op:(fun s -> Lock_table.release_all s.table ~txn)

let cancel t ~ticket =
  let idx = ticket_shard t ticket in
  let s = t.shards.(idx) in
  with_shard t s (fun () ->
      publish t idx s (Lock_table.cancel s.table ~ticket:(localize t ticket)))

let outstanding t ~ticket =
  let s = t.shards.(ticket_shard t ticket) in
  with_shard t s (fun () -> Lock_table.outstanding s.table ~ticket:(localize t ticket))

let ticket_txn t ~ticket =
  let s = t.shards.(ticket_shard t ticket) in
  with_shard t s (fun () -> Lock_table.ticket_txn s.table ~ticket:(localize t ticket))

(* Waiters live only in the lock table (fast installs require an empty one),
   so waiter-directed folds skip shards with no entries; the snapshot is
   refreshed on slow-section exit, so a miss can only last one watchdog or
   detector cadence. *)
let fold_waiter_shards t f =
  let acc = ref [] in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0 then
        acc := !acc @ with_shard t s (fun () -> f idx s))
    t.shards;
  !acc

let outstanding_tickets t ~txn =
  let acc = ref [] in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 then
        acc :=
          !acc
          @ with_shard t s (fun () ->
                List.map (globalize t idx) (Lock_table.outstanding_tickets s.table ~txn)))
    t.shards;
  !acc

let fast_holders s res =
  match Atomic.get s.fast.(slot_index res) with
  | Some (r', fhs) when Resource_id.equal r' res ->
      List.map (fun fh -> (fh.f_txn, fh.f_mode, fh.f_step)) fhs
  | _ -> []

let holders t res =
  let s = t.shards.(shard_index t res) in
  with_shard t s (fun () -> Lock_table.holders s.table res @ fast_holders s res)

let fast_held_by s ~txn =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with
      | Some (res, fhs) ->
          List.filter_map
            (fun fh -> if fh.f_txn = txn then Some (res, fh.f_mode) else None)
            fhs
          @ acc
      | None -> acc)
    [] s.fast

let held_by t ~txn =
  let acc = ref [] in
  Array.iter
    (fun s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 then
        acc :=
          !acc
          @ with_shard t s (fun () -> Lock_table.held_by s.table ~txn @ fast_held_by s ~txn))
    t.shards;
  !acc

let waiting_on t ~txn =
  let acc = ref [] in
  Array.iter
    (fun s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 then
        acc := !acc @ with_shard t s (fun () -> Lock_table.waiting_on s.table ~txn))
    t.shards;
  !acc

let wait_edges t = fold_waiter_shards t (fun _ s -> Lock_table.wait_edges s.table)

let compensating_waiter t ~txn =
  Array.exists
    (fun s ->
      Atomic.get s.activity.(txn_slot txn) <> 0
      && with_shard t s (fun () -> Lock_table.compensating_waiter s.table ~txn))
    t.shards

let sum_shards t f =
  Array.fold_left (fun acc s -> acc + with_shard t s (fun () -> f s)) 0 t.shards

let fast_record_count s =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with Some (_, fhs) -> acc + List.length fhs | None -> acc)
    0 s.fast

let fast_slot_count s =
  Array.fold_left
    (fun acc slot -> match Atomic.get slot with Some _ -> acc + 1 | None -> acc)
    0 s.fast

let lock_count t =
  sum_shards t (fun s -> Lock_table.lock_count s.table)
  + Array.fold_left (fun acc s -> acc + fast_record_count s) 0 t.shards

let waiter_count t = sum_shards t (fun s -> Lock_table.waiter_count s.table)

let entry_count t =
  sum_shards t (fun s -> Lock_table.entry_count s.table)
  + Array.fold_left (fun acc s -> acc + fast_slot_count s) 0 t.shards

let oldest_wait t ~now =
  Array.fold_left
    (fun acc s ->
      if Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0 then
        Float.max acc (with_shard t s (fun () -> Lock_table.oldest_wait s.table ~now))
      else acc)
    0. t.shards

let max_bypassed t =
  Array.fold_left
    (fun acc s ->
      if Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0 then
        max acc (with_shard t s (fun () -> Lock_table.max_bypassed s.table))
      else acc)
    0 t.shards

(* --- deadline expiry (watchdog side) ------------------------------------ *)

(* Withdraw every overdue wait, wake its blocked acquirer with
   [Txn_effect.Lock_timeout], and publish the promotions the withdrawals
   enabled.  Returns the expired requests with globalized tickets.  Shards
   with an empty lock table hold no waiters and are skipped without touching
   their mutex. *)
let expire t ~now =
  let all = ref [] in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0 then
        with_shard t s (fun () ->
            let expired, wakeups = Lock_table.expire_overdue s.table ~now in
            if expired <> [] then begin
              List.iter
                (fun ex ->
                  Hashtbl.replace s.timed_out
                    (globalize t idx ex.Lock_table.ex_ticket)
                    ();
                  Atomic.incr t.timeouts)
                expired;
              ignore (publish t idx s wakeups);
              Condition.broadcast s.cond;
              all :=
                List.map
                  (fun ex ->
                    { ex with Lock_table.ex_ticket = globalize t idx ex.Lock_table.ex_ticket })
                  expired
                @ !all
            end
            else ignore (publish t idx s wakeups)))
    t.shards;
  !all

(* --- victimization (detector side) -------------------------------------- *)

let kill t ~txn =
  let killed = ref 0 in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0 then
        with_shard t s (fun () ->
            List.iter
              (fun local ->
                ignore (publish t idx s (Lock_table.cancel s.table ~ticket:local));
                Hashtbl.replace s.victims (globalize t idx local) ();
                incr killed;
                Condition.broadcast s.cond)
              (Lock_table.outstanding_tickets s.table ~txn)))
    t.shards;
  !killed

(* --- the blocking surface (worker domains) ------------------------------ *)

(* Wait until the globalized ticket [g] resolves.  Caller holds [s.mu]
   inside a slow section; on grant control returns with [s.mu] still held
   and the section re-entered (a batch continues with its remaining
   same-shard requests under the same acquisition); on victimization or
   expiry the section is exited, the mutex released and the usual exception
   raised.  The sleep itself is {e outside} the slow section — the seqlock
   must not stay odd across a block — which is sound because the sleeper's
   queued ticket keeps the lock table non-empty, disabling fast installs
   shard-wide for the duration. *)
let wait_resolved t s g =
  let started = Unix.gettimeofday () in
  let record_wait () =
    match t.on_wait with
    | None -> ()
    | Some f -> f (Unix.gettimeofday () -. started)
  in
  let rec wait () =
    if Hashtbl.mem s.granted g then begin
      Hashtbl.remove s.granted g;
      record_wait ()
    end
    else if Hashtbl.mem s.victims g then begin
      Hashtbl.remove s.victims g;
      unlock_shard s;
      record_wait ();
      raise Txn_effect.Deadlock_victim
    end
    else if Hashtbl.mem s.timed_out g then begin
      Hashtbl.remove s.timed_out g;
      unlock_shard s;
      record_wait ();
      raise Txn_effect.Lock_timeout
    end
    else begin
      exit_slow s;
      Condition.wait s.cond s.mu;
      enter_slow s;
      wait ()
    end
  in
  wait ()

let acquire_req t (r : Lock_request.t) =
  let idx = shard_index t r.Lock_request.resource in
  let s = t.shards.(idx) in
  if t.use_fast && fast_eligible r && fast_acquire t idx s r then ()
  else begin
    lock_shard t s;
    migrate_for s r;
    (match Lock_table.submit s.table r with
    | Lock_table.Granted -> ()
    | Lock_table.Queued local -> wait_resolved t s (globalize t idx local));
    unlock_shard s
  end

(* Acquire a whole footprint with (at most) one mutex round-trip per shard
   touched.  The batch is canonicalized first, so any two batches walk their
   common resources in the same global order — no intra-batch deadlock
   edges — and grouping preserves that order within each shard.  Each shard
   group first runs a lock-free prefix: members install through the fast
   path until the first miss, preserving the shard-then-canonical
   acquisition order (a fast grant never blocks, so the prefix adds no
   wait-for edges); the rest of the group proceeds under the mutex.  A
   queued member sleeps on the shard's condition variable ([Condition.wait]
   releases and reacquires [s.mu]), then the remaining same-shard requests
   continue under the same explicit acquisition.  On victimization or expiry
   mid-batch the already-granted members stay held; the caller's abort path
   releases them like any partially-acquired step. *)
let acquire_batch t reqs =
  match Lock_request.canonicalize reqs with
  | [] -> ()
  | reqs ->
      let groups = Array.make (n_shards t) [] in
      List.iter
        (fun (r : Lock_request.t) ->
          let idx = shard_index t r.Lock_request.resource in
          groups.(idx) <- r :: groups.(idx))
        reqs;
      Array.iteri
        (fun idx group ->
          match List.rev group with
          | [] -> ()
          | group -> (
              let s = t.shards.(idx) in
              let rec fast_prefix = function
                | r :: rest when t.use_fast && fast_eligible r && fast_acquire t idx s r
                  ->
                    fast_prefix rest
                | rest -> rest
              in
              match fast_prefix group with
              | [] -> ()
              | group ->
                  lock_shard t s;
                  (try
                     List.iter
                       (fun r ->
                         migrate_for s r;
                         match Lock_table.submit s.table r with
                         | Lock_table.Granted -> ()
                         | Lock_table.Queued local ->
                             wait_resolved t s (globalize t idx local))
                       group
                   with e ->
                     (* wait_resolved already exited and released on the
                        raising paths; everything else raises with the
                        section open and the mutex held *)
                     (match e with
                     | Txn_effect.Deadlock_victim | Txn_effect.Lock_timeout -> ()
                     | _ -> unlock_shard s);
                     raise e);
                  unlock_shard s))
        groups

let pp_state ppf t =
  Array.iteri
    (fun idx s ->
      with_shard t s (fun () ->
          if Lock_table.entry_count s.table > 0 then
            Format.fprintf ppf "shard %d:@.%a" idx Lock_table.pp_state s.table;
          Array.iter
            (fun slot ->
              match Atomic.get slot with
              | Some (res, fhs) ->
                  Format.fprintf ppf "shard %d fast %a:" idx Resource_id.pp res;
                  List.iter
                    (fun fh ->
                      Format.fprintf ppf " T%d:%a(x%d)" fh.f_txn Mode.pp fh.f_mode fh.f_count)
                    fhs;
                  Format.fprintf ppf "@."
              | None -> ())
            s.fast))
    t.shards

(* --- the LOCK_SERVICE view ---------------------------------------------- *)

let service t : Lock_service.t =
  (module struct
    let backend_name = "sharded"
    let acquire r = acquire_req t r
    let acquire_batch reqs = acquire_batch t reqs
    let attach r = attach_req t r
    let attach_batch reqs = attach_batch t reqs
    let release ~txn mode res = ignore (release t ~txn mode res)
    let release_where ~txn pred = ignore (release_where t ~txn pred)
    let release_all ~txn = ignore (release_all t ~txn)
    let cancel ~ticket = ignore (cancel t ~ticket)
    let outstanding ~ticket = outstanding t ~ticket
    let ticket_txn ~ticket = ticket_txn t ~ticket
    let outstanding_tickets ~txn = outstanding_tickets t ~txn
    let holders res = holders t res
    let held_by ~txn = held_by t ~txn
    let waiting_on ~txn = waiting_on t ~txn
    let wait_edges () = wait_edges t
    let find_cycle ~from = Lock_core.find_cycle ~edges:(wait_edges ()) ~from
    let compensating_waiter ~txn = compensating_waiter t ~txn
    let expire ~now = expire t ~now
    let kill ~txn = kill t ~txn
    let lock_count () = lock_count t
    let waiter_count () = waiter_count t
    let entry_count () = entry_count t
    let oldest_wait ~now = oldest_wait t ~now
    let max_bypassed () = max_bypassed t
    let timeout_count () = timeout_count t
    let mutex_acquisitions () = mutex_acquisitions t
    let fast_attempts () = fast_attempts t
    let fast_hits () = fast_hits t
    let set_observer obs = set_observer t obs
    let pp_state ppf () = pp_state ppf t
  end)
