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
   {e fast buckets} — 64 CAS-updated lists keyed by resource hash, each
   holding the records of any resources that hash there — instead of the
   lock table.  The gate is per resource: a fast decision on a resource
   needs only that resource and, for a tuple, its parent table to have no
   lock-table entry.  Each bucket counts the table entries whose resource
   hashes to it (the table reports creations and collections through
   {!Lock_table.set_entry_hook}), and a fast install goes ahead only while
   the counts of its resource's bucket and its parent's bucket are 0.  A
   {!Lock_table} decision on a tuple or a table intention reads only the
   resource's own entry and its parent's reach-down holds and queue, so
   with both entries absent there is no queue to respect, no bypass
   accounting to update, and no cross-level waiter to consult — the grant
   decision collapses to {!Lock_core.holds_compatible} over the resource's
   bucket records.  A table's bucket records are only ever IS/IX, which do
   not reach down, so a tuple decision never reads its parent's bucket.

   Validation is a per-shard seqlock: [seq] is odd while a mutex-held
   mutating section ("slow section") is in progress and bumped again on
   exit.  A fast install reads [seq], checks the gate, decides,
   CAS-installs, and re-reads [seq]; if it moved, a slow section overlapped
   the decision window and the install is rolled back (it was never
   acknowledged, so at worst it transiently over-blocked — never
   under-blocks).  Sections that change no table (introspection, the
   engine tick's and the detector's walks) take the mutex without touching
   the seqlock, so they never force a retreat.  Conversely, a slow request
   {e migrates} the fast holds of its resource (and — for child-sweep
   requests — of the whole table's tuples) into the lock table before
   deciding, so the sequential decision path sees every hold.  Either the
   migration's seq bump precedes the fast install's recheck (install rolls
   back) or the CAS precedes the migration's drain (the drain imports it):
   the SC atomics make one of the two orders definite. *)

type hold = Lock_core.hold = {
  h_txn : int;
  h_mode : Mode.t;
  h_step : int;
  mutable h_count : int;
}

(* number of fast buckets and per-txn activity counters per shard *)
let n_fast = 64

type shard = {
  mu : Mutex.t;
  cond : Condition.t;
  table : Lock_table.t;
  granted : (int, unit) Hashtbl.t;  (* global tickets granted while waiter slept *)
  victims : (int, unit) Hashtbl.t;  (* global tickets cancelled by the detector *)
  timed_out : (int, unit) Hashtbl.t;  (* global tickets expired by [expire] *)
  seq : int Atomic.t;
      (* seqlock: odd while a mutex-held mutating section runs; even and
         stable across a fast path's [read … CAS … recheck] window proves no
         slow section overlapped the decision *)
  slow_entries : int Atomic.t;
      (* snapshot of [Lock_table.entry_count table], refreshed on every slow
         section exit: 0 ⇒ the shard's lock table is empty ⇒ no waiters — the
         license to skip this shard in waiter walks, counts and
         [txn_sweep]'s lock-free path *)
  fast : (Resource_id.t * hold list) list Atomic.t array;
      (* the fast buckets; index = [bucket_index res]; a bucket lists each
         resource hashing to it at most once, with its holds oldest first.
         A hold in a bucket is never mutated: every change CASes in a new
         list with fresh records, so physical equality identifies one. *)
  bucket_entries : int Atomic.t array;
      (* per bucket, the lock-table entries whose resource hashes to it,
         kept by the table's entry hook inside slow sections: 0 for a
         resource's bucket and its parent's is the fast gate *)
  activity : int Atomic.t array;
      (* per-txn-hash count of hold records and waiters in this shard, fast
         buckets and lock table combined (the table side feeds it through
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
      (* mutating sections entered (one per synchronous operation that may
         change a table, one per blocking acquire or attach that misses the
         fast path) — the quantity the fast path avoids entirely.  Read-only
         sections are not counted: they are the engine's own walks and
         introspection, not lock traffic.  Condition.wait's internal
         reacquisitions are not counted either: they are wakeups, not
         request round-trips. *)
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
let bucket_index res = Resource_id.hash res land (n_fast - 1)

(* the bucket of a tuple's parent table; -1 for a table, which has none *)
let parent_bucket = function
  | Resource_id.Tuple (tname, _) -> bucket_index (Resource_id.Table tname)
  | Resource_id.Table _ -> -1

(* OCaml's [Condition] has no timed wait, so deadline expiry cannot be driven
   by the waiter itself: an external sweeper (the engine's tick, on its
   background domain) calls {!expire} periodically, which cancels overdue
   waits and broadcasts.
   The shard clock is wall-clock time; deadlines passed to {!acquire} are
   absolute [Unix.gettimeofday] values. *)
let create ?(shards = default_shards) ?max_bypass ?(fast = true) sem =
  if shards < 1 then invalid_arg "Sharded_lock_table.create: shards must be >= 1";
  let t =
    {
      shards =
        Array.init shards (fun _ ->
            let activity = Array.init n_fast (fun _ -> Atomic.make 0) in
            let bucket_entries = Array.init n_fast (fun _ -> Atomic.make 0) in
            let table = Lock_table.create ?max_bypass ~clock:Unix.gettimeofday sem in
            Lock_table.set_activity_hook table
              (Some
                 (fun txn delta ->
                   ignore (Atomic.fetch_and_add activity.(txn_slot txn) delta)));
            Lock_table.set_entry_hook table
              (Some
                 (fun res delta ->
                   ignore (Atomic.fetch_and_add bucket_entries.(bucket_index res) delta)));
            {
              mu = Mutex.create ();
              cond = Condition.create ();
              table;
              granted = Hashtbl.create 16;
              victims = Hashtbl.create 16;
              timed_out = Hashtbl.create 16;
              seq = Atomic.make 0;
              slow_entries = Atomic.make 0;
              fast = Array.init n_fast (fun _ -> Atomic.make []);
              bucket_entries;
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

(* A read-only section: the mutex without the seqlock, for operations that
   change no table.  A fast install racing it need not retreat, since no
   grant decision can depend on what it does, and it does not count in
   [mutex_ops].  Nothing in it may create or collect a table entry (the
   entry hook would move a gate unseen). *)
let with_shard_ro s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

(* May the shard's table hold an entry?  A stale answer lasts at most until
   the slow section in progress exits. *)
let table_nonempty s = Atomic.get s.slow_entries <> 0 || Atomic.get s.seq land 1 <> 0

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

(* --- fast buckets ---------------------------------------------------- *)

let same_res r res = r == res || Resource_id.equal r res

(* [res]'s holds in a bucket ([] when it has none) *)
let rec holds_of res = function
  | [] -> []
  | (r, hs) :: rest -> if same_res r res then hs else holds_of res rest

(* the bucket with [res]'s holds replaced by [hs]; [] drops the resource *)
let rec with_holds res hs = function
  | [] -> ( match hs with [] -> [] | _ -> [ (res, hs) ])
  | ((r, _) as e) :: rest ->
      if same_res r res then match hs with [] -> rest | _ -> (res, hs) :: rest
      else e :: with_holds res hs rest

(* [hs] without [h], or with [h]'s count moved by [delta] *)
let rec remove_hold h = function
  | [] -> []
  | x :: rest -> if x == h then rest else x :: remove_hold h rest

let rec recount h delta = function
  | [] -> []
  | x :: rest ->
      if x == h then { x with h_count = x.h_count + delta } :: rest else x :: recount h delta rest

let uncount s txn = ignore (Atomic.fetch_and_add s.activity.(txn_slot txn) (-1))

(* --- migration: fast buckets → lock table ------------------------------- *)

(* Import drained holds into the shard's lock table.  [import_hold] feeds
   the activity counter (+1 per hold) through the table hook before the
   matching bucket-side decrement, so the counter never transiently
   under-counts (a concurrent sweep reading 0 may skip the shard). *)
let import s res hs =
  List.iter
    (fun h ->
      Lock_table.import_hold s.table ~txn:h.h_txn ~step_type:h.h_step ~mode:h.h_mode
        ~count:h.h_count res;
      uncount s h.h_txn)
    hs

(* Drain [res]'s holds from its bucket into the lock table.  Caller holds
   [s.mu] inside a slow section, so the only CAS contention is lock-free
   installers/releasers — retry until it sticks. *)
let drain_res s res =
  let bucket = s.fast.(bucket_index res) in
  let rec loop () =
    let old = Atomic.get bucket in
    match holds_of res old with
    | [] -> ()
    | hs ->
        if Atomic.compare_and_set bucket old (with_holds res [] old) then import s res hs
        else loop ()
  in
  loop ()

(* Drain every tuple of table [tname] from every bucket: the child sweep of
   a checked table-level assertional request consults them all. *)
let drain_tuples s tname =
  let of_table (r, _) =
    match r with
    | Resource_id.Tuple (tn, _) -> String.equal tn tname
    | Resource_id.Table _ -> false
  in
  Array.iter
    (fun bucket ->
      let rec loop () =
        let old = Atomic.get bucket in
        if List.exists of_table old then begin
          let tuples, others = List.partition of_table old in
          if Atomic.compare_and_set bucket old others then
            List.iter (fun (r, hs) -> import s r hs) tuples
          else loop ()
        end
      in
      loop ())
    s.fast

(* Bring every hold a slow decision on [r] could consult into the lock
   table: the resource's own holds, and — for checked table-level
   assertional requests — every tuple of the table (the child sweep).  The
   parent's holds stay put: a table's bucket only ever holds IS/IX, which do
   not reach down and are not waiters, so no tuple decision reads them;
   draining them would give the parent an entry and close the gate on every
   sibling tuple. *)
let migrate_for s (r : Lock_request.t) =
  let res = r.Lock_request.resource in
  drain_res s res;
  if Lock_core.needs_child_sweep res ~mode:r.Lock_request.mode then
    drain_tuples s (Resource_id.table_of res)

(* --- the lock-free fast path -------------------------------------------- *)

(* Only tuples (any mode) and table intention locks are fast-eligible:
   table-level S/X/A/Comp reach down to tuples (and checked table A requests
   sweep children), so they always take the sequential path — which also
   means a reach-down hold can only ever live in the lock table, where its
   entry closes the gate on the table's tuples. *)
let fast_eligible (r : Lock_request.t) =
  match (r.Lock_request.resource, r.Lock_request.mode) with
  | Resource_id.Tuple _, _ -> true
  | Resource_id.Table _, (Mode.IS | Mode.IX) -> true
  | Resource_id.Table _, _ -> false

(* The fast gate: no slow section in progress when [seq0] was read, and no
   lock-table entry in the resource's bucket [bi] or, for a tuple, its
   parent's [pbi].  The seqlock recheck after the install validates it. *)
let gate_open s seq0 ~bi ~pbi =
  seq0 land 1 = 0
  && Atomic.get s.bucket_entries.(bi) = 0
  && (pbi < 0 || Atomic.get s.bucket_entries.(pbi) = 0)

let requester_of (r : Lock_request.t) =
  Mode.{ req_step_type = r.Lock_request.step_type; req_admission = r.Lock_request.admission }

let observe t ob = match t.obs with None -> () | Some f -> f ob

let observe_fast_grant t (r : Lock_request.t) ~reentrant ~rel =
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
              checks = Lock_core.checks_against t.sem rel ~txn ~mode ~requester:(requester_of r);
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
   pessimistic.  Usually the hold is still in the bucket (CAS it out); if a
   concurrent slow section already migrated it into the lock table, withdraw
   it there and poke the promotion sweep, since the phantom may have queued
   a waiter behind it. *)
let rec retreat t idx s bucket res h =
  let old = Atomic.get bucket in
  let here = holds_of res old in
  if List.memq h here then begin
    if Atomic.compare_and_set bucket old (with_holds res (remove_hold h here) old) then
      uncount s h.h_txn
    else retreat t idx s bucket res h
  end
  else begin
    lock_shard t s;
    (* the release's own wakeups must be published too: the waiter it
       promotes is the one that queued behind the phantom, and it sleeps
       until its ticket shows up in [s.granted] *)
    let woken =
      try Lock_table.release s.table ~txn:h.h_txn h.h_mode res with Invalid_argument _ -> []
    in
    ignore
      (publish t idx s (woken @ Lock_table.promote s.table ~table:(Resource_id.table_of res)));
    unlock_shard s
  end

type install = Installed | Lost | Stale

(* Install the new hold [h] on [res] into [bucket] over its read value
   [old], then validate.  [Lost]: the CAS lost to a neighbour, nothing was
   installed.  [Stale]: a slow section overlapped and the install was
   withdrawn. *)
let install t idx s ~seq0 bucket old res here h =
  (* count the hold before publishing it, so the activity counter never
     under-counts a visible hold *)
  ignore (Atomic.fetch_and_add s.activity.(txn_slot h.h_txn) 1);
  if not (Atomic.compare_and_set bucket old (with_holds res (here @ [ h ]) old)) then begin
    uncount s h.h_txn;
    Lost
  end
  else if Atomic.get s.seq = seq0 then Installed
  else begin
    retreat t idx s bucket res h;
    Stale
  end

let compatible t here (r : Lock_request.t) =
  match here with
  | [] -> true
  | _ ->
      Lock_core.holds_compatible t.sem here ~txn:r.Lock_request.txn ~mode:r.Lock_request.mode
        ~requester:(requester_of r)

let new_hold (r : Lock_request.t) =
  {
    h_txn = r.Lock_request.txn;
    h_mode = r.Lock_request.mode;
    h_step = r.Lock_request.step_type;
    h_count = 1;
  }

(* One fast-install attempt on [bucket], the resource's, past an open gate.
   Returns true iff the request is granted and the grant validated; false
   means "take the mutex path" (no partial state is left behind).  The
   decision itself is {!Lock_core} — the same compatibility predicate the
   sequential table runs — applied to the resource's bucket holds; the gate
   makes those the {e only} holds a sequential decision would consult, and
   queue/fairness checks vacuous.  A CAS lost to a neighbour in the bucket
   re-reads and decides again while the seqlock stands still. *)
let rec fast_acquire_in t idx s ~seq0 bucket (r : Lock_request.t) =
  let res = r.Lock_request.resource and txn = r.Lock_request.txn and mode = r.Lock_request.mode in
  let old = Atomic.get bucket in
  let here = holds_of res old in
  match Lock_core.find_covering here ~txn ~mode with
  | Some h ->
      (* re-entrant grant: bumping our own hold's count is valid whatever
         runs concurrently — CAS success alone proves the bucket (hence our
         hold) was untouched, so no seq recheck *)
      if Atomic.compare_and_set bucket old (with_holds res (recount h 1 here) old) then begin
        Atomic.incr t.fast_hits;
        observe_fast_grant t r ~reentrant:true ~rel:[];
        true
      end
      else Atomic.get s.seq = seq0 && fast_acquire_in t idx s ~seq0 bucket r
  | None -> (
      compatible t here r
      &&
      match install t idx s ~seq0 bucket old res here (new_hold r) with
      | Installed ->
          Atomic.incr t.fast_hits;
          observe_fast_grant t r ~reentrant:false ~rel:here;
          true
      | Lost -> Atomic.get s.seq = seq0 && fast_acquire_in t idx s ~seq0 bucket r
      | Stale -> false)

let fast_acquire t idx s (r : Lock_request.t) =
  Atomic.incr t.fast_attempts;
  let res = r.Lock_request.resource in
  let bi = bucket_index res in
  let seq0 = Atomic.get s.seq in
  gate_open s seq0 ~bi ~pbi:(parent_bucket res) && fast_acquire_in t idx s ~seq0 s.fast.(bi) r

(* Fast unconditional attach, validated like {!fast_acquire}: a new hold is
   checked against the seqlock after its CAS and withdrawn if a slow section
   overlapped, since that section may have drained the resource and queued a
   waiter whose promotion would never see the hold.  The gate keeps the §13
   bypass accounting exact (no waiter exists to be overtaken).  The
   observation is emitted only once the hold stands. *)
let rec fast_attach_in t idx s ~seq0 bucket (r : Lock_request.t) =
  let res = r.Lock_request.resource and txn = r.Lock_request.txn and mode = r.Lock_request.mode in
  let old = Atomic.get bucket in
  let here = holds_of res old in
  let outcome =
    match Lock_core.find_hold here ~txn ~mode with
    | Some h ->
        if Atomic.compare_and_set bucket old (with_holds res (recount h 1 here) old) then Installed
        else Lost
    | None -> install t idx s ~seq0 bucket old res here (new_hold r)
  in
  match outcome with
  | Installed ->
      observe t
        (Lock_table.Ob_attach
           {
             oa_txn = txn;
             oa_step_type = r.Lock_request.step_type;
             oa_mode = mode;
             oa_resource = res;
           });
      true
  | Lost -> Atomic.get s.seq = seq0 && fast_attach_in t idx s ~seq0 bucket r
  | Stale -> false

let fast_attach t idx s (r : Lock_request.t) =
  let res = r.Lock_request.resource in
  let bi = bucket_index res in
  let seq0 = Atomic.get s.seq in
  gate_open s seq0 ~bi ~pbi:(parent_bucket res) && fast_attach_in t idx s ~seq0 s.fast.(bi) r

(* Fast release of one unit of an exactly-matching fast hold.  CAS success
   is decisive: a migration would have drained the hold (failing the CAS),
   so the hold really was the live copy.  If a slow section overlapped
   anyway, poke the promotion sweep defensively — cheap, and only possible
   on a rare race. *)
let rec fast_release_in t idx s bucket ~txn mode res =
  let old = Atomic.get bucket in
  let here = holds_of res old in
  match Lock_core.find_hold here ~txn ~mode with
  | None -> false
  | Some h ->
      let seq0 = Atomic.get s.seq in
      let kept = if h.h_count > 1 then recount h (-1) here else remove_hold h here in
      if not (Atomic.compare_and_set bucket old (with_holds res kept old)) then
        fast_release_in t idx s bucket ~txn mode res
      else begin
        if h.h_count = 1 then begin
          uncount s txn;
          observe t (Lock_table.Ob_release { ol_txn = txn; ol_mode = mode; ol_resource = res })
        end;
        if Atomic.get s.seq <> seq0 then begin
          lock_shard t s;
          ignore (publish t idx s (Lock_table.promote s.table ~table:(Resource_id.table_of res)));
          unlock_shard s
        end;
        true
      end

let fast_release t idx s ~txn mode res =
  fast_release_in t idx s s.fast.(bucket_index res) ~txn mode res

(* Remove every fast hold of [txn] accepted by [pred], emitting the release
   observations and activity decrements.  Safe under the shard mutex (no
   migration can race) and safe lock-free (the CAS retries absorb racing
   installers; each hold is removed exactly once).  A bucket holding none of
   the txn's matching holds is only read: no closure, no allocation. *)
let mine ~txn pred res h = h.h_txn = txn && pred res h.h_mode

let rec matches_txn ~txn pred res = function
  | [] -> false
  | h :: rest -> mine ~txn pred res h || matches_txn ~txn pred res rest

let rec bucket_matches ~txn pred = function
  | [] -> false
  | (res, hs) :: rest -> matches_txn ~txn pred res hs || bucket_matches ~txn pred rest

(* the bucket without [txn]'s holds accepted by [pred] *)
let rec strip ~txn pred = function
  | [] -> []
  | ((res, hs) as e) :: rest -> (
      let rest = strip ~txn pred rest in
      if not (matches_txn ~txn pred res hs) then e :: rest
      else
        match List.filter (fun h -> not (mine ~txn pred res h)) hs with
        | [] -> rest
        | kept -> (res, kept) :: rest)

let rec sweep_bucket t s ~txn pred bucket =
  match Atomic.get bucket with
  | [] -> ()
  | old when not (bucket_matches ~txn pred old) -> ()
  | old ->
      if Atomic.compare_and_set bucket old (strip ~txn pred old) then
        List.iter
          (fun (res, hs) ->
            List.iter
              (fun h ->
                if mine ~txn pred res h then begin
                  uncount s txn;
                  observe t
                    (Lock_table.Ob_release { ol_txn = txn; ol_mode = h.h_mode; ol_resource = res })
                end)
              hs)
          old
      else sweep_bucket t s ~txn pred bucket

let sweep_fast t s ~txn pred =
  for i = 0 to n_fast - 1 do
    sweep_bucket t s ~txn pred s.fast.(i)
  done

(* --- the synchronous surface (parity tests, detector, introspection) ---- *)

(* A request that is granted on the spot takes the fast path when it can, as
   {!acquire_req} does, so the parity tests compare the fast decisions with
   the sequential table's too. *)
let submit t (r : Lock_request.t) =
  let idx = shard_index t r.Lock_request.resource in
  let s = t.shards.(idx) in
  if t.use_fast && fast_eligible r && fast_acquire t idx s r then Lock_table.Granted
  else
    with_shard t s (fun () ->
        migrate_for s r;
        match Lock_table.submit s.table r with
        | Lock_table.Granted -> Lock_table.Granted
        | Lock_table.Queued local -> Lock_table.Queued (globalize t idx local))

(* A mutex-path attach first drains the resource's records, so an attach
   re-entering a fast hold merges into it in the table instead of splitting
   one (txn, mode) hold across bucket and table.  Caller holds [s.mu] inside
   a slow section. *)
let slow_attach s (r : Lock_request.t) =
  drain_res s r.Lock_request.resource;
  Lock_table.attach_req s.table r

let attach_req t (r : Lock_request.t) =
  let idx = shard_index t r.Lock_request.resource in
  let s = t.shards.(idx) in
  if t.use_fast && fast_eligible r && fast_attach t idx s r then ()
  else with_shard t s (fun () -> slow_attach s r)

let release t ~txn mode res =
  let idx = shard_index t res in
  let s = t.shards.(idx) in
  if t.use_fast && fast_release t idx s ~txn mode res then []
  else
    with_shard t s (fun () -> publish t idx s (Lock_table.release s.table ~txn mode res))

(* Per-txn sweeps visit only shards whose activity counter says the txn has
   (or may have — collisions over-approximate) records there; a visited
   shard whose lock table is provably untouched across the lock-free bucket
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

(* Everything below up to the expiry sweep only reads: read-only sections,
   which leave the seqlock alone. *)

let outstanding t ~ticket =
  let s = t.shards.(ticket_shard t ticket) in
  with_shard_ro s (fun () -> Lock_table.outstanding s.table ~ticket:(localize t ticket))

(* Fold a per-table quantity over the shards whose table may be non-empty.
   Waiters live only in the lock table, so this covers every waiter-directed
   walk; the emptiness snapshot is refreshed on slow-section exit, so a miss
   can only last one tick of the engine. *)
let fold_tables t f combine init =
  Array.fold_left
    (fun acc s ->
      if table_nonempty s then combine acc (with_shard_ro s (fun () -> f s.table)) else acc)
    init t.shards

(* the shards where [txn] may hold or wait, each read in a read-only section *)
let fold_txn_shards t ~txn f =
  let acc = ref [] in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 then
        acc := !acc @ with_shard_ro s (fun () -> f idx s))
    t.shards;
  !acc

let outstanding_tickets t ~txn =
  fold_txn_shards t ~txn (fun idx s ->
      List.map (globalize t idx) (Lock_table.outstanding_tickets s.table ~txn))

let fast_holders s bi res =
  List.map (fun h -> (h.h_txn, h.h_mode, h.h_step)) (holds_of res (Atomic.get s.fast.(bi)))

(* Lock-free when the resource has no table entry and no slow section
   overlaps the bucket read: its bucket records are then all its holds. *)
let holders t res =
  let s = t.shards.(shard_index t res) in
  let bi = bucket_index res in
  let locked () =
    with_shard_ro s (fun () -> Lock_table.holders s.table res @ fast_holders s bi res)
  in
  let seq0 = Atomic.get s.seq in
  if seq0 land 1 = 0 && Atomic.get s.bucket_entries.(bi) = 0 then
    let hs = fast_holders s bi res in
    if Atomic.get s.seq = seq0 then hs else locked ()
  else locked ()

let fast_held_by s ~txn =
  Array.fold_left
    (fun acc bucket ->
      List.fold_left
        (fun acc (res, hs) ->
          List.fold_left
            (fun acc h -> if h.h_txn = txn then (res, h.h_mode) :: acc else acc)
            acc hs)
        acc (Atomic.get bucket))
    [] s.fast

let held_by t ~txn =
  fold_txn_shards t ~txn (fun _ s -> Lock_table.held_by s.table ~txn @ fast_held_by s ~txn)

let wait_edges t = fold_tables t Lock_table.wait_edges ( @ ) []

let compensating_waiter t ~txn =
  Array.exists
    (fun s ->
      Atomic.get s.activity.(txn_slot txn) <> 0
      && with_shard_ro s (fun () -> Lock_table.compensating_waiter s.table ~txn))
    t.shards

(* a per-bucket quantity summed over every bucket, lock-free *)
let sum_buckets t f =
  Array.fold_left
    (fun acc s -> Array.fold_left (fun acc bucket -> acc + f (Atomic.get bucket)) acc s.fast)
    0 t.shards

let lock_count t =
  fold_tables t Lock_table.lock_count ( + ) 0
  + sum_buckets t (List.fold_left (fun acc (_, hs) -> acc + List.length hs) 0)

let waiter_count t = fold_tables t Lock_table.waiter_count ( + ) 0
let entry_count t = fold_tables t Lock_table.entry_count ( + ) 0 + sum_buckets t List.length
let max_bypassed t = fold_tables t Lock_table.max_bypassed max 0

(* --- deadline expiry (the engine's tick) -------------------------------- *)

let no_waits = { Lock_table.waiting = 0; oldest = 0.; overdue = false }

let add_waits (a : Lock_table.waits) (b : Lock_table.waits) =
  {
    Lock_table.waiting = a.waiting + b.waiting;
    oldest = Float.max a.oldest b.oldest;
    overdue = a.overdue || b.overdue;
  }

(* Expire one shard's overdue waits in a mutating section: mark each for its
   sleeper, publish the promotions, and sum up the waits left behind. *)
let expire_shard t idx s ~now =
  with_shard t s (fun () ->
      let overdue, wakeups = Lock_table.expire_overdue s.table ~now in
      let overdue =
        List.map
          (fun ex ->
            let g = globalize t idx ex.Lock_table.ex_ticket in
            Hashtbl.replace s.timed_out g ();
            Atomic.incr t.timeouts;
            { ex with Lock_table.ex_ticket = g })
          overdue
      in
      ignore (publish t idx s wakeups);
      if overdue <> [] then Condition.broadcast s.cond;
      (Lock_table.waits s.table ~now, overdue))

(* One read-only section per shard whose table may hold an entry sums up
   its waits; only a shard with something overdue enters a mutating section
   to expire it.  So a tick with nothing to expire moves no seqlock, makes
   no racing fast install retreat, and counts nothing in [mutex_ops]. *)
let expire t ~now =
  let waits = ref no_waits and expired = ref [] in
  Array.iteri
    (fun idx s ->
      if table_nonempty s then begin
        let w = with_shard_ro s (fun () -> Lock_table.waits s.table ~now) in
        let w =
          if not w.Lock_table.overdue then w
          else begin
            let w, overdue = expire_shard t idx s ~now in
            expired := overdue @ !expired;
            w
          end
        in
        waits := add_waits !waits w
      end)
    t.shards;
  (!waits, !expired)

(* --- victimization (detector side) -------------------------------------- *)

(* Only shards where the victim may wait are entered: its activity counter
   (which counts waiters too) and a non-empty table. *)
let kill t ~txn =
  let killed = ref 0 in
  Array.iteri
    (fun idx s ->
      if Atomic.get s.activity.(txn_slot txn) <> 0 && table_nonempty s then
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
   and the section re-entered; on victimization or expiry the section is
   exited, the mutex released and the usual exception raised.  The sleep
   itself is {e outside} the slow section — the seqlock must not stay odd
   across a block — which is sound because the sleeper's queued ticket
   keeps its resource's entry alive, which closes the fast gate on that
   resource (and, for a table, on its tuples) for the duration. *)
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

let pp_state ppf t =
  Array.iteri
    (fun idx s ->
      with_shard_ro s (fun () ->
          if Lock_table.entry_count s.table > 0 then
            Format.fprintf ppf "shard %d:@.%a" idx Lock_table.pp_state s.table;
          Array.iter
            (fun bucket ->
              List.iter
                (fun (res, hs) ->
                  Format.fprintf ppf "shard %d fast %a:" idx Resource_id.pp res;
                  List.iter
                    (fun h -> Format.fprintf ppf " T%d:%a(x%d)" h.h_txn Mode.pp h.h_mode h.h_count)
                    hs;
                  Format.fprintf ppf "@.")
                (Atomic.get bucket))
            s.fast))
    t.shards

(* --- the LOCK_SERVICE view ---------------------------------------------- *)

let service t : Lock_service.t =
  (module struct
    let acquire r = acquire_req t r
    let attach r = attach_req t r
    let release ~txn mode res = ignore (release t ~txn mode res)
    let release_where ~txn pred = ignore (release_where t ~txn pred)
    let release_all ~txn = ignore (release_all t ~txn)
    let cancel ~ticket = ignore (cancel t ~ticket)
    let outstanding ~ticket = outstanding t ~ticket
    let holders res = holders t res
    let wait_edges () = wait_edges t
    let compensating_waiter ~txn = compensating_waiter t ~txn
    let lock_count () = lock_count t
    let waiter_count () = waiter_count t
    let set_observer obs = set_observer t obs
    let pp_state ppf () = pp_state ppf t
  end)
