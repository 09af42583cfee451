module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Backoff = Acc_txn.Backoff
module Database = Acc_relation.Database
module Metrics = Acc_util.Metrics
module Trace = Acc_obs.Trace
module Registry = Acc_obs.Registry

type t = {
  exec : Executor.t;
  locks : Sharded_lock_table.t;
  detector : Deadlock_detector.t;
  max_inflight : int option;
  inflight : int Atomic.t;
  shed : Metrics.Counter.t;
  lock_waits : Metrics.Histogram.t;
  (* the tick's state: the flags the admission gate reads, its gauges (the
     peaks single-writer: only [tick] sets them) and its counters *)
  shed_watermark : float option;
  degraded : bool Atomic.t;
  shedding : bool Atomic.t;
  queue_depth : Metrics.Gauge.t;
  oldest_wait : Metrics.Gauge.t;
  abort_rate : Metrics.Gauge.t;
  peak_queue_depth : Metrics.Gauge.t;
  peak_oldest_wait : Metrics.Gauge.t;
  ticks : Metrics.Counter.t;
  degraded_trips : Metrics.Counter.t;
  (* the abort total and the time at the last tick, for the rate; only the
     background domain touches them *)
  mutable prev_aborts : int;
  mutable prev_now : float;
  stop : bool Atomic.t;
  mutable background : unit Domain.t option;
}

(* Every engine counter, once: a dotted name (BENCHMARK.json's stem where it
   has one), a help string and a read into a registry value, which the
   registry, [stats], the driver's report and bench JSON all iterate.  No
   read takes a shard mutex: the metrics dump polls them every 250 ms. *)
let table =
  let module D = Deadlock_detector in
  let module L = Sharded_lock_table in
  let counter f t = Registry.Poll_counter (fun () -> f t) in
  let gauge f t = Registry.Poll_gauge (fun () -> f t) in
  let detector f = counter (fun t -> f t.detector) and locks f = counter (fun t -> f t.locks) in
  [
    ("lock.victims", "transactions killed by the deadlock detector", detector D.victims);
    ("lock.detector_sweeps", "deadlock-detector sweeps", detector D.sweeps);
    ("lock.timeouts", "lock waits withdrawn at their deadline", locks L.timeout_count);
    ("lock.wait_s", "blocking lock-wait time", fun t -> Registry.Histogram t.lock_waits);
    ("lock.mutex_acq", "shard-mutex acquisitions in the lock manager", locks L.mutex_acquisitions);
    ("lock.fast_attempts", "lock requests that probed the fast path", locks L.fast_attempts);
    ("lock.fast_hits", "fast-path probes granted without a mutex", locks L.fast_hits);
    ( "wal.flushes", "WAL durability round trips",
      counter (fun t -> Acc_wal.Log.flush_count (Executor.log t.exec)) );
    ("admission.shed", "admissions the overload gate refused", fun t -> Registry.Counter t.shed);
    ( "admission.inflight", "multi-step transactions currently admitted",
      gauge (fun t -> float_of_int (Atomic.get t.inflight)) );
    ("watchdog.ticks", "watchdog ticks since engine start", fun t -> Registry.Counter t.ticks);
    ("watchdog.queue_depth", "lock waiters at the last tick", fun t -> Registry.Gauge t.queue_depth);
    ( "watchdog.peak_queue_depth", "peak sampled queue depth",
      fun t -> Registry.Gauge t.peak_queue_depth );
    ( "watchdog.oldest_wait_s", "oldest-waiter age at the last tick",
      fun t -> Registry.Gauge t.oldest_wait );
    ( "watchdog.peak_oldest_wait_s", "peak sampled oldest wait",
      fun t -> Registry.Gauge t.peak_oldest_wait );
    ( "watchdog.abort_rate", "smoothed victims+timeouts per second",
      fun t -> Registry.Gauge t.abort_rate );
    ( "watchdog.degraded_trips", "times degraded mode tripped",
      fun t -> Registry.Counter t.degraded_trips );
  ]

type stats = (string * Registry.sample) list

let stats t = List.map (fun (name, _, read) -> (name, Registry.sample_of (read t))) table

let counter stats name =
  match List.assoc name stats with
  | Registry.S_counter n -> n
  | _ -> invalid_arg ("Engine.counter: " ^ name ^ " is not a counter")

(* [metrics_labels] disambiguates multi-engine processes (partition engines
   pass [partition="N"]); a re-run re-registers the same (name, labels)
   pairs and replaces the dead engine's entries. *)
let register_metrics t labels =
  List.iter
    (fun (name, help, read) ->
      let v = read t in
      Registry.register ~help ~labels (Registry.prom_name name (Registry.sample_of v)) v)
    table

(* --- the tick ----------------------------------------------------------- *)

(* The period of the tick, which is the resolution of lock-wait deadlines
   (OCaml's [Condition] has no timed wait, so waiters cannot expire
   themselves), and the tick count between deadlock sweeps (20 ms). *)
let tick_period = 0.005
let sweep_every = 4

(* Oldest-waiter age past which the engine counts as wedged. *)
let degrade_after = 1.0

(* EMA smoothing per tick: ~0.25s time constant, so a burst of victims must
   persist before the watermark trips. *)
let alpha = Float.min 1. (tick_period /. 0.25)

(* Periodic metrics-snapshot hook ([--metrics-dump]'s refresh): module-level
   and CAS-scheduled so that with N engines (e.g. one per partition) exactly
   one fires per period — whichever ticks first wins the CAS, the rest see
   the advanced timestamp.  The hook runs on an engine's background domain,
   so it must stay sampling-cheap (a Registry snapshot + file write is fine
   at a ≥100ms period). *)
let snapshot_hook : (float * (unit -> unit)) option Atomic.t = Atomic.make None
let snapshot_last = Atomic.make 0.

let set_snapshot_hook = function
  | None -> Atomic.set snapshot_hook None
  | Some (every, fn) ->
      if not (every > 0.) then invalid_arg "Engine.set_snapshot_hook: period <= 0";
      Atomic.set snapshot_last (Unix.gettimeofday ());
      Atomic.set snapshot_hook (Some (every, fn))

let maybe_snapshot ~now =
  match Atomic.get snapshot_hook with
  | None -> ()
  | Some (every, fn) ->
      let last = Atomic.get snapshot_last in
      if now -. last >= every && Atomic.compare_and_set snapshot_last last now then
        try fn () with _ -> ()

let aborts t = Deadlock_detector.victims t.detector + Sharded_lock_table.timeout_count t.locks

let raise_peak peak v = if v > Metrics.Gauge.get peak then Metrics.Gauge.set peak v

(* One tick: expire overdue waits and sum up the rest in one walk of the
   shards, sample the gauges from that sum, update the smoothed abort rate
   (victims + timeouts per second) and both admission flags — shedding
   while the rate exceeds the watermark, degraded while the oldest waiter's
   age says the engine is wedged, each released at half its threshold so a
   value sitting at the boundary cannot flap the flag every tick — and, on
   the sweep cadence, look for deadlocks.  A waits-for cycle needs two
   waiting transactions, and a real deadlock is stable, so a tick that
   counts fewer skips the sweep and a later tick still finds the cycle. *)
let tick t =
  let now = Unix.gettimeofday () in
  let waits, expired = Sharded_lock_table.expire t.locks ~now in
  if Trace.enabled () then
    List.iter
      (fun (e : Acc_lock.Lock_table.expired) ->
        Trace.emit
          (Trace.Timed_out
             { txn = e.ex_txn; mode = e.ex_mode; resource = e.ex_resource; waited = e.ex_waited }))
      expired;
  let depth = float_of_int waits.Acc_lock.Lock_table.waiting and oldest = waits.oldest in
  Metrics.Gauge.set t.queue_depth depth;
  raise_peak t.peak_queue_depth depth;
  Metrics.Gauge.set t.oldest_wait oldest;
  raise_peak t.peak_oldest_wait oldest;
  let total = aborts t in
  let dt = Float.max 1e-6 (now -. t.prev_now) in
  let inst = float_of_int (total - t.prev_aborts) /. dt in
  t.prev_aborts <- total;
  t.prev_now <- now;
  let ema = (Metrics.Gauge.get t.abort_rate *. (1. -. alpha)) +. (inst *. alpha) in
  Metrics.Gauge.set t.abort_rate ema;
  (match t.shed_watermark with
  | None -> ()
  | Some w ->
      if ema > w then Atomic.set t.shedding true
      else if ema < w /. 2. then Atomic.set t.shedding false);
  (if Atomic.get t.degraded then begin
     if oldest < degrade_after /. 2. then begin
       Atomic.set t.degraded false;
       if Trace.enabled () then Trace.emit (Trace.Degraded { on = false; oldest_wait = oldest })
     end
   end
   else if oldest > degrade_after then begin
     Atomic.set t.degraded true;
     Metrics.Counter.incr t.degraded_trips;
     if Trace.enabled () then Trace.emit (Trace.Degraded { on = true; oldest_wait = oldest })
   end);
  Metrics.Counter.incr t.ticks;
  if Metrics.Counter.get t.ticks mod sweep_every = 0 && waits.waiting >= 2 then
    Deadlock_detector.run t.detector;
  maybe_snapshot ~now

(* The engine's one background domain runs the tick on a fixed grid, so
   neither the deadline resolution nor the sweep cadence drifts by the
   ticks' own run time; a tick that overran starts the grid afresh rather
   than catching up.  Every minor collection stops every domain, so each
   mostly sleeping domain beside the clients is one more for every
   collection to wait on. *)
let background t () =
  let next = ref (Unix.gettimeofday ()) in
  while not (Atomic.get t.stop) do
    let now = Unix.gettimeofday () in
    next := Float.max (!next +. tick_period) now;
    if !next > now then Unix.sleepf (!next -. now);
    tick t
  done

let create ?shards ?lock_deadline ?max_inflight ?shed_watermark ?(metrics_labels = [])
    ?wal_policy ~sem db =
  let locks = Sharded_lock_table.create ?shards sem in
  let exec = Executor.create_with ?wal_policy ~service:(Sharded_lock_table.service locks) db in
  Executor.set_lock_deadline exec lock_deadline;
  let lock_waits = Metrics.Histogram.create () in
  Sharded_lock_table.set_on_wait locks (Some (Metrics.Histogram.record lock_waits));
  (* the storage engine (hashtables, ordered indexes) is not structurally
     thread-safe; one mutex per table serializes physical access while the
     lock protocol keeps logical access correct.  The fallback mutex covers
     tables created after the engine (none in practice). *)
  let table_mu = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace table_mu name (Mutex.create ()))
    (Database.table_names db);
  let fallback_mu = Mutex.create () in
  Executor.set_table_wrap exec
    {
      Executor.wrap =
        (fun name f ->
          let mu =
            match Hashtbl.find_opt table_mu name with Some m -> m | None -> fallback_mu
          in
          Mutex.lock mu;
          Fun.protect ~finally:(fun () -> Mutex.unlock mu) f);
    };
  let t =
    {
      exec;
      locks;
      detector = Deadlock_detector.create locks;
      max_inflight;
      inflight = Atomic.make 0;
      shed = Metrics.Counter.create ();
      lock_waits;
      shed_watermark;
      degraded = Atomic.make false;
      shedding = Atomic.make false;
      queue_depth = Metrics.Gauge.create ();
      oldest_wait = Metrics.Gauge.create ();
      abort_rate = Metrics.Gauge.create ();
      peak_queue_depth = Metrics.Gauge.create ();
      peak_oldest_wait = Metrics.Gauge.create ();
      ticks = Metrics.Counter.create ();
      degraded_trips = Metrics.Counter.create ();
      prev_aborts = 0;
      prev_now = Unix.gettimeofday ();
      stop = Atomic.make false;
      background = None;
    }
  in
  register_metrics t metrics_labels;
  t.background <- Some (Domain.spawn (background t));
  t

let executor t = t.exec
let locks t = t.locks
let lock_service t = Executor.lock_service t.exec
let detector t = t.detector
let lock_waits t = t.lock_waits

(* Admission control: a token gate on multi-step transactions.  The cheap
   cap check bounds how many transactions can be mid-protocol at once
   (bounding queue depth and the deadlock search space); the tick's
   watermark and degraded flags shed load when aborts spike or the engine
   wedges.  Shedding happens before any lock is requested, so a shed
   transaction costs nothing to retry. *)

type admission = Admitted | Shed of string

let try_admit t =
  let refuse reason =
    Metrics.Counter.incr t.shed;
    if Trace.enabled () then
      Trace.emit (Trace.Shed { inflight = Atomic.get t.inflight; reason });
    Shed reason
  in
  if Atomic.get t.degraded then refuse "degraded"
  else if Atomic.get t.shedding then refuse "watermark"
  else
    match t.max_inflight with
    | None ->
        Atomic.incr t.inflight;
        Admitted
    | Some cap ->
        (* optimistic increment, backed out on overshoot: no CAS loop, and a
           transient over-read only refuses an admission it could have made *)
        let n = Atomic.fetch_and_add t.inflight 1 in
        if n >= cap then begin
          Atomic.decr t.inflight;
          refuse "capacity"
        end
        else Admitted

let finish t = Atomic.decr t.inflight

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    Option.iter Domain.join t.background;
    (* a last expiry, so deadlines that passed during shutdown still resolve *)
    ignore (Sharded_lock_table.expire t.locks ~now:(Unix.gettimeofday ()))
  end

(* Transaction bodies still perform {!Txn_effect.Yield} (deadlock-retry
   backoff points); on a worker domain that becomes a short sleep.  A
   {!Backoff.Jitter} state gives the decorrelated schedule that makes
   colliding transactions desynchronize; without one the sleep grows capped
   exponentially from 1 ms.  The custom backend blocks internally, so no
   {!Txn_effect.Wait_lock} ever reaches the handler. *)
let run_txn ?jitter f =
  Txn_effect.run_inline f ~on_yield:(fun attempt ->
      Unix.sleepf
        (match jitter with
        | Some j -> Backoff.Jitter.next j ~attempt
        | None -> 0.001 *. Backoff.factor ~attempt ()))
