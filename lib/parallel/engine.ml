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
  watchdog : Watchdog.t;
  stop : bool Atomic.t;
  background : unit Domain.t;
  max_inflight : int option;
  inflight : int Atomic.t;
  shed : Metrics.Counter.t;
  lock_waits : Metrics.Histogram.t;
}

(* Every engine counter, once: a dotted name (BENCHMARK.json's stem where it
   has one), a help string and a read into a registry value, which the
   registry, [stats], the driver's report and bench JSON all iterate.  No
   read takes a shard mutex: the metrics dump polls them every 250 ms, and
   a shard section counts in [lock.mutex_acq]. *)
let table =
  let module D = Deadlock_detector in
  let module L = Sharded_lock_table in
  let module W = Watchdog in
  let counter f t = Registry.Poll_counter (fun () -> f t) in
  let gauge f t = Registry.Poll_gauge (fun () -> f t) in
  let detector f = counter (fun t -> f t.detector) and locks f = counter (fun t -> f t.locks) in
  let ticked f = counter (fun t -> f t.watchdog) and sampled f = gauge (fun t -> f t.watchdog) in
  let depth f w = float_of_int (f w) in
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
    ("watchdog.ticks", "watchdog ticks since engine start", ticked W.ticks);
    ("watchdog.queue_depth", "lock waiters at the last tick", sampled (depth W.queue_depth));
    ("watchdog.peak_queue_depth", "peak sampled queue depth", sampled (depth W.peak_queue_depth));
    ("watchdog.oldest_wait_s", "oldest-waiter age at the last tick", sampled W.oldest_wait);
    ("watchdog.peak_oldest_wait_s", "peak sampled oldest wait", sampled W.peak_oldest_wait);
    ("watchdog.abort_rate", "smoothed victims+timeouts per second", sampled W.abort_rate);
    ("watchdog.degraded_trips", "times degraded mode tripped", ticked W.degraded_trips);
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

(* The engine's one background domain: it runs the watchdog's tick and the
   deadlock sweep, each on its own cadence, sleeping until the earlier one is
   due.  Every minor collection stops every domain, so each mostly sleeping
   domain beside the clients is one more for every collection to wait on. *)
let background ~stop ~detector ~detector_cadence ~watchdog ~watchdog_cadence () =
  let start = Unix.gettimeofday () in
  let next_tick = ref (start +. watchdog_cadence) in
  let next_sweep = ref (start +. detector_cadence) in
  while not (Atomic.get stop) do
    let wait = Float.min !next_tick !next_sweep -. Unix.gettimeofday () in
    if wait > 0. then Unix.sleepf wait;
    let now = Unix.gettimeofday () in
    if now >= !next_tick then begin
      Watchdog.tick watchdog;
      next_tick := now +. watchdog_cadence
    end;
    if now >= !next_sweep then begin
      Deadlock_detector.run detector;
      next_sweep := now +. detector_cadence
    end
  done

let create ?shards ?(detector_cadence = Deadlock_detector.default_cadence) ?lock_deadline
    ?max_inflight ?shed_watermark ?(watchdog_cadence = Watchdog.default_cadence)
    ?(metrics_labels = []) ?wal_policy ~sem db =
  let locks = Sharded_lock_table.create ?shards sem in
  let service = Sharded_lock_table.service locks in
  let exec = Executor.create_with ?wal_policy ~service db in
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
  let detector = Deadlock_detector.create service in
  let watchdog =
    Watchdog.create ~cadence:watchdog_cadence ?shed_watermark ~detector service
  in
  let stop = Atomic.make false in
  let t =
    {
      exec;
      locks;
      detector;
      watchdog;
      stop;
      background =
        Domain.spawn (background ~stop ~detector ~detector_cadence ~watchdog ~watchdog_cadence);
      max_inflight;
      inflight = Atomic.make 0;
      shed = Metrics.Counter.create ();
      lock_waits;
    }
  in
  register_metrics t metrics_labels;
  t

let executor t = t.exec
let locks t = t.locks
let lock_service t = Executor.lock_service t.exec
let detector t = t.detector
let watchdog t = t.watchdog
let lock_waits t = t.lock_waits

(* Admission control: a token gate on multi-step transactions.  The cheap
   cap check bounds how many transactions can be mid-protocol at once
   (bounding queue depth and the deadlock search space); the watchdog's
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
  if Watchdog.degraded t.watchdog then refuse "degraded"
  else if Watchdog.shedding t.watchdog then refuse "watermark"
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
    Domain.join t.background;
    (* a last expiry, so deadlines that passed during shutdown still resolve *)
    ignore (Sharded_lock_table.expire t.locks ~now:(Unix.gettimeofday ()))
  end

(* Transaction bodies still perform {!Txn_effect.Yield} (deadlock-retry
   backoff points); on a worker domain that becomes a short sleep.  A
   {!Backoff.Jitter} state gives the decorrelated schedule that makes
   colliding transactions desynchronize; without one the sleep grows capped
   exponentially from 1 ms.  {!Txn_effect.Wait_lock} must never surface
   here — the custom backend blocks internally. *)
let run_txn : type r. ?jitter:Backoff.Jitter.t -> (unit -> r) -> r =
 fun ?jitter f ->
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Txn_effect.Yield attempt ->
              Some
                (fun (k : (b, r) Effect.Deep.continuation) ->
                  Unix.sleepf
                    (match jitter with
                    | Some j -> Backoff.Jitter.next j ~attempt
                    | None -> 0.001 *. Backoff.factor ~attempt ());
                  Effect.Deep.continue k ())
          | Txn_effect.Wait_lock _ ->
              Some
                (fun (_ : (b, r) Effect.Deep.continuation) ->
                  raise
                    (Txn_effect.Stuck
                       "parallel engine: Wait_lock effect from a blocking lock backend"))
          | _ -> None);
    }
