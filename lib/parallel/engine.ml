module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Backoff = Acc_txn.Backoff
module Database = Acc_relation.Database
module Prng = Acc_util.Prng
module Metrics = Acc_util.Metrics
module Trace = Acc_obs.Trace

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

(* Every engine publishes its instruments in the process-wide registry; the
   names are stable (DESIGN.md §16) and [metrics_labels] disambiguates
   multi-engine processes ([Acc_dist.Dist_driver.build] labels each
   partition's engine with [partition="N"]).  A single-engine re-run re-registers the same
   (name, labels) pair and simply replaces the dead engine's entry. *)
let register_metrics t labels =
  let reg ?help name v = Acc_obs.Registry.register ?help ~labels name v in
  reg "acc_engine_shed_total" ~help:"admissions refused by the overload gate"
    (Acc_obs.Registry.Counter t.shed);
  reg "acc_engine_lock_wait_seconds" ~help:"blocking lock-acquisition wait time"
    (Acc_obs.Registry.Histogram t.lock_waits);
  reg "acc_engine_inflight" ~help:"multi-step transactions currently admitted"
    (Acc_obs.Registry.Poll_gauge (fun () -> float_of_int (Atomic.get t.inflight)));
  reg "acc_engine_lock_timeouts_total" ~help:"lock waits withdrawn at their deadline"
    (Acc_obs.Registry.Poll_counter (fun () -> Sharded_lock_table.timeout_count t.locks));
  reg "acc_detector_victims_total" ~help:"transactions killed by the deadlock detector"
    (Acc_obs.Registry.Poll_counter (fun () -> Deadlock_detector.victims t.detector));
  reg "acc_watchdog_queue_depth" ~help:"lock waiters at the last watchdog tick"
    (Acc_obs.Registry.Poll_gauge (fun () -> float_of_int (Watchdog.queue_depth t.watchdog)));
  reg "acc_watchdog_oldest_wait_seconds" ~help:"oldest-waiter age at the last tick"
    (Acc_obs.Registry.Poll_gauge (fun () -> Watchdog.oldest_wait t.watchdog));
  reg "acc_watchdog_abort_rate" ~help:"smoothed victims+timeouts per second"
    (Acc_obs.Registry.Poll_gauge (fun () -> Watchdog.abort_rate t.watchdog));
  reg "acc_watchdog_ticks_total" ~help:"watchdog ticks since engine start"
    (Acc_obs.Registry.Poll_counter (fun () -> Watchdog.ticks t.watchdog));
  reg "acc_watchdog_degraded_trips_total" ~help:"times degraded mode tripped"
    (Acc_obs.Registry.Poll_counter (fun () -> Watchdog.degraded_trips t.watchdog))

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

let create ?shards ?(detector_cadence = Deadlock_detector.default_cadence) ?cost ?lock_deadline
    ?max_inflight ?shed_watermark ?max_bypass ?(watchdog_cadence = Watchdog.default_cadence)
    ?degrade_after ?(metrics_labels = []) ?wal_policy ~sem db =
  let locks = Sharded_lock_table.create ?shards ?max_bypass sem in
  let service = Sharded_lock_table.service locks in
  let exec = Executor.create_with ?cost ?wal_policy ~service db in
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
    Watchdog.create ~cadence:watchdog_cadence ?degrade_after ?shed_watermark ~detector service
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
let degraded t = Watchdog.degraded t.watchdog
let inflight t = Atomic.get t.inflight
let shed_count t = Metrics.Counter.get t.shed
let timeout_count t = Sharded_lock_table.timeout_count t.locks

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
   backoff points); on a worker domain that becomes a short randomized sleep
   so colliding transactions desynchronize.  A {!Backoff.Jitter} state gives
   the decorrelated schedule; the legacy [backoff_g] path keeps the capped
   exponential with a randomized base.  {!Txn_effect.Wait_lock} must never
   surface here — the custom backend blocks internally. *)
let run_txn : type r. ?jitter:Backoff.Jitter.t -> ?backoff_g:Prng.t -> (unit -> r) -> r =
 fun ?jitter ?backoff_g f ->
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
                  (match jitter with
                  | Some j -> Unix.sleepf (Backoff.Jitter.next j ~attempt)
                  | None ->
                      let base =
                        match backoff_g with
                        | Some g -> 0.0002 +. Prng.exponential g ~mean:0.002
                        | None -> 0.001
                      in
                      (* capped exponential growth with the retry attempt, on
                         top of the randomized base so repeat colliders
                         desync *)
                      Unix.sleepf (base *. Backoff.factor ~attempt ()));
                  Effect.Deep.continue k ())
          | Txn_effect.Wait_lock _ ->
              Some
                (fun (_ : (b, r) Effect.Deep.continuation) ->
                  raise
                    (Txn_effect.Stuck
                       "parallel engine: Wait_lock effect from a blocking lock backend"))
          | _ -> None);
    }
