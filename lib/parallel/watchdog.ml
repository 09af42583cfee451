(* The engine's overload watchdog: a tick that the engine's background
   domain runs every [cadence] seconds, and that

   - drives {!Lock_service.expire} — OCaml's [Condition] has no timed
     wait, so deadlined waiters cannot expire themselves; the sweep is what
     turns a passed deadline into a [Lock_timeout] wakeup — and emits a
     {!Trace.Timed_out} event per withdrawn wait;
   - samples queue depth and oldest-waiter age into gauges;
   - maintains a smoothed abort rate (deadlock victims + lock timeouts per
     second) and raises the shedding flag while it exceeds the watermark;
   - trips degraded mode when the oldest waiter's age says the engine is
     wedged (waits outliving any configured deadline by a wide margin), and
     clears it with hysteresis once the queue drains.

   The flags are plain atomics: the admission gate reads them on every
   admission, the watchdog writes them on its cadence.  Both the shedding and
   degraded transitions use a half-threshold release so a rate or age sitting
   at the watermark cannot flap the flag every tick. *)

module Trace = Acc_obs.Trace
module Metrics = Acc_util.Metrics
module Lock_service = Acc_lock.Lock_service

type t = {
  locks : Lock_service.t;
  detector : Deadlock_detector.t;
  cadence : float;
  degrade_after : float;
  shed_watermark : float option;
  degraded_flag : bool Atomic.t;
  shedding_flag : bool Atomic.t;
  queue_depth : Metrics.Gauge.t;
  oldest : Metrics.Gauge.t;
  abort_rate : Metrics.Gauge.t;
  (* single-writer peaks (only [tick] sets them) *)
  peak_depth : Metrics.Gauge.t;
  peak_oldest : Metrics.Gauge.t;
  ticks : int Atomic.t;
  degraded_trips : int Atomic.t;
  (* the abort total and the time at the last tick, for the rate *)
  mutable prev_aborts : int;
  mutable prev_now : float;
}

let default_cadence = 0.005
let default_degrade_after = 1.0

(* Periodic metrics-snapshot hook ([--metrics-dump]'s refresh): module-level
   and CAS-scheduled so that with N engines (N watchdogs, e.g. one per
   partition) exactly one fires per period — whichever ticks first wins the
   CAS, the rest see the advanced timestamp.  The hook runs on an engine's
   background domain, so it must stay sampling-cheap (a Registry snapshot +
   file write is fine at a ≥100ms period). *)
let snapshot_hook : (float * (unit -> unit)) option Atomic.t = Atomic.make None
let snapshot_last = Atomic.make 0.

let set_snapshot_hook = function
  | None -> Atomic.set snapshot_hook None
  | Some (every, fn) ->
      if not (every > 0.) then invalid_arg "Watchdog.set_snapshot_hook: period <= 0";
      Atomic.set snapshot_last (Unix.gettimeofday ());
      Atomic.set snapshot_hook (Some (every, fn))

let maybe_snapshot ~now =
  match Atomic.get snapshot_hook with
  | None -> ()
  | Some (every, fn) ->
      let last = Atomic.get snapshot_last in
      if now -. last >= every && Atomic.compare_and_set snapshot_last last now then
        try fn () with _ -> ()

(* EMA smoothing per tick: ~0.25s time constant at the default cadence, so a
   burst of victims must persist before the watermark trips. *)
let alpha cadence = Float.min 1. (cadence /. 0.25)

let aborts t = Deadlock_detector.victims t.detector + Lock_service.timeout_count t.locks

let tick t =
  let now = Unix.gettimeofday () in
  let expired = Lock_service.expire t.locks ~now in
  if Trace.enabled () then
    List.iter
      (fun (e : Acc_lock.Lock_table.expired) ->
        Trace.emit
          (Trace.Timed_out
             { txn = e.ex_txn; mode = e.ex_mode; resource = e.ex_resource; waited = e.ex_waited }))
      expired;
  let depth = float_of_int (Lock_service.waiter_count t.locks) in
  Metrics.Gauge.set t.queue_depth depth;
  if depth > Metrics.Gauge.get t.peak_depth then Metrics.Gauge.set t.peak_depth depth;
  let oldest = Lock_service.oldest_wait t.locks ~now in
  Metrics.Gauge.set t.oldest oldest;
  if oldest > Metrics.Gauge.get t.peak_oldest then Metrics.Gauge.set t.peak_oldest oldest;
  let total = aborts t in
  let dt = Float.max 1e-6 (now -. t.prev_now) in
  let inst = float_of_int (total - t.prev_aborts) /. dt in
  t.prev_aborts <- total;
  t.prev_now <- now;
  let a = alpha t.cadence in
  let ema = (Metrics.Gauge.get t.abort_rate *. (1. -. a)) +. (inst *. a) in
  Metrics.Gauge.set t.abort_rate ema;
  (match t.shed_watermark with
  | None -> ()
  | Some w ->
      if ema > w then Atomic.set t.shedding_flag true
      else if ema < w /. 2. then Atomic.set t.shedding_flag false);
  (if Atomic.get t.degraded_flag then begin
     if oldest < t.degrade_after /. 2. then begin
       Atomic.set t.degraded_flag false;
       if Trace.enabled () then Trace.emit (Trace.Degraded { on = false; oldest_wait = oldest })
     end
   end
   else if oldest > t.degrade_after then begin
     Atomic.set t.degraded_flag true;
     Atomic.incr t.degraded_trips;
     if Trace.enabled () then Trace.emit (Trace.Degraded { on = true; oldest_wait = oldest })
   end);
  Atomic.incr t.ticks;
  maybe_snapshot ~now

let create ~cadence ?(degrade_after = default_degrade_after) ?shed_watermark ~detector locks =
  {
    locks;
    detector;
    cadence;
    degrade_after;
    shed_watermark;
    degraded_flag = Atomic.make false;
    shedding_flag = Atomic.make false;
    queue_depth = Metrics.Gauge.create ();
    oldest = Metrics.Gauge.create ();
    abort_rate = Metrics.Gauge.create ();
    peak_depth = Metrics.Gauge.create ();
    peak_oldest = Metrics.Gauge.create ();
    ticks = Atomic.make 0;
    degraded_trips = Atomic.make 0;
    prev_aborts = Deadlock_detector.victims detector + Lock_service.timeout_count locks;
    prev_now = Unix.gettimeofday ();
  }

let degraded t = Atomic.get t.degraded_flag
let shedding t = Atomic.get t.shedding_flag
let queue_depth t = int_of_float (Metrics.Gauge.get t.queue_depth)
let oldest_wait t = Metrics.Gauge.get t.oldest
let abort_rate t = Metrics.Gauge.get t.abort_rate
let peak_queue_depth t = int_of_float (Metrics.Gauge.get t.peak_depth)
let peak_oldest_wait t = Metrics.Gauge.get t.peak_oldest
let ticks t = Atomic.get t.ticks
let degraded_trips t = Atomic.get t.degraded_trips
