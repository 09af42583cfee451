module Lock_service = Acc_lock.Lock_service
module Counter = Acc_util.Metrics.Counter

(* Periodic background sweep over the global waits-for graph.

   The edge snapshot is assembled shard by shard, so it is not an atomic
   picture of the whole table — but a real deadlock is stable (none of its
   members can make progress), so once formed it appears in full in every
   later snapshot and the sweep finds it.  The converse race — a stale
   snapshot showing a "cycle" some member of which has already been granted —
   can at worst victimize a transaction that would have made progress; the
   victim retries, so this is wasted work, never lost safety.  [kill] only
   cancels waits that still exist at kill time. *)

let sweep locks =
  Acc_txn.Schedule.sweep Acc_txn.Schedule.spare_compensating locks ~kill:(fun txn ->
      Lock_service.kill locks ~txn)

type t = {
  stop_flag : bool Atomic.t;
  sweeps : Counter.t;
  victims : Counter.t;
  handle : unit Domain.t;
}

let default_cadence = 0.02

let start ?(cadence = default_cadence) locks =
  let stop_flag = Atomic.make false in
  let sweeps = Counter.create () in
  let victims = Counter.create () in
  let handle =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_flag) do
          Unix.sleepf cadence;
          let k = sweep locks in
          Counter.incr sweeps;
          Counter.add victims k
        done)
  in
  { stop_flag; sweeps; victims; handle }

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    Domain.join t.handle
  end

let sweeps t = Counter.get t.sweeps
let victims t = Counter.get t.victims
