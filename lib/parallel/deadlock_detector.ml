module Counter = Acc_util.Metrics.Counter

(* A sweep over the global waits-for graph, run by the engine's tick.

   The edge snapshot is assembled shard by shard, so it is not an atomic
   picture of the whole table — but a real deadlock is stable (none of its
   members can make progress), so once formed it appears in full in every
   later snapshot and the sweep finds it.  The converse race — a stale
   snapshot showing a "cycle" some member of which has already been granted —
   can at worst victimize a transaction that would have made progress; the
   victim retries, so this is wasted work, never lost safety.  [kill] only
   cancels waits that still exist at kill time. *)

let sweep locks =
  Acc_txn.Schedule.sweep Acc_txn.Schedule.spare_compensating
    (Sharded_lock_table.service locks) ~kill:(fun txn -> Sharded_lock_table.kill locks ~txn)

type t = { locks : Sharded_lock_table.t; sweeps : Counter.t; victims : Counter.t }

let create locks = { locks; sweeps = Counter.create (); victims = Counter.create () }

let run t =
  let k = sweep t.locks in
  Counter.incr t.sweeps;
  Counter.add t.victims k

let sweeps t = Counter.get t.sweeps
let victims t = Counter.get t.victims
