(* A partition is one isolated ACC instance owning a contiguous warehouse
   range: its own database, lock backend, WAL, and executor.  Nothing in
   this module shares state with any other partition — the only cross-
   partition channel is the coordinator's two-phase commit. *)

type t = {
  id : int;
  lo : int;
  hi : int;
  eng : Acc_txn.Executor.t;
}

let make ~id ~lo ~hi eng =
  if id < 0 then invalid_arg "Partition.make: negative id";
  if lo < 1 || hi < lo then invalid_arg "Partition.make: bad warehouse range";
  { id; lo; hi; eng }

let id t = t.id
let engine t = t.eng

(* Disjoint txn-id bands: partition [p]'s executor counts from [p * stride],
   so any txn id seen in a distributed trace maps back to its partition by
   division alone — no per-event partition field needed.  16M ids per
   partition is ~5 orders of magnitude above any bench run; on overflow the
   ids would bleed into the next band and only the trace attribution (not
   correctness) would suffer. *)
let txn_stride = 1 lsl 24
let txn_base id = id * txn_stride
let partition_of_txn txn = if txn < 0 then 0 else txn / txn_stride
let owns t w = t.lo <= w && w <= t.hi

(* Contiguous near-equal split of warehouses 1..W over n partitions: the
   first [W mod n] partitions take one extra warehouse. *)
let ranges ~warehouses ~partitions =
  if partitions < 1 then invalid_arg "Partition.ranges: partitions < 1";
  if warehouses < partitions then
    invalid_arg "Partition.ranges: fewer warehouses than partitions";
  let base = warehouses / partitions and extra = warehouses mod partitions in
  let rec go i lo acc =
    if i = partitions then List.rev acc
    else
      let width = base + if i < extra then 1 else 0 in
      let hi = lo + width - 1 in
      go (i + 1) (hi + 1) ((lo, hi) :: acc)
  in
  go 0 1 []
