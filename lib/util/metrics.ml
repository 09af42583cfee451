module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr t = Atomic.incr t
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get t = Atomic.get t
  let reset t = Atomic.set t 0
  let drain t = Atomic.exchange t 0
end

module Gauge = struct
  (* A boxed-float atomic: set allocates, so gauges belong on sampling paths
     (the engine's tick), not per-operation hot paths. *)
  type t = float Atomic.t

  let create () = Atomic.make 0.
  let set t v = Atomic.set t v
  let get t = Atomic.get t
end

module Latency = struct
  (* Each domain records into its own private tally — [Stats.Tally.add] is
     single-writer — and readers fold [Stats.Tally.merge] over the registered
     set.  Registration is a lock-free CAS prepend, so the hot path (record)
     never takes a lock and never contends with other domains. *)

  type slot = Stats.Tally.t

  type t = Stats.Tally.t list Atomic.t

  let create () = Atomic.make []

  let rec slot t =
    let tally = Stats.Tally.create () in
    let cur = Atomic.get t in
    if Atomic.compare_and_set t cur (tally :: cur) then tally else slot t

  let record slot v = Stats.Tally.add slot v

  let merged t =
    List.fold_left Stats.Tally.merge (Stats.Tally.create ()) (Atomic.get t)

  let snapshot = merged

  let count t =
    List.fold_left (fun acc tally -> acc + Stats.Tally.count tally) 0 (Atomic.get t)
end

module Histogram = struct
  (* Fixed log-scale buckets: bucket [i] counts values in
     (base * 2^(i-1), base * 2^i], bucket 0 everything <= base, the last
     bucket everything larger than its lower bound.  Recording is two atomic
     adds and no allocation, so it is safe (and cheap) from every worker
     domain; percentile reads walk the cumulative counts and interpolate
     linearly inside the winning bucket. *)

  type t = {
    counts : int Atomic.t array;
    total : int Atomic.t;
    sum_ns : int Atomic.t;  (* sum scaled by 1e9 to stay an atomic int *)
  }

  let base = 1e-6
  let buckets = 48

  let create () =
    {
      counts = Array.init buckets (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum_ns = Atomic.make 0;
    }

  let bucket_of t v =
    if not (v > base) then 0
    else
      let i = 1 + int_of_float (Float.floor (Float.log2 (v /. base) -. 1e-9)) in
      min i (Array.length t.counts - 1)

  let record t v =
    let v = if Float.is_nan v || v < 0. then 0. else v in
    Atomic.incr t.counts.(bucket_of t v);
    ignore (Atomic.fetch_and_add t.total 1);
    ignore (Atomic.fetch_and_add t.sum_ns (int_of_float (v *. 1e9)))

  let count t = Atomic.get t.total
  let total t = float_of_int (Atomic.get t.sum_ns) /. 1e9

  let bucket_bounds ~base i =
    (* (lo, hi] of bucket i; bucket 0 starts at 0 *)
    let hi = base *. Float.pow 2. (float_of_int i) in
    let lo = if i = 0 then 0. else base *. Float.pow 2. (float_of_int (i - 1)) in
    (lo, hi)

  (* A snapshot is one pass over the bucket array; every derived read
     (percentile, mean, cumulative buckets) works from that single frozen
     view, so it can never mix bucket counts taken at different moments with
     a [total] taken at yet another — the torn-read hazard of walking the
     live atomics directly.  The snapshot's own count is the sum of its
     bucket counts, NOT the live [total] cell: a concurrent [record] that has
     landed its bucket increment but not yet its total increment (or vice
     versa) therefore cannot make a percentile walk run past the end or stop
     short. *)
  module Snapshot = struct
    type t = { base : float; counts : int array; sum : float }

    let count s = Array.fold_left ( + ) 0 s.counts
    let sum s = s.sum
    let bounds s i = bucket_bounds ~base:s.base i
    let buckets s = Array.length s.counts
    let mean s = if count s = 0 then nan else s.sum /. float_of_int (count s)

    let percentile s p =
      let n = count s in
      if n = 0 then nan
      else begin
        let p = Float.max 0. (Float.min 1. p) in
        let target = p *. float_of_int n in
        let rec walk i cum =
          if i >= Array.length s.counts then snd (bounds s (Array.length s.counts - 1))
          else
            let c = s.counts.(i) in
            if float_of_int (cum + c) >= target && c > 0 then begin
              let lo, hi = bounds s i in
              let frac =
                if c = 0 then 0. else (target -. float_of_int cum) /. float_of_int c
              in
              lo +. (Float.max 0. (Float.min 1. frac) *. (hi -. lo))
            end
            else walk (i + 1) (cum + c)
        in
        walk 0 0
      end

    let nonzero s =
      let out = ref [] in
      for i = Array.length s.counts - 1 downto 0 do
        if s.counts.(i) > 0 then out := (snd (bounds s i), s.counts.(i)) :: !out
      done;
      !out

    let cumulative s =
      (* (upper_bound, cumulative_count) per bucket, ascending — the shape of
         a Prometheus histogram's [le] series.  The last bucket is open-ended
         (it counts everything above its lower bound), so its upper bound is
         reported as [infinity]. *)
      let cum = ref 0 in
      List.init (Array.length s.counts) (fun i ->
          cum := !cum + s.counts.(i);
          let ub =
            if i = Array.length s.counts - 1 then infinity else snd (bounds s i)
          in
          (ub, !cum))

    let merge a b =
      if a.base <> b.base || Array.length a.counts <> Array.length b.counts then
        invalid_arg "Histogram.Snapshot.merge: shape mismatch";
      {
        base = a.base;
        counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
        sum = a.sum +. b.sum;
      }
  end

  let snapshot t =
    {
      Snapshot.base;
      counts = Array.map Atomic.get t.counts;
      sum = float_of_int (Atomic.get t.sum_ns) /. 1e9;
    }

  let mean t = Snapshot.mean (snapshot t)
  let percentile t p = Snapshot.percentile (snapshot t) p
  let nonzero_buckets t = Snapshot.nonzero (snapshot t)
end
