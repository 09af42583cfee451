(* One benchmark cell: a single (workload, system) pair in its own process.

   [perfbench/run.py] spawns this program under a wall-clock guard, once per
   cell, and aggregates the JSON object it writes to [-out].  Three modes:

   - [cell]: set up the workload's database and engine, drive a closed loop
     of client domains for a fixed window (or a fixed seeded transaction
     sequence), then check the consistency oracle and leaked locks.  Every
     transaction is timed on the wall clock and on the client thread's CPU
     clock; [perfbench/run.py] picks the workload's clock.  With
     [-trace 1] the run is instrumented from outside: the engine's trace
     sink and lock observer are switched on, the benchmark records its own
     span around every call it makes into the program, and per-layer counts
     are read back from the trace and the engine's counters.
   - [setup]: populate and start the engine only (one more setup sample).
   - [ladder]: time each layer's public entry points in isolation on the
     workload's populated database.

   Nothing here reaches inside the program: every number is a timing of a
   public call, a counter the program already keeps, or an event its trace
   sink already emits. *)

module Engine = Acc_parallel.Engine
module Sharded_lock_table = Acc_parallel.Sharded_lock_table
module Deadlock_detector = Acc_parallel.Deadlock_detector
module Domain_pool = Acc_parallel.Domain_pool
module Executor = Acc_txn.Executor
module Backoff = Acc_txn.Backoff
module Runtime = Acc_core.Runtime
module Program = Acc_core.Program
module Interference = Acc_core.Interference
module Assertion = Acc_core.Assertion
module Mode = Acc_lock.Mode
module Lock_request = Acc_lock.Lock_request
module Lock_service = Acc_lock.Lock_service
module Rid = Acc_lock.Resource_id
module Value = Acc_relation.Value
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Log = Acc_wal.Log
module Record = Acc_wal.Record
module Metrics = Acc_util.Metrics
module Prng = Acc_util.Prng
module Trace = Acc_obs.Trace
module Span = Acc_obs.Span
module Json = Acc_obs.Json
module Conflict_accounting = Acc_obs.Conflict_accounting
module Lock_obs = Acc_obs.Lock_obs
module Txns = Acc_tpcc.Txns
module Params = Acc_tpcc.Params
module Load = Acc_tpcc.Load
module Dist_txns = Acc_tpcc.Dist_txns
module Consistency = Acc_tpcc.Consistency
module Tpcc_workload = Acc_tpcc.Tpcc_workload
module Coordinator = Acc_dist.Coordinator
module Dist_driver = Acc_dist.Dist_driver
module Partition = Acc_dist.Partition

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* the calling thread's CPU time in ns (cpu_clock.c) *)
external thread_cpu_ns : unit -> (float[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Workloads *)

type shape = {
  clients : int;
  pace : float;  (** seconds slept at every pace point, locks held *)
  accounting : bool;  (** classify lock decisions in the traced pass *)
  capacity : int;
      (** trace ring per domain: enough for the traced slice run.py asks
          for, so no event is dropped *)
}

let shape = function
  | "tpcc-paced" -> { clients = 2; pace = 0.001; accounting = true; capacity = 1 lsl 20 }
  | "tpcc-1client" -> { clients = 1; pace = 0.; accounting = false; capacity = 1 lsl 21 }
  | w -> failwith ("unknown workload " ^ w)

let plugin = function
  | "tpcc-paced" ->
      Tpcc_workload.make ~params:Params.full ~mix:Tpcc_workload.New_order_payment ()
  | "tpcc-1client" -> Tpcc_workload.make ~params:Params.full ()
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Preallocated sample buffers: unboxed latencies plus one byte each for the
   transaction type and the outcome, grown by doubling only if a window
   outruns the initial capacity. *)

type buf = {
  mutable lat : Float.Array.t;  (** ns, issue to outcome *)
  mutable cpu : Float.Array.t;  (** ns of the client thread's CPU, same interval *)
  mutable kind : Bytes.t;  (** transaction type index *)
  mutable code : Bytes.t;  (** outcome code *)
  mutable len : int;
}

let buf_create n =
  {
    lat = Float.Array.create n;
    cpu = Float.Array.create n;
    kind = Bytes.create n;
    code = Bytes.create n;
    len = 0;
  }

let buf_push b lat cpu kind code =
  if b.len = Float.Array.length b.lat then begin
    let n = 2 * b.len in
    let lat = Float.Array.create n and cpu = Float.Array.create n in
    Float.Array.blit b.lat 0 lat 0 b.len;
    Float.Array.blit b.cpu 0 cpu 0 b.len;
    let k = Bytes.create n and c = Bytes.create n in
    Bytes.blit b.kind 0 k 0 b.len;
    Bytes.blit b.code 0 c 0 b.len;
    b.lat <- lat;
    b.cpu <- cpu;
    b.kind <- k;
    b.code <- c
  end;
  Float.Array.unsafe_set b.lat b.len lat;
  Float.Array.unsafe_set b.cpu b.len cpu;
  Bytes.unsafe_set b.kind b.len (Char.unsafe_chr kind);
  Bytes.unsafe_set b.code b.len (Char.unsafe_chr code);
  b.len <- b.len + 1

(* outcome codes: committed, or rolled back on the input's own forced-abort
   flag (both as the input asked), or anything else (a failure) *)
let committed_ok = 0
let forced_ok = 1
let failed = 2

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans (traced pass only): one root span per request and
   one child per call into the program, kept in memory, written at exit. *)

type span = {
  s_req : int;
  s_name : string;
  s_parent : int;  (** index in the same client's list; -1 = root *)
  s_dom : int;
  s_t0 : float;  (** ns, monotonic *)
  mutable s_t1 : float;
}

type spans = { mutable sp : span array; mutable n : int }

let spans_create () = { sp = [||]; n = 0 }

let span_open ss ~req ~name ~parent ~dom =
  let s =
    { s_req = req; s_name = name; s_parent = parent; s_dom = dom; s_t0 = now_ns (); s_t1 = nan }
  in
  if ss.n = Array.length ss.sp then begin
    let a = Array.make (max 1024 (2 * ss.n)) s in
    Array.blit ss.sp 0 a 0 ss.n;
    ss.sp <- a
  end;
  ss.sp.(ss.n) <- s;
  ss.n <- ss.n + 1;
  ss.n - 1

let span_close ss i = ss.sp.(i).s_t1 <- now_ns ()

(* one call into the program, wrapped in a child span when tracing *)
let call ss ~req ~parent ~dom name f =
  match ss with
  | None -> f ()
  | Some ss ->
      let i = span_open ss ~req ~name ~parent ~dom in
      Fun.protect ~finally:(fun () -> span_close ss i) f

(* ------------------------------------------------------------------ *)
(* Progress for the hung-cell guard: each client rewrites its own small
   file with its attempted/ok counts every quarter second, so the
   transactions of a cell that has to be killed are still counted. *)

type progress = { fd : Unix.file_descr option; mutable next : float }

let progress_open dir i =
  match dir with
  | None -> { fd = None; next = 0. }
  | Some d ->
      let path = Filename.concat d (Printf.sprintf "client%d" i) in
      { fd = Some (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644); next = 0. }

let progress_write p ~attempted ~ok =
  match p.fd with
  | None -> ()
  | Some fd ->
      let s = Printf.sprintf "%12d %12d\n" attempted ok in
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      ignore (Unix.single_write_substring fd s 0 (String.length s))

let progress_tick p ~attempted ~ok =
  if p.fd <> None then begin
    let t = now_ns () in
    if t >= p.next then begin
      progress_write p ~attempted ~ok;
      p.next <- t +. 2.5e8
    end
  end

let progress_close p ~attempted ~ok =
  progress_write p ~attempted ~ok;
  Option.iter Unix.close p.fd

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

(* nearest-rank percentile of a sorted array *)
let rank sorted q =
  let n = Float.Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    Float.Array.get sorted (max 0 (min (n - 1) i))

let sorted_of_list l =
  let a = Float.Array.of_list l in
  Float.Array.sort Float.compare a;
  a

let median l = rank (sorted_of_list l) 0.5

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let num f = Json.Float (if Float.is_finite f then f else 0.)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* The system under test, behind one call shape, with the transaction
   bracket of [Acc_tpcc.Parallel_driver.run]. *)

type 'input system = {
  gen : int -> 'input;  (** client index -> next input *)
  kind : 'input -> int;  (** index into [type_names] *)
  issue : spans option -> req:int -> parent:int -> dom:int -> int -> 'input -> int;
      (** run one request to its outcome code *)
}

module type RUN = sig
  type input

  val sys : input system
end

type setup = {
  populate_s : float;
  engine_s : float;
  engine : Engine.t;
  type_names : string array;
  run : (module RUN);
  consistency : unit -> string list;
  degraded_runs : int Atomic.t;
  close : unit -> unit;
}

(* A pace point stands for [p] seconds of client compute.  A sleep wakes
   late by the host's wakeup latency (on a shared 2-vCPU VM a 1 ms sleep
   overshot by 0.1 ms at the median and 2.6 ms at the 99th percentile), so
   each client carries the overshoot as a debt and sleeps that much less at
   its next pace points: its paced time stays [p] per point, whatever the
   host. *)
let pace_debt = Domain.DLS.new_key (fun () -> ref 0.)

let pace_of p () =
  if p > 0. then begin
    let debt = Domain.DLS.get pace_debt in
    let want = p -. !debt in
    if want <= 0. then debt := -.want
    else begin
      let t0 = now_ns () in
      Unix.sleepf want;
      debt := ((now_ns () -. t0) /. 1e9) -. want
    end
  end

let type_index names =
  let h = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace h n i) names;
  fun n -> match Hashtbl.find_opt h n with Some i -> i | None -> Array.length names

let setup ~workload ~system ~seed =
  let sh = shape workload in
  let module W = (val plugin workload : Acc_workload.S) in
  W.reset_global ();
  let t0 = now_ns () in
  let db = W.populate ~seed in
  let t1 = now_ns () in
  let sem = if system = "2pl" then Mode.no_semantics else W.semantics in
  let engine = Engine.create ~sem db in
  let t2 = now_ns () in
  let eng = Engine.executor engine in
  Executor.set_clock eng Unix.gettimeofday;
  (* split on this domain before spawning: each client's stream is a pure
     function of (seed, client index) *)
  let base = W.make_env ~pace:(pace_of sh.pace) ~seed:((seed * 31) + 1) () in
  let envs = Array.init sh.clients (fun _ -> W.split_env base) in
  let jitters =
    Array.init sh.clients (fun i -> Backoff.Jitter.create ~seed:((seed * 7919) + i) ())
  in
  let type_names =
    Array.of_list
      (List.map (fun t -> t.Program.tt_name) (Program.txn_types W.workload))
  in
  let index = type_index type_names in
  let degraded_runs = Atomic.make 0 in
  let module R = struct
    type input = W.input

    let issue ss ~req ~parent ~dom i input =
      let env = envs.(i) and jitter = jitters.(i) in
      let forced = W.forced_abort input in
      let flat () =
        match
          call ss ~req ~parent ~dom "run_flat" (fun () ->
              Engine.run_txn ~jitter (fun () -> W.run_flat eng env input))
        with
        | `Committed -> if forced then failed else committed_ok
        | `Aborted -> if forced then forced_ok else failed
      in
      if system = "2pl" then flat ()
      else
        let rec admit attempt =
          match call ss ~req ~parent ~dom "try_admit" (fun () -> Engine.try_admit engine) with
          | Engine.Admitted -> `Acc
          | Engine.Shed "degraded" -> `Degraded
          | Engine.Shed _ ->
              Unix.sleepf (Backoff.Jitter.next jitter ~attempt);
              admit (attempt + 1)
        in
        match admit 1 with
        | `Degraded ->
            Atomic.incr degraded_runs;
            flat ()
        | `Acc ->
            Fun.protect
              ~finally:(fun () ->
                call ss ~req ~parent ~dom "finish" (fun () -> Engine.finish engine))
              (fun () ->
                match
                  call ss ~req ~parent ~dom "run_acc" (fun () ->
                      Engine.run_txn ~jitter (fun () -> W.run_acc eng env input))
                with
                | Runtime.Committed -> if forced then failed else committed_ok
                | Runtime.Compensated _ -> if forced then forced_ok else failed)

    let sys = { gen = (fun i -> W.gen_input envs.(i)); kind = (fun x -> index (W.txn_name x)); issue }
  end in
  {
    populate_s = (t1 -. t0) /. 1e9;
    engine_s = (t2 -. t1) /. 1e9;
    engine;
    type_names;
    run = (module R);
    consistency = (fun () -> W.consistency db);
    degraded_runs;
    close = (fun () -> Engine.shutdown engine);
  }

(* ------------------------------------------------------------------ *)
(* Counters the engines already keep *)

type counters = {
  fast_attempts : int;
  fast_hits : int;
  mutex_acq : int;
  waits : int;
  wait_p99_s : float;
  victims : int;
  wal_records : int;
  wal_flushes : int;
  leaked_locks : int;
  leaked_waiters : int;
}

let counters engines =
  List.fold_left
    (fun c e ->
      let locks = Engine.locks e and log = Executor.log (Engine.executor e) in
      let h = Engine.lock_waits e in
      {
        fast_attempts = c.fast_attempts + Sharded_lock_table.fast_attempts locks;
        fast_hits = c.fast_hits + Sharded_lock_table.fast_hits locks;
        mutex_acq = c.mutex_acq + Sharded_lock_table.mutex_acquisitions locks;
        waits = c.waits + Metrics.Histogram.count h;
        wait_p99_s =
          (if Metrics.Histogram.count h = 0 then c.wait_p99_s
           else Float.max c.wait_p99_s (Metrics.Histogram.percentile h 0.99));
        victims = c.victims + Deadlock_detector.victims (Engine.detector e);
        wal_records = c.wal_records + Log.length log;
        wal_flushes = c.wal_flushes + Log.flush_count log;
        leaked_locks = c.leaked_locks + Sharded_lock_table.lock_count locks;
        leaked_waiters = c.leaked_waiters + Sharded_lock_table.waiter_count locks;
      })
    {
      fast_attempts = 0; fast_hits = 0; mutex_acq = 0; waits = 0; wait_p99_s = 0.; victims = 0;
      wal_records = 0; wal_flushes = 0; leaked_locks = 0; leaked_waiters = 0;
    }
    engines

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type run = {
  bufs : buf array;
  spans : spans option array;
  gen_ns : float;
  window_s : float;
  client_cpu_s : float;  (** the client threads' CPU over their loops *)
  cpu : float;
  minor_words : float;
  major : int;
}

let drive (type i) (sys : i system) ~clients ~seconds ~txns ~traced ~progress_dir =
  let cap = match txns with Some n -> max 1 n | None -> 1 lsl 15 in
  let bufs = Array.init clients (fun _ -> buf_create cap) in
  let spans = Array.init clients (fun _ -> if traced then Some (spans_create ()) else None) in
  let gen_ns = Float.Array.make clients 0. in
  let client_cpu = Float.Array.make clients 0. in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_s () in
  let t_start = now_ns () in
  let deadline = t_start +. (seconds *. 1e9) in
  let worker i =
    let b = bufs.(i) and ss = spans.(i) in
    let dom = (Domain.self () :> int) in
    let p = progress_open progress_dir i in
    let n = ref 0 and ok = ref 0 in
    let own0 = thread_cpu_ns () in
    let continue () =
      match txns with Some q -> !n < q | None -> now_ns () < deadline
    in
    while continue () do
      let req = (i lsl 40) lor !n in
      let root =
        match ss with Some ss -> span_open ss ~req ~name:"request" ~parent:(-1) ~dom | None -> -1
      in
      let g0 = now_ns () in
      let input = call ss ~req ~parent:root ~dom "gen_input" (fun () -> sys.gen i) in
      let c0 = thread_cpu_ns () in
      let t0 = now_ns () in
      let code = sys.issue ss ~req ~parent:root ~dom i input in
      let t1 = now_ns () in
      let c1 = thread_cpu_ns () in
      Option.iter (fun ss -> span_close ss root) ss;
      Float.Array.set gen_ns i (Float.Array.get gen_ns i +. (t0 -. g0));
      buf_push b (t1 -. t0) (c1 -. c0) (sys.kind input) code;
      incr n;
      if code land 3 <> failed then incr ok;
      progress_tick p ~attempted:!n ~ok:!ok
    done;
    Float.Array.set client_cpu i (thread_cpu_ns () -. own0);
    progress_close p ~attempted:!n ~ok:!ok
  in
  ignore (Domain_pool.run ~domains:clients worker);
  let t_end = now_ns () in
  let cpu1 = cpu_s () in
  let gc1 = Gc.quick_stat () in
  {
    bufs;
    spans;
    gen_ns = Float.Array.fold_left ( +. ) 0. gen_ns;
    window_s = (t_end -. t_start) /. 1e9;
    client_cpu_s = Float.Array.fold_left ( +. ) 0. client_cpu /. 1e9;
    cpu = cpu1 -. cpu0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* attempted, as asked, committed and forced-abort counts of a run *)
let outcomes r =
  let attempted = ref 0 and ok = ref 0 and committed = ref 0 and forced = ref 0 in
  Array.iter
    (fun b ->
      for j = 0 to b.len - 1 do
        incr attempted;
        let outcome = Char.code (Bytes.get b.code j) land 3 in
        if outcome <> failed then incr ok;
        if outcome = forced_ok then incr forced;
        if outcome = committed_ok then incr committed
      done)
    r.bufs;
  (!attempted, !ok, !committed, !forced)

(* committed response times in ms on [clock], sorted; of one transaction
   type only when [kind] is given *)
let committed_ms ~clock ?kind r =
  let keep b j =
    Char.code (Bytes.get b.code j) = committed_ok
    && match kind with None -> true | Some k -> Char.code (Bytes.get b.kind j) = k
  in
  let n = ref 0 in
  Array.iter (fun b -> for j = 0 to b.len - 1 do if keep b j then incr n done) r.bufs;
  let a = Float.Array.create !n and i = ref 0 in
  Array.iter
    (fun b ->
      for j = 0 to b.len - 1 do
        if keep b j then begin
          let src = match clock with `Wall -> b.lat | `Cpu -> b.cpu in
          Float.Array.set a !i (Float.Array.get src j /. 1e6);
          incr i
        end
      done)
    r.bufs;
  Float.Array.sort Float.compare a;
  a

(* Response times of committed transactions on [clock]: the whole mix's p99
   with the number of samples beyond it, the new-order median, and every
   type's p50 and p99.  TPC-C reports response time per type: the median of
   its whole mix falls in the gap between the fast payment mode and the slow
   new-order mode and flips between them from seed to seed, so the headline
   p50 is new-order's (perfbench/WORKLOADS.md). *)
let latency_json ~clock type_names r =
  let every = committed_ms ~clock r in
  let n = Float.Array.length every in
  let new_order = committed_ms ~clock ~kind:(type_index type_names "new_order") r in
  let types =
    Array.to_list
      (Array.mapi
         (fun k name ->
           let a = committed_ms ~clock ~kind:k r in
           ( name,
             Json.Obj
               [
                 ("n", Json.Int (Float.Array.length a));
                 ("p50_ms", num (rank a 0.5));
                 ("p99_ms", num (rank a 0.99));
               ] ))
         type_names)
  in
  Json.Obj
    [
      ("n", Json.Int n);
      ("p99_ms", num (rank every 0.99));
      ("beyond_p99", Json.Int (n - int_of_float (Float.ceil (0.99 *. float_of_int n))));
      ("p50_n", Json.Int (Float.Array.length new_order));
      ("p50_ms", num (rank new_order 0.5));
      ("types", Json.Obj types);
    ]

(* ------------------------------------------------------------------ *)
(* Traced-pass analysis *)

type trace_counts = {
  mutable lock_requests : int;
  mutable steps : int;
  mutable attaches : int;
  mutable checks : int;
  mutable comps : int;
  mutable begins : int;
}

let count_events (dump : Trace.dump) =
  let c = { lock_requests = 0; steps = 0; attaches = 0; checks = 0; comps = 0; begins = 0 } in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.ev with
      | Trace.Lock_request _ -> c.lock_requests <- c.lock_requests + 1
      | Trace.Step_begin _ -> c.steps <- c.steps + 1
      | Trace.Lock_attach _ -> c.attaches <- c.attaches + 1
      | Trace.Assertion_check _ -> c.checks <- c.checks + 1
      | Trace.Comp_run _ -> c.comps <- c.comps + 1
      | Trace.Txn_begin _ -> c.begins <- c.begins + 1
      | _ -> ())
    dump.Trace.events;
  c

(* conditional phase distributions over committed program spans, as
   [Span.Report] computes them: a span contributes only if it spent time
   in the phase *)
let phase_quantile program_spans ph q ~scale =
  let l =
    List.filter_map
      (fun (sp : Span.t) ->
        let v = Span.phase sp ph in
        if sp.Span.sp_outcome = Span.Committed && v > 0. then Some (v *. scale) else None)
      program_spans
  in
  rank (sorted_of_list l) q

(* Attach every program span to the benchmark call span that issued it (same
   domain, begin inside the call), then compute self times: a span's
   duration minus the part of it its children cover. *)
let span_summary ~to_ns ~t_window_ns (spans : spans option array) program_spans ~out =
  let calls = Hashtbl.create 4 in
  (* per-domain sorted arrays of (t0, t1, client, index) for call spans *)
  Array.iteri
    (fun ci ss ->
      match ss with
      | None -> ()
      | Some ss ->
          for j = 0 to ss.n - 1 do
            let s = ss.sp.(j) in
            if s.s_name = "run_acc" || s.s_name = "run_flat" then
              let prev = Option.value ~default:[] (Hashtbl.find_opt calls s.s_dom) in
              Hashtbl.replace calls s.s_dom ((s.s_t0, s.s_t1, ci, j) :: prev)
          done)
    spans;
  let calls =
    Hashtbl.fold
      (fun dom l acc ->
        let a = Array.of_list l in
        Array.sort compare a;
        (dom, a) :: acc)
      calls []
  in
  let tol = 2e4 (* ns: the sink's start instant is known to a few µs *) in
  let find dom t =
    match List.assoc_opt dom calls with
    | None -> None
    | Some a ->
        (* last call starting at or before [t] *)
        let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let t0, _, _, _ = a.(mid) in
          if t0 -. tol <= t then begin
            best := mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        if !best < 0 then None
        else
          let _, t1, ci, j = a.(!best) in
          if t <= t1 +. tol then Some (ci, j) else None
  in
  (* children intervals, keyed by (client, span index) *)
  let children = Hashtbl.create 1024 in
  let add_child key iv =
    Hashtbl.replace children key (iv :: Option.value ~default:[] (Hashtbl.find_opt children key))
  in
  Array.iteri
    (fun ci ss ->
      match ss with
      | None -> ()
      | Some ss ->
          for j = 0 to ss.n - 1 do
            let s = ss.sp.(j) in
            if s.s_parent >= 0 then add_child (ci, s.s_parent) (s.s_t0, s.s_t1)
          done)
    spans;
  let attached = ref 0 and unattached = ref 0 in
  let program_rows =
    List.map
      (fun (sp : Span.t) ->
        let b = to_ns sp.Span.sp_begin in
        let e = match sp.Span.sp_end with Some e -> to_ns e | None -> b in
        let parent = find sp.Span.sp_dom b in
        (match parent with
        | Some key ->
            incr attached;
            add_child key (b, e)
        | None -> incr unattached);
        (sp, b, e, parent))
      program_spans
  in
  let covered t0 t1 ivs =
    let ivs = List.sort compare ivs in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a (Float.max t0 reach) and b = Float.min b t1 in
          if b > a then (acc +. (b -. a), b) else (acc, Float.max reach b))
        (0., t0) ivs
    in
    total
  in
  let by_name = Hashtbl.create 16 in
  let bump name dur self =
    let n, d, s = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name name) in
    Hashtbl.replace by_name name (n + 1, d +. dur, s +. self)
  in
  let rel t = (t -. t_window_ns) /. 1e3 in
  let oc = Option.map open_out out in
  let emit j = Option.iter (fun oc -> output_string oc (Json.to_string j ^ "\n")) oc in
  let offsets = Array.make (Array.length spans) 0 in
  let total = ref 0 in
  Array.iteri
    (fun ci ss ->
      offsets.(ci) <- !total;
      match ss with None -> () | Some ss -> total := !total + ss.n)
    spans;
  Array.iteri
    (fun ci ss ->
      match ss with
      | None -> ()
      | Some ss ->
          for j = 0 to ss.n - 1 do
            let s = ss.sp.(j) in
            let dur = s.s_t1 -. s.s_t0 in
            let self =
              dur
              -. covered s.s_t0 s.s_t1
                   (Option.value ~default:[] (Hashtbl.find_opt children (ci, j)))
            in
            bump s.s_name dur self;
            emit
              (Json.Obj
                 [
                   ("id", Json.Int (offsets.(ci) + j));
                   ("req", Json.Int s.s_req);
                   ("name", Json.Str s.s_name);
                   ("parent", Json.Int (if s.s_parent < 0 then -1 else offsets.(ci) + s.s_parent));
                   ("dom", Json.Int s.s_dom);
                   ("t0_us", num (rel s.s_t0));
                   ("t1_us", num (rel s.s_t1));
                   ("self_us", num (self /. 1e3));
                 ])
          done)
    spans;
  List.iter
    (fun ((sp : Span.t), b, e, parent) ->
      let phases = List.map (fun (ph, v) -> (Span.phase_name ph, num (v *. 1e6))) sp.Span.sp_phases in
      let wall = e -. b in
      let self = wall -. (1e9 *. List.fold_left (fun a (_, v) -> a +. v) 0. sp.Span.sp_phases) in
      bump ("txn." ^ sp.Span.sp_txn_type) wall self;
      emit
        (Json.Obj
           [
             ("txn", Json.Int sp.Span.sp_txn);
             ("name", Json.Str ("txn." ^ sp.Span.sp_txn_type));
             ( "parent",
               Json.Int (match parent with Some (ci, j) -> offsets.(ci) + j | None -> -1) );
             ("dom", Json.Int sp.Span.sp_dom);
             ("t0_us", num (rel b));
             ("t1_us", num (rel e));
             ("phases_us", Json.Obj phases);
           ]))
    program_rows;
  Option.iter close_out oc;
  let rows =
    Hashtbl.fold
      (fun name (n, d, s) acc ->
        (name, Json.Obj [ ("n", Json.Int n); ("total_ms", num (d /. 1e6)); ("self_ms", num (s /. 1e6)) ])
        :: acc)
      by_name []
    |> List.sort compare
  in
  Json.Obj
    [
      ("attached", Json.Int !attached);
      ("unattached", Json.Int !unattached);
      ("by_name", Json.Obj rows);
    ]

(* ------------------------------------------------------------------ *)
(* Cell mode *)

let cell ~workload ~system ~seed ~seconds ~txns ~traced ~progress_dir ~spans_out =
  let sh = shape workload in
  let t_setup0 = now_ns () in
  let s = setup ~workload ~system ~seed in
  let module R = (val s.run) in
  let accounting =
    if traced && sh.accounting then Some (Conflict_accounting.create ()) else None
  in
  (* the trace stamps events with the wall clock, in seconds since the sink
     started; both clocks are read at start and stop so trace times map onto
     the monotonic clock without the wall clock's drift *)
  let trace_start =
    if traced then begin
      let clocks = (now_ns (), Unix.gettimeofday ()) in
      Trace.start ~capacity:sh.capacity ();
      Sharded_lock_table.set_observer (Engine.locks s.engine)
        (Some (Lock_obs.observer ?accounting ()));
      clocks
    end
    else (0., 0.)
  in
  let setup_s = (now_ns () -. t_setup0) /. 1e9 in
  let before = counters [ s.engine ] in
  let t_window_ns = now_ns () in
  let r = drive R.sys ~clients:sh.clients ~seconds ~txns ~traced ~progress_dir in
  let dump = if traced then Some (Trace.stop ()) else None in
  let to_ns =
    let m0, g0 = trace_start and m1, g1 = (now_ns (), Unix.gettimeofday ()) in
    fun ts -> m0 +. (ts *. (m1 -. m0) /. (g1 -. g0))
  in
  let violations = s.consistency () in
  s.close ();
  let after = counters [ s.engine ] in
  let attempted, ok, committed, forced = outcomes r in
  let per_commit x = ratio x committed in
  let trace_json =
    match dump with
    | None -> []
    | Some dump ->
        let c = count_events dump in
        let program_spans = Span.of_dump dump in
        let q ph qq scale = num (phase_quantile program_spans ph qq ~scale) in
        [
          ( "trace",
            Json.Obj
              [
                ("emitted", Json.Int dump.Trace.emitted);
                ("dropped", Json.Int dump.Trace.dropped);
                ("lock_requests_per_commit", num (per_commit c.lock_requests));
                ("steps_per_commit", num (per_commit c.steps));
                ("attaches_per_commit", num (per_commit c.attaches));
                ("checks_per_commit", num (per_commit c.checks));
                ("comps_per_kcommit", num (1e3 *. per_commit c.comps));
                ("begins_per_commit", num (per_commit c.begins));
                ("lock_wait_p99_ms", q Span.Lock_wait 0.99 1e3);
                ("execute_p50_ms", q Span.Execute 0.5 1e3);
                ("wal_append_p50_us", q Span.Wal_append 0.5 1e6);
              ] );
          ( "spans",
            span_summary ~to_ns ~t_window_ns r.spans program_spans ~out:spans_out );
        ]
  in
  let conflict_json =
    match accounting with
    | None -> []
    | Some a ->
        let t = Conflict_accounting.totals a in
        [
          ( "conflict",
            Json.Obj
              [
                ("false_per_commit", num (per_commit t.Conflict_accounting.r_passed_2pl));
                ("true_per_commit", num (per_commit t.Conflict_accounting.r_blocked_assert));
              ] );
        ]
  in
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("system", Json.Str system);
       ("traced", Json.Bool traced);
       ("seed", Json.Int seed);
       ("setup_s", num setup_s);
       ("populate_s", num s.populate_s);
       ("engine_s", num s.engine_s);
       ("attempted", Json.Int attempted);
       ("ok", Json.Int ok);
       ("committed", Json.Int committed);
       ("forced_aborts", Json.Int forced);
       ("degraded_runs", Json.Int (Atomic.get s.degraded_runs));
       ("window_s", num r.window_s);
       ("commit_per_s", num (float_of_int committed /. r.window_s));
       ("client_cpu_s", num r.client_cpu_s);
       ("commit_per_cpu_s", num (float_of_int committed /. r.client_cpu_s));
       ("latency", latency_json ~clock:`Wall s.type_names r);
       ("latency_cpu", latency_json ~clock:`Cpu s.type_names r);
       ("cpu_ms_per_commit", num (1e3 *. r.cpu /. float_of_int (max 1 committed)));
       ("mem_mb", num (vm_hwm_mb ()));
       ("gen_us_per_txn", num (r.gen_ns /. 1e3 /. float_of_int (max 1 attempted)));
       ("gc_minor_words_per_commit", num (r.minor_words /. float_of_int (max 1 committed)));
       ("gc_major_per_kcommit", num (1e3 *. per_commit r.major));
       ( "lock",
         Json.Obj
           [
             ( "fast_hit_frac",
               num
                 (ratio (after.fast_hits - before.fast_hits)
                    (after.fast_attempts - before.fast_attempts)) );
             ("mutex_acq_per_commit", num (per_commit (after.mutex_acq - before.mutex_acq)));
             ("waits_per_commit", num (per_commit (after.waits - before.waits)));
             ("wait_p99_ms", num (1e3 *. after.wait_p99_s));
             ("victims_per_kcommit", num (1e3 *. per_commit (after.victims - before.victims)));
           ] );
       ( "wal",
         Json.Obj
           [
             ("records_per_commit", num (per_commit (after.wal_records - before.wal_records)));
             ("flushes_per_commit", num (per_commit (after.wal_flushes - before.wal_flushes)));
           ] );
       ("violations", Json.List (List.map (fun v -> Json.Str v) violations));
       ("leaked_locks", Json.Int after.leaked_locks);
       ("leaked_waiters", Json.Int after.leaked_waiters);
     ]
    @ trace_json @ conflict_json)

let setup_only ~workload ~system ~seed =
  let t0 = now_ns () in
  let s = setup ~workload ~system ~seed in
  let setup_s = (now_ns () -. t0) /. 1e9 in
  s.close ();
  Json.Obj [ ("setup_s", num setup_s) ]

(* ------------------------------------------------------------------ *)
(* Cost ladder: each layer's public entry points timed in isolation *)

(* median over [batches] of the per-call cost in ns, with the batch size
   calibrated so one batch takes about [batch_ns] *)
let per_call ?(batches = 9) ?(batch_ns = 2e7) f =
  let t0 = now_ns () in
  let probe = ref 0 in
  while now_ns () -. t0 < 2e6 do
    f ();
    incr probe
  done;
  let per = (now_ns () -. t0) /. float_of_int !probe in
  let iters = max 1 (int_of_float (batch_ns /. per)) in
  let samples =
    List.init batches (fun _ ->
        let a = now_ns () in
        for _ = 1 to iters do
          f ()
        done;
        (now_ns () -. a) /. float_of_int iters)
  in
  median samples

(* a step/assertion pair the interference table declares compatible: an X
   request from that step passes a foreign assertional lock on it *)
let compatible_pair interference workload =
  let steps = Program.all_steps workload in
  let asserts =
    List.filter
      (fun (a : Assertion.t) -> a.Assertion.id <> Assertion.legacy_isolation_id)
      (Program.all_assertions workload)
  in
  let pairs =
    List.concat_map
      (fun sd -> List.map (fun (a : Assertion.t) -> (sd.Program.sd_id, a.Assertion.id)) asserts)
      steps
  in
  List.find_opt
    (fun (s, a) -> not (Interference.step_interferes interference ~step_type:s ~assertion:a))
    pairs

(* an uncontended cross-partition payment, over loopback, on a small
   two-warehouse partitioned TPC-C database *)
let two_pc_round ~seed =
  Txns.reset_history_seq ();
  let params = { Params.default with Params.warehouses = 2 } in
  let pairs = Dist_driver.make_partitions ~seed ~partitions:2 params in
  let parts = Array.of_list (List.map fst pairs) in
  let coord = Coordinator.create parts in
  let part_of w = Partition.id (Coordinator.partition_of coord w) in
  let remote = Coordinator.Remote.make ~transport:`Loopback coord in
  let env = Txns.default_env ~seed params in
  let rec cross_payment () =
    let input = Txns.Payment (Txns.gen_payment env) in
    match Dist_txns.partitions_of_input ~part_of input with
    | [ _ ] -> cross_payment ()
    | _ -> List.map (fun (pid, inst) -> (parts.(pid), inst)) (Dist_txns.branches env ~part_of input)
  in
  let samples = ref [] and aborted = ref 0 in
  for _ = 1 to 9 do
    let batch = List.init 60 (fun _ -> cross_payment ()) in
    let a = now_ns () in
    List.iter
      (fun branches ->
        match Engine.run_txn (fun () -> Coordinator.Remote.run_cross remote branches) with
        | Coordinator.Committed -> ()
        | Coordinator.Aborted -> incr aborted)
      batch;
    samples := ((now_ns () -. a) /. 60.) :: !samples
  done;
  Coordinator.Remote.close remote;
  List.iter (fun (_, e) -> Engine.shutdown e) pairs;
  let c = counters (List.map snd pairs) in
  let violations = Consistency.check (Dist_driver.merged_db (Array.to_list parts)) in
  (median !samples, !aborted, violations, c.leaked_locks + c.leaked_waiters)

let ladder ~workload ~seed =
  let module W = (val plugin workload : Acc_workload.S) in
  W.reset_global ();
  let db = W.populate ~seed in
  let engine = Engine.create ~sem:W.semantics db in
  let eng = Engine.executor engine in
  Executor.set_clock eng Unix.gettimeofday;
  let g = Prng.create ~seed in
  (* the largest keyed table, probed at random existing keys *)
  let tname = "stock" in
  let keys = Array.init 1024 (fun _ -> Load.stock_key ~w:1 ~i:(1 + Prng.int g Params.full.Params.items)) in
  let tbl = Database.table db tname in
  let k = ref 0 in
  let next_key () =
    k := (!k + 1) land 1023;
    keys.(!k)
  in
  let table_get = per_call (fun () -> ignore (Sys.opaque_identity (Table.get tbl (next_key ())))) in
  let table_update = per_call (fun () -> ignore (Sys.opaque_identity (Table.update tbl (next_key ()) Fun.id))) in
  (* stock-level's scan: the order lines of a district's last 20 orders *)
  let ol_range_scan =
    let ol = Database.table db "order_line" and district = Database.table db "district" in
    per_call ~batch_ns:5e7 (fun () ->
        let d = 1 + Prng.int g 10 in
        let next_o = Value.as_int (Table.get_exn district (Load.district_key ~w:1 ~d)).(5) in
        ignore
          (Sys.opaque_identity
             (Table.scan ol
                ~where:
                  (Predicate.conj
                     [
                       Predicate.Eq ("ol_w_id", Value.Int 1);
                       Predicate.Eq ("ol_d_id", Value.Int d);
                       Predicate.Cmp (Predicate.Ge, "ol_o_id", Value.Int (next_o - 20));
                     ]))))
  in
  let svc = Engine.lock_service engine in
  let res = Rid.Tuple (tname, keys.(0)) in
  let lock_round ?step_type mode () =
    Lock_service.acquire svc (Lock_request.make ~txn:1_000_001 ?step_type mode res);
    Lock_service.release svc ~txn:1_000_001 mode res
  in
  let lock_s = per_call (lock_round Mode.S) in
  let lock_x = per_call (lock_round Mode.X) in
  let pair = compatible_pair W.interference W.workload in
  let lock_x_past_assert, interference =
    match pair with
    | None -> (0., 0.)
    | Some (step_type, aid) ->
        Lock_service.attach svc (Lock_request.make ~txn:1_000_002 (Mode.A aid) res);
        let x = per_call (lock_round ~step_type Mode.X) in
        Lock_service.release svc ~txn:1_000_002 (Mode.A aid) res;
        let i =
          per_call (fun () ->
              ignore
                (Sys.opaque_identity
                   (Interference.step_interferes W.interference ~step_type ~assertion:aid)))
        in
        (x, i)
  in
  let wal_append =
    let log = ref (Log.create ~policy:Log.Direct ()) in
    let n = ref 0 in
    per_call (fun () ->
        (* a fresh log every million records bounds the ladder's memory *)
        incr n;
        if !n land 0xFFFFF = 0 then log := Log.create ~policy:Log.Direct ();
        ignore (Sys.opaque_identity (Log.append !log (Record.Commit { txn = !n }))))
  in
  (* the same two row updates as one flat transaction and as a two-step
     ACC program; step ids above the workload's own *)
  let base = Program.max_step_id W.workload + 100 in
  let flat_step = Program.step ~id:base ~name:"whole" ~txn_type:"ladder_flat" ~index:1 ~reads:[] ~writes:[] () in
  let s1 = Program.step ~id:(base + 1) ~name:"one" ~txn_type:"ladder_2step" ~index:1 ~reads:[] ~writes:[] () in
  let s2 = Program.step ~id:(base + 2) ~name:"two" ~txn_type:"ladder_2step" ~index:2 ~reads:[] ~writes:[] () in
  let comp = Program.step ~id:(base + 3) ~name:"undo" ~txn_type:"ladder_2step" ~index:0 ~reads:[] ~writes:[] () in
  ignore (Program.txn_type ~name:"ladder_flat" ~steps:[ flat_step ] ~assertions:[] ());
  let stepped = Program.txn_type ~name:"ladder_2step" ~steps:[ s1; s2 ] ~comp ~assertions:[] () in
  let touch ctx key = ignore (Executor.update ctx tname key Fun.id) in
  let k1 = keys.(1) and k2 = keys.(2) in
  let flat_2op =
    per_call ~batch_ns:5e7 (fun () ->
        Engine.run_txn (fun () ->
            let ctx = Executor.begin_txn eng ~txn_type:"ladder_flat" ~multi_step:false in
            touch ctx k1;
            touch ctx k2;
            Executor.commit ctx))
  in
  let acc_2step =
    per_call ~batch_ns:5e7 (fun () ->
        Engine.run_txn (fun () ->
            let inst =
              Program.instance ~def:stepped
                ~steps:[ (s1, fun ctx -> touch ctx k1); (s2, fun ctx -> touch ctx k2) ]
                ~compensate:(fun _ ~completed:_ -> ())
                ()
            in
            match Runtime.run eng inst with
            | Runtime.Committed -> ()
            | Runtime.Compensated _ -> failwith "ladder: uncontended two-step program compensated"))
  in
  Engine.shutdown engine;
  let leaked = Sharded_lock_table.lock_count (Engine.locks engine) + Sharded_lock_table.waiter_count (Engine.locks engine) in
  let violations = W.consistency db in
  let two_pc, two_pc_aborted, two_pc_violations, two_pc_leaked = two_pc_round ~seed in
  Json.Obj
    [
      ("table", Json.Str tname);
      ( "compatible_pair",
        match pair with
        | Some (s, a) -> Json.List [ Json.Int s; Json.Int a ]
        | None -> Json.Null );
      ("table_get_ns", num table_get);
      ("table_update_ns", num table_update);
      ("ol_range_scan_us", num (ol_range_scan /. 1e3));
      ("lock_s_ns", num lock_s);
      ("lock_x_ns", num lock_x);
      ("lock_x_past_assert_ns", num lock_x_past_assert);
      ("interference_ns", num interference);
      ("wal_append_ns", num wal_append);
      ("flat_2op_us", num (flat_2op /. 1e3));
      ("acc_2step_us", num (acc_2step /. 1e3));
      ("2pc_round_us", num (two_pc /. 1e3));
      ("2pc_aborted", Json.Int two_pc_aborted);
      ("violations", Json.List (List.map (fun v -> Json.Str v) (violations @ two_pc_violations)));
      ("leaked_locks", Json.Int (leaked + two_pc_leaked));
      ("leaked_waiters", Json.Int 0);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let mode = ref "cell" and workload = ref "" and system = ref "acc" and seed = ref 1 in
  let seconds = ref 10. and txns = ref 0 and traced = ref 0 and out = ref "" in
  let progress_dir = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("-mode", Arg.Set_string mode, "cell|setup|ladder");
      ("-workload", Arg.Set_string workload, "tpcc-paced|tpcc-1client");
      ("-system", Arg.Set_string system, "acc|2pl");
      ("-seed", Arg.Set_int seed, "workload seed");
      ("-seconds", Arg.Set_float seconds, "window length (duration-bound cells)");
      ("-txns", Arg.Set_int txns, "fixed transaction count per client (0 = duration-bound)");
      ("-trace", Arg.Set_int traced, "1 = traced pass");
      ("-progress", Arg.Set_string progress_dir, "directory for progress files");
      ("-spans", Arg.Set_string spans_out, "file for the benchmark's spans (traced pass)");
      ("-out", Arg.Set_string out, "result file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cell.exe -mode MODE -workload W [options]";
  if !system <> "acc" && !system <> "2pl" then failwith ("unknown system " ^ !system);
  ignore (shape !workload);
  let opt s = if s = "" then None else Some s in
  let result =
    match !mode with
    | "cell" ->
        cell ~workload:!workload ~system:!system ~seed:!seed ~seconds:!seconds
          ~txns:(if !txns > 0 then Some !txns else None)
          ~traced:(!traced = 1) ~progress_dir:(opt !progress_dir)
          ~spans_out:(opt !spans_out)
    | "setup" -> setup_only ~workload:!workload ~system:!system ~seed:!seed
    | "ladder" -> ladder ~workload:!workload ~seed:!seed
    | m -> failwith ("unknown mode " ^ m)
  in
  match opt !out with
  | None -> print_endline (Json.to_string result)
  | Some path ->
      let oc = open_out path in
      Json.to_channel oc result;
      close_out oc
