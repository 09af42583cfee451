(* A process-wide metric registry: every counter/gauge/histogram in the
   system registers under a stable Prometheus-style name so one snapshot
   call can see them all (the Prom exposition, the watchdog's periodic dump,
   the binaries' --metrics-dump).

   Registration is rare (engine/coordinator construction) and snapshots are
   sampling-path, so a single mutex guards the table; the hot paths stay the
   metrics' own lock-free operations — the registry only holds references.

   Per-run metrics re-register on every engine construction, so a second
   register under the same (name, labels) replaces the first rather than
   erroring: the live run's metrics win. *)

module Metrics = Acc_util.Metrics

type value =
  | Counter of Metrics.Counter.t
  | Gauge of Metrics.Gauge.t
  | Histogram of Metrics.Histogram.t
  | Poll_counter of (unit -> int)
      (* adapts pre-registry counters (raw [int Atomic.t]s, accounting
         arrays) without refactoring their owners *)
  | Poll_gauge of (unit -> float)

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t = { mu : Mutex.t; mutable metrics : metric list (* newest first *) }

let create () = { mu = Mutex.create (); metrics = [] }
let default = create ()

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let label_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register ?(registry = default) ?(help = "") ?(labels = []) name value =
  if not (name_ok name) then invalid_arg ("Registry.register: bad metric name " ^ name);
  List.iter
    (fun (k, _) ->
      if not (label_ok k) then
        invalid_arg ("Registry.register: bad label name " ^ k ^ " on " ^ name))
    labels;
  let labels = canon_labels labels in
  Mutex.lock registry.mu;
  registry.metrics <-
    { name; help; labels; value }
    :: List.filter
         (fun m -> not (m.name = name && m.labels = labels))
         registry.metrics;
  Mutex.unlock registry.mu

let clear ?(registry = default) () =
  Mutex.lock registry.mu;
  registry.metrics <- [];
  Mutex.unlock registry.mu

type sample =
  | S_counter of int
  | S_gauge of float
  | S_histogram of Metrics.Histogram.Snapshot.t

type row = {
  r_name : string;
  r_help : string;
  r_labels : (string * string) list;
  r_sample : sample;
}

let sample_of = function
  | Counter c -> S_counter (Metrics.Counter.get c)
  | Gauge g -> S_gauge (Metrics.Gauge.get g)
  | Histogram h -> S_histogram (Metrics.Histogram.snapshot h)
  | Poll_counter f -> S_counter (f ())
  | Poll_gauge f -> S_gauge (f ())

let combine a b =
  match (a, b) with
  | S_counter x, S_counter y -> S_counter (x + y)
  | S_gauge x, S_gauge y -> S_gauge (Float.max x y)
  | S_histogram x, S_histogram y -> S_histogram (Metrics.Histogram.Snapshot.merge x y)
  | _ -> invalid_arg "Registry.combine: samples of different kinds"

let sample_json = function
  | S_counter n -> Json.Int n
  | S_gauge v -> Json.Float v
  | S_histogram s ->
      let module S = Metrics.Histogram.Snapshot in
      let p q = Json.Float (S.percentile s q) in
      Json.Obj
        [ ("count", Json.Int (S.count s)); ("sum", Json.Float (S.sum s));
          ("p50", p 0.50); ("p95", p 0.95); ("p99", p 0.99) ]

let prom_name name sample =
  let base = "acc_" ^ String.map (function '.' -> '_' | c -> c) name in
  let base =
    if String.ends_with ~suffix:"_s" base then
      String.sub base 0 (String.length base - 2) ^ "_seconds"
    else base
  in
  match sample with S_counter _ -> base ^ "_total" | S_gauge _ | S_histogram _ -> base

let snapshot ?(registry = default) () =
  Mutex.lock registry.mu;
  let metrics = registry.metrics in
  Mutex.unlock registry.mu;
  (* sample outside the lock: pollers may do their own locking *)
  metrics
  |> List.map (fun m ->
         { r_name = m.name; r_help = m.help; r_labels = m.labels; r_sample = sample_of m.value })
  |> List.sort (fun a b ->
         match String.compare a.r_name b.r_name with
         | 0 -> compare a.r_labels b.r_labels
         | c -> c)

let size ?(registry = default) () =
  Mutex.lock registry.mu;
  let n = List.length registry.metrics in
  Mutex.unlock registry.mu;
  n
