(* Machine-readable benchmark output: every bench mode writes a
   BENCH_<mode>.json next to its human-readable tables, so trend tooling and
   later PRs can consume the numbers without scraping stdout.  Schema is
   versioned; everything is plain Json (lib/obs), no external dependency. *)

module Json = Acc_obs.Json
module Experiment = Acc_harness.Experiment
module Figures = Acc_harness.Figures
module Tally = Acc_util.Stats.Tally
module Histogram = Acc_util.Metrics.Histogram
module CA = Acc_obs.Conflict_accounting
module P = Acc_harness.Parallel_driver
module Registry = Acc_obs.Registry

let schema_version = 5

(* Build identity for trend tooling: without it, two BENCH files from
   different checkouts are indistinguishable.  Never fails the bench run —
   a non-git checkout just reports "unknown". *)
let git_describe =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match (Unix.close_process_in ic, line) with
       | Unix.WEXITED 0, d when d <> "" -> d
       | _ -> "unknown"
     with _ -> "unknown")

(* Experiment context stamped into every result cell, so each cell is
   self-describing even when cut loose from the file that held it. *)
let meta_fields ~domains =
  [ ("domains", Json.Int domains); ("git_describe", Json.Str (Lazy.force git_describe)) ]

let pct t p = Tally.percentile t p

let tally_json t =
  Json.Obj
    [
      ("count", Json.Int (Tally.count t));
      ("mean", Json.Float (Tally.mean t));
      ("p50", Json.Float (pct t 0.50));
      ("p95", Json.Float (pct t 0.95));
      ("p99", Json.Float (pct t 0.99));
    ]

let side_json (s : Experiment.side) =
  Json.Obj
    [
      ("response_mean", Json.Float s.Experiment.s_response);
      ("throughput", Json.Float s.Experiment.s_throughput);
      ("deadlocks", Json.Float s.Experiment.s_deadlocks);
      ("compensations", Json.Float s.Experiment.s_compensations);
      ("cpu", Json.Float s.Experiment.s_cpu);
      ("lock_wait", Json.Float s.Experiment.s_lock_wait);
      ("violations", Json.Int s.Experiment.s_violations);
    ]

let point_json (p : Experiment.point) =
  Json.Obj
    [
      ("label", Json.Str p.Experiment.p_label);
      ("terminals", Json.Int p.Experiment.p_terminals);
      ("response_ratio", Json.Float (Experiment.response_ratio p));
      ("throughput_ratio", Json.Float (Experiment.throughput_ratio p));
      ("base", side_json p.Experiment.p_base);
      ("acc", side_json p.Experiment.p_acc);
    ]

let figure_json (f : Figures.figure) =
  Json.Obj
    [
      ("id", Json.Str f.Figures.fig_id);
      ("title", Json.Str f.Figures.title);
      ("consistency_violations", Json.Int (Figures.consistency_violations f));
      ( "series",
        Json.List
          (List.map
             (fun (s : Figures.series) ->
               Json.Obj
                 [
                   ("name", Json.Str s.Figures.name);
                   ("points", Json.List (List.map point_json s.Figures.points));
                 ])
             f.Figures.series) );
    ]

(* Every parallel cell self-describes: which workload produced it and which
   cell schema it speaks (v3 added the workload stamp and report-carried step
   labels, so a consumer must not decode step ids with the TPC-C table; v4
   dropped the cell's [warehouses] stamp, which no plugin but TPC-C has; v5
   put the engine counters in one [stats] object keyed by their dotted
   names, and added the per-domain and cross-partition counts). *)
let parallel_report_json ?cfg (r : P.report) =
  let meta =
    match cfg with Some c -> meta_fields ~domains:c.P.domains | None -> []
  in
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("workload", Json.Str r.P.workload_name)
    :: meta
    @ [
      ("committed", Json.Int r.P.committed);
      ("throughput", Json.Float r.P.throughput);
      ("elapsed", Json.Float r.P.elapsed);
      ("measured", Json.Float r.P.measured);
      ("response", tally_json r.P.response);
      ("forced_aborts", Json.Int r.P.forced_aborts);
      ("compensations", Json.Int r.P.compensations);
      ("degraded_runs", Json.Int r.P.degraded_runs);
      ("per_domain_committed", Json.List (List.map (fun c -> Json.Int c) r.P.per_domain_committed));
      ("cross_committed", Json.Int r.P.cross_committed);
      ("cross_aborted", Json.Int r.P.cross_aborted);
      ("cross_attempted", Json.Int r.P.cross_attempted);
      ("prepare_hold", tally_json r.P.prepare_hold);
      ("leaked_locks", Json.Int r.P.leaked_locks);
      ("leaked_waiters", Json.Int r.P.leaked_waiters);
      ("violations", Json.Int (List.length r.P.violations));
      ( "stats",
        Json.Obj (List.map (fun (k, v) -> (k, Registry.sample_json v)) r.P.stats) );
      ( "gc",
        Json.Obj
          [
            ("minor_words_per_commit", Json.Float r.P.gc_minor_words);
            ("promoted_words_per_commit", Json.Float r.P.gc_promoted_words);
            ("minor_collections_per_commit", Json.Float r.P.gc_minor_collections);
          ] );
      ( "step_latency",
        Json.List
          (List.map
             (fun (st, h) ->
               match Registry.sample_json (Registry.S_histogram (Histogram.snapshot h)) with
               | Json.Obj fields ->
                   Json.Obj
                     (("step_type", Json.Int st)
                     :: ("label", Json.Str (r.P.step_label st))
                     :: fields)
               | j -> j)
             r.P.step_hist) );
      ( "conflicts",
        Json.List (List.map (CA.row_to_json ~label:r.P.step_label) r.P.conflicts) );
      ( "conflicts_by_txn_type",
        Json.List
          (List.map
             (fun (name, row) ->
               match CA.row_to_json row with
               | Json.Obj fields ->
                   Json.Obj
                     (("txn_type", Json.Str name)
                     :: List.filter (fun (k, _) -> k <> "label" && k <> "step_type") fields)
               | j -> j)
             (P.conflicts_by_txn_type_with ~step_txn_type:r.P.step_txn_type
                r.P.conflicts)) );
      ])

(* Run one bench cell under a private trace sink and return its result with
   the span layer's phase breakdown (the "phases" object of a cell).  The
   sink costs a few ring writes per event while the cell runs — acceptable
   for the attribution it buys; the obs-gate mode measures the disabled
   path separately and never goes through here.  A long cell can overflow
   the ring (drop-oldest): the earliest transactions lose their begins and
   fall out of the report, the surviving spans stay exact. *)
let with_phases f =
  let module Trace = Acc_obs.Trace in
  let module Span = Acc_obs.Span in
  Trace.start ~capacity:(1 lsl 18) ();
  let result = f () in
  let dump = Trace.stop () in
  let spans = Span.of_dump dump in
  let banded =
    List.exists
      (fun sp -> sp.Span.sp_txn >= Acc_dist.Partition.txn_stride)
      spans
  in
  let report =
    if banded then
      Span.Report.build ~partition_of:Acc_dist.Partition.partition_of_txn spans
    else Span.Report.build spans
  in
  (result, Span.Report.to_json report)

let write ~mode sections =
  let path = Printf.sprintf "BENCH_%s.json" mode in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.pretty_to_channel oc
        (Json.Obj
           (("schema_version", Json.Int schema_version)
           :: ("mode", Json.Str mode)
           :: ("git_describe", Json.Str (Lazy.force git_describe))
           :: sections)));
  Format.printf "@.wrote %s@." path
