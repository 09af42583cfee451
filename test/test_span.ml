(* Tests for the span layer (lib/obs/span.ml), the metric registry and the
   Prometheus exposition — plus the Histogram.Snapshot properties they lean
   on (read safety under concurrent writers, merge-order independence). *)

module Span = Acc_obs.Span
module Trace = Acc_obs.Trace
module Registry = Acc_obs.Registry
module Prom = Acc_obs.Prom
module Metrics = Acc_util.Metrics
module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id
module Value = Acc_relation.Value

let res i = Resource_id.Tuple ("t", [ Value.Int i ])

(* Event shorthand: every test builds a hand-timed trace and folds it
   through the builder, so the expected phase arithmetic is exact. *)
let ev_begin ?(txn_type = "new_order") txn = Trace.Txn_begin { txn; txn_type }
let ev_commit txn = Trace.Txn_commit { txn }
let ev_abort ?(compensated = false) txn = Trace.Txn_abort { txn; compensated }
let ev_step_begin ?(idx = 1) txn = Trace.Step_begin { txn; step_type = 3; step_index = idx }
let ev_step_end ?(idx = 1) txn = Trace.Step_end { txn; step_index = idx }
let ev_comp txn = Trace.Comp_run { txn; step_type = 3; from_step = 1 }

let ev_block txn =
  Trace.Lock_block
    {
      txn;
      step_type = 3;
      mode = Mode.X;
      resource = res 1;
      blocker_txn = 99;
      blocker_mode = Mode.S;
      blocker_waiting = false;
      assertion = None;
      interfering_step = None;
    }

let ev_wake txn = Trace.Lock_wake { txn; mode = Mode.X; resource = res 1 }
let ev_wal txn dur = Trace.Wal_append { txn; lsn = 1; kind = "write"; dur }
let ev_prepare txn gid = Trace.Prepare { txn; gid }
let ev_decide gid = Trace.Decide { gid; commit = true; participants = 2 }
let ev_resolve txn gid = Trace.Resolve { txn; gid; commit = true }

let spans_of events =
  let b = Span.Builder.create () in
  List.iter (fun (ts, ev) -> Span.Builder.feed_event b ~ts ~dom:0 ev) events;
  (Span.Builder.finish b, b)

let only = function
  | [ sp ] -> sp
  | l -> Alcotest.failf "expected exactly one span, got %d" (List.length l)

let check_phase what sp p expected =
  Alcotest.(check (float 1e-9)) what expected (Span.phase sp p)

(* --- directed: phase arithmetic ---------------------------------------- *)

let test_commit_phases () =
  let spans, b =
    spans_of
      [
        (0.0, ev_begin 1);
        (1.0, ev_step_begin 1);
        (2.0, ev_block 1);
        (5.0, ev_wake 1);
        (6.0, ev_wal 1 0.5);
        (7.0, ev_step_end 1);
        (8.0, ev_commit 1);
      ]
  in
  let sp = only spans in
  Alcotest.(check int) "no orphans" 0 (Span.Builder.orphans b);
  Alcotest.(check bool) "committed" true (sp.Span.sp_outcome = Span.Committed);
  Alcotest.(check bool) "complete" true (Span.complete sp);
  Alcotest.(check (option (float 1e-9))) "wall" (Some 8.0) (Span.wall sp);
  check_phase "lock_wait" sp Span.Lock_wait 3.0;
  check_phase "wal" sp Span.Wal_append 0.5;
  (* step ran 6s; 3s of lock wait and 0.5s of WAL fell inside it *)
  check_phase "execute" sp Span.Execute 2.5;
  check_phase "prepare_hold" sp Span.Prepare_hold 0.0;
  check_phase "decide" sp Span.Decide 0.0;
  check_phase "compensate" sp Span.Compensate 0.0

let test_2pc_phases () =
  let spans, _ =
    spans_of
      [
        (0.0, ev_begin 1);
        (1.0, ev_step_begin 1);
        (2.0, ev_step_end 1);
        (3.0, ev_prepare 1 9);
        (5.0, ev_decide 9);
        (6.0, ev_commit 1);
      ]
  in
  let sp = only spans in
  Alcotest.(check (option int)) "gid" (Some 9) sp.Span.sp_gid;
  Alcotest.(check bool) "complete" true (Span.complete sp);
  check_phase "execute" sp Span.Execute 1.0;
  check_phase "prepare_hold" sp Span.Prepare_hold 2.0;
  (* decision to the branch's end event *)
  check_phase "decide" sp Span.Decide 1.0

let test_resolve_closes_prepare () =
  (* adopted in-doubt branch: recovery resolves instead of a Decide *)
  let spans, _ =
    spans_of
      [ (0.0, ev_begin 4); (1.0, ev_prepare 4 7); (4.0, ev_resolve 4 7); (5.0, ev_commit 4) ]
  in
  let sp = only spans in
  Alcotest.(check bool) "complete" true (Span.complete sp);
  check_phase "prepare_hold" sp Span.Prepare_hold 3.0;
  check_phase "decide" sp Span.Decide 1.0

let test_compensate_phases () =
  let spans, _ =
    spans_of
      [
        (0.0, ev_begin 2);
        (1.0, ev_step_begin 2);
        (2.0, ev_step_end 2);
        (3.0, ev_comp 2);
        (4.0, ev_step_end 2);
        (5.0, ev_abort ~compensated:true 2);
      ]
  in
  let sp = only spans in
  Alcotest.(check bool) "aborted+compensated" true
    (sp.Span.sp_outcome = Span.Aborted { compensated = true });
  check_phase "execute" sp Span.Execute 1.0;
  check_phase "compensate" sp Span.Compensate 1.0;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. sp.Span.sp_phases in
  Alcotest.(check bool) "phases <= wall" true
    (sum <= Option.get (Span.wall sp) +. 1e-9)

(* --- directed: crash truncation ---------------------------------------- *)

let open_phase_of events =
  let spans, _ = spans_of events in
  let sp = only spans in
  Alcotest.(check bool) "open outcome" true (sp.Span.sp_outcome = Span.Open);
  Alcotest.(check (option (float 0.))) "no end" None sp.Span.sp_end;
  Alcotest.(check bool) "incomplete" true (not (Span.complete sp));
  sp.Span.sp_open_phase

let test_truncated_mid_step () =
  Alcotest.(check (option string))
    "cut in execute" (Some "execute")
    (Option.map Span.phase_name
       (open_phase_of [ (0.0, ev_begin 1); (1.0, ev_step_begin 1) ]))

let test_truncated_mid_wait () =
  (* admission wait before the first step: block with no step open *)
  Alcotest.(check (option string))
    "cut in lock_wait" (Some "lock_wait")
    (Option.map Span.phase_name
       (open_phase_of [ (0.0, ev_begin 1); (1.0, ev_block 1) ]))

let test_truncated_in_doubt () =
  Alcotest.(check (option string))
    "cut in prepare_hold" (Some "prepare_hold")
    (Option.map Span.phase_name
       (open_phase_of
          [ (0.0, ev_begin 1); (1.0, ev_step_begin 1); (2.0, ev_step_end 1); (3.0, ev_prepare 1 5) ]))

let test_truncated_mid_decide () =
  Alcotest.(check (option string))
    "cut in decide" (Some "decide")
    (Option.map Span.phase_name
       (open_phase_of
          [ (0.0, ev_begin 1); (1.0, ev_prepare 1 5); (2.0, ev_decide 5) ]))

let test_dangling_prepare_flagged () =
  (* a committed branch whose Decide never appeared in the trace: the whole
     in-doubt window is charged and the span is flagged incomplete *)
  let spans, _ =
    spans_of [ (0.0, ev_begin 1); (1.0, ev_prepare 1 5); (3.0, ev_commit 1) ]
  in
  let sp = only spans in
  Alcotest.(check bool) "committed" true (sp.Span.sp_outcome = Span.Committed);
  Alcotest.(check (option string)) "flagged" (Some "prepare_hold")
    (Option.map Span.phase_name sp.Span.sp_open_phase);
  check_phase "charged to end" sp Span.Prepare_hold 2.0;
  let r = Span.Report.build spans in
  Alcotest.(check int) "report flags it" 1 (Span.Report.incomplete_committed r)

let test_rebegin_cuts_live_span () =
  (* same txn id begins twice (crash + re-adoption in one trace): the first
     span is finalized Open, the second proceeds normally *)
  let spans, _ =
    spans_of
      [ (0.0, ev_begin 1); (1.0, ev_step_begin 1); (2.0, ev_begin 1); (3.0, ev_commit 1) ]
  in
  match spans with
  | [ a; b ] ->
      Alcotest.(check bool) "first open" true (a.Span.sp_outcome = Span.Open);
      Alcotest.(check bool) "second committed" true (b.Span.sp_outcome = Span.Committed)
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let test_orphans_counted () =
  let _, b =
    spans_of [ (1.0, ev_commit 42); (2.0, ev_step_begin 43); (3.0, ev_block 44) ]
  in
  (* commit and step_begin without a live span are orphans; a block for an
     unknown txn is ignored (lock events outlive spans on the release path) *)
  Alcotest.(check int) "orphans" 2 (Span.Builder.orphans b);
  Alcotest.(check (list (pair int string)))
    "sample" [ (42, "txn_commit"); (43, "step_begin") ]
    (Span.Builder.orphan_sample b)

let test_json_frontend_agrees () =
  (* the offline (JSONL) front-end must reconstruct the same spans as the
     live one; Trace.to_json is the wire format between them *)
  let events =
    [
      (0.0, ev_begin 1);
      (1.0, ev_step_begin 1);
      (2.0, ev_block 1);
      (3.0, ev_wake 1);
      (3.5, ev_wal 1 0.25);
      (4.0, ev_step_end 1);
      (5.0, ev_prepare 1 9);
      (6.0, ev_decide 9);
      (7.0, ev_commit 1);
    ]
  in
  let live, _ = spans_of events in
  let b = Span.Builder.create () in
  List.iteri
    (fun seq (ts, ev) ->
      Span.Builder.feed_json b (Trace.to_json { Trace.ts; dom = 0; seq; ev }))
    events;
  let offline = Span.Builder.finish b in
  let sp_live = only live and sp_off = only offline in
  Alcotest.(check int) "txn" sp_live.Span.sp_txn sp_off.Span.sp_txn;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Span.phase_name p) (Span.phase sp_live p) (Span.phase sp_off p))
    Span.all_phases

(* --- qcheck: random traces --------------------------------------------- *)

(* A well-formed per-txn script, encoded as ops (timestamps are assigned
   after the scripts are interleaved).  Covers steps with optional lock
   waits and WAL appends, the 2PC prepare/decide pair, compensating aborts,
   and crash truncation via a random prefix cut of the merged stream. *)
type op = O_begin | O_step_b | O_step_e | O_block | O_wake | O_wal | O_prep | O_decide | O_comp | O_commit | O_abort

let gen_script =
  QCheck2.Gen.(
    let* n_steps = int_range 1 3 in
    let* waits = list_repeat n_steps bool in
    let* wals = list_repeat n_steps bool in
    let* prep = bool in
    let* commit = bool in
    let steps =
      List.concat
        (List.map2
           (fun w wl ->
             (O_step_b :: (if w then [ O_block; O_wake ] else []))
             @ (if wl then [ O_wal ] else [])
             @ [ O_step_e ])
           waits wals)
    in
    let tail =
      if commit then (if prep then [ O_prep; O_decide ] else []) @ [ O_commit ]
      else [ O_comp; O_step_e; O_abort ]
    in
    return ((O_begin :: steps) @ tail))

(* random interleave preserving per-script order, driven by generated picks *)
let interleave picks scripts =
  let arr = Array.of_list (List.map ref scripts) in
  let out = ref [] in
  let picks = ref picks in
  let next_pick n =
    match !picks with
    | [] -> 0
    | p :: rest ->
        picks := rest;
        p mod n
  in
  let live () =
    Array.to_list arr |> List.mapi (fun i r -> (i, r)) |> List.filter (fun (_, r) -> !r <> [])
  in
  let rec go () =
    match live () with
    | [] -> ()
    | l ->
        let i, r = List.nth l (next_pick (List.length l)) in
        (match !r with
        | [] -> ()
        | op :: rest ->
            r := rest;
            out := (i, op) :: !out);
        go ()
  in
  go ();
  List.rev !out

let events_of_ops ops =
  List.mapi
    (fun i (txn_ix, op) ->
      let txn = txn_ix + 1 in
      let ts = 0.001 *. float_of_int (i + 1) in
      let ev =
        match op with
        | O_begin -> ev_begin txn
        | O_step_b -> ev_step_begin txn
        | O_step_e -> ev_step_end txn
        | O_block -> ev_block txn
        | O_wake -> ev_wake txn
        | O_wal -> ev_wal txn 0.0001
        | O_prep -> ev_prepare txn txn
        | O_decide -> ev_decide txn
        | O_comp -> ev_comp txn
        | O_commit -> ev_commit txn
        | O_abort -> ev_abort ~compensated:true txn
      in
      (ts, ev))
    ops

let gen_trace =
  QCheck2.Gen.(
    let* n_txns = int_range 1 5 in
    let* scripts = list_repeat n_txns gen_script in
    let* picks = list_size (int_range 0 60) (int_range 0 1000) in
    let ops = interleave picks scripts in
    let* cut = int_range 1 (List.length ops) in
    (* sometimes truncate (crash), sometimes keep the whole trace *)
    let* truncate = bool in
    return (events_of_ops (if truncate then List.filteri (fun i _ -> i < cut) ops else ops)))

let prop_phases_sum_le_wall =
  QCheck2.Test.make ~name:"span: phase durations sum to <= wall time" ~count:500
    gen_trace (fun events ->
      let spans, _ = spans_of events in
      List.for_all
        (fun sp ->
          List.for_all (fun (_, v) -> v >= -1e-12) sp.Span.sp_phases
          && List.length sp.Span.sp_phases = Span.n_phases
          &&
          match Span.wall sp with
          | None -> sp.Span.sp_outcome = Span.Open
          | Some w ->
              let sum = List.fold_left (fun a (_, v) -> a +. v) 0. sp.Span.sp_phases in
              sum <= w +. 1e-9)
        spans)

let prop_span_accounting =
  QCheck2.Test.make ~name:"span: every begin is accounted exactly once" ~count:300
    gen_trace (fun events ->
      let begins =
        List.length
          (List.filter (function _, Trace.Txn_begin _ -> true | _ -> false) events)
      in
      let spans, _ = spans_of events in
      List.length spans = begins)

(* --- histogram snapshots ----------------------------------------------- *)

let test_snapshot_under_writers () =
  (* read paths must be safe while writers run: every snapshot is internally
     consistent (derived count = sum of its own buckets; percentile walk
     terminates inside the array), even mid-record *)
  let h = Metrics.Histogram.create () in
  let stop = Atomic.make false in
  let worker () =
    let i = ref 0 in
    while not (Atomic.get stop) do
      incr i;
      Metrics.Histogram.record h (float_of_int (!i land 0xff) *. 1e-5)
    done
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  for _ = 1 to 2_000 do
    let s = Metrics.Histogram.snapshot h in
    let module S = Metrics.Histogram.Snapshot in
    Alcotest.(check int) "count = sum of buckets" (Array.fold_left ( + ) 0 s.S.counts)
      (S.count s);
    if S.count s > 0 then begin
      let p = S.percentile s 0.99 in
      Alcotest.(check bool) "p99 finite" true (Float.is_finite p);
      match List.rev (S.cumulative s) with
      | (inf_bound, total) :: _ ->
          Alcotest.(check bool) "+Inf bucket" true (inf_bound = Float.infinity);
          Alcotest.(check int) "cumulative total" (S.count s) total
      | [] -> Alcotest.fail "cumulative empty"
    end
  done;
  Atomic.set stop true;
  List.iter Domain.join ds

let prop_snapshot_merge_order_independent =
  QCheck2.Test.make ~name:"histogram: snapshot merge is order-independent" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 5)
           (list_size (int_range 0 30) (float_bound_inclusive 0.1)))
        (list_size (int_range 0 10) (int_range 0 1000)))
    (fun (sample_sets, picks) ->
      let module S = Metrics.Histogram.Snapshot in
      let snaps =
        List.map
          (fun samples ->
            let h = Metrics.Histogram.create () in
            List.iter (Metrics.Histogram.record h) samples;
            Metrics.Histogram.snapshot h)
          sample_sets
      in
      (* permute via the generated picks (Fisher–Yates with fixed choices) *)
      let arr = Array.of_list snaps in
      let n = Array.length arr in
      List.iteri
        (fun i p ->
          let i = i mod n in
          let j = p mod n in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp)
        picks;
      let merged_fwd = List.fold_left S.merge (List.hd snaps) (List.tl snaps) in
      let permuted = Array.to_list arr in
      let merged_perm = List.fold_left S.merge (List.hd permuted) (List.tl permuted) in
      S.count merged_fwd = S.count merged_perm
      && merged_fwd.S.counts = merged_perm.S.counts
      && Float.abs (S.sum merged_fwd -. S.sum merged_perm)
         <= 1e-9 *. Float.max 1. (Float.abs (S.sum merged_fwd))
      && (S.count merged_fwd = 0
         || S.percentile merged_fwd 0.95 = S.percentile merged_perm 0.95))

(* every histogram shares one shape, so a foreign one is built by hand *)
let test_snapshot_merge_mismatch () =
  let module S = Metrics.Histogram.Snapshot in
  let mine = Metrics.Histogram.snapshot (Metrics.Histogram.create ()) in
  let foreign = { mine with S.base = 1e-3 } in
  Alcotest.check_raises "base mismatch"
    (Invalid_argument "Histogram.Snapshot.merge: shape mismatch")
    (fun () -> ignore (S.merge mine foreign))

(* --- registry + exposition --------------------------------------------- *)

let test_registry_snapshot_sorted () =
  let r = Registry.create () in
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c 3;
  Registry.register ~registry:r ~help:"b help" "b_total" (Registry.Counter c);
  Registry.register ~registry:r
    ~labels:[ ("partition", "1") ]
    "a_total"
    (Registry.Poll_counter (fun () -> 7));
  Registry.register ~registry:r
    ~labels:[ ("partition", "0") ]
    "a_total"
    (Registry.Poll_counter (fun () -> 5));
  let rows = Registry.snapshot ~registry:r () in
  Alcotest.(check (list string)) "sorted by (name, labels)"
    [ "a_total{partition=0}"; "a_total{partition=1}"; "b_total" ]
    (List.map
       (fun row ->
         match row.Registry.r_labels with
         | [] -> row.Registry.r_name
         | ls ->
             row.Registry.r_name ^ "{"
             ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
             ^ "}")
       rows);
  Alcotest.(check int) "counter sampled" 3
    (match (List.nth rows 2).Registry.r_sample with
    | Registry.S_counter n -> n
    | _ -> -1)

let test_registry_replaces () =
  let r = Registry.create () in
  Registry.register ~registry:r "x_total" (Registry.Poll_counter (fun () -> 1));
  Registry.register ~registry:r "x_total" (Registry.Poll_counter (fun () -> 2));
  Alcotest.(check int) "one row" 1 (Registry.size ~registry:r ());
  match Registry.snapshot ~registry:r () with
  | [ { Registry.r_sample = Registry.S_counter 2; _ } ] -> ()
  | _ -> Alcotest.fail "replacement did not win"

let test_registry_rejects_bad_names () =
  let r = Registry.create () in
  Alcotest.(check bool) "bad metric name" true
    (try
       Registry.register ~registry:r "9bad" (Registry.Poll_counter (fun () -> 0));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad label name" true
    (try
       Registry.register ~registry:r ~labels:[ ("0p", "x") ] "ok_total"
         (Registry.Poll_counter (fun () -> 0));
       false
     with Invalid_argument _ -> true)

let test_prom_exposition () =
  let r = Registry.create () in
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.record h 0.5e-6;
  Metrics.Histogram.record h 3e-6;
  Registry.register ~registry:r ~help:"hold time" "acc_t_hold_seconds"
    (Registry.Histogram h);
  let g = Metrics.Gauge.create () in
  Metrics.Gauge.set g 2.5;
  Registry.register ~registry:r ~labels:[ ("partition", "0") ] "acc_t_depth"
    (Registry.Gauge g);
  let text = Prom.to_string ~registry:r () in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "help line" true (has "# HELP acc_t_hold_seconds hold time");
  Alcotest.(check bool) "type histogram" true (has "# TYPE acc_t_hold_seconds histogram");
  Alcotest.(check bool) "+Inf bucket" true (has "acc_t_hold_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "count" true (has "acc_t_hold_seconds_count 2");
  Alcotest.(check bool) "gauge with label" true (has "acc_t_depth{partition=\"0\"} 2.5");
  (* dump_file writes the same exposition atomically (tmp + rename) *)
  let path = Filename.temp_file "acc_prom" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Prom.dump_file ~registry:r path;
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) "file matches to_string" text contents)

let qtest = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |])

let suites =
  [
    ( "obs.span",
      [
        Alcotest.test_case "commit phase arithmetic" `Quick test_commit_phases;
        Alcotest.test_case "2pc prepare/decide phases" `Quick test_2pc_phases;
        Alcotest.test_case "resolve closes prepare" `Quick test_resolve_closes_prepare;
        Alcotest.test_case "compensating abort" `Quick test_compensate_phases;
        Alcotest.test_case "truncated mid-step" `Quick test_truncated_mid_step;
        Alcotest.test_case "truncated mid-wait" `Quick test_truncated_mid_wait;
        Alcotest.test_case "truncated in-doubt" `Quick test_truncated_in_doubt;
        Alcotest.test_case "truncated mid-decide" `Quick test_truncated_mid_decide;
        Alcotest.test_case "dangling prepare flagged" `Quick test_dangling_prepare_flagged;
        Alcotest.test_case "re-begin cuts live span" `Quick test_rebegin_cuts_live_span;
        Alcotest.test_case "orphans counted" `Quick test_orphans_counted;
        Alcotest.test_case "json front-end agrees" `Quick test_json_frontend_agrees;
        qtest prop_phases_sum_le_wall;
        qtest prop_span_accounting;
      ] );
    ( "obs.snapshot",
      [
        Alcotest.test_case "reads safe under writers" `Quick test_snapshot_under_writers;
        Alcotest.test_case "merge rejects mismatch" `Quick test_snapshot_merge_mismatch;
        qtest prop_snapshot_merge_order_independent;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "snapshot sorted" `Quick test_registry_snapshot_sorted;
        Alcotest.test_case "re-register replaces" `Quick test_registry_replaces;
        Alcotest.test_case "rejects bad names" `Quick test_registry_rejects_bad_names;
        Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
      ] );
  ]
