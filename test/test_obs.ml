(* Tests for acc.obs (trace sink, conflict accounting) and the
   Metrics.Histogram / Counter.drain additions that back it. *)

module Trace = Acc_obs.Trace
module Json = Acc_obs.Json
module CA = Acc_obs.Conflict_accounting
module Metrics = Acc_util.Metrics
module Mode = Acc_lock.Mode
module Lock_table = Acc_lock.Lock_table
module Resource_id = Acc_lock.Resource_id
module Value = Acc_relation.Value

let res i = Resource_id.Tuple ("t", [ Value.Int i ])

(* one sample event per constructor: the taxonomy surface the encodings must
   cover *)
let one_of_each =
  [
    Trace.Txn_begin { txn = 1; txn_type = "new_order" };
    Trace.Txn_commit { txn = 1 };
    Trace.Txn_abort { txn = 2; compensated = true };
    Trace.Step_begin { txn = 1; step_type = 3; step_index = 1 };
    Trace.Step_end { txn = 1; step_index = 1 };
    Trace.Comp_run { txn = 2; step_type = 9; from_step = 2 };
    Trace.Lock_request { txn = 1; step_type = 3; mode = Mode.S; resource = res 1 };
    Trace.Lock_grant
      { txn = 1; step_type = 3; mode = Mode.A 2; resource = res 1; past_2pl = 1; reentrant = false };
    Trace.Lock_block
      {
        txn = 1;
        step_type = 3;
        mode = Mode.X;
        resource = res 2;
        blocker_txn = 7;
        blocker_mode = Mode.A 1;
        blocker_waiting = false;
        assertion = Some 4;
        interfering_step = Some 12;
      };
    Trace.Lock_wake { txn = 1; mode = Mode.X; resource = res 2 };
    Trace.Lock_release { txn = 1; mode = Mode.X; resource = res 2 };
    Trace.Lock_attach { txn = 3; step_type = 0; mode = Mode.Comp 1; resource = res 3 };
    Trace.Lock_cancel { txn = 3; resource = res 3 };
    Trace.Assertion_check { txn = 1; assertion = 4; interfering_step = 12; passed = true };
    Trace.Deadlock_cycle { cycle = [ 1; 7; 9 ] };
    Trace.Victim { txn = 7; spared_compensating = true };
    Trace.Wal_append { txn = 1; lsn = 42; kind = "write"; dur = 3e-6 };
    Trace.Wal_flush { records = 17 };
    Trace.Timed_out { txn = 5; mode = Mode.X; resource = res 4; waited = 0.052 };
    Trace.Shed { inflight = 64; reason = "capacity" };
    Trace.Degraded { on = true; oldest_wait = 1.5 };
    Trace.Prepare { txn = 8; gid = 3 };
    Trace.Decide { gid = 3; commit = true; participants = 2 };
    Trace.Resolve { txn = 8; gid = 3; commit = false };
    Trace.Net_fault { kind = "drop"; msg = "decide" };
    Trace.Rpc_retry { msg = "decide"; gid = 3; attempt = 2 };
  ]

(* --- ring buffer ------------------------------------------------------- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Trace.emit (Trace.Txn_commit { txn = 1 });
  let d = Trace.drain () in
  Alcotest.(check int) "no events" 0 (List.length d.Trace.events);
  Alcotest.(check int) "no emitted" 0 d.Trace.emitted

let test_wraparound_drops_oldest () =
  Trace.start ~capacity:8 ();
  for i = 1 to 20 do
    Trace.emit (Trace.Txn_commit { txn = i })
  done;
  let d = Trace.stop () in
  Alcotest.(check int) "emitted" 20 d.Trace.emitted;
  Alcotest.(check int) "dropped" 12 d.Trace.dropped;
  Alcotest.(check int) "kept = capacity" 8 (List.length d.Trace.events);
  (* drop-oldest: the survivors are the *last* 8 emissions, in order *)
  let txns =
    List.map
      (fun e -> match e.Trace.ev with Trace.Txn_commit { txn } -> txn | _ -> -1)
      d.Trace.events
  in
  Alcotest.(check (list int)) "last 8 kept" [ 13; 14; 15; 16; 17; 18; 19; 20 ] txns;
  let seqs = List.map (fun e -> e.Trace.seq) d.Trace.events in
  Alcotest.(check (list int)) "seqs count drops" [ 12; 13; 14; 15; 16; 17; 18; 19 ] seqs

let test_restart_replaces_sink () =
  Trace.start ~capacity:8 ();
  Trace.emit (Trace.Txn_commit { txn = 1 });
  Trace.start ~capacity:8 ();
  (* a fresh sink: the old buffer must not leak into the new dump *)
  Trace.emit (Trace.Txn_commit { txn = 2 });
  let d = Trace.stop () in
  Alcotest.(check int) "one event" 1 (List.length d.Trace.events);
  (match (List.hd d.Trace.events).Trace.ev with
  | Trace.Txn_commit { txn } -> Alcotest.(check int) "from new sink" 2 txn
  | _ -> Alcotest.fail "unexpected event");
  Alcotest.(check bool) "stopped" false (Trace.enabled ())

let test_multi_domain_interleaved () =
  let per_domain = 2000 in
  Trace.start ~capacity:(4 * per_domain) ();
  let worker base () =
    for i = 0 to per_domain - 1 do
      Trace.emit (Trace.Txn_begin { txn = base + i; txn_type = "w" })
    done
  in
  let d1 = Domain.spawn (worker 10_000) in
  let d2 = Domain.spawn (worker 20_000) in
  Domain.join d1;
  Domain.join d2;
  let d = Trace.stop () in
  Alcotest.(check int) "emitted" (2 * per_domain) d.Trace.emitted;
  Alcotest.(check int) "dropped" 0 d.Trace.dropped;
  (* per-domain seq is contiguous from 0 and txn ids stay in emission order
     within a domain, whatever the merged interleaving looks like *)
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let prev = try Hashtbl.find by_dom e.Trace.dom with Not_found -> [] in
      Hashtbl.replace by_dom e.Trace.dom (e :: prev))
    d.Trace.events;
  Alcotest.(check int) "two domains" 2 (Hashtbl.length by_dom);
  Hashtbl.iter
    (fun _dom rev_entries ->
      let entries = List.rev rev_entries in
      List.iteri
        (fun i e ->
          Alcotest.(check int) "seq contiguous" i e.Trace.seq;
          match e.Trace.ev with
          | Trace.Txn_begin { txn; _ } -> Alcotest.(check int) "txn order" (txn mod 10_000) i
          | _ -> Alcotest.fail "unexpected event")
        entries)
    by_dom;
  (* merged dump is timestamp-ordered *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.ts <= b.Trace.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamp-ordered" true (sorted d.Trace.events)

(* --- encodings --------------------------------------------------------- *)

let test_event_names_distinct () =
  let names = List.map Trace.event_name one_of_each in
  Alcotest.(check int) "one sample per constructor" (List.length Trace.all_event_names)
    (List.length one_of_each);
  List.iter
    (fun n -> Alcotest.(check bool) ("known name " ^ n) true (List.mem n Trace.all_event_names))
    names;
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let emit_one_of_each () =
  Trace.start ~capacity:64 ();
  List.iter Trace.emit one_of_each;
  Trace.stop ()

let test_jsonl_roundtrip () =
  let d = emit_one_of_each () in
  Alcotest.(check int) "all captured" (List.length one_of_each) (List.length d.Trace.events);
  (* every entry's JSON line parses back and carries the right wire name *)
  List.iter2
    (fun entry ev ->
      let line = Json.to_string (Trace.to_json entry) in
      match Json.of_string line with
      | Error msg -> Alcotest.fail ("unparseable line: " ^ msg ^ ": " ^ line)
      | Ok j ->
          let name = Option.bind (Json.member "ev" j) Json.to_str in
          Alcotest.(check (option string)) "ev name" (Some (Trace.event_name ev)) name;
          Alcotest.(check bool) "has ts" true (Json.member "ts" j <> None);
          Alcotest.(check bool) "has dom" true (Json.member "dom" j <> None))
    d.Trace.events one_of_each;
  (* the full file: one line per event plus the trace_summary trailer *)
  let path = Filename.temp_file "acc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_jsonl oc d;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "events + summary" (List.length one_of_each + 1) (List.length lines);
      let last = List.nth lines (List.length lines - 1) in
      match Json.of_string last with
      | Error msg -> Alcotest.fail ("bad summary: " ^ msg)
      | Ok j ->
          Alcotest.(check (option string))
            "summary ev" (Some "trace_summary")
            (Option.bind (Json.member "ev" j) Json.to_str);
          Alcotest.(check (option int))
            "summary events" (Some (List.length one_of_each))
            (Option.bind (Json.member "events" j) Json.to_int);
          Alcotest.(check (option int))
            "summary dropped" (Some 0)
            (Option.bind (Json.member "dropped" j) Json.to_int))

let test_chrome_valid_json () =
  let d = emit_one_of_each () in
  let path = Filename.temp_file "acc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_chrome oc d;
      close_out oc;
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match Json.of_string s with
      | Error msg -> Alcotest.fail ("chrome trace unparseable: " ^ msg)
      | Ok j when Json.member "traceEvents" j <> None -> (
          match Json.member "traceEvents" j with
          | Some (Json.List events) ->
          Alcotest.(check bool) "nonempty" true (events <> []);
          (* the paired txn span must appear as a complete ("X") event *)
          let has_txn_span =
            List.exists
              (fun e ->
                Option.bind (Json.member "ph" e) Json.to_str = Some "X"
                && Option.bind (Json.member "cat" e) Json.to_str = Some "txn")
              events
          in
          Alcotest.(check bool) "txn X span" true has_txn_span;
          List.iter
            (fun e ->
              Alcotest.(check bool) "has name" true (Json.member "name" e <> None);
              Alcotest.(check bool) "has ph" true (Json.member "ph" e <> None);
              Alcotest.(check bool) "has ts" true (Json.member "ts" e <> None))
            events
          | _ -> Alcotest.fail "traceEvents is not an array")
      | Ok _ -> Alcotest.fail "chrome trace has no traceEvents array")

(* --- conflict accounting ----------------------------------------------- *)

let request ?(step_type = 3) decision =
  Lock_table.Ob_request
    { or_txn = 1; or_step_type = step_type; or_mode = Mode.X; or_resource = res 1;
      or_decision = decision }

let granted ?(past_2pl = 0) () =
  Lock_table.Dec_granted { past_2pl; reentrant = false; checks = [] }

let blocked ?assertion ?interfering_step () =
  Lock_table.Dec_blocked
    { blocker_txn = 9; blocker_mode = Mode.X; blocker_waiting = false; assertion;
      interfering_step; checks = [] }

let test_accounting_classification () =
  let t = CA.create () in
  CA.observe t (request (granted ()));
  CA.observe t (request (granted ~past_2pl:2 ()));
  CA.observe t (request (blocked ()));
  CA.observe t (request (blocked ~assertion:4 ~interfering_step:12 ()));
  (* non-request observations are ignored *)
  CA.observe t (Lock_table.Ob_release { ol_txn = 1; ol_mode = Mode.X; ol_resource = res 1 });
  CA.observe t (Lock_table.Ob_cancel { oc_txn = 1; oc_resource = res 1 });
  match CA.rows t with
  | [ row ] ->
      Alcotest.(check int) "step type" 3 row.CA.r_step_type;
      Alcotest.(check int) "granted clean" 1 row.CA.r_granted_clean;
      Alcotest.(check int) "passed 2pl" 1 row.CA.r_passed_2pl;
      Alcotest.(check int) "blocked conv" 1 row.CA.r_blocked_conv;
      Alcotest.(check int) "blocked assert" 1 row.CA.r_blocked_assert;
      Alcotest.(check int) "row total" 4 (CA.row_total row);
      Alcotest.(check int) "totals" 4 (CA.row_total (CA.totals t))
  | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

let test_accounting_overflow_bucket () =
  let t = CA.create ~max_step_types:2 () in
  CA.observe t (request ~step_type:1 (granted ()));
  CA.observe t (request ~step_type:57 (granted ()));
  CA.observe t (request ~step_type:300 (blocked ()));
  match CA.rows t with
  | [ a; b ] ->
      Alcotest.(check int) "in-range row" 1 a.CA.r_step_type;
      Alcotest.(check int) "overflow row last" (-1) b.CA.r_step_type;
      Alcotest.(check int) "overflow pools" 2 (CA.row_total b)
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

let test_accounting_merge_and_json () =
  let t = CA.create () in
  CA.observe t (request ~step_type:1 (granted ~past_2pl:1 ()));
  CA.observe t (request ~step_type:2 (blocked ()));
  let rows = CA.rows t in
  let doubled = CA.merge_rows rows rows in
  Alcotest.(check int) "merge keeps rows" 2 (List.length doubled);
  List.iter2
    (fun r d -> Alcotest.(check int) "merge sums" (2 * CA.row_total r) (CA.row_total d))
    rows doubled;
  (* the JSON shape parses back with the documented fields *)
  let s = Json.to_string (CA.to_json t) in
  match Json.of_string s with
  | Error msg -> Alcotest.fail ("accounting json: " ^ msg)
  | Ok j ->
      (match Json.member "rows" j with
      | Some (Json.List rs) -> Alcotest.(check int) "json rows" 2 (List.length rs)
      | _ -> Alcotest.fail "no rows field");
      Alcotest.(check bool) "totals present" true (Json.member "totals" j <> None)

(* --- histogram / counter ----------------------------------------------- *)

let test_histogram_percentiles () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check bool) "empty p50 nan" true (Float.is_nan (Metrics.Histogram.percentile h 0.5));
  for _ = 1 to 900 do
    Metrics.Histogram.record h 0.001
  done;
  for _ = 1 to 100 do
    Metrics.Histogram.record h 0.1
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  Alcotest.(check bool)
    "total ~ 10.9" true
    (Float.abs (Metrics.Histogram.total h -. 10.9) < 1e-6);
  let p50 = Metrics.Histogram.percentile h 0.5 in
  let p99 = Metrics.Histogram.percentile h 0.99 in
  (* quantile error is bounded by the winning bucket's width (one octave) *)
  Alcotest.(check bool) "p50 in 1ms bucket" true (p50 >= 0.0005 && p50 <= 0.002);
  Alcotest.(check bool) "p99 in 100ms bucket" true (p99 >= 0.05 && p99 <= 0.2);
  Alcotest.(check bool) "monotone" true (p50 <= p99);
  Alcotest.(check int) "two buckets" 2 (List.length (Metrics.Histogram.nonzero_buckets h))

let test_histogram_clamps () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.record h (-5.0);
  Metrics.Histogram.record h Float.nan;
  Alcotest.(check int) "both counted" 2 (Metrics.Histogram.count h);
  match Metrics.Histogram.nonzero_buckets h with
  | [ (ub, 2) ] -> Alcotest.(check bool) "bucket 0" true (ub <= Metrics.Histogram.base +. 1e-12)
  | _ -> Alcotest.fail "expected everything in bucket 0"

let test_histogram_multi_domain () =
  let h = Metrics.Histogram.create () in
  let worker () =
    for _ = 1 to 10_000 do
      Metrics.Histogram.record h 0.001
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" 30_000 (Metrics.Histogram.count h)

let test_counter_drain () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c 5;
  Alcotest.(check int) "drain returns" 5 (Metrics.Counter.drain c);
  Alcotest.(check int) "zeroed" 0 (Metrics.Counter.get c);
  Metrics.Counter.incr c;
  Alcotest.(check int) "fresh epoch" 1 (Metrics.Counter.get c)

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "wraparound drops oldest" `Quick test_wraparound_drops_oldest;
        Alcotest.test_case "restart replaces sink" `Quick test_restart_replaces_sink;
        Alcotest.test_case "multi-domain interleaved" `Quick test_multi_domain_interleaved;
        Alcotest.test_case "event names distinct" `Quick test_event_names_distinct;
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "chrome trace valid" `Quick test_chrome_valid_json;
      ] );
    ( "obs.accounting",
      [
        Alcotest.test_case "classification" `Quick test_accounting_classification;
        Alcotest.test_case "overflow bucket" `Quick test_accounting_overflow_bucket;
        Alcotest.test_case "merge + json" `Quick test_accounting_merge_and_json;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
        Alcotest.test_case "histogram multi-domain" `Quick test_histogram_multi_domain;
        Alcotest.test_case "counter drain" `Quick test_counter_drain;
      ] );
  ]
