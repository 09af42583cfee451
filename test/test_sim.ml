(* Tests for acc.sim: event ordering, delays, conditions, resources, and
   queueing sanity against analytic expectations. *)

module Sim = Acc_sim.Sim
module Prng = Acc_util.Prng
module Tally = Acc_util.Stats.Tally

let check_float = Alcotest.(check (float 1e-9))

let test_clock_starts_at_zero () =
  let s = Sim.create () in
  check_float "t=0" 0. (Sim.now s);
  Sim.run s;
  check_float "still 0 with no events" 0. (Sim.now s)

let test_delay_advances_clock () =
  let s = Sim.create () in
  let seen = ref [] in
  Sim.spawn s (fun () ->
      seen := (Sim.now s, "start") :: !seen;
      Sim.delay 2.5;
      seen := (Sim.now s, "mid") :: !seen;
      Sim.delay 1.5;
      seen := (Sim.now s, "end") :: !seen);
  Sim.run s;
  Alcotest.(check bool) "timeline" true
    (List.rev !seen = [ (0., "start"); (2.5, "mid"); (4., "end") ]);
  check_float "final clock" 4. (Sim.now s)

let test_spawn_at () =
  let s = Sim.create () in
  let order = ref [] in
  Sim.spawn s ~at:5. (fun () -> order := "late" :: !order);
  Sim.spawn s ~at:1. (fun () -> order := "early" :: !order);
  Sim.run s;
  Alcotest.(check (list string)) "time order beats insertion order" [ "early"; "late" ]
    (List.rev !order)

let test_same_time_fifo () =
  let s = Sim.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.spawn s ~at:1. (fun () -> order := i :: !order)
  done;
  Sim.run s;
  Alcotest.(check (list int)) "insertion order at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_until_freezes () =
  let s = Sim.create () in
  let ran_late = ref false in
  Sim.spawn s ~at:10. (fun () -> ran_late := true);
  Sim.spawn s ~at:1. (fun () -> ());
  Sim.run ~until:5. s;
  Alcotest.(check bool) "late event dropped" false !ran_late;
  check_float "clock stopped at until" 5. (Sim.now s)

let test_interleaved_processes () =
  let s = Sim.create () in
  let trace = ref [] in
  let proc name start step =
    Sim.spawn s ~at:start (fun () ->
        for _ = 1 to 3 do
          trace := (Sim.now s, name) :: !trace;
          Sim.delay step
        done)
  in
  proc "a" 0. 2.;
  proc "b" 1. 2.;
  Sim.run s;
  Alcotest.(check bool) "alternating" true
    (List.rev !trace
    = [ (0., "a"); (1., "b"); (2., "a"); (3., "b"); (4., "a"); (5., "b") ])

let test_zero_delay_keeps_order () =
  let s = Sim.create () in
  let order = ref [] in
  Sim.spawn s (fun () ->
      order := "a1" :: !order;
      Sim.delay 0.;
      order := "a2" :: !order);
  Sim.spawn s (fun () -> order := "b" :: !order);
  Sim.run s;
  (* a's continuation is scheduled after b's start *)
  Alcotest.(check (list string)) "zero delay requeues" [ "a1"; "b"; "a2" ] (List.rev !order)

let test_tie_chooser () =
  (* always pick the last of the tied events: same-time events run in
     reverse insertion order, an earlier time still runs first, and the
     chooser is consulted only when there is a choice *)
  let degrees = ref [] in
  let s =
    Sim.create
      ~choose:(fun n ->
        degrees := n :: !degrees;
        n - 1)
      ()
  in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn s ~at:1. (fun () -> order := i :: !order)
  done;
  Sim.spawn s ~at:0.5 (fun () -> order := 0 :: !order);
  Sim.run s;
  Alcotest.(check (list int)) "reverse order among ties" [ 0; 3; 2; 1 ] (List.rev !order);
  Alcotest.(check (list int)) "choices offered" [ 3; 2 ] (List.rev !degrees)

(* --- conditions -------------------------------------------------------- *)

let test_condition_signal () =
  let s = Sim.create () in
  let c = Sim.Condition.create () in
  let got = ref 0 in
  Sim.spawn s (fun () -> got := Sim.Condition.wait c);
  Sim.spawn s (fun () ->
      Sim.delay 3.;
      ignore (Sim.Condition.signal s c 42));
  Sim.run s;
  Alcotest.(check int) "value delivered" 42 !got

let test_condition_fifo () =
  let s = Sim.create () in
  let c = Sim.Condition.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn s (fun () ->
        let v = Sim.Condition.wait c in
        order := (i, v) :: !order)
  done;
  Sim.spawn s (fun () ->
      Sim.delay 1.;
      ignore (Sim.Condition.signal s c 10);
      ignore (Sim.Condition.signal s c 20);
      ignore (Sim.Condition.signal s c 30));
  Sim.run s;
  Alcotest.(check (list (pair int int))) "FIFO wakeups" [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !order)

let test_condition_signal_empty () =
  let s = Sim.create () in
  Sim.spawn s (fun () ->
      Alcotest.(check bool) "no waiter" false (Sim.Condition.signal s (Sim.Condition.create ()) 1));
  Sim.run s

(* --- resources ---------------------------------------------------------- *)

let test_resource_serializes () =
  let s = Sim.create () in
  let r = Sim.Resource.create s ~capacity:1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.spawn s (fun () ->
        Sim.Resource.use r 2.;
        finish := (i, Sim.now s) :: !finish)
  done;
  Sim.run s;
  Alcotest.(check bool) "sequential service" true
    (List.rev !finish = [ (1, 2.); (2, 4.); (3, 6.) ]);
  check_float "busy time" 6. (Sim.Resource.busy_time r);
  check_float "full utilization" 1. (Sim.Resource.utilization r ~at:6.)

let test_resource_parallel_capacity () =
  let s = Sim.create () in
  let r = Sim.Resource.create s ~capacity:3 in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.spawn s (fun () ->
        Sim.Resource.use r 2.;
        finish := (i, Sim.now s) :: !finish)
  done;
  Sim.run s;
  Alcotest.(check bool) "all done at t=2" true
    (List.for_all (fun (_, t) -> t = 2.) !finish)

let test_resource_two_servers () =
  let s = Sim.create () in
  let r = Sim.Resource.create s ~capacity:2 in
  let finish = ref [] in
  for i = 1 to 4 do
    Sim.spawn s (fun () ->
        Sim.Resource.use r 2.;
        finish := (i, Sim.now s) :: !finish)
  done;
  Sim.run s;
  Alcotest.(check bool) "two waves" true (List.rev !finish = [ (1, 2.); (2, 2.); (3, 4.); (4, 4.) ])

let test_resource_fifo_handoff () =
  (* a latecomer must not jump the queue when a unit is handed over *)
  let s = Sim.create () in
  let r = Sim.Resource.create s ~capacity:1 in
  let order = ref [] in
  Sim.spawn s ~at:0. (fun () ->
      Sim.Resource.use r 5.;
      order := 1 :: !order);
  Sim.spawn s ~at:1. (fun () ->
      Sim.Resource.use r 1.;
      order := 2 :: !order);
  Sim.spawn s ~at:2. (fun () ->
      Sim.Resource.use r 1.;
      order := 3 :: !order);
  Sim.run s;
  Alcotest.(check (list int)) "service order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "nothing left busy" 0 (Sim.Resource.in_use r);
  Alcotest.(check int) "queue drained" 0 (Sim.Resource.queue_length r)

let test_resource_invalid_capacity () =
  let s = Sim.create () in
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Sim.Resource.create s ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* M/D/1-ish sanity: with utilization ~0.5, mean response stays near service
   time scale and the server is busy about half the time. *)
let test_queueing_sanity () =
  let s = Sim.create () in
  let r = Sim.Resource.create s ~capacity:1 in
  let g = Prng.create ~seed:42 in
  let service = 1.0 and mean_interarrival = 2.0 in
  let tally = Tally.create () in
  let horizon = 20_000. in
  let rec arrivals t_next =
    if t_next < horizon then begin
      Sim.spawn s ~at:t_next (fun () ->
          let start = Sim.now s in
          Sim.Resource.use r service;
          Tally.add tally (Sim.now s -. start));
      arrivals (t_next +. Prng.exponential g ~mean:mean_interarrival)
    end
  in
  arrivals 0.;
  Sim.run s;
  let rho = Sim.Resource.utilization r ~at:(Sim.now s) in
  Alcotest.(check bool) "utilization near 0.5" true (Float.abs (rho -. 0.5) < 0.05);
  (* M/D/1: W = s + rho*s/(2(1-rho)) = 1 + 0.5/1 = 1.5 *)
  let w = Tally.mean tally in
  Alcotest.(check bool)
    (Printf.sprintf "mean response %.3f near M/D/1 prediction 1.5" w)
    true
    (w > 1.3 && w < 1.7)

let test_event_budget_guard () =
  let s = Sim.create () in
  let rec forever () =
    Sim.delay 1.;
    forever ()
  in
  Sim.spawn s forever;
  Alcotest.(check bool) "budget guard fires" true
    (try
       Sim.run ~max_events:1000 s;
       false
     with Failure _ -> true)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "clock at zero" `Quick test_clock_starts_at_zero;
        Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
        Alcotest.test_case "spawn at" `Quick test_spawn_at;
        Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
        Alcotest.test_case "until freezes" `Quick test_until_freezes;
        Alcotest.test_case "interleaved processes" `Quick test_interleaved_processes;
        Alcotest.test_case "zero delay requeues" `Quick test_zero_delay_keeps_order;
        Alcotest.test_case "tie chooser" `Quick test_tie_chooser;
        Alcotest.test_case "event budget guard" `Quick test_event_budget_guard;
      ] );
    ( "sim.condition",
      [
        Alcotest.test_case "signal delivers" `Quick test_condition_signal;
        Alcotest.test_case "FIFO wakeups" `Quick test_condition_fifo;
        Alcotest.test_case "signal empty" `Quick test_condition_signal_empty;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "serializes" `Quick test_resource_serializes;
        Alcotest.test_case "parallel capacity" `Quick test_resource_parallel_capacity;
        Alcotest.test_case "two servers" `Quick test_resource_two_servers;
        Alcotest.test_case "FIFO handoff" `Quick test_resource_fifo_handoff;
        Alcotest.test_case "invalid capacity" `Quick test_resource_invalid_capacity;
        Alcotest.test_case "M/D/1 sanity" `Slow test_queueing_sanity;
      ] );
  ]
