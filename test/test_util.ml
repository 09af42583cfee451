(* Tests for acc.util: PRNG determinism/distribution and statistics. *)

module Prng = Acc_util.Prng
module Stats = Acc_util.Stats

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng ------------------------------------------------------------- *)

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_copy_replays () =
  let g = Prng.create ~seed:7 in
  ignore (Prng.bits64 g);
  let h = Prng.copy g in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Prng.bits64 g) (Prng.bits64 h)
  done

let test_split_independent () =
  let g = Prng.create ~seed:9 in
  let child = Prng.split g in
  (* The child stream and the parent's continued stream should not be
     identical. *)
  let same = ref true in
  for _ = 1 to 8 do
    if not (Int64.equal (Prng.bits64 g) (Prng.bits64 child)) then same := false
  done;
  Alcotest.(check bool) "split stream differs" false !same

let test_int_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_in_bounds () =
  let g = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-3) 5 in
    Alcotest.(check bool) "in [-3,5]" true (v >= -3 && v <= 5)
  done

let test_int_covers_range () =
  let g = Prng.create ~seed:5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 5) <- true
  done;
  Alcotest.(check bool) "all 5 values hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let g = Prng.create ~seed:6 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_uniform_mean () =
  let g = Prng.create ~seed:8 in
  let t = Stats.Tally.create () in
  for _ = 1 to 20_000 do
    Stats.Tally.add t (Prng.float g 1.0)
  done;
  let m = Stats.Tally.mean t in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.01)

let test_exponential_mean () =
  let g = Prng.create ~seed:10 in
  let t = Stats.Tally.create () in
  for _ = 1 to 50_000 do
    Stats.Tally.add t (Prng.exponential g ~mean:3.0)
  done;
  let m = Stats.Tally.mean t in
  Alcotest.(check bool) "mean near 3.0" true (Float.abs (m -. 3.0) < 0.1);
  Alcotest.(check bool) "all positive" true (Stats.Tally.min t >= 0.)

let test_chance_extremes () =
  let g = Prng.create ~seed:11 in
  Alcotest.(check bool) "p=0 never" false (Prng.chance g 0.);
  Alcotest.(check bool) "p=1 always" true (Prng.chance g 1.);
  Alcotest.(check bool) "p<0 never" false (Prng.chance g (-0.5));
  Alcotest.(check bool) "p>1 always" true (Prng.chance g 1.5)

let test_chance_rate () =
  let g = Prng.create ~seed:12 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.chance g 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.25" true (Float.abs (rate -. 0.25) < 0.02)

let test_permutation () =
  let g = Prng.create ~seed:13 in
  let p = Prng.permutation g 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 10 Fun.id) sorted

let test_shuffle_preserves_elements () =
  let g = Prng.create ~seed:14 in
  let a = [| 1; 2; 3; 4; 5; 6 |] in
  let b = Array.copy a in
  Prng.shuffle g b;
  Array.sort compare b;
  Alcotest.(check (array int)) "multiset preserved" a b

let test_strings () =
  let g = Prng.create ~seed:15 in
  for _ = 1 to 100 do
    let s = Prng.alpha_string g ~min:3 ~max:8 in
    Alcotest.(check bool) "alpha len" true (String.length s >= 3 && String.length s <= 8);
    String.iter (fun c -> Alcotest.(check bool) "alpha char" true (c >= 'a' && c <= 'z')) s
  done;
  let n = Prng.numeric_string g 6 in
  Alcotest.(check int) "numeric len" 6 (String.length n);
  String.iter (fun c -> Alcotest.(check bool) "digit" true (c >= '0' && c <= '9')) n

let test_choose () =
  let g = Prng.create ~seed:16 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Prng.choose g arr in
    Alcotest.(check bool) "member" true (Array.mem v arr)
  done

(* --- Stats ------------------------------------------------------------ *)

let test_tally_basic () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.add t) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Stats.Tally.count t);
  check_float "total" 10. (Stats.Tally.total t);
  check_float "mean" 2.5 (Stats.Tally.mean t);
  check_float "min" 1. (Stats.Tally.min t);
  check_float "max" 4. (Stats.Tally.max t);
  check_float "variance" (5. /. 3.) (Stats.Tally.variance t)

let test_tally_empty () =
  let t = Stats.Tally.create () in
  Alcotest.(check int) "count" 0 (Stats.Tally.count t);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Tally.mean t));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.Tally.percentile t 0.5))

let test_tally_single () =
  let t = Stats.Tally.create () in
  Stats.Tally.add t 7.;
  check_float "mean" 7. (Stats.Tally.mean t);
  check_float "variance" 0. (Stats.Tally.variance t);
  check_float "p50" 7. (Stats.Tally.percentile t 0.5)

let test_percentiles () =
  let t = Stats.Tally.create () in
  (* insert shuffled to make sure sorting happens *)
  List.iter (Stats.Tally.add t) [ 30.; 10.; 50.; 20.; 40. ];
  check_float "p0" 10. (Stats.Tally.percentile t 0.);
  check_float "p50" 30. (Stats.Tally.percentile t 0.5);
  check_float "p100" 50. (Stats.Tally.percentile t 1.0);
  check_float "p25" 20. (Stats.Tally.percentile t 0.25);
  check_float "p oob low" 10. (Stats.Tally.percentile t (-1.));
  check_float "p oob high" 50. (Stats.Tally.percentile t 2.)

let test_percentile_interpolation () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.add t) [ 0.; 10. ];
  check_float "p50 interpolated" 5. (Stats.Tally.percentile t 0.5);
  check_float "p75 interpolated" 7.5 (Stats.Tally.percentile t 0.75)

let test_percentile_after_add () =
  (* The sorted cache must be invalidated by a subsequent add. *)
  let t = Stats.Tally.create () in
  Stats.Tally.add t 1.;
  check_float "p100 = 1" 1. (Stats.Tally.percentile t 1.0);
  Stats.Tally.add t 9.;
  check_float "p100 = 9 after add" 9. (Stats.Tally.percentile t 1.0)

let test_merge () =
  let a = Stats.Tally.create () and b = Stats.Tally.create () in
  List.iter (Stats.Tally.add a) [ 1.; 2. ];
  List.iter (Stats.Tally.add b) [ 3.; 4.; 5. ];
  let m = Stats.Tally.merge a b in
  Alcotest.(check int) "merged count" 5 (Stats.Tally.count m);
  check_float "merged mean" 3. (Stats.Tally.mean m);
  (* originals untouched *)
  Alcotest.(check int) "a count" 2 (Stats.Tally.count a);
  Alcotest.(check int) "b count" 3 (Stats.Tally.count b)

let test_welford_against_naive () =
  let g = Prng.create ~seed:17 in
  let t = Stats.Tally.create () in
  let xs = List.init 1000 (fun _ -> Prng.float g 100.) in
  List.iter (Stats.Tally.add t) xs;
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0. xs /. n in
  let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.) in
  Alcotest.(check bool) "mean matches naive" true (Float.abs (mean -. Stats.Tally.mean t) < 1e-6);
  Alcotest.(check bool)
    "variance matches naive" true
    (Float.abs (var -. Stats.Tally.variance t) /. var < 1e-9)

(* --- qcheck properties ------------------------------------------------ *)

let prop_int_in_range =
  QCheck2.Test.make ~name:"prng: int_in stays in range" ~count:500
    QCheck2.Gen.(triple int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let g = Prng.create ~seed in
      let v = Prng.int_in g lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_tally_mean_bounded =
  QCheck2.Test.make ~name:"stats: min <= mean <= max" ~count:500
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let t = Stats.Tally.create () in
      List.iter (Stats.Tally.add t) xs;
      let m = Stats.Tally.mean t in
      m >= Stats.Tally.min t -. 1e-9 && m <= Stats.Tally.max t +. 1e-9)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"stats: percentile monotone in p" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_bound_inclusive 100.))
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (xs, (p1, p2)) ->
      let t = Stats.Tally.create () in
      List.iter (Stats.Tally.add t) xs;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.Tally.percentile t lo <= Stats.Tally.percentile t hi +. 1e-9)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "copy replays" `Quick test_copy_replays;
        Alcotest.test_case "split independent" `Quick test_split_independent;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
        Alcotest.test_case "int covers range" `Quick test_int_covers_range;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_chance_rate;
        Alcotest.test_case "permutation" `Quick test_permutation;
        Alcotest.test_case "shuffle preserves elements" `Quick test_shuffle_preserves_elements;
        Alcotest.test_case "random strings" `Quick test_strings;
        Alcotest.test_case "choose membership" `Quick test_choose;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_int_in_range;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "tally basic" `Quick test_tally_basic;
        Alcotest.test_case "tally empty" `Quick test_tally_empty;
        Alcotest.test_case "tally single" `Quick test_tally_single;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
        Alcotest.test_case "percentile cache invalidation" `Quick test_percentile_after_add;
        Alcotest.test_case "merge" `Quick test_merge;
        Alcotest.test_case "welford vs naive" `Quick test_welford_against_naive;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_tally_mean_bounded;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_percentile_monotone;
      ] );
  ]
