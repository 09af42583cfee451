(* Small, targeted tests for API surface not exercised by the behavioural
   suites: pretty-printers, accessors, window resolution, edge parameters. *)

module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Ordered_index = Acc_relation.Ordered_index
module Mode = Acc_lock.Mode
module Lock_table = Acc_lock.Lock_table
module Lock_request = Acc_lock.Lock_request
module Resource_id = Acc_lock.Resource_id
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Program = Acc_core.Program
module Sim = Acc_sim.Sim
module Prng = Acc_util.Prng

let v_int n = Value.Int n

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* --- printers ------------------------------------------------------------- *)

let test_value_printers () =
  Alcotest.(check string) "int" "42" (Value.to_string (v_int 42));
  Alcotest.(check string) "float" "2.5" (Value.to_string (Value.Float 2.5));
  Alcotest.(check string) "string quoted" "\"hi\"" (Value.to_string (Value.Str "hi"));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true));
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null)

let test_predicate_printer () =
  let p =
    Predicate.And
      ( Predicate.Eq ("a", v_int 1),
        Predicate.Or
          ( Predicate.Cmp (Predicate.Ge, "b", v_int 2),
            Predicate.Not (Predicate.In ("c", [ v_int 3; v_int 4 ])) ) )
  in
  let s = Format.asprintf "%a" Predicate.pp p in
  List.iter
    (fun frag -> Alcotest.(check bool) ("mentions " ^ frag) true (contains s frag))
    [ "a = 1"; "b >= 2"; "c in (3, 4)"; "and"; "or"; "not" ]

let test_mode_printer () =
  Alcotest.(check string) "S" "S" (Format.asprintf "%a" Mode.pp Mode.S);
  Alcotest.(check string) "A" "A(7)" (Format.asprintf "%a" Mode.pp (Mode.A 7));
  Alcotest.(check string) "Comp" "Comp(9)" (Format.asprintf "%a" Mode.pp (Mode.Comp 9))

let test_schema_printer () =
  let s =
    Schema.make ~name:"t" ~key:[ "k" ]
      [ Schema.col "k" Value.Tint; Schema.col ~nullable:true "v" Value.Tstr ]
  in
  let out = Format.asprintf "%a" Schema.pp s in
  Alcotest.(check bool) "mentions table" true (contains out "table t");
  Alcotest.(check bool) "mentions null column" true (contains out "v : string null")

let test_lock_state_printer () =
  let t = Lock_table.create Mode.no_semantics in
  let res = Resource_id.Tuple ("t", [ v_int 1 ]) in
  ignore (Lock_table.submit t (Lock_request.make ~txn:1 ~step_type:0 Mode.X res));
  ignore (Lock_table.submit t (Lock_request.make ~txn:2 ~step_type:0 Mode.S res));
  let out = Format.asprintf "%a" Lock_table.pp_state t in
  Alcotest.(check bool) "shows holder" true (contains out "held(T1,X");
  Alcotest.(check bool) "shows waiter" true (contains out "wait(T2,S)");
  Alcotest.(check (list int)) "waiting_on" [] (Lock_table.waiting_on t ~txn:1 |> List.map (fun _ -> 0));
  Alcotest.(check int) "waiter waits somewhere" 1 (List.length (Lock_table.waiting_on t ~txn:2))

let test_database_summary () =
  let db = Database.create () in
  let _ =
    Database.create_table db
      (Schema.make ~name:"t" ~key:[ "k" ] [ Schema.col "k" Value.Tint ])
  in
  let out = Format.asprintf "%a" Database.pp_summary db in
  Alcotest.(check bool) "lists table with count" true (contains out "t" && contains out "0 rows")

(* --- window resolution -------------------------------------------------------- *)

let mk_step id index repeats =
  Program.step ~id ~name:(Printf.sprintf "s%d" id) ~txn_type:"w" ~index ~repeats ~reads:[]
    ~writes:[] ()

let test_resolve_window_with_middle_repeats () =
  (* static: s1, s2 (repeats), s3; dynamic expansion s1 s2 s2 s2 s3 *)
  let s1 = mk_step 1 1 false and s2 = mk_step 2 2 true and s3 = mk_step 3 3 false in
  let comp = mk_step 9 0 false in
  let def = Program.txn_type ~name:"w" ~steps:[ s1; s2; s3 ] ~comp ~assertions:[] () in
  let nop _ = () in
  let inst =
    Program.instance ~def
      ~steps:[ (s1, nop); (s2, nop); (s2, nop); (s2, nop); (s3, nop) ]
      ~compensate:(fun _ ~completed:_ -> ())
      ()
  in
  let a_mid =
    Acc_core.Assertion.make ~id:50 ~name:"mid" ~txn_type:"w" ~pre_of:2 ~until:3 ~refs:[]
  in
  (* pre(S2) opens at the FIRST dynamic occurrence of static step 2 and
     closes at the LAST dynamic occurrence of static step 3 *)
  Alcotest.(check (pair int int)) "window over repeats" (2, 5) (Program.resolve_window inst a_mid);
  let a_commit =
    Acc_core.Assertion.make ~id:51 ~name:"c" ~txn_type:"w" ~pre_of:3
      ~until:Acc_core.Assertion.until_commit ~refs:[]
  in
  Alcotest.(check (pair int int)) "until_commit = last step" (5, 5)
    (Program.resolve_window inst a_commit)

(* --- executor accessors --------------------------------------------------------- *)

let test_executor_accessors () =
  let db = Database.create () in
  let _ =
    Database.create_table db
      (Schema.make ~name:"t" ~key:[ "k" ] [ Schema.col "k" Value.Tint; Schema.col "v" Value.Tint ])
  in
  let eng = Executor.create ~sem:Mode.no_semantics db in
  Schedule.run eng
    [
      (fun () ->
        let ctx = Executor.begin_txn eng ~txn_type:"probe" ~multi_step:true in
        Alcotest.(check string) "txn_type" "probe" (Executor.txn_type ctx);
        Alcotest.(check bool) "engine identity" true (Executor.engine ctx == eng);
        Alcotest.(check bool) "not finished" false (Executor.finished ctx);
        Executor.set_step ctx ~step_type:3 ~step_index:2;
        Alcotest.(check int) "step type" 3 (Executor.step_type ctx);
        Alcotest.(check int) "step index" 2 (Executor.step_index ctx);
        Alcotest.(check bool) "not compensating" false (Executor.compensating ctx);
        Executor.set_compensating ctx true;
        Alcotest.(check bool) "compensating" true (Executor.compensating ctx);
        Executor.set_compensating ctx false;
        Alcotest.(check int) "empty undo stack" 0 (Executor.undo_stack_size ctx);
        Executor.insert ctx "t" [| v_int 1; v_int 0 |];
        Alcotest.(check int) "undo stack grows" 1 (Executor.undo_stack_size ctx);
        Executor.end_step ctx ~area:[ ("k", v_int 1) ];
        Alcotest.(check int) "undo stack cleared at step end" 0 (Executor.undo_stack_size ctx);
        Alcotest.(check bool) "the step end's area is the work area" true
          (Executor.work_area ctx = [ ("k", v_int 1) ]);
        Alcotest.(check bool) "area_field reads it" true
          (Executor.area_field ctx "k" = v_int 1);
        Alcotest.(check bool) "area_field rejects a missing field" true
          (try
             ignore (Executor.area_field ctx "nope");
             false
           with Invalid_argument _ -> true);
        Executor.commit ctx;
        Alcotest.(check bool) "finished" true (Executor.finished ctx))
    ];
  Alcotest.(check bool) "read_exn raises on missing" true
    (try
       Schedule.run eng
         [
           (fun () ->
             let ctx = Executor.begin_txn eng ~txn_type:"x" ~multi_step:false in
             (try ignore (Executor.read_exn ctx "t" [ v_int 99 ])
              with Table.No_such_row _ ->
                Executor.abort_physical ctx;
                raise Exit))
         ];
       false
     with Exit -> true)

(* --- sim edges -------------------------------------------------------------------- *)

let test_sim_edges () =
  let s = Sim.create () in
  let ran_at = ref (-1.0) in
  Sim.spawn s ~at:5.0 (fun () ->
      (* spawning in the past clamps to now *)
      Sim.spawn s ~at:1.0 (fun () -> ran_at := Sim.now s));
  Sim.run s;
  Alcotest.(check (float 1e-9)) "past spawn clamped" 5.0 !ran_at;
  Alcotest.(check bool) "events counted" true (Sim.events_executed s >= 2)

(* --- ordered index extras ------------------------------------------------------------ *)

let test_ordered_index_extras () =
  let idx = Ordered_index.create ~name:"x" ~key_of:(fun row -> [ row.(0) ]) in
  List.iter
    (fun i -> Ordered_index.insert idx ~pk:[ v_int i ] [| v_int (10 - i) |])
    [ 1; 2; 3 ];
  let keys =
    Ordered_index.fold_ascending idx ~init:[] ~f:(fun acc key _pk -> key :: acc) |> List.rev
  in
  Alcotest.(check bool) "fold ascending" true
    (keys = [ [ v_int 7 ]; [ v_int 8 ]; [ v_int 9 ] ]);
  let c = Ordered_index.copy idx in
  Ordered_index.insert c ~pk:[ v_int 4 ] [| v_int 42 |];
  Ordered_index.remove idx ~pk:[ v_int 1 ] [| v_int 9 |];
  Alcotest.(check bool) "copy independent" true
    (Ordered_index.size c = 4
    && Ordered_index.size idx = 2
    && Ordered_index.max_entry c = Some ([ v_int 42 ], [ v_int 4 ])
    && Ordered_index.max_entry idx = Some ([ v_int 8 ], [ v_int 2 ])
    && Ordered_index.invariant_ok c
    && Ordered_index.invariant_ok idx)

(* --- prng edges -------------------------------------------------------------------------- *)

let test_prng_edges () =
  let g = Prng.create ~seed:1 in
  Alcotest.(check int) "alpha min=max" 4 (String.length (Prng.alpha_string g ~min:4 ~max:4));
  Alcotest.(check int) "int bound 1" 0 (Prng.int g 1);
  Alcotest.(check int) "int_in singleton" 5 (Prng.int_in g 5 5);
  let p = Prng.permutation g 0 in
  Alcotest.(check int) "empty permutation" 0 (Array.length p)

let suites =
  [
    ( "surface",
      [
        Alcotest.test_case "value printers" `Quick test_value_printers;
        Alcotest.test_case "predicate printer" `Quick test_predicate_printer;
        Alcotest.test_case "mode printer" `Quick test_mode_printer;
        Alcotest.test_case "schema printer" `Quick test_schema_printer;
        Alcotest.test_case "lock state printer" `Quick test_lock_state_printer;
        Alcotest.test_case "database summary" `Quick test_database_summary;
        Alcotest.test_case "resolve_window with repeats" `Quick
          test_resolve_window_with_middle_repeats;
        Alcotest.test_case "executor accessors" `Quick test_executor_accessors;
        Alcotest.test_case "sim edges" `Quick test_sim_edges;
        Alcotest.test_case "ordered index extras" `Quick test_ordered_index_extras;
        Alcotest.test_case "prng edges" `Quick test_prng_edges;
      ] );
  ]
