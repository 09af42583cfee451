(* Read-isolation restrictions for decomposed transactions.

   Section 3.3 of the paper notes that exposing intermediate results is not
   always acceptable: "some transactions might require that they read only
   committed data ... or that the values [they read] all correspond to the
   same snapshot", citing the companion report [11] which augments interstep
   assertions to restrict such interleavings.  This library implements three
   levels per transaction instance:

   - [Exposed]        the paper's default: steps read whatever other
                      transactions exposed at their step boundaries;
   - [Committed_only] reads wait out compensation locks, so a value can no
                      longer be compensated away once read;
   - [Snapshot]       additionally, read locks are held to commit: every
                      read of the transaction belongs to one snapshot.

   The demo runs the same two-step auditor against a two-step transfer under
   each level and prints what it observed.

   Run with:  dune exec examples/read_isolation.exe *)

module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Txn_effect = Acc_txn.Txn_effect
module Program = Acc_core.Program
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime

let v_int n = Value.Int n

let accounts =
  Schema.make ~name:"accounts" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "balance" Value.Tint ]

let make_db () =
  let db = Database.create () in
  let t = Database.create_table db accounts in
  ignore (Table.insert t [| v_int 1; v_int 100 |]);
  ignore (Table.insert t [| v_int 2; v_int 100 |]);
  db

(* transfer: debit in step 1, credit in step 2 — the intermediate state
   (money in flight) is exposed at the boundary *)
let t_debit =
  Program.step ~id:1 ~name:"debit" ~txn_type:"transfer" ~index:1 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ] ()

let t_credit =
  Program.step ~id:2 ~name:"credit" ~txn_type:"transfer" ~index:2 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ] ()

let t_undo =
  Program.step ~id:3 ~name:"undo" ~txn_type:"transfer" ~index:0 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ] ()

let transfer_type =
  Program.txn_type ~name:"transfer" ~steps:[ t_debit; t_credit ] ~comp:t_undo ~assertions:[] ()

(* auditor: reads both balances, one per step *)
let a_one =
  Program.step ~id:4 ~name:"read1" ~txn_type:"auditor" ~index:1
    ~reads:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ]
    ~writes:[] ()

let a_two =
  Program.step ~id:5 ~name:"read2" ~txn_type:"auditor" ~index:2
    ~reads:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ]
    ~writes:[] ()

let a_undo =
  Program.step ~id:6 ~name:"noop" ~txn_type:"auditor" ~index:0 ~reads:[] ~writes:[] ()

let auditor_type =
  Program.txn_type ~name:"auditor" ~steps:[ a_one; a_two ] ~comp:a_undo ~assertions:[] ()

let workload = Program.workload [ transfer_type; auditor_type ]
let interference = Interference.build workload

let add ctx id delta =
  ignore
    (Executor.update ctx "accounts" [ v_int id ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) + delta);
         row))

let balance_of ctx id = Value.as_int (Executor.read_exn ctx "accounts" [ v_int id ]).(1)

let transfer ~amount =
  Program.instance ~def:transfer_type
    ~steps:
      [
        (t_debit, fun ctx -> add ctx 1 (-amount));
        ( t_credit,
          fun ctx ->
            (* park between the steps: the debit is exposed, its lock gone *)
            Txn_effect.yield ();
            Txn_effect.yield ();
            add ctx 2 amount );
      ]
    ~compensate:(fun ctx ~completed -> if completed >= 1 then add ctx 1 amount)
    ()

let audit ~level =
  let seen = ref (0, 0) in
  let inst =
    Program.instance ~def:auditor_type
      ~steps:
        [
          (a_one, fun ctx -> seen := (balance_of ctx 1, snd !seen));
          (a_two, fun ctx -> seen := (fst !seen, balance_of ctx 2));
        ]
      ~compensate:(fun _ ~completed:_ -> ())
      ~read_isolation:level ()
  in
  (inst, seen)

let run_level name level =
  let eng = Executor.create ~sem:(Interference.semantics interference) (make_db ()) in
  let inst, seen = audit ~level in
  let audit_done_before_transfer = ref None in
  let transfer_committed = ref false in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        ignore (Runtime.run eng (transfer ~amount:30));
        transfer_committed := true);
      (fun () ->
        ignore (Runtime.run eng inst);
        audit_done_before_transfer := Some (not !transfer_committed));
    ];
  let a, b = !seen in
  Format.printf "%-15s observed %3d + %3d = %3d%s@." name a b (a + b)
    (if a + b = 200 then "  (consistent total)"
     else "  (in-flight money visible!)")

let () =
  Format.printf "one transfer of $30 in flight; an auditor sums both accounts:@.@.";
  run_level "Exposed" Program.Exposed;
  run_level "Committed_only" Program.Committed_only;
  run_level "Snapshot" Program.Snapshot;
  Format.printf
    "@.Exposed may catch the in-flight state; Committed_only and Snapshot wait it out.@."
