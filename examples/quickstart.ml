(* Quickstart: decompose a transaction into steps and run it under the
   assertional concurrency control.

   The scenario: an account ledger where a [settle] transaction moves money
   in two steps — debit one account, credit another — releasing its locks at
   the step boundary so other transactions can slip in between.  A
   compensating step makes the decomposition safe: if the transaction cannot
   finish after its debit became visible, the ACC runs the compensation
   instead of leaving the books broken.

   Run with:  dune exec examples/quickstart.exe *)

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

(* --- 1. a schema and some data ------------------------------------------ *)

let accounts =
  Schema.make ~name:"accounts" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "balance" Value.Tint ]

let make_db () =
  let db = Database.create () in
  let t = Database.create_table db accounts in
  List.iter (fun (id, bal) -> ignore (Table.insert t [| v_int id; v_int bal |])) [ (1, 100); (2, 100); (3, 100) ];
  db

(* --- 2. the design-time description -------------------------------------- *)

(* Each step declares a symbolic footprint; the analysis derives the
   interference tables from these, never from the code. *)
let step_debit =
  Program.step ~id:1 ~name:"debit" ~txn_type:"settle" ~index:1 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ]
    ()

let step_credit =
  Program.step ~id:2 ~name:"credit" ~txn_type:"settle" ~index:2 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ]
    ()

let step_undo =
  Program.step ~id:3 ~name:"undo-debit" ~txn_type:"settle" ~index:0 ~reads:[]
    ~writes:[ Footprint.make "accounts" (Footprint.Columns [ "balance" ]) ]
    ()

let settle_type =
  Program.txn_type ~name:"settle" ~steps:[ step_debit; step_credit ] ~comp:step_undo
    ~assertions:[] ()

let workload = Program.workload [ settle_type ]
let interference = Interference.build workload

(* --- 3. run-time instances ------------------------------------------------ *)

let add ctx id delta =
  ignore
    (Executor.update ctx "accounts" [ v_int id ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) + delta);
         row))

let settle ~from_acct ~to_acct ~amount =
  Program.instance ~def:settle_type
    ~steps:
      [
        (step_debit, fun ctx -> add ctx from_acct (-amount));
        (step_credit, fun ctx -> add ctx to_acct amount);
      ]
    ~compensate:(fun ctx ~completed -> if completed >= 1 then add ctx from_acct amount)
    ()

(* --- 4. run --------------------------------------------------------------- *)

let balance eng id =
  Value.as_int (Table.get_exn (Database.table (Executor.db eng) "accounts") [ v_int id ]).(1)

let () =
  let eng = Executor.create ~sem:(Interference.semantics interference) (make_db ()) in
  let outcomes = ref [] in
  Schedule.run ~policy:Runtime.victim_policy eng
    [
      (fun () ->
        outcomes := ("1->2", Runtime.run eng (settle ~from_acct:1 ~to_acct:2 ~amount:30)) :: !outcomes);
      (fun () ->
        outcomes := ("2->3", Runtime.run eng (settle ~from_acct:2 ~to_acct:3 ~amount:50)) :: !outcomes);
      (fun () ->
        (* this one is forced to fail after its debit step: the ACC answers
           with the compensating step *)
        outcomes :=
          ("3->1 (aborted)", Runtime.run ~abort_at:1 eng (settle ~from_acct:3 ~to_acct:1 ~amount:10))
          :: !outcomes);
    ];
  List.iter
    (fun (name, outcome) ->
      Format.printf "settle %-16s %s@." name
        (match outcome with
        | Runtime.Committed -> "committed"
        | Runtime.Compensated { completed_steps } ->
            Printf.sprintf "compensated after %d step(s)" completed_steps))
    (List.rev !outcomes);
  Format.printf "balances: 1=%d 2=%d 3=%d (total %d, expected 300)@." (balance eng 1)
    (balance eng 2) (balance eng 3)
    (balance eng 1 + balance eng 2 + balance eng 3);
  assert (balance eng 1 + balance eng 2 + balance eng 3 = 300);
  Format.printf "@.The design-time analysis behind the scheduling decisions:@.%a@."
    Interference.pp interference
