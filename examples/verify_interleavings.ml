(* Exhaustive verification of a decomposition.

   The paper establishes semantic correctness by proof outline; this tool
   complements the proof by brute force: for a concrete workload instance it
   executes EVERY schedule the cooperative scheduler can produce and checks
   the consistency constraint after each one.  It also shows the explorer
   catching a deliberately broken decomposition — one whose compensating
   step forgets to return stock.

   Run with:  dune exec examples/verify_interleavings.exe *)

module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Executor = Acc_txn.Executor
module Explore = Acc_txn.Explore
module Txn_effect = Acc_txn.Txn_effect
module Program = Acc_core.Program
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime

let v_int n = Value.Int n

let stock_schema =
  Schema.make ~name:"stock" ~key:[ "item" ]
    [ Schema.col "item" Value.Tint; Schema.col "level" Value.Tint ]

let initial_level = 10

let make_db () =
  let db = Database.create () in
  let t = Database.create_table db stock_schema in
  ignore (Table.insert t [| v_int 1; v_int initial_level |]);
  ignore (Table.insert t [| v_int 2; v_int initial_level |]);
  db

(* a two-step "reserve two items" transaction *)
let s1 =
  Program.step ~id:1 ~name:"take-first" ~txn_type:"reserve" ~index:1 ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "level" ]) ] ()

let s2 =
  Program.step ~id:2 ~name:"take-second" ~txn_type:"reserve" ~index:2 ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "level" ]) ] ()

let comp =
  Program.step ~id:3 ~name:"return" ~txn_type:"reserve" ~index:0 ~reads:[]
    ~writes:[ Footprint.make "stock" (Footprint.Columns [ "level" ]) ] ()

let reserve_type = Program.txn_type ~name:"reserve" ~steps:[ s1; s2 ] ~comp ~assertions:[] ()
let interference = Interference.build (Program.workload [ reserve_type ])

let take ctx item =
  ignore
    (Executor.update ctx "stock" [ v_int item ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) - 1);
         row))

let give_back ctx item =
  ignore
    (Executor.update ctx "stock" [ v_int item ] (fun row ->
         row.(1) <- v_int (Value.as_int row.(1) + 1);
         row))

let reserve ~first ~second ~comp_returns_stock =
  Program.instance ~def:reserve_type
    ~steps:
      [
        (s1, fun ctx -> take ctx first);
        ( s2,
          fun ctx ->
            Txn_effect.yield ();
            take ctx second );
      ]
    ~compensate:(fun ctx ~completed ->
      if comp_returns_stock && completed >= 1 then give_back ctx first)
    ()

(* the invariant: total stock + successful reservations is conserved *)
let check committed eng =
  let db = Executor.db eng in
  let level item = Value.as_int (Table.get_exn (Database.table db "stock") [ v_int item ]).(1) in
  let total = level 1 + level 2 in
  let expected = (2 * initial_level) - (2 * !committed) in
  if total = expected then Ok ()
  else Error (Printf.sprintf "stock leak: total %d, expected %d" total expected)

let verify ~comp_returns_stock =
  let committed = ref 0 in
  let make () =
    committed := 0;
    let eng = Executor.create ~sem:(Interference.semantics interference) (make_db ()) in
    let fiber ~abort () =
      let inst = reserve ~first:1 ~second:2 ~comp_returns_stock in
      match Runtime.run ?abort_at:(if abort then Some 1 else None) eng inst with
      | Runtime.Committed -> incr committed
      | Runtime.Compensated _ -> ()
    in
    (eng, [ fiber ~abort:false; fiber ~abort:true ])
  in
  Explore.explore ~max_schedules:50_000 ~make ~check:(fun eng -> check committed eng) ()

let () =
  let good = verify ~comp_returns_stock:true in
  Format.printf "correct decomposition:  %d schedules explored, %s@." good.Explore.schedules
    (match good.Explore.failure with
    | None -> "all consistent"
    | Some (msg, _) -> "FAILED: " ^ msg);
  assert (good.Explore.exhausted && good.Explore.failure = None);

  let bad = verify ~comp_returns_stock:false in
  (match bad.Explore.failure with
  | Some (msg, trace) ->
      Format.printf
        "broken compensation:    caught after %d schedules (%s)@.  reproducing trace: [%s]@."
        bad.Explore.schedules msg
        (String.concat "; " (List.map string_of_int trace))
  | None -> assert false);
  Format.printf
    "@.The explorer executes every schedule; a compensation bug cannot hide in an unlucky \
     interleaving.@."
