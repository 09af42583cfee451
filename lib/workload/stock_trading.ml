(* The stock-trading scenario, promoted from examples/stock_trading.ml:
   a buy works down the book of sell orders one lot-step at a time, taking
   the cheapest available lot in each step.  The point of the workload is
   that NO interstep assertion is needed — each lot-step's postcondition is
   local to the rows it touched, so concurrent buys interleave freely and
   the resulting histories are (by design) not conflict-serializable while
   still preserving share conservation.  Compensation returns bought shares
   to their lots; the promoted ledger carries the source lot explicitly so
   undo is exact (the example's price-to-lot guess is gone). *)

module W = Workload_intf
module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Program = Acc_core.Program
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Prng = Acc_util.Prng

let v_int n = Value.Int n
let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let lots_of_scale scale = 5 * max 1 scale
let init_shares = 100_000

let make_db lots =
  let db = Database.create () in
  let sell =
    Database.create_table db
      (Schema.make ~name:"sell_orders" ~key:[ "lot_id" ]
         [
           Schema.col "lot_id" Value.Tint;
           Schema.col "price" Value.Tint;
           Schema.col "shares" Value.Tint;
         ])
  in
  let _ledger =
    Database.create_table db
      (Schema.make ~name:"ledger" ~key:[ "buyer"; "entry" ]
         [
           Schema.col "buyer" Value.Tint;
           Schema.col "entry" Value.Tint;
           Schema.col "lot" Value.Tint;
           Schema.col "price" Value.Tint;
           Schema.col "shares" Value.Tint;
         ])
  in
  List.iter
    (fun (lot, price, shares) ->
      ignore (Table.insert sell [| v_int lot; v_int price; v_int shares |]))
    lots;
  db

let populate ~lots ~seed =
  let g = Prng.create ~seed in
  make_db (List.init lots (fun i -> (i + 1, 20 + Prng.int g 30, init_shares)))

(* ------------------------------------------------------------------ *)
(* Compensation: walk my ledger entries back into their lots *)

let return_shares ctx ~completed =
  if completed >= 1 then begin
    let buyer = as_int (Executor.area_field ctx "buyer") in
    let mine = Executor.scan ctx "ledger" ~where:(Predicate.Eq ("buyer", v_int buyer)) () in
    List.iter
      (fun row ->
        let entry = as_int row.(1) and lot = as_int row.(2) and shares = as_int row.(4) in
        let avail = as_int (Executor.read_exn ctx "sell_orders" [ v_int lot ]).(2) in
        Executor.set_column ctx "sell_orders" [ v_int lot ] "shares" (v_int (avail + shares));
        Executor.delete ctx "ledger" [ v_int buyer; v_int entry ])
      mine
  end

(* ------------------------------------------------------------------ *)
(* Static decomposition: one repeating lot-step, no assertions *)

let step_lot =
  Program.step ~id:1 ~name:"buy-lot" ~txn_type:"st_buy" ~index:1 ~repeats:true
    ~reads:
      [
        Acc_core.Footprint.make "sell_orders"
          (Acc_core.Footprint.Columns [ "price"; "shares" ]);
      ]
    ~writes:
      [
        Acc_core.Footprint.make "sell_orders" (Acc_core.Footprint.Columns [ "shares" ]);
        Acc_core.Footprint.make ~fresh:Acc_core.Footprint.Fresh "ledger"
          Acc_core.Footprint.All_columns;
      ]
    ()

let step_return =
  Program.step ~id:2 ~name:"return-shares" ~txn_type:"st_buy" ~index:0
    ~reads:[ Acc_core.Footprint.make ~fresh:Acc_core.Footprint.Fresh "ledger" Acc_core.Footprint.All_columns ]
    ~writes:
      [
        Acc_core.Footprint.make "sell_orders" (Acc_core.Footprint.Columns [ "shares" ]);
        Acc_core.Footprint.make ~fresh:Acc_core.Footprint.Fresh "ledger"
          Acc_core.Footprint.All_columns;
      ]
    ()

let buy_type =
  Program.txn_type ~name:"st_buy" ~steps:[ step_lot ] ~comp:step_return
    ~compensate:return_shares ~assertions:[] ()
let workload = Program.workload [ buy_type ]
let interference = Interference.build workload
let semantics = Interference.semantics interference

(* ------------------------------------------------------------------ *)
(* Run-time instance *)

let cheapest_lot ctx =
  let lots = Executor.scan ctx "sell_orders" () in
  let avail = List.filter (fun row -> as_int row.(2) > 0) lots in
  match
    List.sort
      (fun a b ->
        match compare (as_int a.(1)) (as_int b.(1)) with
        | 0 -> compare (as_int a.(0)) (as_int b.(0))
        | c -> c)
      avail
  with
  | [] -> None
  | best :: _ -> Some (as_int best.(0))

(* [steps] bounds how many lots one buy may touch; a step past the point
   where [want] is satisfied is a no-op. *)
let buy ?(pace = fun () -> Txn_effect.yield ()) ?(fail = false) ~buyer ~want ~steps () =
  let remaining = ref want in
  let entry = ref 0 in
  let log = ref [] in
  let lot_step j ctx =
    pace ();
    if fail && j = steps then raise Txn_effect.Abort_requested;
    if !remaining > 0 then
      match cheapest_lot ctx with
      | None ->
          if j = steps then raise Txn_effect.Abort_requested (* market ran dry *)
      | Some lot ->
          let row = Executor.read_exn ctx "sell_orders" [ v_int lot ] in
          let price = as_int row.(1) and avail = as_int row.(2) in
          let take = min !remaining avail in
          if take > 0 then begin
            Executor.set_column ctx "sell_orders" [ v_int lot ] "shares" (v_int (avail - take));
            incr entry;
            Executor.insert ctx "ledger"
              [| v_int buyer; v_int !entry; v_int lot; v_int price; v_int take |];
            remaining := !remaining - take;
            log := (price, take) :: !log
          end
  in
  let inst =
    Program.instance ~def:buy_type
      ~steps:(List.init steps (fun i -> (step_lot, lot_step (i + 1))))
      ~comp_area:(fun () -> [ ("buyer", v_int buyer) ])
      ()
  in
  (inst, log)

(* ------------------------------------------------------------------ *)
(* Benchmark surface *)

type input =
  | Buy of { buyer : int; want : int; fail : bool }
  | Quote (* READ COMMITTED glance at the top of the book *)

let txn_name = function Buy _ -> "st_buy" | Quote -> "st_quote"
let forced_abort = function Buy { fail; _ } -> fail | Quote -> false

let buyer_seq = Atomic.make 1

type env = { gen : Prng.t; abort_rate : float; pace : unit -> unit }

let make_env ?(pace = fun () -> ()) ~abort_rate ~mix ~seed () =
  (match mix with
  | None | Some "standard" -> ()
  | Some m -> failwith (Printf.sprintf "stock-trading: unknown mix %S" m));
  { gen = Prng.create ~seed; abort_rate; pace }

let split_env env = { env with gen = Prng.split env.gen }

let gen_input env =
  let g = env.gen in
  if Prng.int g 100 < 80 then
    Buy
      {
        buyer = Atomic.fetch_and_add buyer_seq 1;
        want = 5 + Prng.int g 45;
        fail = Prng.chance g env.abort_rate;
      }
  else Quote

let reset_global () = Atomic.set buyer_seq 1

let quote_body ctx = ignore (cheapest_lot ctx)

let buy_instance env ~buyer ~want ~fail =
  fst (buy ~pace:env.pace ~fail ~buyer ~want ~steps:3 ())

let run_acc ?options ?stop eng env input =
  match input with
  | Buy { buyer; want; fail } ->
      Runtime.run ?options ?stop eng (buy_instance env ~buyer ~want ~fail)
  | Quote ->
      Runtime.run_single ?stop ~step_type:Program.legacy_step_id eng ~txn_type:"st_quote"
        quote_body

let run_flat ?stop eng env input =
  match input with
  | Buy { buyer; want; fail } ->
      Runtime.run_flat ?stop eng ~txn_type:"st_buy" (fun () -> buy_instance env ~buyer ~want ~fail)
  | Quote -> (
      match Runtime.run_single ?stop eng ~txn_type:"st_quote" quote_body with
      | Runtime.Committed -> `Committed
      | Runtime.Compensated _ -> `Aborted)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let consistency db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let sell = Database.table db "sell_orders" in
  let ledger = Database.table db "ledger" in
  let on_book = Table.fold (fun _ row acc -> acc + as_int row.(2)) sell 0 in
  let bought = Table.fold (fun _ row acc -> acc + as_int row.(4)) ledger 0 in
  let n_lots = Table.cardinality sell in
  if on_book + bought <> n_lots * init_shares then
    add "stock_trading: on-book %d + bought %d != initial %d" on_book bought
      (n_lots * init_shares);
  Table.iter
    (fun _ row ->
      if as_int row.(2) < 0 then
        add "stock_trading: lot %d oversold (%d)" (as_int row.(0)) (as_int row.(2)))
    sell;
  (* every ledger row names a real lot and paid that lot's price *)
  Table.iter
    (fun _ row ->
      let lot = as_int row.(2) in
      match Table.get sell [ v_int lot ] with
      | None -> add "stock_trading: ledger names unknown lot %d" lot
      | Some l ->
          if as_int l.(1) <> as_int row.(3) then
            add "stock_trading: buyer %d paid %d for lot %d priced %d" (as_int row.(0))
              (as_int row.(3)) lot (as_int l.(1)))
    ledger;
  List.rev !violations

(* ------------------------------------------------------------------ *)

let make (spec : W.spec) : W.t =
  let lots = lots_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  let mix = spec.W.mix in
  (module struct
    let name = "stock-trading"

    type nonrec input = input
    type nonrec env = env

    let populate ~seed = populate ~lots ~seed
    let make_env ?pace ~seed () = make_env ?pace ~abort_rate ~mix ~seed ()
    let split_env = split_env
    let reset_global = reset_global
    let gen_input = gen_input
    let txn_name = txn_name
    let forced_abort = forced_abort
    let workload = workload
    let interference = interference
    let semantics = semantics
    let run_flat = run_flat
    let run_acc = run_acc
    let consistency = consistency
    let extras () = []
    let partitioning = None
  end : W.S)
