(* A compact order-processing workload modeled directly on the paper's §4
   example: new_order (decomposed: header step + one step per order line,
   with a compensating step) and bill (single analyzed step with an
   admission assertion standing for the I1 conjunct).  Shared by the
   acc_core tests, the integration tests and the properties. *)

open Acc_core
module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Schema = Acc_relation.Schema
module Value = Acc_relation.Value
module Predicate = Acc_relation.Predicate
module Executor = Acc_txn.Executor
module Resource_id = Acc_lock.Resource_id

let v_int n = Value.Int n

(* --- schema & population ------------------------------------------------ *)

let counter_schema =
  Schema.make ~name:"counter" ~key:[ "id" ]
    [ Schema.col "id" Value.Tint; Schema.col "next" Value.Tint ]

let orders_schema =
  Schema.make ~name:"orders" ~key:[ "order_id" ]
    [
      Schema.col "order_id" Value.Tint;
      Schema.col "num_items" Value.Tint;
      Schema.col "total" Value.Tint (* -1 until billed *);
    ]

let orderlines_schema =
  Schema.make ~name:"orderlines" ~key:[ "order_id"; "item_id" ]
    [
      Schema.col "order_id" Value.Tint;
      Schema.col "item_id" Value.Tint;
      Schema.col "ordered" Value.Tint;
      Schema.col "filled" Value.Tint;
    ]

let stock_schema =
  Schema.make ~name:"stock" ~key:[ "item_id" ]
    [ Schema.col "item_id" Value.Tint; Schema.col "s_level" Value.Tint ]

let prices_schema =
  Schema.make ~name:"prices" ~key:[ "item_id" ]
    [ Schema.col "item_id" Value.Tint; Schema.col "price" Value.Tint ]

(* [stock_levels] : (item_id, initial level, unit price) *)
let make_db stock_levels =
  let db = Database.create () in
  let counter = Database.create_table db counter_schema in
  ignore (Table.insert counter [| v_int 0; v_int 1 |]);
  let _orders = Database.create_table db orders_schema in
  let orderlines = Database.create_table db orderlines_schema in
  Table.add_index orderlines ~name:"by_order" [ "order_id" ];
  let stock = Database.create_table db stock_schema in
  let prices = Database.create_table db prices_schema in
  List.iter
    (fun (item, level, price) ->
      ignore (Table.insert stock [| v_int item; v_int level |]);
      ignore (Table.insert prices [| v_int item; v_int price |]))
    stock_levels;
  db

(* --- static workload ------------------------------------------------------ *)

let step_header =
  Program.step ~id:10 ~name:"header" ~txn_type:"new_order" ~index:1
    ~reads:[ Footprint.make "counter" (Footprint.Columns [ "next" ]) ]
    ~writes:
      [
        Footprint.make "counter" (Footprint.Columns [ "next" ]);
        Footprint.make ~fresh:Footprint.Fresh "orders" Footprint.All_columns;
      ]
    ()

let step_line =
  Program.step ~id:11 ~name:"line" ~txn_type:"new_order" ~index:2 ~repeats:true
    ~reads:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ~writes:
      [
        Footprint.make "stock" (Footprint.Columns [ "s_level" ]);
        Footprint.make ~fresh:Footprint.Fresh "orderlines" Footprint.All_columns;
      ]
    ()

let step_no_comp =
  Program.step ~id:12 ~name:"undo_order" ~txn_type:"new_order" ~index:0
    ~reads:
      [
        Footprint.make ~fresh:Footprint.Fresh "orders" Footprint.All_columns;
        Footprint.make ~fresh:Footprint.Fresh "orderlines" Footprint.All_columns;
      ]
    ~writes:
      [
        Footprint.make "stock" (Footprint.Columns [ "s_level" ]);
        Footprint.make ~fresh:Footprint.Fresh "orders" Footprint.All_columns;
        Footprint.make ~fresh:Footprint.Fresh "orderlines" Footprint.All_columns;
      ]
    ()

(* I1 restricted to the instance's own (fresh) order: the loop invariant of
   the §4 analysis, pre(S_2), held until commit *)
let assert_loop_inv =
  Assertion.make ~id:100 ~name:"no_loop_inv" ~txn_type:"new_order" ~pre_of:2
    ~until:Assertion.until_commit
    ~refs:
      [
        Footprint.make ~fresh:Footprint.Fresh "orders" (Footprint.Columns [ "num_items" ]);
        Footprint.make ~fresh:Footprint.Fresh "orderlines" Footprint.All_columns;
      ]

let step_bill =
  Program.step ~id:13 ~name:"total" ~txn_type:"bill" ~index:1
    ~reads:
      [
        Footprint.make "orders" Footprint.All_columns;
        Footprint.make "orderlines" Footprint.All_columns;
        Footprint.make "prices" (Footprint.Columns [ "price" ]);
      ]
    ~writes:[ Footprint.make "orders" (Footprint.Columns [ "total" ]) ]
    ()

(* bill's precondition: I1 for the billed order (a Shared reference: the
   order id is supplied from outside and may be anyone's fresh order) *)
let assert_bill_i1 =
  Assertion.make ~id:101 ~name:"bill_I1" ~txn_type:"bill" ~pre_of:1 ~until:1
    ~refs:
      [
        Footprint.make "orders" (Footprint.Columns [ "num_items" ]);
        Footprint.make "orderlines" Footprint.All_columns;
      ]

(* a two-step read-only audit used by the read-isolation tests: reads the
   same stock item in both steps *)
let step_audit_1 =
  Program.step ~id:14 ~name:"audit1" ~txn_type:"audit" ~index:1
    ~reads:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ~writes:[] ()

let step_audit_2 =
  Program.step ~id:15 ~name:"audit2" ~txn_type:"audit" ~index:2
    ~reads:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ~writes:[] ()

let step_audit_comp =
  Program.step ~id:16 ~name:"audit_undo" ~txn_type:"audit" ~index:0 ~reads:[] ~writes:[] ()

let audit_type =
  Program.txn_type ~name:"audit" ~steps:[ step_audit_1; step_audit_2 ] ~comp:step_audit_comp
    ~assertions:[] ()

let new_order_type =
  Program.txn_type ~name:"new_order" ~steps:[ step_header; step_line ] ~comp:step_no_comp
    ~assertions:[ assert_loop_inv ] ()

let bill_type = Program.txn_type ~name:"bill" ~steps:[ step_bill ] ~assertions:[ assert_bill_i1 ] ()

let workload = Program.workload [ new_order_type; bill_type; audit_type ]

let interference = Interference.build workload

let make_engine ?cost stock_levels =
  Executor.create ?cost ~sem:(Interference.semantics interference) (make_db stock_levels)

(* --- run-time instances ---------------------------------------------------- *)

(* Result record a new_order instance reports into. *)
type new_order_result = {
  mutable r_order_id : int;  (* -1 until the header step ran *)
  mutable r_filled : (int * int) list;  (* item, filled *)
}

(* [items] : (item_id, qty) list *)
let new_order_instance ~items =
  let result = { r_order_id = -1; r_filled = [] } in
  let lines_done = ref 0 in
  let header ctx =
    (* single update (no S-then-X upgrade on the hot counter tuple) *)
    let row =
      Executor.update ctx "counter" [ v_int 0 ] (fun row ->
          row.(1) <- v_int (Value.as_int row.(1) + 1);
          row)
    in
    let o = Value.as_int row.(1) - 1 in
    result.r_order_id <- o;
    lines_done := 0;
    result.r_filled <- [];
    Executor.insert ctx "orders" [| v_int o; v_int (List.length items); v_int (-1) |]
  in
  let line idx (item, qty) ctx =
    (* idempotent under step retry: progress is assigned from the step's
       position, never accumulated *)
    let o = result.r_order_id in
    let srow = Executor.read_exn ctx "stock" [ v_int item ] in
    let level = Value.as_int srow.(1) in
    let filled = min qty level in
    Executor.set_column ctx "stock" [ v_int item ] "s_level" (v_int (level - filled));
    Executor.insert ctx "orderlines" [| v_int o; v_int item; v_int qty; v_int filled |];
    lines_done := idx + 1;
    result.r_filled <- (item, filled) :: List.remove_assoc item result.r_filled
  in
  let compensate ctx ~completed =
    (* semantic undo: return filled stock, remove the lines and the header;
       point-keyed access only (a compensating step touches nothing beyond
       its own items, §3.4); the consumed order number is not restored *)
    if completed >= 1 then begin
      let o = result.r_order_id in
      let committed = min (List.length items) (max 0 (completed - 1)) in
      List.iteri
        (fun idx (item, _) ->
          if idx < committed then begin
            let row = Executor.read_exn ctx "orderlines" [ v_int o; v_int item ] in
            let filled = Value.as_int row.(3) in
            let srow = Executor.read_exn ctx "stock" [ v_int item ] in
            Executor.set_column ctx "stock" [ v_int item ] "s_level"
              (v_int (Value.as_int srow.(1) + filled));
            Executor.delete ctx "orderlines" [ v_int o; v_int item ]
          end)
        items;
      Executor.delete ctx "orders" [ v_int o ]
    end
  in
  let n = 1 + List.length items in
  let loop_inv_check db =
    result.r_order_id >= 0
    &&
    let orders = Database.table db "orders" in
    match Table.get orders [ v_int result.r_order_id ] with
    | None -> false
    | Some row ->
        Value.as_int row.(1) = List.length items
        && Table.scan_count
             ~where:(Predicate.Eq ("order_id", v_int result.r_order_id))
             (Database.table db "orderlines")
           = !lines_done
  in
  let assertions =
    [
      {
        Program.ai_assertion = assert_loop_inv;
        ai_from = 2;
        ai_until = n;
        ai_check = Some loop_inv_check;
      };
    ]
  in
  let comp_area () =
    [ ("order_id", v_int result.r_order_id); ("lines_done", v_int !lines_done) ]
  in
  let inst =
    Program.instance ~def:new_order_type
      ~steps:
        ((step_header, header) :: List.mapi (fun idx it -> (step_line, line idx it)) items)
      ~assertions ~compensate ~comp_area ()
  in
  (inst, result)

type bill_result = { mutable b_total : int }

let bill_instance ~order =
  let result = { b_total = -1 } in
  let body ctx =
    let orow = Executor.read_exn ctx "orders" [ v_int order ] in
    ignore (Value.as_int orow.(1));
    let lines = Executor.scan ctx "orderlines" ~where:(Predicate.Eq ("order_id", v_int order)) () in
    let total =
      List.fold_left
        (fun acc row ->
          let item = Value.as_int row.(1) and filled = Value.as_int row.(3) in
          let price = Value.as_int (Executor.read_exn ctx "prices" [ v_int item ]).(1) in
          acc + (filled * price))
        0 lines
    in
    Executor.set_column ctx "orders" [ v_int order ] "total" (v_int total);
    result.b_total <- total
  in
  let i1_check db =
    let orders = Database.table db "orders" in
    match Table.get orders [ v_int order ] with
    | None -> true (* vacuous: assertion instance about a missing order *)
    | Some row ->
        Value.as_int row.(1)
        = Table.scan_count
            ~where:(Predicate.Eq ("order_id", v_int order))
            (Database.table db "orderlines")
  in
  let admission_assertion =
    { Program.ai_assertion = assert_bill_i1; ai_from = 1; ai_until = 1; ai_check = Some i1_check }
  in
  let inst =
    Program.instance ~def:bill_type
      ~steps:[ (step_bill, body) ]
      ~assertions:[ admission_assertion ]
      ~admission:[ (admission_assertion, [ Resource_id.Tuple ("orders", [ v_int order ]) ]) ]
      ()
  in
  (inst, result)

(* read the same stock item in two steps; report both observations *)
type audit_result = { mutable a_first : int; mutable a_second : int }

let audit_instance ?read_isolation ~item () =
  let result = { a_first = -1; a_second = -1 } in
  let read_level ctx =
    Value.as_int (Executor.read_exn ctx "stock" [ v_int item ]).(1)
  in
  let inst =
    Program.instance ~def:audit_type
      ~steps:
        [
          (step_audit_1, fun ctx -> result.a_first <- read_level ctx);
          (step_audit_2, fun ctx -> result.a_second <- read_level ctx);
        ]
      ~compensate:(fun _ctx ~completed:_ -> ())
      ?read_isolation ()
  in
  (inst, result)

(* --- whole-database consistency (the constraint I) ----------------------- *)

let check_consistency ~initial_stock db =
  let orders = Database.table db "orders" in
  let orderlines = Database.table db "orderlines" in
  let stock = Database.table db "stock" in
  let prices = Database.table db "prices" in
  let problems = ref [] in
  let complain fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* I1: num_items matches the orderline count, per order *)
  Table.iter
    (fun _ row ->
      let o = Value.as_int row.(0) and n = Value.as_int row.(1) in
      let lines = Table.scan_count ~where:(Predicate.Eq ("order_id", v_int o)) orderlines in
      if lines <> n then complain "order %d: num_items %d but %d orderlines" o n lines)
    orders;
  (* orderlines reference existing orders; filled <= ordered *)
  Table.iter
    (fun _ row ->
      let o = Value.as_int row.(0) in
      if not (Table.mem orders [ v_int o ]) then complain "orphan orderline for order %d" o;
      if Value.as_int row.(3) > Value.as_int row.(2) then
        complain "order %d item %d: filled > ordered" o (Value.as_int row.(1)))
    orderlines;
  (* stock conservation and non-negativity *)
  List.iter
    (fun (item, level0, _) ->
      let level = Value.as_int (Table.get_exn stock [ v_int item ]).(1) in
      if level < 0 then complain "item %d: negative stock %d" item level;
      let filled_total =
        Table.fold
          (fun _ row acc ->
            if Value.as_int row.(1) = item then acc + Value.as_int row.(3) else acc)
          orderlines 0
      in
      if level + filled_total <> level0 then
        complain "item %d: conservation broken (%d + %d <> %d)" item level filled_total level0)
    initial_stock;
  (* billed totals are correct *)
  Table.iter
    (fun _ row ->
      let o = Value.as_int row.(0) and total = Value.as_int row.(2) in
      if total >= 0 then begin
        let expect =
          Table.fold
            (fun _ l acc ->
              if Value.as_int l.(0) = o then
                acc
                + Value.as_int l.(3)
                  * Value.as_int (Table.get_exn prices [ v_int (Value.as_int l.(1)) ]).(1)
              else acc)
            orderlines 0
        in
        if total <> expect then complain "order %d: billed %d, expected %d" o total expect
      end)
    orders;
  List.rev !problems
