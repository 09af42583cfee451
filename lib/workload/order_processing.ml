(* The order-processing scenario of §4 of the paper, promoted from
   examples/order_processing.ml to a first-class workload.  [op_order]
   draws an order number from a single global counter (the admission-gate
   hotspot), inserts the header, then fills one line per item; its loop
   invariant I1 — "my order's line count matches my progress" — is
   protected by assertional locks over the instance's own fresh rows.
   [op_bill] is a single analyzed step whose precondition IS that
   conjunct: its admission assertional lock parks it while the same
   order's op_order is in flight, and only then — bills of other orders
   pass straight through.  Both assertions carry executable checkers
   ([ai_check]), which [Runtime.options.verify_assertions] evaluates at
   each step boundary of their window.  The example binary, the [acc.*]
   and explorer tests run this module's schema, steps and instances. *)

module W = Workload_intf
module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Rid = Acc_lock.Resource_id
module Prng = Acc_util.Prng

let v_int n = Value.Int n
let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let items_of_scale scale = 20 * max 1 scale
let init_stock = 100_000

let make_db stock_levels =
  let db = Database.create () in
  let counter =
    Database.create_table db
      (Schema.make ~name:"counter" ~key:[ "id" ]
         [ Schema.col "id" Value.Tint; Schema.col "next" Value.Tint ])
  in
  ignore (Table.insert counter [| v_int 0; v_int 1 |]);
  let _orders =
    Database.create_table db
      (Schema.make ~name:"orders" ~key:[ "order_id" ]
         [
           Schema.col "order_id" Value.Tint;
           Schema.col "num_items" Value.Tint;
           Schema.col "total" Value.Tint;
         ])
  in
  let orderlines =
    Database.create_table db
      (Schema.make ~name:"orderlines" ~key:[ "order_id"; "item_id" ]
         [
           Schema.col "order_id" Value.Tint;
           Schema.col "item_id" Value.Tint;
           Schema.col "ordered" Value.Tint;
           Schema.col "filled" Value.Tint;
         ])
  in
  Table.add_index orderlines ~name:"by_order" [ "order_id" ];
  let stock =
    Database.create_table db
      (Schema.make ~name:"stock" ~key:[ "item_id" ]
         [ Schema.col "item_id" Value.Tint; Schema.col "s_level" Value.Tint ])
  in
  let prices =
    Database.create_table db
      (Schema.make ~name:"prices" ~key:[ "item_id" ]
         [ Schema.col "item_id" Value.Tint; Schema.col "price" Value.Tint ])
  in
  List.iter
    (fun (item, level, price) ->
      ignore (Table.insert stock [| v_int item; v_int level |]);
      ignore (Table.insert prices [| v_int item; v_int price |]))
    stock_levels;
  db

let populate ~items ~seed =
  let g = Prng.create ~seed in
  make_db (List.init items (fun i -> (i + 1, init_stock, 5 + Prng.int g 50)))

(* how many lines order [o] has: one side of I1 *)
let lines_of db o =
  Table.scan_count ~where:(Predicate.Eq ("order_id", v_int o)) (Database.table db "orderlines")

(* ------------------------------------------------------------------ *)
(* Compensation (area-driven: the in-memory path and replay share it) *)

let cancel_order ctx ~completed =
  let order = as_int (Executor.area_field ctx "order_id") in
  if completed >= 1 && order >= 0 then begin
    (* the lines are this instance's own fresh rows: hunt them through the
       by_order index and return their stock *)
    let lines =
      Executor.scan ctx "orderlines" ~where:(Predicate.Eq ("order_id", v_int order)) ()
    in
    List.iter
      (fun row ->
        let item = as_int row.(1) and filled = as_int row.(3) in
        let level = as_int (Executor.read_exn ctx "stock" [ v_int item ]).(1) in
        Executor.set_column ctx "stock" [ v_int item ] "s_level" (v_int (level + filled));
        Executor.delete ctx "orderlines" [ v_int order; v_int item ])
      lines;
    if Executor.read ctx "orders" [ v_int order ] <> None then
      Executor.delete ctx "orders" [ v_int order ]
  end

(* ------------------------------------------------------------------ *)
(* Static decomposition (the §4 step/assertion ids of the example) *)

let fresh = Footprint.Fresh

let step_header =
  Program.step ~id:10 ~name:"header" ~txn_type:"op_order" ~index:1
    ~reads:[ Footprint.make "counter" (Footprint.Columns [ "next" ]) ]
    ~writes:
      [
        Footprint.make "counter" (Footprint.Columns [ "next" ]);
        Footprint.make ~fresh "orders" Footprint.All_columns;
      ]
    ()

let step_line =
  Program.step ~id:11 ~name:"line" ~txn_type:"op_order" ~index:2 ~repeats:true
    ~reads:[ Footprint.make "stock" (Footprint.Columns [ "s_level" ]) ]
    ~writes:
      [
        Footprint.make "stock" (Footprint.Columns [ "s_level" ]);
        Footprint.make ~fresh "orderlines" Footprint.All_columns;
      ]
    ()

let step_cancel =
  Program.step ~id:12 ~name:"cancel" ~txn_type:"op_order" ~index:0
    ~reads:[ Footprint.make ~fresh "orderlines" Footprint.All_columns ]
    ~writes:
      [
        Footprint.make "stock" (Footprint.Columns [ "s_level" ]);
        Footprint.make ~fresh "orders" Footprint.All_columns;
        Footprint.make ~fresh "orderlines" Footprint.All_columns;
      ]
    ()

(* I1 restricted to this instance's own order *)
let a_loop_inv =
  Assertion.make ~id:100 ~name:"I1_mine" ~txn_type:"op_order" ~pre_of:2
    ~until:Assertion.until_commit
    ~refs:
      [
        Footprint.make ~fresh "orders" (Footprint.Columns [ "num_items" ]);
        Footprint.make ~fresh "orderlines" Footprint.All_columns;
      ]

let step_bill =
  Program.step ~id:13 ~name:"total" ~txn_type:"op_bill" ~index:1
    ~reads:
      [
        Footprint.make "orders" Footprint.All_columns;
        Footprint.make "orderlines" Footprint.All_columns;
        Footprint.make "prices" (Footprint.Columns [ "price" ]);
      ]
    ~writes:[ Footprint.make "orders" (Footprint.Columns [ "total" ]) ]
    ()

(* bill's precondition: I1 for the order it bills (Shared: may be anyone's) *)
let a_bill_i1 =
  Assertion.make ~id:101 ~name:"I1_billed" ~txn_type:"op_bill" ~pre_of:1 ~until:1
    ~refs:
      [
        Footprint.make "orders" (Footprint.Columns [ "num_items" ]);
        Footprint.make "orderlines" Footprint.All_columns;
      ]

let new_order_type =
  Program.txn_type ~name:"op_order" ~steps:[ step_header; step_line ] ~comp:step_cancel
    ~compensate:cancel_order ~assertions:[ a_loop_inv ] ()

let bill_type = Program.txn_type ~name:"op_bill" ~steps:[ step_bill ] ~assertions:[ a_bill_i1 ] ()
let workload = Program.workload [ new_order_type; bill_type ]
let interference = Interference.build workload
let semantics = Interference.semantics interference

(* ------------------------------------------------------------------ *)
(* Run-time instances (shared with the example binary) *)

let new_order ?(pace = fun () -> Txn_effect.yield ()) ?(fail = false) ~items () =
  let order_id = ref (-1) in
  (* idempotent under step retry: assigned from the line's position *)
  let lines_done = ref 0 in
  let n_items = List.length items in
  let header ctx =
    let row =
      Executor.update ctx "counter" [ v_int 0 ] (fun row ->
          row.(1) <- v_int (as_int row.(1) + 1);
          row)
    in
    order_id := as_int row.(1) - 1;
    Executor.insert ctx "orders" [| v_int !order_id; v_int n_items; v_int (-1) |]
  in
  let line idx (item, qty) ctx =
    pace ();
    (* a visible interleaving point between order lines *)
    if fail && idx = n_items - 1 then raise Txn_effect.Abort_requested;
    let level = as_int (Executor.read_exn ctx "stock" [ v_int item ]).(1) in
    let filled = min qty level in
    Executor.set_column ctx "stock" [ v_int item ] "s_level" (v_int (level - filled));
    Executor.insert ctx "orderlines" [| v_int !order_id; v_int item; v_int qty; v_int filled |];
    lines_done := idx + 1
  in
  (* I1_mine: my header is in place and my order has exactly the lines
     filled so far *)
  let loop_inv_check db =
    !order_id >= 0
    &&
    match Table.get (Database.table db "orders") [ v_int !order_id ] with
    | None -> false
    | Some row -> as_int row.(1) = n_items && lines_of db !order_id = !lines_done
  in
  let inst =
    Program.instance ~def:new_order_type
      ~steps:
        ((step_header, header) :: List.mapi (fun idx it -> (step_line, line idx it)) items)
      ~assertions:
        [
          {
            Program.ai_assertion = a_loop_inv;
            ai_from = 2;
            ai_until = 1 + n_items;
            ai_check = Some loop_inv_check;
          };
        ]
      ~comp_area:(fun () -> [ ("order_id", v_int !order_id) ])
      ()
  in
  (inst, order_id)

let bill_body ?(total = ref (-1)) ~order ctx =
  match Executor.read ctx "orders" [ v_int order ] with
  | None -> () (* cancelled or never placed: billing is a no-op *)
  | Some header ->
      let n = as_int header.(1) in
      let lines =
        Executor.scan ctx "orderlines" ~where:(Predicate.Eq ("order_id", v_int order)) ()
      in
      if List.length lines <> n then
        failwith
          (Printf.sprintf "op_bill: order %d has %d lines, header says %d (I1 broken)" order
             (List.length lines) n);
      total :=
        List.fold_left
          (fun acc row ->
            acc
            + as_int row.(3) * as_int (Executor.read_exn ctx "prices" [ v_int (as_int row.(1)) ]).(1))
          0 lines;
      Executor.set_column ctx "orders" [ v_int order ] "total" (v_int !total)

let bill ~order =
  let total = ref (-1) in
  (* I1_billed: the billed order, if placed, has all its lines *)
  let i1_check db =
    match Table.get (Database.table db "orders") [ v_int order ] with
    | None -> true (* vacuous: an assertion about a missing order *)
    | Some row -> as_int row.(1) = lines_of db order
  in
  let admission =
    { Program.ai_assertion = a_bill_i1; ai_from = 1; ai_until = 1; ai_check = Some i1_check }
  in
  let inst =
    Program.instance ~def:bill_type
      ~steps:[ (step_bill, fun ctx -> bill_body ~total ~order ctx) ]
      ~assertions:[ admission ]
      ~admission:[ (admission, [ Rid.Tuple ("orders", [ v_int order ]) ]) ]
      ()
  in
  (inst, total)

(* ------------------------------------------------------------------ *)
(* Benchmark surface *)

type input =
  | Place of { items : (int * int) list; fail : bool }
  | Bill of { order : int }

let txn_name = function Place _ -> "op_order" | Bill _ -> "op_bill"
let forced_abort = function Place { fail; _ } -> fail | Bill _ -> false

(* generation-time estimate of how many orders exist, so bills target
   plausible ids; bills of not-yet-placed or cancelled orders are no-ops *)
let placed_hint = Atomic.make 0

type env = {
  gen : Prng.t;
  n_items : int;
  zipf : Prng.zipf option;
  abort_rate : float;
  pace : unit -> unit;
}

let make_env ?(pace = fun () -> ()) ~items ~skew ~abort_rate ~mix ~seed () =
  (match mix with
  | None | Some "standard" -> ()
  | Some m -> failwith (Printf.sprintf "order-processing: unknown mix %S" m));
  {
    gen = Prng.create ~seed;
    n_items = items;
    zipf = (if skew > 0. then Some (Prng.zipf ~n:items ~theta:skew) else None);
    abort_rate;
    pace;
  }

let split_env env = { env with gen = Prng.split env.gen }

let pick_item env =
  match env.zipf with
  | Some z -> 1 + Prng.zipf_draw env.gen z
  | None -> 1 + Prng.int env.gen env.n_items

let gen_input env =
  let g = env.gen in
  let placed = Atomic.get placed_hint in
  if placed > 0 && Prng.int g 100 < 20 then Bill { order = 1 + Prng.int g placed }
  else begin
    let k = 1 + Prng.int g 3 in
    let rec draw acc n =
      if n = 0 then acc
      else
        let item = pick_item env in
        if List.mem_assoc item acc then draw acc n
        else draw ((item, 1 + Prng.int g 5) :: acc) (n - 1)
    in
    Atomic.incr placed_hint;
    Place { items = draw [] k; fail = Prng.chance g env.abort_rate }
  end

let reset_global () = Atomic.set placed_hint 0

let instance env input =
  match input with
  | Place { items; fail } -> fst (new_order ~pace:env.pace ~fail ~items ())
  | Bill { order } -> fst (bill ~order)

let run_acc ?options ?stop eng env input = Runtime.run ?options ?stop eng (instance env input)

let run_flat ?stop eng env input =
  Runtime.run_flat ?stop eng ~txn_type:(txn_name input) (fun () -> instance env input)

(* ------------------------------------------------------------------ *)
(* Invariants *)

(* The constraint I at quiescence, over a database whose item [i] was
   stocked with [initial_level i] units. *)
let check_consistency ~initial_level db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let orders = Database.table db "orders" in
  let orderlines = Database.table db "orderlines" in
  let stock = Database.table db "stock" in
  let price item = as_int (Table.get_exn (Database.table db "prices") [ v_int item ]).(1) in
  (* I1 globally: every order's line count matches its header, and a billed
     total is what its lines cost *)
  Table.iter
    (fun _ row ->
      let o = as_int row.(0) and n = as_int row.(1) and total = as_int row.(2) in
      let lines = Table.scan ~where:(Predicate.Eq ("order_id", v_int o)) orderlines in
      let actual = List.length lines in
      if n <> actual then add "order_processing: order %d has %d lines, header says %d" o actual n;
      let cost = List.fold_left (fun acc l -> acc + (as_int l.(3) * price (as_int l.(1)))) 0 lines in
      if total >= 0 && total <> cost then
        add "order_processing: order %d billed %d, its lines cost %d" o total cost)
    orders;
  (* every line belongs to an order and fills at most what it ordered *)
  let filled = Hashtbl.create 64 in
  Table.iter
    (fun _ row ->
      let o = as_int row.(0) and item = as_int row.(1) in
      if not (Table.mem orders [ v_int o ]) then
        add "order_processing: line for item %d of missing order %d" item o;
      if as_int row.(3) > as_int row.(2) then
        add "order_processing: order %d item %d filled %d > ordered %d" o item (as_int row.(3))
          (as_int row.(2));
      Hashtbl.replace filled item
        (as_int row.(3) + Option.value ~default:0 (Hashtbl.find_opt filled item)))
    orderlines;
  (* stock conservation per item: every unit missing from stock is filled
     on a line *)
  Table.iter
    (fun _ row ->
      let item = as_int row.(0) and level = as_int row.(1) in
      let on_lines = Option.value ~default:0 (Hashtbl.find_opt filled item) in
      if level < 0 then add "order_processing: item %d oversold (%d)" item level;
      if level + on_lines <> initial_level item then
        add "order_processing: item %d stock %d + filled %d != initial %d" item level on_lines
          (initial_level item))
    stock;
  List.rev !violations

let consistency = check_consistency ~initial_level:(fun _ -> init_stock)

(* ------------------------------------------------------------------ *)

let make (spec : W.spec) : W.t =
  let items = items_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  let skew = spec.W.skew in
  let mix = spec.W.mix in
  (module struct
    let name = "order-processing"

    type nonrec input = input
    type nonrec env = env

    let populate ~seed = populate ~items ~seed
    let make_env ?pace ~seed () = make_env ?pace ~items ~skew ~abort_rate ~mix ~seed ()
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
