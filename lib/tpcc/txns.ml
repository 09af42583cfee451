module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Value = Acc_relation.Value
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Prng = Acc_util.Prng
module Fault = Acc_fault.Fault
open Value

type env = {
  gen : Random_gen.t;
  params : Params.t;
  skewed_district : bool;
  min_items : int;
  max_items : int;
  new_order_abort_rate : float;
  remote_customer_rate : float;
  remote_item_rate : float;
  pace : unit -> unit;
}

let default_env ?(seed = 1) params =
  {
    gen = Random_gen.create ~seed params;
    params;
    skewed_district = false;
    min_items = 5;
    max_items = 15;
    new_order_abort_rate = 0.01;
    remote_customer_rate = 0.15;
    remote_item_rate = 0.01;
    pace = (fun () -> ());
  }

type new_order_input = {
  no_w : int;
  no_d : int;
  no_c : int;
  no_items : (int * int * int) list;
  no_fail_last : bool;
}

type customer_selector = By_id of int | By_last_name of string

type payment_input = {
  p_w : int;
  p_d : int;
  p_c_w : int;
  p_c_d : int;
  p_customer : customer_selector;
  p_amount : float;
}
type order_status_input = { os_w : int; os_d : int; os_customer : customer_selector }
type delivery_input = { dl_w : int; dl_carrier : int }
type stock_level_input = { sl_w : int; sl_d : int; sl_threshold : int }

type input =
  | New_order of new_order_input
  | Payment of payment_input
  | Order_status of order_status_input
  | Delivery of delivery_input
  | Stock_level of stock_level_input

let txn_name = function
  | New_order _ -> "new_order"
  | Payment _ -> "payment"
  | Order_status _ -> "order_status"
  | Delivery _ -> "delivery"
  | Stock_level _ -> "stock_level"

(* a warehouse other than [home], uniform over the rest *)
let gen_remote_warehouse env ~home =
  let g = Random_gen.prng env.gen in
  let w = 1 + Prng.int g (env.params.Params.warehouses - 1) in
  if w >= home then w + 1 else w

let gen_new_order env =
  let g = Random_gen.prng env.gen in
  let w = Random_gen.warehouse env.gen in
  let count = Random_gen.order_line_count env.gen ~min_items:env.min_items ~max_items:env.max_items in
  let items =
    List.map
      (fun i ->
        (* spec §2.4.1.5: ~1% of lines draw their stock from a remote
           warehouse (only meaningful with more than one warehouse) *)
        let supply =
          if env.params.Params.warehouses > 1 && Prng.chance g env.remote_item_rate
          then gen_remote_warehouse env ~home:w
          else w
        in
        (i, Random_gen.quantity env.gen, supply))
      (Random_gen.distinct_items env.gen ~count)
  in
  {
    no_w = w;
    no_d = Random_gen.district env.gen ~skewed:env.skewed_district;
    no_c = Random_gen.customer env.gen;
    no_items = items;
    no_fail_last = Prng.chance g env.new_order_abort_rate;
  }

(* the spec's 60/40 split between by-last-name and by-id selection *)
let gen_customer_selector env =
  let g = Random_gen.prng env.gen in
  let c = Random_gen.customer env.gen in
  if Prng.chance g 0.6 then
    By_last_name (Random_gen.last_name env.gen (if c <= 1000 then c - 1 else Prng.int g 1000))
  else By_id c

let gen_payment env =
  let g = Random_gen.prng env.gen in
  let w = Random_gen.warehouse env.gen in
  let d = Random_gen.district env.gen ~skewed:env.skewed_district in
  (* spec §2.5.1.2: 15% of payments are for a customer of a remote
     warehouse (only meaningful with more than one warehouse) *)
  let c_w, c_d =
    if env.params.Params.warehouses > 1 && Prng.chance g env.remote_customer_rate
    then
      (gen_remote_warehouse env ~home:w, Random_gen.district env.gen ~skewed:false)
    else (w, d)
  in
  {
    p_w = w;
    p_d = d;
    p_c_w = c_w;
    p_c_d = c_d;
    p_customer = gen_customer_selector env;
    p_amount = Random_gen.payment_amount env.gen;
  }

let gen_input env =
  let g = Random_gen.prng env.gen in
  let roll = Prng.int g 100 in
  if roll < 45 then New_order (gen_new_order env)
  else if roll < 88 then Payment (gen_payment env)
  else if roll < 92 then
    Order_status
      {
        os_w = Random_gen.warehouse env.gen;
        os_d = Random_gen.district env.gen ~skewed:env.skewed_district;
        os_customer = gen_customer_selector env;
      }
  else if roll < 96 then
    Delivery { dl_w = Random_gen.warehouse env.gen; dl_carrier = 1 + Prng.int g 10 }
  else
    Stock_level
      {
        sl_w = Random_gen.warehouse env.gen;
        sl_d = Random_gen.district env.gen ~skewed:env.skewed_district;
        sl_threshold = 10 + Prng.int g 11;
      }

(* ====================================================================== *)
(* Static decomposition: the eleven forward step types                    *)
(* ====================================================================== *)

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh

(* --- new_order: 4 forward steps + compensation --- *)

let no_reads =
  Program.step ~id:1 ~name:"reads+counter" ~txn_type:"new_order" ~index:1
    ~reads:
      [
        fp "warehouse" (cols [ "w_tax" ]);
        fp "district" (cols [ "d_tax"; "d_next_o_id" ]);
        fp "customer" (cols [ "c_discount"; "c_last"; "c_credit" ]);
      ]
    ~writes:[ fp "district" (cols [ "d_next_o_id" ]) ]
    ()

let no_insert =
  Program.step ~id:2 ~name:"insert-order" ~txn_type:"new_order" ~index:2
    ~reads:[]
    ~writes:
      [ fp ~fresh "orders" Footprint.All_columns; fp ~fresh "new_order" Footprint.All_columns ]
    ()

let no_line =
  Program.step ~id:3 ~name:"order-line" ~txn_type:"new_order" ~index:3 ~repeats:true
    ~reads:[ fp "item" (cols [ "i_price" ]); fp "stock" (cols [ "s_quantity" ]) ]
    ~writes:
      [
        fp "stock" (cols [ "s_quantity"; "s_ytd"; "s_order_cnt" ]);
        fp ~fresh "order_line" Footprint.All_columns;
      ]
    ()

let no_final =
  Program.step ~id:4 ~name:"finalize" ~txn_type:"new_order" ~index:4
    ~reads:[ fp ~fresh "orders" Footprint.All_columns ]
    ~writes:[]
    ()

let no_comp =
  Program.step ~id:5 ~name:"cancel-order" ~txn_type:"new_order" ~index:0
    ~reads:
      [ fp ~fresh "order_line" Footprint.All_columns; fp "warehouse" (cols [ "w_id" ]) ]
    ~writes:
      [
        fp "stock" (cols [ "s_quantity"; "s_ytd"; "s_order_cnt" ]);
        fp ~fresh "orders" (cols [ "o_carrier_id"; "o_ol_cnt" ]);
        fp ~fresh "order_line" Footprint.All_columns;
        fp ~fresh "new_order" Footprint.All_columns;
      ]
    ()

(* pre(S_2): "the order id I drew is mine alone and below the counter" —
   references the district counter, but foreign increments are monotone and
   cannot falsify it: declared compatible below *)
let a_no_seq =
  Assertion.make ~id:1 ~name:"no_counter_seq" ~txn_type:"new_order" ~pre_of:2 ~until:2
    ~refs:
      [ fp "district" (cols [ "d_next_o_id" ]); fp ~fresh "orders" Footprint.All_columns ]

(* pre(S_3)...: the I1-style loop invariant — my order header, queue row and
   order lines agree with my progress *)
let a_no_lines =
  Assertion.make ~id:2 ~name:"no_lines_inv" ~txn_type:"new_order" ~pre_of:3
    ~until:Assertion.until_commit
    ~refs:
      [
        fp ~fresh "orders" (cols [ "o_ol_cnt"; "o_carrier_id" ]);
        fp ~fresh "order_line" Footprint.All_columns;
        fp ~fresh "new_order" Footprint.All_columns;
      ]

(* --- payment: 3 forward steps + compensation --- *)

let pay_wh =
  Program.step ~id:6 ~name:"warehouse-ytd" ~txn_type:"payment" ~index:1
    ~reads:[ fp "warehouse" (cols [ "w_name" ]) ]
    ~writes:[ fp "warehouse" (cols [ "w_ytd" ]) ]
    ()

let pay_dist =
  Program.step ~id:7 ~name:"district-ytd" ~txn_type:"payment" ~index:2
    ~reads:[ fp "district" (cols [ "d_name" ]) ]
    ~writes:[ fp "district" (cols [ "d_ytd" ]) ]
    ()

let pay_cust =
  Program.step ~id:8 ~name:"customer+history" ~txn_type:"payment" ~index:3
    ~reads:[ fp "customer" (cols [ "c_credit" ]) ]
    ~writes:
      [
        fp "customer" (cols [ "c_balance"; "c_ytd_payment"; "c_payment_cnt" ]);
        fp ~fresh "history" Footprint.All_columns;
      ]
    ()

let pay_comp =
  Program.step ~id:9 ~name:"refund" ~txn_type:"payment" ~index:0
    ~reads:[]
    ~writes:
      [
        fp "warehouse" (cols [ "w_ytd" ]);
        fp "district" (cols [ "d_ytd" ]);
        fp "customer" (cols [ "c_balance"; "c_ytd_payment"; "c_payment_cnt" ]);
        fp ~fresh "history" Footprint.All_columns;
      ]
    ()

(* the maximally-reduced interstep assertion: only the transaction's own
   (fresh) history row is referenced — the running ytd totals are protected
   by commutativity, not by locks (§3.1's weakest-assertions principle) *)
let a_pay_applied =
  Assertion.make ~id:3 ~name:"pay_applied" ~txn_type:"payment" ~pre_of:2
    ~until:Assertion.until_commit
    ~refs:[ fp ~fresh "history" Footprint.All_columns ]

(* --- delivery: 2 forward steps + compensation --- *)

let dl_init =
  Program.step ~id:10 ~name:"assign-carrier" ~txn_type:"delivery" ~index:1
    ~reads:[ fp "warehouse" (cols [ "w_name" ]) ]
    ~writes:[]
    ()

let dl_district =
  Program.step ~id:11 ~name:"deliver-district" ~txn_type:"delivery" ~index:2 ~repeats:true
    ~reads:[ fp "new_order" Footprint.All_columns; fp "orders" (cols [ "o_c_id"; "o_ol_cnt" ]) ]
    ~writes:
      [
        fp "new_order" Footprint.All_columns;
        fp "orders" (cols [ "o_carrier_id" ]);
        fp "order_line" (cols [ "ol_delivery_d" ]);
        fp "customer" (cols [ "c_balance"; "c_delivery_cnt" ]);
      ]
    ()

let dl_comp =
  Program.step ~id:12 ~name:"undeliver" ~txn_type:"delivery" ~index:0
    ~reads:[]
    ~writes:
      [
        fp "new_order" Footprint.All_columns;
        fp "orders" (cols [ "o_carrier_id" ]);
        fp "order_line" (cols [ "ol_delivery_d" ]);
        fp "customer" (cols [ "c_balance"; "c_delivery_cnt" ]);
      ]
    ()

(* districts delivered so far stay delivered while the rest are processed *)
let a_dl_progress =
  Assertion.make ~id:4 ~name:"delivery_progress" ~txn_type:"delivery" ~pre_of:2
    ~until:Assertion.until_commit
    ~refs:
      [
        fp "orders" (cols [ "o_carrier_id" ]);
        fp "order_line" (cols [ "ol_delivery_d" ]);
        fp "new_order" Footprint.All_columns;
      ]

(* --- order_status and stock_level: analyzed read-only single steps --- *)

let os_read =
  Program.step ~id:13 ~name:"read-status" ~txn_type:"order_status" ~index:1
    ~reads:
      [
        fp "customer" Footprint.All_columns;
        fp "orders" Footprint.All_columns;
        fp "order_line" Footprint.All_columns;
      ]
    ~writes:[] ()

let order_status_type =
  Program.txn_type ~name:"order_status" ~steps:[ os_read ] ~assertions:[] ()

let sl_read =
  Program.step ~id:14 ~name:"count-low-stock" ~txn_type:"stock_level" ~index:1
    ~reads:
      [
        fp "district" (cols [ "d_next_o_id" ]);
        fp "order_line" (cols [ "ol_i_id"; "ol_o_id" ]);
        fp "stock" (cols [ "s_quantity" ]);
      ]
    ~writes:[] ()

let stock_level_type = Program.txn_type ~name:"stock_level" ~steps:[ sl_read ] ~assertions:[] ()

(* ====================================================================== *)
(* Shared SQL-ish pieces                                                   *)
(* ====================================================================== *)

let fnum = Value.number

(* Resolve a customer selector to an id.  By-name resolution probes the
   last-name hash index without data locks (the subsequent point access to
   the chosen customer takes the real locks); the spec picks the midpoint of
   the matches ordered by c_first — here, by id. *)
let resolve_customer ctx ~w ~d selector =
  match selector with
  | By_id c -> c
  | By_last_name name -> (
      let matches =
        Executor.peek_keys ctx "customer"
          ~where:
            (Predicate.conj
               [
                 Predicate.Eq ("c_w_id", Int w);
                 Predicate.Eq ("c_d_id", Int d);
                 Predicate.Eq ("c_last", Str name);
               ])
          ()
      in
      match matches with
      | [] -> raise Txn_effect.Abort_requested (* unknown name: spec says fail *)
      | keys -> (
          let middle = List.nth keys (List.length keys / 2) in
          match middle with
          | [ _; _; Int c ] -> c
          | _ -> assert false))

(* workspace threaded through a new_order execution: the order id step 1
   draws *)
type no_ws = { mutable o_id : int }

let no_step1 env (i : new_order_input) ws ctx =
  let w_row = Executor.read_exn ctx "warehouse" [ Int i.no_w ] in
  ignore (fnum w_row.(2));
  env.pace ();
  let d_row =
    Executor.update ctx "district" (Load.district_key ~w:i.no_w ~d:i.no_d) (fun row ->
        row.(5) <- Int (as_int row.(5) + 1);
        row)
  in
  ws.o_id <- as_int d_row.(5) - 1;
  env.pace ();
  ignore (Executor.read_exn ctx "customer" (Load.customer_key ~w:i.no_w ~d:i.no_d ~c:i.no_c))

let no_step2 env (i : new_order_input) ws ctx =
  Executor.insert ctx "orders"
    [| Int i.no_w; Int i.no_d; Int ws.o_id; Int i.no_c; Int (-1); Int (List.length i.no_items) |];
  env.pace ();
  Executor.insert ctx "new_order" [| Int i.no_w; Int i.no_d; Int ws.o_id |]

(* the stock draw itself, shared with the remote-stock branch of the
   partitioned decomposition *)
let draw_stock ctx ~supply ~item ~qty =
  ignore
    (Executor.update ctx "stock" (Load.stock_key ~w:supply ~i:item) (fun row ->
         let q = as_int row.(2) in
         let q' = if q - qty >= 10 then q - qty else q - qty + 91 in
         row.(2) <- Int q';
         row.(3) <- Int (as_int row.(3) + qty);
         row.(4) <- Int (as_int row.(4) + 1);
         row))

let undo_stock ctx ~supply ~item ~qty =
  ignore
    (Executor.update ctx "stock" (Load.stock_key ~w:supply ~i:item) (fun s ->
         s.(2) <- Int (as_int s.(2) + qty);
         s.(3) <- Int (as_int s.(3) - qty);
         s.(4) <- Int (as_int s.(4) - 1);
         s))

(* [draw] says whether the line draws its stock itself: the home branch of
   a partitioned new_order leaves a remote draw to that partition's branch,
   which paces before the draw, so a line without its draw paces once *)
let no_step_line env (i : new_order_input) ws ~ln ~last ~item ~qty ~supply ~draw ctx =
  (* idempotent under step retry: the line number comes from the step's
     position, and the workspace is not written *)
  if last && i.no_fail_last then raise Txn_effect.Abort_requested;
  let item_row = Executor.read_exn ctx "item" [ Int item ] in
  let price = fnum item_row.(2) in
  env.pace ();
  if draw then begin
    draw_stock ctx ~supply ~item ~qty;
    env.pace ()
  end;
  Executor.insert ctx "order_line"
    [|
      Int i.no_w; Int i.no_d; Int ws.o_id; Int ln; Int item; Int qty;
      Float (float_of_int qty *. price); Int (-1); Int supply;
    |]

let no_step_final (i : new_order_input) ws ctx =
  (* re-read the header to compute the displayed total (w_tax/d_tax applied
     client-side); keeps the step non-trivial without new writes *)
  let o = Executor.read_exn ctx "orders" (Load.order_key ~w:i.no_w ~d:i.no_d ~o:ws.o_id) in
  ignore (as_int o.(5))

(* The compensating body of new_order, and of the partitioned home branch
   (Dist_txns), whose work area has the same shape.  Like every
   compensating body it reads only the work area, so an inline abort and
   crash replay run this same function. *)
let new_order_compensate ctx ~completed =
  (* semantic undo (§4): return filled stock, drop the lines and the queue
     row, and mark the order row cancelled (carrier -2, zero lines); the
     consumed order number stays burnt *)
  let field name = as_int (Executor.area_field ctx name) in
  let w = field "w" and d = field "d" and o = field "o_id" in
  if completed = 1 then
    (* the counter advance is exposed and cannot be taken back; record the
       burnt number as a cancelled order so the id sequence stays dense *)
    Executor.insert ctx "orders" [| Int w; Int d; Int o; Int (field "c"); Int (-2); Int 0 |];
  if completed >= 2 then begin
    (* the committed lines are 1 .. completed - 2 (steps 1 and 2 are the
       reads and the order insert), capped by the line count — a 2PC cancel
       compensates after the finalize step too.  Point-keyed access only: a
       compensating step touches nothing beyond its own items (§3.4) *)
    let committed_lines = min (field "n") (max 0 (completed - 2)) in
    for ln = 1 to committed_lines do
      let key = [ Int w; Int d; Int o; Int ln ] in
      let row = Executor.read_exn ctx "order_line" key in
      let item = as_int row.(4) and qty = as_int row.(5) in
      let supply = as_int row.(8) in
      (* return the stock only if the supplying warehouse lives in this
         database — a partitioned home branch leaves remote draws to the
         remote-stock branch's own compensation *)
      if Executor.read_committed ctx "warehouse" [ Int supply ] <> None then
        undo_stock ctx ~supply ~item ~qty;
      Executor.delete ctx "order_line" key
    done;
    ignore
      (Executor.update ctx "orders" (Load.order_key ~w ~d ~o) (fun row ->
           row.(4) <- Int (-2);
           row.(5) <- Int 0;
           row));
    Executor.delete ctx "new_order" [ Int w; Int d; Int o ]
  end

let new_order_type =
  Program.txn_type ~name:"new_order"
    ~steps:[ no_reads; no_insert; no_line; no_final ]
    ~comp:no_comp ~compensate:new_order_compensate
    ~assertions:[ a_no_seq; a_no_lines ]
    ()

(* new_order's work area at every step end; the home branch of a
   partitioned new_order logs the same shape *)
let new_order_area ~w ~d ~o ~c ~n =
  [ ("w", Int w); ("d", Int d); ("o_id", Int o); ("c", Int c); ("n", Int n) ]

(* --- payment pieces --- *)

type pay_ws = { mutable h_id : int; mutable w_customer : int }

let pay_h_seq = Atomic.make 1_000_000 (* surrogate history keys; process-wide *)

(* Cross-run determinism (the crash-equivalence property test runs the same
   inputs twice and compares final states): the history keys must restart
   from the same origin for both runs. *)
let reset_history_seq () = Atomic.set pay_h_seq 1_000_000

let pay_step1 env (i : payment_input) ctx =
  ignore env;
  ignore
    (Executor.update ctx "warehouse" [ Int i.p_w ] (fun row ->
         row.(3) <- Float (fnum row.(3) +. i.p_amount);
         row))

let pay_step2 env (i : payment_input) ctx =
  ignore env;
  ignore
    (Executor.update ctx "district" (Load.district_key ~w:i.p_w ~d:i.p_d) (fun row ->
         row.(4) <- Float (fnum row.(4) +. i.p_amount);
         row))

let next_history_id () = 1 + Atomic.fetch_and_add pay_h_seq 1

let pay_step3 env (i : payment_input) ws ctx =
  let c = resolve_customer ctx ~w:i.p_c_w ~d:i.p_c_d i.p_customer in
  ws.w_customer <- c;
  ignore
    (Executor.update ctx "customer" (Load.customer_key ~w:i.p_c_w ~d:i.p_c_d ~c) (fun row ->
         row.(6) <- Float (fnum row.(6) -. i.p_amount);
         row.(7) <- Float (fnum row.(7) +. i.p_amount);
         row.(8) <- Int (as_int row.(8) + 1);
         row));
  env.pace ();
  ws.h_id <- next_history_id ();
  Executor.insert ctx "history"
    [|
      Int ws.h_id; Int i.p_c_w; Int i.p_c_d; Int ws.w_customer; Int i.p_w; Int i.p_d;
      Float i.p_amount;
    |]

(* The compensating body of payment, and of the partitioned home branch
   (Dist_txns), whose two steps are payment's first two: the customer and
   history fields are read only once step 3 has completed. *)
let payment_compensate ctx ~completed =
  let field = Executor.area_field ctx in
  let int name = as_int (field name) in
  let w = int "w" and d = int "d" and amount = fnum (field "amount") in
  if completed >= 1 then
    ignore
      (Executor.update ctx "warehouse" [ Int w ] (fun row ->
           row.(3) <- Float (fnum row.(3) -. amount);
           row));
  if completed >= 2 then
    ignore
      (Executor.update ctx "district" (Load.district_key ~w ~d) (fun row ->
           row.(4) <- Float (fnum row.(4) -. amount);
           row));
  if completed >= 3 then begin
    (* the customer may live at another warehouse (the 15% remote case) *)
    let c = int "c" and c_w = int "c_w" and c_d = int "c_d" in
    ignore
      (Executor.update ctx "customer" (Load.customer_key ~w:c_w ~d:c_d ~c) (fun row ->
           row.(6) <- Float (fnum row.(6) +. amount);
           row.(7) <- Float (fnum row.(7) -. amount);
           row.(8) <- Int (as_int row.(8) - 1);
           row));
    (* the exact history row is named in the work area *)
    Executor.delete ctx "history" [ Int (int "h_id") ]
  end

let payment_type =
  Program.txn_type ~name:"payment"
    ~steps:[ pay_wh; pay_dist; pay_cust ]
    ~comp:pay_comp ~compensate:payment_compensate
    ~assertions:[ a_pay_applied ]
    ()

(* --- delivery pieces --- *)

type dl_delivered = { dv_d : int; dv_o : int; dv_c : int; dv_amount : float }

type dl_ws = { mutable delivered : dl_delivered list }

(* Oldest undelivered order of the district: hunt via an index peek, then
   lock-and-verify.  New queue entries always carry higher order ids, so a
   phantom insert cannot displace the minimum; a concurrent delivery racing
   us to the same entry loses the X-lock race and re-hunts. *)
let rec dl_hunt_oldest env (i : delivery_input) ~d ctx =
  let queue =
    Executor.peek_keys ctx "new_order"
      ~where:
        (Predicate.conj
           [ Predicate.Eq ("no_w_id", Int i.dl_w); Predicate.Eq ("no_d_id", Int d) ])
      ()
  in
  match queue with
  | [] -> None
  | oldest :: _ -> (
      try
        Executor.delete ctx "new_order" oldest;
        Some oldest
      with Table.No_such_row _ -> dl_hunt_oldest env i ~d ctx)

let dl_step_district env (i : delivery_input) ws ~d ctx =
  match dl_hunt_oldest env i ~d ctx with
  | None -> ()
  | Some oldest ->
      let o_id = match oldest with [ _; _; Int o ] -> o | _ -> assert false in
      env.pace ();
      let o_row =
        Executor.update ctx "orders" (Load.order_key ~w:i.dl_w ~d ~o:o_id) (fun row ->
            row.(4) <- Int i.dl_carrier;
            row)
      in
      let c_id = as_int o_row.(3) in
      env.pace ();
      (* the order header is X-locked: its lines are stable, address them by
         primary key *)
      let amount = ref 0.0 in
      for ln = 1 to as_int o_row.(5) do
        let row =
          Executor.update ctx "order_line"
            [ Int i.dl_w; Int d; Int o_id; Int ln ]
            (fun row ->
              row.(7) <- Int 1;
              row)
        in
        amount := !amount +. fnum row.(6)
      done;
      env.pace ();
      ignore
        (Executor.update ctx "customer" (Load.customer_key ~w:i.dl_w ~d ~c:c_id) (fun row ->
             row.(6) <- Float (fnum row.(6) +. !amount);
             row.(9) <- Int (as_int row.(9) + 1);
             row));
      ws.delivered <- { dv_d = d; dv_o = o_id; dv_c = c_id; dv_amount = !amount } :: ws.delivered

(* The work-area field names of the [idx]th delivered quadruple.  A step end
   rebuilds the area after every district, so the names are built once, at
   module initialization, for more indexes than TPC-C's 10 districts per
   warehouse; the area and {!delivery_compensate} both read them here. *)
type dl_names = { nm_d : string; nm_o : string; nm_c : string; nm_amt : string }

let make_dl_names idx =
  {
    nm_d = Printf.sprintf "d%d" idx;
    nm_o = Printf.sprintf "o%d" idx;
    nm_c = Printf.sprintf "c%d" idx;
    nm_amt = Printf.sprintf "amt%d" idx;
  }

let built_dl_names = Array.init 16 make_dl_names

let dl_names idx =
  if idx < Array.length built_dl_names then built_dl_names.(idx) else make_dl_names idx

(* Undo each delivered (district, order, customer, amount) quadruple the
   work area lists, newest first. *)
let delivery_compensate ctx ~completed =
  ignore completed;
  let field = Executor.area_field ctx in
  let int name = as_int (field name) in
  let w = int "w" in
  for idx = 0 to int "n" - 1 do
    let names = dl_names idx in
    let d = int names.nm_d and o = int names.nm_o and c = int names.nm_c in
    let amount = fnum (field names.nm_amt) in
    ignore
      (Executor.update ctx "customer" (Load.customer_key ~w ~d ~c) (fun row ->
           row.(6) <- Float (fnum row.(6) -. amount);
           row.(9) <- Int (as_int row.(9) - 1);
           row));
    let o_row = Executor.read_exn ctx "orders" (Load.order_key ~w ~d ~o) in
    for ln = 1 to as_int o_row.(5) do
      ignore
        (Executor.update ctx "order_line" [ Int w; Int d; Int o; Int ln ] (fun row ->
             row.(7) <- Int (-1);
             row))
    done;
    ignore
      (Executor.update ctx "orders" (Load.order_key ~w ~d ~o) (fun row ->
           row.(4) <- Int (-1);
           row));
    Executor.insert ctx "new_order" [| Int w; Int d; Int o |]
  done

let delivery_type =
  Program.txn_type ~name:"delivery"
    ~steps:[ dl_init; dl_district ]
    ~comp:dl_comp ~compensate:delivery_compensate
    ~assertions:[ a_dl_progress ]
    ()

(* --- the static workload: every type, each with its compensating body --- *)

let workload =
  Program.workload
    [ new_order_type; payment_type; delivery_type; order_status_type; stock_level_type ]

(* the hand-proved compatibilities (monotone counter): foreign counter
   increments cannot invalidate a_no_seq *)
let interference =
  Interference.build ~compatible:[ (no_reads.Program.sd_id, a_no_seq.Assertion.id) ] workload

let semantics = Interference.semantics interference

let forward_step_count =
  List.length
    (List.filter
       (fun (s : Program.step_def) -> s.Program.sd_index > 0 && s.Program.sd_id <> 0)
       (Program.all_steps workload))

(* --- order_status and stock_level pieces --- *)

let order_status_body env (i : order_status_input) ctx =
  let c = resolve_customer ctx ~w:i.os_w ~d:i.os_d i.os_customer in
  let _crow = Executor.read_exn ctx "customer" (Load.customer_key ~w:i.os_w ~d:i.os_d ~c) in
  env.pace ();
  (* most recent order of the customer *)
  let orders =
    Executor.scan ctx "orders"
      ~where:
        (Predicate.conj
           [
             Predicate.Eq ("o_w_id", Int i.os_w);
             Predicate.Eq ("o_d_id", Int i.os_d);
             Predicate.Eq ("o_c_id", Int c);
           ])
      ()
  in
  match List.rev orders with
  | [] -> ()
  | last :: _ ->
      let o_id = as_int last.(2) in
      env.pace ();
      let lines =
        Executor.scan ctx "order_line"
          ~where:
            (Predicate.conj
               [
                 Predicate.Eq ("ol_w_id", Int i.os_w);
                 Predicate.Eq ("ol_d_id", Int i.os_d);
                 Predicate.Eq ("ol_o_id", Int o_id);
               ])
          ()
      in
      (* the isolation property under test: a consistent order is complete *)
      if as_int last.(4) <> -2 && List.length lines <> as_int last.(5) then
        failwith
          (Printf.sprintf "order_status: order %d has %d lines, header says %d" o_id
             (List.length lines) (as_int last.(5)))

let stock_level_body env (i : stock_level_input) ctx =
  let d_row = Executor.read_committed ctx "district" (Load.district_key ~w:i.sl_w ~d:i.sl_d) in
  let next_o =
    match d_row with Some row -> as_int row.(5) | None -> failwith "stock_level: no district"
  in
  env.pace ();
  let recent =
    Executor.scan_committed ctx "order_line"
      ~where:
        (Predicate.conj
           [
             Predicate.Eq ("ol_w_id", Int i.sl_w);
             Predicate.Eq ("ol_d_id", Int i.sl_d);
             Predicate.Cmp (Predicate.Ge, "ol_o_id", Int (next_o - 20));
           ])
      ()
  in
  let items = List.sort_uniq Stdlib.compare (List.map (fun row -> as_int row.(4)) recent) in
  env.pace ();
  let low = ref 0 in
  List.iter
    (fun item ->
      match Executor.read_committed ctx "stock" (Load.stock_key ~w:i.sl_w ~i:item) with
      | Some s -> if as_int s.(2) < i.sl_threshold then incr low
      | None -> ())
    items;
  ignore !low

(* ====================================================================== *)
(* Stepped (ACC) instances                                                 *)
(* ====================================================================== *)

let new_order_instance env (i : new_order_input) =
  let ws = { o_id = 0 } in
  let n_items = List.length i.no_items in
  let line_steps =
    List.mapi
      (fun idx (item, qty, supply) ->
        ( no_line,
          no_step_line env i ws ~ln:(idx + 1) ~last:(idx = n_items - 1) ~item ~qty ~supply
            ~draw:true ))
      i.no_items
  in
  let steps =
    ((no_reads, no_step1 env i ws) :: (no_insert, no_step2 env i ws) :: line_steps)
    @ [ (no_final, no_step_final i ws) ]
  in
  let n = List.length steps in
  let assertions =
    [
      { Program.ai_assertion = a_no_seq; ai_from = 2; ai_until = 2; ai_check = None };
      { Program.ai_assertion = a_no_lines; ai_from = 3; ai_until = n; ai_check = None };
    ]
  in
  Program.instance ~def:new_order_type ~steps ~assertions
    ~comp_area:(fun () ->
      new_order_area ~w:i.no_w ~d:i.no_d ~o:ws.o_id ~c:i.no_c ~n:(List.length i.no_items))
    ()

let payment_instance env (i : payment_input) =
  let ws = { h_id = 0; w_customer = 0 } in
  let steps =
    [ (pay_wh, pay_step1 env i); (pay_dist, pay_step2 env i); (pay_cust, pay_step3 env i ws) ]
  in
  let assertions =
    [ { Program.ai_assertion = a_pay_applied; ai_from = 2; ai_until = 3; ai_check = None } ]
  in
  Program.instance ~def:payment_type ~steps ~assertions
    ~comp_area:(fun () ->
      [
        ("w", Int i.p_w);
        ("d", Int i.p_d);
        ("c_w", Int i.p_c_w);
        ("c_d", Int i.p_c_d);
        ("c", Int ws.w_customer);
        ("amount", Float i.p_amount);
        ("h_id", Int ws.h_id);
      ])
    ()

let delivery_instance env (i : delivery_input) =
  let ws = { delivered = [] } in
  let district_steps =
    List.init env.params.Params.districts_per_warehouse (fun d0 ->
        (dl_district, fun ctx -> dl_step_district env i ws ~d:(d0 + 1) ctx))
  in
  let steps =
    (dl_init, fun ctx -> ignore (Executor.read_exn ctx "warehouse" [ Int i.dl_w ]))
    :: district_steps
  in
  let n = List.length steps in
  let assertions =
    [ { Program.ai_assertion = a_dl_progress; ai_from = 2; ai_until = n; ai_check = None } ]
  in
  Program.instance ~def:delivery_type ~steps ~assertions
    ~comp_area:(fun () ->
      (* flatten the delivered list, newest first: the compensation undoes
         each (district, order, customer, amount) quadruple in that order *)
      ("w", Int i.dl_w)
      :: ("n", Int (List.length ws.delivered))
      :: List.concat
           (List.mapi
              (fun idx dv ->
                let names = dl_names idx in
                [
                  (names.nm_d, Int dv.dv_d);
                  (names.nm_o, Int dv.dv_o);
                  (names.nm_c, Int dv.dv_c);
                  (names.nm_amt, Float dv.dv_amount);
                ])
              ws.delivered))
    ()

let instance env input =
  match input with
  | New_order i -> new_order_instance env i
  | Payment i -> payment_instance env i
  | Delivery i -> delivery_instance env i
  | Order_status i ->
      Program.instance ~def:order_status_type ~steps:[ (os_read, order_status_body env i) ] ()
  | Stock_level i ->
      Program.instance ~def:stock_level_type ~steps:[ (sl_read, stock_level_body env i) ] ()

let run_acc ?options ?stop eng env input =
  match input with
  | New_order _ | Payment _ | Delivery _ -> Runtime.run ?options ?stop eng (instance env input)
  | Order_status i ->
      Runtime.run_legacy ?stop eng ~txn_type:"order_status" (order_status_body env i)
  | Stock_level i ->
      (* READ COMMITTED: flat, no assertional locks, short read locks *)
      Runtime.run_single ?stop ~step_type:sl_read.Program.sd_id eng ~txn_type:"stock_level"
        (stock_level_body env i)

(* The strict-2PL comparator: the same steps as one transaction, paced at
   every step boundary, where the ACC program is not (DESIGN.md §19.1) *)
let run_flat ?stop eng env input =
  Runtime.run_flat ?stop ~between:env.pace eng ~txn_type:(txn_name input) (fun () ->
      instance env input)
