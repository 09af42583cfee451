(* Partitioned TPC-C: per-partition branch programs for the two transaction
   types that can cross warehouse — and hence partition — boundaries.

   A cross-partition payment splits into
     - payment_home  (partition of p_w):   warehouse ytd | district ytd
     - payment_rcust (partition of p_c_w): customer update + history insert
   and a cross-partition new_order into
     - new_order_home   (partition of no_w): the full four-step decomposition,
       except that remote lines skip the stock draw
     - new_order_rstock (one per remote partition): the stock draws that the
       home branch skipped, one step per item.

   Each branch is an ordinary ACC program instance with its own compensating
   step, so [Acc_core.Runtime.prepare] can hold it in doubt and
   [abort_prepared] can cancel it — the 2PC abort path is compensation
   replay, exactly as the single-node abort path is.  Branch step ids
   continue the numbering of {!Txns} (15..26); assertion ids continue at 5. *)

module Executor = Acc_txn.Executor
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Value = Acc_relation.Value
open Value

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh
let fnum = Value.number

(* ====================================================================== *)
(* Compensating bodies                                                     *)
(* ====================================================================== *)

(* The two home branches reuse {!Txns.new_order_compensate} and
   {!Txns.payment_compensate}; the remote branches have their own.  Like
   every compensating body these read only the work area, so an inline
   abort and crash replay run them alike. *)

(* the remote-customer branch: customer rollback + history delete *)
let payment_rcust_compensate ctx ~completed =
  if completed >= 1 then begin
    let field = Executor.area_field ctx in
    let amount = fnum (field "amount") in
    let c_w = as_int (field "c_w") and c_d = as_int (field "c_d") in
    ignore
      (Executor.update ctx "customer"
         (Load.customer_key ~w:c_w ~d:c_d ~c:(as_int (field "c")))
         (fun row ->
           row.(6) <- Float (fnum row.(6) +. amount);
           row.(7) <- Float (fnum row.(7) -. amount);
           row.(8) <- Int (as_int row.(8) - 1);
           row));
    Executor.delete ctx "history" [ field "h_id" ]
  end

(* the remote-stock branch: restock the first [completed] draws *)
let new_order_rstock_compensate ctx ~completed =
  let field name = as_int (Executor.area_field ctx name) in
  for k = 0 to min completed (field "n") - 1 do
    Txns.undo_stock ctx
      ~supply:(field (Printf.sprintf "w%d" k))
      ~item:(field (Printf.sprintf "i%d" k))
      ~qty:(field (Printf.sprintf "q%d" k))
  done

(* --- payment_home: 2 forward steps + compensation --- *)

let ph_wh =
  Program.step ~id:15 ~name:"wh-ytd" ~txn_type:"payment_home" ~index:1
    ~reads:[ fp "warehouse" (cols [ "w_name" ]) ]
    ~writes:[ fp "warehouse" (cols [ "w_ytd" ]) ]
    ()

let ph_dist =
  Program.step ~id:16 ~name:"district-ytd" ~txn_type:"payment_home" ~index:2
    ~reads:[ fp "district" (cols [ "d_name" ]) ]
    ~writes:[ fp "district" (cols [ "d_ytd" ]) ]
    ()

let ph_comp =
  Program.step ~id:17 ~name:"refund-home" ~txn_type:"payment_home" ~index:0
    ~reads:[]
    ~writes:[ fp "warehouse" (cols [ "w_ytd" ]); fp "district" (cols [ "d_ytd" ]) ]
    ()

let payment_home_type =
  Program.txn_type ~name:"payment_home" ~steps:[ ph_wh; ph_dist ] ~comp:ph_comp
    ~compensate:Txns.payment_compensate ~assertions:[] ()

(* --- payment_rcust: 1 forward step + compensation --- *)

let pr_cust =
  Program.step ~id:18 ~name:"customer+history" ~txn_type:"payment_rcust" ~index:1
    ~reads:[ fp "customer" (cols [ "c_credit" ]) ]
    ~writes:
      [
        fp "customer" (cols [ "c_balance"; "c_ytd_payment"; "c_payment_cnt" ]);
        fp ~fresh "history" Footprint.All_columns;
      ]
    ()

let pr_comp =
  Program.step ~id:19 ~name:"refund-rcust" ~txn_type:"payment_rcust" ~index:0
    ~reads:[]
    ~writes:
      [
        fp "customer" (cols [ "c_balance"; "c_ytd_payment"; "c_payment_cnt" ]);
        fp ~fresh "history" Footprint.All_columns;
      ]
    ()

let payment_rcust_type =
  Program.txn_type ~name:"payment_rcust" ~steps:[ pr_cust ] ~comp:pr_comp
    ~compensate:payment_rcust_compensate ~assertions:[] ()

(* --- new_order_home: the four-step decomposition, remote stock skipped --- *)

let nh_reads =
  Program.step ~id:20 ~name:"reads+counter" ~txn_type:"new_order_home" ~index:1
    ~reads:
      [
        fp "warehouse" (cols [ "w_tax" ]);
        fp "district" (cols [ "d_tax"; "d_next_o_id" ]);
        fp "customer" (cols [ "c_discount"; "c_last"; "c_credit" ]);
      ]
    ~writes:[ fp "district" (cols [ "d_next_o_id" ]) ]
    ()

let nh_insert =
  Program.step ~id:21 ~name:"insert-order" ~txn_type:"new_order_home" ~index:2
    ~reads:[]
    ~writes:
      [ fp ~fresh "orders" Footprint.All_columns; fp ~fresh "new_order" Footprint.All_columns ]
    ()

let nh_line =
  Program.step ~id:22 ~name:"order-line" ~txn_type:"new_order_home" ~index:3 ~repeats:true
    ~reads:[ fp "item" (cols [ "i_price" ]); fp "stock" (cols [ "s_quantity" ]) ]
    ~writes:
      [
        fp "stock" (cols [ "s_quantity"; "s_ytd"; "s_order_cnt" ]);
        fp ~fresh "order_line" Footprint.All_columns;
      ]
    ()

let nh_final =
  Program.step ~id:23 ~name:"finalize" ~txn_type:"new_order_home" ~index:4
    ~reads:[ fp ~fresh "orders" Footprint.All_columns ]
    ~writes:[]
    ()

let nh_comp =
  Program.step ~id:24 ~name:"cancel-order" ~txn_type:"new_order_home" ~index:0
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

let a_nh_seq =
  Assertion.make ~id:5 ~name:"nh_counter_seq" ~txn_type:"new_order_home" ~pre_of:2 ~until:2
    ~refs:
      [ fp "district" (cols [ "d_next_o_id" ]); fp ~fresh "orders" Footprint.All_columns ]

let a_nh_lines =
  Assertion.make ~id:6 ~name:"nh_lines_inv" ~txn_type:"new_order_home" ~pre_of:3
    ~until:Assertion.until_commit
    ~refs:
      [
        fp ~fresh "orders" (cols [ "o_ol_cnt"; "o_carrier_id" ]);
        fp ~fresh "order_line" Footprint.All_columns;
        fp ~fresh "new_order" Footprint.All_columns;
      ]

let new_order_home_type =
  Program.txn_type ~name:"new_order_home"
    ~steps:[ nh_reads; nh_insert; nh_line; nh_final ]
    ~comp:nh_comp ~compensate:Txns.new_order_compensate
    ~assertions:[ a_nh_seq; a_nh_lines ]
    ()

(* --- new_order_rstock: one stock draw per remote item + compensation --- *)

let nr_stock =
  Program.step ~id:25 ~name:"remote-stock" ~txn_type:"new_order_rstock" ~index:1
    ~repeats:true
    ~reads:[ fp "stock" (cols [ "s_quantity" ]) ]
    ~writes:[ fp "stock" (cols [ "s_quantity"; "s_ytd"; "s_order_cnt" ]) ]
    ()

let nr_comp =
  Program.step ~id:26 ~name:"restock" ~txn_type:"new_order_rstock" ~index:0
    ~reads:[]
    ~writes:[ fp "stock" (cols [ "s_quantity"; "s_ytd"; "s_order_cnt" ]) ]
    ()

let new_order_rstock_type =
  Program.txn_type ~name:"new_order_rstock" ~steps:[ nr_stock ] ~comp:nr_comp
    ~compensate:new_order_rstock_compensate ~assertions:[] ()

let branch_types =
  [ payment_home_type; payment_rcust_type; new_order_home_type; new_order_rstock_type ]

(* The combined static workload a partition engine serves: every single-
   partition transaction runs its ordinary program, cross-partition ones run
   branch programs — both against the same lock semantics. *)
let workload = Program.workload (Program.txn_types Txns.workload @ branch_types)

(* the same monotone-counter compatibility as the single-node analysis,
   closed over both counter-writing steps and both counter assertions *)
let interference =
  Interference.build
    ~compatible:
      [
        (Txns.no_reads.Program.sd_id, Txns.a_no_seq.Assertion.id);
        (Txns.no_reads.Program.sd_id, a_nh_seq.Assertion.id);
        (nh_reads.Program.sd_id, Txns.a_no_seq.Assertion.id);
        (nh_reads.Program.sd_id, a_nh_seq.Assertion.id);
      ]
    workload

let semantics = Interference.semantics interference

(* ====================================================================== *)
(* Branch instances                                                        *)
(* ====================================================================== *)

(* Every branch runs {!Txns}' own step bodies, so the branches of one
   transaction pace as often, all told, as its single-node program: the
   remote-stock branch paces before each draw, where the home line it was
   taken from would have paced after it. *)

let payment_home_instance env (i : Txns.payment_input) =
  let steps = [ (ph_wh, Txns.pay_step1 env i); (ph_dist, Txns.pay_step2 env i) ] in
  Program.instance ~def:payment_home_type ~steps
    ~comp_area:(fun () ->
      [ ("w", Int i.Txns.p_w); ("d", Int i.Txns.p_d); ("amount", Float i.Txns.p_amount) ])
    ()

let payment_rcust_instance env (i : Txns.payment_input) =
  let ws = { Txns.h_id = 0; w_customer = 0 } in
  Program.instance ~def:payment_rcust_type ~steps:[ (pr_cust, Txns.pay_step3 env i ws) ]
    ~comp_area:(fun () ->
      [
        ("c_w", Int i.Txns.p_c_w);
        ("c_d", Int i.Txns.p_c_d);
        ("c", Int ws.Txns.w_customer);
        ("amount", Float i.Txns.p_amount);
        ("h_id", Int ws.Txns.h_id);
      ])
    ()

let new_order_home_instance env ~local (i : Txns.new_order_input) =
  let ws = { Txns.o_id = 0 } in
  let w = i.Txns.no_w and d = i.Txns.no_d and c = i.Txns.no_c in
  let n_items = List.length i.Txns.no_items in
  let line_steps =
    List.mapi
      (fun idx (item, qty, supply) ->
        ( nh_line,
          (* a remote line's stock draw belongs to that partition's rstock
             branch *)
          Txns.no_step_line env i ws ~ln:(idx + 1) ~last:(idx = n_items - 1) ~item ~qty ~supply
            ~draw:(local supply) ))
      i.Txns.no_items
  in
  let steps =
    ((nh_reads, Txns.no_step1 env i ws) :: (nh_insert, Txns.no_step2 env i ws) :: line_steps)
    @ [ (nh_final, Txns.no_step_final i ws) ]
  in
  let n = List.length steps in
  let assertions =
    [
      { Program.ai_assertion = a_nh_seq; ai_from = 2; ai_until = 2; ai_check = None };
      { Program.ai_assertion = a_nh_lines; ai_from = 3; ai_until = n; ai_check = None };
    ]
  in
  Program.instance ~def:new_order_home_type ~steps ~assertions
    ~comp_area:(fun () -> Txns.new_order_area ~w ~d ~o:ws.Txns.o_id ~c ~n:n_items)
    ()

let new_order_rstock_instance env items =
  let pace = env.Txns.pace in
  let items = Array.of_list items in
  let n = Array.length items in
  let steps =
    Array.to_list
      (Array.map
         (fun (item, qty, supply) ->
           ( nr_stock,
             fun ctx ->
               pace ();
               Txns.draw_stock ctx ~supply ~item ~qty ))
         items)
  in
  Program.instance ~def:new_order_rstock_type ~steps
    ~comp_area:(fun () ->
      ("n", Int n)
      :: List.concat
           (List.mapi
              (fun k (item, qty, supply) ->
                [
                  (Printf.sprintf "w%d" k, Int supply);
                  (Printf.sprintf "i%d" k, Int item);
                  (Printf.sprintf "q%d" k, Int qty);
                ])
              (Array.to_list items)))
    ()

(* ====================================================================== *)
(* Routing                                                                 *)
(* ====================================================================== *)

let partitions_of_input ~part_of (input : Txns.input) =
  let ps =
    match input with
    | Txns.New_order i ->
        part_of i.Txns.no_w :: List.map (fun (_, _, s) -> part_of s) i.Txns.no_items
    | Txns.Payment i -> [ part_of i.Txns.p_w; part_of i.Txns.p_c_w ]
    | Txns.Order_status i -> [ part_of i.Txns.os_w ]
    | Txns.Delivery i -> [ part_of i.Txns.dl_w ]
    | Txns.Stock_level i -> [ part_of i.Txns.sl_w ]
  in
  List.sort_uniq Stdlib.compare ps

let branches env ~part_of (input : Txns.input) =
  match input with
  | Txns.Payment i ->
      [
        (part_of i.Txns.p_w, payment_home_instance env i);
        (part_of i.Txns.p_c_w, payment_rcust_instance env i);
      ]
  | Txns.New_order i ->
      let home = part_of i.Txns.no_w in
      let remote_pids =
        List.sort_uniq Stdlib.compare
          (List.filter_map
             (fun (_, _, s) -> if part_of s <> home then Some (part_of s) else None)
             i.Txns.no_items)
      in
      (home, new_order_home_instance env ~local:(fun s -> part_of s = home) i)
      :: List.map
           (fun pid ->
             let items =
               List.filter (fun (_, _, s) -> part_of s = pid) i.Txns.no_items
             in
             (pid, new_order_rstock_instance env items))
           remote_pids
  | Txns.Order_status _ | Txns.Delivery _ | Txns.Stock_level _ ->
      invalid_arg "Dist_txns.branches: warehouse-local transaction type"
