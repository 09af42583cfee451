module S = Acc_relation.Schema
module Database = Acc_relation.Database
module Table = Acc_relation.Table
open Acc_relation.Value

let warehouse =
  S.make ~name:"warehouse" ~key:[ "w_id" ]
    [
      S.col "w_id" Tint;
      S.col "w_name" Tstr;
      S.col "w_tax" Tfloat;
      S.col "w_ytd" Tfloat;
    ]

let district =
  S.make ~name:"district" ~key:[ "d_w_id"; "d_id" ]
    [
      S.col "d_w_id" Tint;
      S.col "d_id" Tint;
      S.col "d_name" Tstr;
      S.col "d_tax" Tfloat;
      S.col "d_ytd" Tfloat;
      S.col "d_next_o_id" Tint;
    ]

let customer =
  S.make ~name:"customer" ~key:[ "c_w_id"; "c_d_id"; "c_id" ]
    [
      S.col "c_w_id" Tint;
      S.col "c_d_id" Tint;
      S.col "c_id" Tint;
      S.col "c_last" Tstr;
      S.col "c_credit" Tstr;
      S.col "c_discount" Tfloat;
      S.col "c_balance" Tfloat;
      S.col "c_ytd_payment" Tfloat;
      S.col "c_payment_cnt" Tint;
      S.col "c_delivery_cnt" Tint;
    ]

(* h_c_* name the customer; h_w_id/h_d_id name where the payment was made —
   the two differ for the spec's 15% remote-customer payments *)
let history =
  S.make ~name:"history" ~key:[ "h_id" ]
    [
      S.col "h_id" Tint;
      S.col "h_c_w_id" Tint;
      S.col "h_c_d_id" Tint;
      S.col "h_c_id" Tint;
      S.col "h_w_id" Tint;
      S.col "h_d_id" Tint;
      S.col "h_amount" Tfloat;
    ]

let orders =
  S.make ~name:"orders" ~key:[ "o_w_id"; "o_d_id"; "o_id" ]
    [
      S.col "o_w_id" Tint;
      S.col "o_d_id" Tint;
      S.col "o_id" Tint;
      S.col "o_c_id" Tint;
      S.col "o_carrier_id" Tint (* -1 = not delivered *);
      S.col "o_ol_cnt" Tint;
    ]

let new_order =
  S.make ~name:"new_order" ~key:[ "no_w_id"; "no_d_id"; "no_o_id" ]
    [ S.col "no_w_id" Tint; S.col "no_d_id" Tint; S.col "no_o_id" Tint ]

let order_line =
  S.make ~name:"order_line" ~key:[ "ol_w_id"; "ol_d_id"; "ol_o_id"; "ol_number" ]
    [
      S.col "ol_w_id" Tint;
      S.col "ol_d_id" Tint;
      S.col "ol_o_id" Tint;
      S.col "ol_number" Tint;
      S.col "ol_i_id" Tint;
      S.col "ol_quantity" Tint;
      S.col "ol_amount" Tfloat;
      S.col "ol_delivery_d" Tint (* -1 = undelivered *);
      S.col "ol_supply_w" Tint (* supplying warehouse; <> ol_w_id for ~1% of lines *);
    ]

let item =
  S.make ~name:"item" ~key:[ "i_id" ]
    [ S.col "i_id" Tint; S.col "i_name" Tstr; S.col "i_price" Tfloat ]

let stock =
  S.make ~name:"stock" ~key:[ "s_w_id"; "s_i_id" ]
    [
      S.col "s_w_id" Tint;
      S.col "s_i_id" Tint;
      S.col "s_quantity" Tint;
      S.col "s_ytd" Tint;
      S.col "s_order_cnt" Tint;
    ]

let table_names =
  [
    "warehouse"; "district"; "customer"; "history"; "orders"; "new_order"; "order_line";
    "item"; "stock";
  ]

let create_all db =
  let _w = Database.create_table db warehouse in
  let _d = Database.create_table db district in
  let c = Database.create_table db customer in
  Table.add_index c ~name:"by_last" [ "c_w_id"; "c_d_id"; "c_last" ];
  let _h = Database.create_table db history in
  let o = Database.create_table db orders in
  Table.add_index o ~name:"by_customer" [ "o_w_id"; "o_d_id"; "o_c_id" ];
  (* One index per access path.  An ordered index serves an equality probe
     on a prefix of its columns with the same candidate set a hash index on
     that prefix would give, so neither table keeps one beside it.
     [queue_order] serves delivery's hunt for a district's queue (equal
     warehouse and district). *)
  let n = Database.create_table db new_order in
  Table.add_ordered_index n ~name:"queue_order" [ "no_w_id"; "no_d_id"; "no_o_id" ];
  (* [ol_order_range] serves order-status's lines of one order (equal
     warehouse, district and order) and stock-level's lines of the
     district's last 20 orders (equal warehouse and district, order id at
     least a bound). *)
  let ol = Database.create_table db order_line in
  Table.add_ordered_index ol ~name:"ol_order_range" [ "ol_w_id"; "ol_d_id"; "ol_o_id" ];
  let _i = Database.create_table db item in
  let _s = Database.create_table db stock in
  ()
