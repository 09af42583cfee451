module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Prng = Acc_util.Prng
open Acc_relation.Value

let district_key ~w ~d = [ Int w; Int d ]
let customer_key ~w ~d ~c = [ Int w; Int d; Int c ]
let stock_key ~w ~i = [ Int w; Int i ]
let order_key ~w ~d ~o = [ Int w; Int d; Int o ]

(* The freshly loaded database must satisfy all twelve consistency
   conditions (verified by the test suite): ytd columns equal the history
   sums, delivered pre-loaded order lines carry zero amounts (as in the
   spec's initial population), and stock s_ytd equals the quantities of the
   pre-loaded lines.

   [only] restricts the population to the warehouses it accepts — a
   partition's share of the database.  The item table (read-only, warehouse-
   independent) is always loaded in full, and every PRNG draw happens
   whether or not the row is kept, so each partition's load is an exact
   projection of the unrestricted database: merging the partition loads
   reproduces [populate] without a filter. *)
let populate ?(only = fun _ -> true) ~seed params =
  Params.validate params;
  let gen = Random_gen.create ~seed params in
  let g = Random_gen.prng gen in
  let db = Database.create () in
  Schema.create_all db;
  let table = Database.table db in
  let p = params in
  let initial_payment = 10.0 in
  for w = 1 to p.Params.warehouses do
    let keep = only w in
    let ins name row = if keep then ignore (Table.insert (table name) row) in
    let customers_per_wh =
      p.Params.customers_per_district * p.Params.districts_per_warehouse
    in
    ins "warehouse"
      [|
        Int w;
        Str (Printf.sprintf "wh-%d" w);
        Float (Prng.float g 0.2);
        Float (initial_payment *. float_of_int customers_per_wh);
      |];
    for i = 1 to p.Params.items do
      if w = 1 then
        ignore
          (Table.insert (table "item")
             [| Int i; Str (Prng.alpha_string g ~min:6 ~max:14); Float (1.0 +. Prng.float g 99.0) |]);
      ins "stock" [| Int w; Int i; Int p.Params.initial_stock; Int 0; Int 0 |]
    done;
    let h_id = ref (w * 10_000_000) in
    for d = 1 to p.Params.districts_per_warehouse do
      let preloaded = p.Params.initial_orders_per_district in
      ins "district"
        [|
          Int w;
          Int d;
          Str (Printf.sprintf "dist-%d-%d" w d);
          Float (Prng.float g 0.2);
          Float (initial_payment *. float_of_int p.Params.customers_per_district);
          Int (preloaded + 1);
        |];
      for c = 1 to p.Params.customers_per_district do
        ins "customer"
          [|
            Int w;
            Int d;
            Int c;
            Str (Random_gen.last_name gen (if c <= 1000 then c - 1 else Prng.int g 1000));
            Str (if Prng.chance g 0.1 then "BC" else "GC");
            Float (Prng.float g 0.5);
            Float (-.initial_payment);
            Float initial_payment;
            Int 1;
            Int 0;
          |];
        incr h_id;
        ins "history"
          [| Int !h_id; Int w; Int d; Int c; Int w; Int d; Float initial_payment |]
      done;
      (* pre-loaded, already-delivered orders (zero-amount lines, as in the
         spec's initial population of delivered orders) *)
      for o = 1 to preloaded do
        let c = ((o - 1) mod p.Params.customers_per_district) + 1 in
        let ol_cnt = Prng.int_in g 1 3 in
        ins "orders" [| Int w; Int d; Int o; Int c; Int 1; Int ol_cnt |];
        for ol = 1 to ol_cnt do
          let i = Prng.int_in g 1 p.Params.items in
          let qty = Prng.int_in g 1 5 in
          ins "order_line"
            [| Int w; Int d; Int o; Int ol; Int i; Int qty; Float 0.0; Int 1; Int w |];
          if keep then
            ignore
              (Table.update (table "stock") (stock_key ~w ~i) (fun s ->
                   s.(3) <- Int (as_int s.(3) + qty);
                   s.(4) <- Int (as_int s.(4) + 1);
                   s))
        done
      done
    done
  done;
  db

(* The inverse of the [only] projection: one database holding every row of
   the given partition databases, the item table taken from the first only
   (every partition loads it in full). *)
let merge dbs =
  let db = Database.create () in
  Schema.create_all db;
  List.iteri
    (fun idx src ->
      List.iter
        (fun name ->
          if name <> "item" || idx = 0 then
            Table.iter
              (fun _ row -> ignore (Table.insert (Database.table db name) (Array.copy row)))
              (Database.table src name))
        Schema.table_names)
    dbs;
  db
