(** Initial database population (TPC-C Rev 3.1 §4.3, scaled by {!Params}).

    Every district is pre-loaded with a run of delivered orders so that
    order-status and delivery have material to work on, and [d_next_o_id]
    starts just past them — the consistency conditions hold of the freshly
    loaded database (verified by the test suite). *)

val populate : ?only:(int -> bool) -> seed:int -> Params.t -> Acc_relation.Database.t
(** Build and fill a fresh database.  [only] keeps only the warehouses it
    accepts (a partition's share); the item table is always loaded in full,
    and the PRNG draws are independent of the filter, so partition loads are
    exact disjoint projections of the unfiltered database (items excepted —
    they are replicated). *)

val merge : Acc_relation.Database.t list -> Acc_relation.Database.t
(** Union of partition databases, the item table taken from the first only:
    merging the [only] loads of disjoint ranges covering every warehouse
    gives [populate]'s database.  This is the view the consistency
    conditions are checked on, since C1/C8 and C12 span partitions. *)

val district_key : w:int -> d:int -> Acc_relation.Table.key
val customer_key : w:int -> d:int -> c:int -> Acc_relation.Table.key
val stock_key : w:int -> i:int -> Acc_relation.Table.key
val order_key : w:int -> d:int -> o:int -> Acc_relation.Table.key
