(** TPC-C as a first-class {!Acc_workload.S} plugin.

    [make ()] is both drivers' default workload: {!Params.default} (one
    warehouse), the standard mix, 5–15 items per new-order, and the spec's
    rates: 1% forced new-order aborts, 15% remote payments and 1% remote
    order lines (inert with one warehouse). *)

type mix = Standard | New_order_payment

type env
(** The plugin's per-worker generation state. *)

val partitioning : Params.t -> (env, Txns.input) Acc_workload.partitioning
(** The plugin's partitioning capability: warehouses are the keys, a
    partition loads its range with {!Load.populate}[ ~only], cross-warehouse
    payments and new-orders run {!Dist_txns}' branches, and the oracle is
    {!Consistency.check} on {!Load.merge} of the partitions.  Raises
    [Invalid_argument] on invalid [params]. *)

val make :
  ?params:Params.t ->
  ?skewed_district:bool ->
  ?mix:mix ->
  ?min_items:int ->
  ?max_items:int ->
  ?abort_rate:float ->
  ?remote_customer_rate:float ->
  ?remote_item_rate:float ->
  unit ->
  Acc_workload.t
(** Raises [Invalid_argument] on invalid [params] ({!Params.validate}). *)

val of_spec : Acc_workload.spec -> Acc_workload.t
(** [spec.scale] is the warehouse count; [spec.skew > 0] turns on the
    skewed-district hotspot; mixes: ["standard"], ["new-order-payment"]. *)

val register : unit -> unit
(** Idempotently add ["tpcc"] to {!Acc_workload.Registry}. *)
