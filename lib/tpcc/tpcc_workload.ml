(* TPC-C packaged as one {!Acc_workload.S} plugin — the reference instance
   of the workload interface, and the only way a driver runs TPC-C: the
   module closes over a {!Txns} environment built from [make]'s knobs. *)

module W = Acc_workload
module Runtime = Acc_core.Runtime
module Prng = Acc_util.Prng

type mix = Standard | New_order_payment

type env = {
  te : Txns.env;
  nop_mix : bool;  (** 50/50 new-order/payment instead of the full mix *)
}

(* Partitioned TPC-C: warehouses are the keys, a partition loads its
   warehouses' share of [Load.populate], and cross-warehouse payments and
   new-orders split into {!Dist_txns}' branches. *)
let partitioning params : (env, Txns.input) W.partitioning =
  Params.validate params;
  {
    W.keys = params.Params.warehouses;
    populate_range =
      (fun ~seed ~lo ~hi -> Load.populate ~only:(fun w -> lo <= w && w <= hi) ~seed params);
    workload = Dist_txns.workload;
    semantics = Dist_txns.semantics;
    route = Dist_txns.partitions_of_input;
    branches = (fun env -> Dist_txns.branches env.te);
    consistency = (fun dbs -> Consistency.check (Load.merge dbs));
  }

let make ?(params = Params.default) ?(skewed_district = false) ?(mix = Standard)
    ?(min_items = 5) ?(max_items = 15) ?(abort_rate = 0.01) ?(remote_customer_rate = 0.15)
    ?(remote_item_rate = 0.01) () : W.t =
  let partitioned = partitioning params in
  (module struct
    let name = "tpcc"

    type input = Txns.input
    type nonrec env = env

    let populate ~seed = Load.populate ~seed params

    let make_env ?(pace = fun () -> ()) ~seed () =
      {
        te =
          {
            (Txns.default_env ~seed params) with
            Txns.skewed_district;
            min_items;
            max_items;
            new_order_abort_rate = abort_rate;
            remote_customer_rate;
            remote_item_rate;
            pace;
          };
        nop_mix = (mix = New_order_payment);
      }

    let split_env env = { env with te = { env.te with Txns.gen = Random_gen.split env.te.Txns.gen } }
    let reset_global () = Txns.reset_history_seq ()

    let gen_input env =
      if env.nop_mix then
        if Prng.chance (Random_gen.prng env.te.Txns.gen) 0.5 then
          Txns.New_order (Txns.gen_new_order env.te)
        else Txns.Payment (Txns.gen_payment env.te)
      else Txns.gen_input env.te

    let txn_name = Txns.txn_name

    let forced_abort = function
      | Txns.New_order { Txns.no_fail_last = true; _ } -> true
      | _ -> false

    let workload = Txns.workload
    let interference = Txns.interference
    let semantics = Txns.semantics
    let run_flat ?stop eng env input = Txns.run_flat ?stop eng env.te input
    let run_acc ?options ?stop eng env input = Txns.run_acc ?options ?stop eng env.te input
    let consistency = Consistency.check
    let extras () = []
    let partitioning = Some partitioned
  end : W.S)

let of_spec (spec : W.spec) : W.t =
  let mix =
    match spec.W.mix with
    | None | Some "standard" -> Standard
    | Some ("new-order-payment" | "nop") -> New_order_payment
    | Some m -> failwith (Printf.sprintf "tpcc: unknown mix %S" m)
  in
  make
    ~params:{ Params.default with Params.warehouses = max 1 spec.W.scale }
    ~skewed_district:(spec.W.skew > 0.) ~mix
    ?abort_rate:spec.W.abort_rate ()

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    W.Registry.register ~name:"tpcc"
      ~doc:"TPC-C (reference): --scale adds warehouses, --theta>0 skews districts"
      of_spec
  end
