module Params = Acc_tpcc.Params

type settings = {
  seeds : int list;
  horizon : float;
  warmup : float;
  think_mean : float;
  cpu_per_unit : float;
  servers : int;
  terminals : int;
  skewed : bool;
  compute_between : float;
  items_range : int * int;
  params : Params.t;
}

let default_settings =
  {
    seeds = [ 3; 17; 29 ];
    horizon = 400.0;
    warmup = 40.0;
    think_mean = 6.0;
    cpu_per_unit = 0.005;
    servers = 3;
    terminals = 10;
    skewed = false;
    compute_between = 0.0;
    items_range = (5, 15);
    params = Params.default;
  }

type side = {
  s_response : float;
  s_throughput : float;
  s_deadlocks : float;
  s_compensations : float;
  s_cpu : float;
  s_lock_wait : float; (* total parked seconds per completed transaction *)
  s_violations : int;
}

type point = { p_label : string; p_terminals : int; p_base : side; p_acc : side }

let response_ratio p = p.p_base.s_response /. p.p_acc.s_response
let throughput_ratio p = p.p_base.s_throughput /. p.p_acc.s_throughput

type acc_variant = One_level | Two_level | No_commutativity

(* interference tables built WITHOUT the compatible (commutativity) pairs *)
let no_commutativity_semantics =
  lazy
    (Acc_core.Interference.semantics (Acc_core.Interference.build Acc_tpcc.Txns.workload))

let apply_variant variant cfg =
  match variant with
  | One_level -> cfg
  | Two_level ->
      {
        cfg with
        Driver.acc_options =
          {
            Acc_core.Runtime.default_options with
            Acc_core.Runtime.assertion_granularity = Acc_core.Runtime.Table;
          };
      }
  | No_commutativity ->
      { cfg with Driver.acc_semantics = Some (Lazy.force no_commutativity_semantics) }

let config_of settings system seed =
  {
    Driver.default_config with
    Driver.seed;
    system;
    terminals = settings.terminals;
    servers = settings.servers;
    horizon = settings.horizon;
    warmup = settings.warmup;
    think_mean = settings.think_mean;
    compute_between = settings.compute_between;
    cpu_per_unit = settings.cpu_per_unit;
    workload =
      Acc_tpcc.Tpcc_workload.make ~params:settings.params ~skewed_district:settings.skewed
        ~min_items:(fst settings.items_range) ~max_items:(snd settings.items_range) ();
  }

let run_side ?(variant = One_level) settings system =
  let n = float_of_int (List.length settings.seeds) in
  let reports =
    List.map
      (fun seed -> Driver.run (apply_variant variant (config_of settings system seed)))
      settings.seeds
  in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0. reports /. n in
  {
    s_response = avg Driver.mean_response;
    s_throughput = avg (fun r -> r.Driver.throughput);
    s_deadlocks = avg (fun r -> float_of_int r.Driver.victims);
    s_compensations = avg (fun r -> float_of_int r.Driver.compensations);
    s_cpu = avg (fun r -> r.Driver.cpu_utilization);
    s_lock_wait =
      avg (fun r ->
          if r.Driver.completed = 0 then 0.
          else Acc_util.Stats.Tally.total r.Driver.lock_wait /. float_of_int r.Driver.completed);
    s_violations =
      List.fold_left (fun acc r -> acc + List.length r.Driver.violations) 0 reports;
  }

let measure ?label ?(variant = One_level) settings =
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "T=%d srv=%d%s%s" settings.terminals settings.servers
          (if settings.skewed then " skew" else "")
          (if settings.compute_between > 0. then
             Printf.sprintf " comp=%.0fms" (1000. *. settings.compute_between)
           else "")
        ^ (if settings.items_range <> (5, 15) then
             Printf.sprintf " items=%d-%d" (fst settings.items_range) (snd settings.items_range)
           else "")
  in
  {
    p_label = label;
    p_terminals = settings.terminals;
    p_base = run_side settings Driver.Baseline;
    p_acc = run_side ~variant settings Driver.Acc;
  }

let sweep_terminals ?variant settings terminal_counts =
  List.map (fun terminals -> measure ?variant { settings with terminals }) terminal_counts

let sweep_servers ?variant settings server_counts =
  List.map (fun servers -> measure ?variant { settings with servers }) server_counts
