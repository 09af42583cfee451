module Executor = Acc_txn.Executor
module Schedule = Acc_txn.Schedule
module Txn_effect = Acc_txn.Txn_effect
module Lock_service = Acc_lock.Lock_service
module Mode = Acc_lock.Mode
module Runtime = Acc_core.Runtime
module Sim = Acc_sim.Sim
module Prng = Acc_util.Prng
module Tally = Acc_util.Stats.Tally
module Trace = Acc_obs.Trace
module Lock_obs = Acc_obs.Lock_obs

type system = Baseline | Acc

type config = {
  seed : int;
  system : system;
  terminals : int;
  servers : int;
  horizon : float;
  warmup : float;
  think_mean : float;
  compute_between : float;
  cpu_per_unit : float;
  acc_options : Acc_core.Runtime.options;
  acc_semantics : Acc_lock.Mode.semantics option;
  workload : Acc_workload.t;
}

let default_config =
  {
    seed = 7;
    system = Baseline;
    terminals = 10;
    servers = 3;
    horizon = 600.0;
    warmup = 30.0;
    think_mean = 4.0;
    compute_between = 0.0;
    cpu_per_unit = 0.004;
    acc_options = Acc_core.Runtime.default_options;
    acc_semantics = None;
    workload = Acc_tpcc.Tpcc_workload.make ();
  }

type report = {
  completed : int;
  response : Tally.t;
  lock_wait : Tally.t;
  per_type : (string * Tally.t) list;
  throughput : float;
  deadlock_victims : int;
  forced_aborts : int;
  compensations : int;
  cpu_utilization : float;
  quiesced_at : float;
  violations : string list;
}

let mean_response r = Tally.mean r.response

let run cfg =
  let module W = (val cfg.workload : Acc_workload.S) in
  W.reset_global ();
  let db = W.populate ~seed:cfg.seed in
  let sem =
    match cfg.system with
    | Baseline -> Mode.no_semantics
    | Acc -> Option.value ~default:W.semantics cfg.acc_semantics
  in
  let eng = Executor.create ~sem db in
  let sim = Sim.create () in
  let servers_pool = Sim.Resource.create sim ~capacity:cfg.servers in
  let backoff_g = Prng.create ~seed:(cfg.seed * 7919) in
  (* deadlock-retry backoff: randomized so that repeatedly colliding
     transactions desynchronize instead of retrying in lockstep forever,
     scaled by the capped exponential factor of the attempt number *)
  let waits =
    Schedule.create ~policy:Runtime.victim_policy sim eng ~yield_delay:(fun attempt ->
        (0.002 +. Prng.exponential backoff_g ~mean:0.05) *. Acc_txn.Backoff.factor ~attempt ())
  in
  Executor.set_charge eng (fun units ->
      if units > 0.0 then Sim.Resource.use servers_pool (units *. cfg.cpu_per_unit));
  (* step durations in virtual time; lock decisions to the trace when one is
     being collected (ACC_TRACE / --trace in the CLI) *)
  Executor.set_clock eng (fun () -> Sim.now sim);
  if Trace.enabled () then
    Lock_service.set_observer (Executor.lock_service eng) (Some (Lock_obs.observer ()));
  let response = Tally.create () in
  let per_type = Hashtbl.create 8 in
  let type_tally name =
    match Hashtbl.find_opt per_type name with
    | Some t -> t
    | None ->
        let t = Tally.create () in
        Hashtbl.add per_type name t;
        t
  in
  let completed = ref 0 in
  let forced_aborts = ref 0 in
  let compensations = ref 0 in
  let base_env =
    W.make_env
      ~pace:(fun () -> if cfg.compute_between > 0.0 then Sim.delay cfg.compute_between)
      ~seed:((cfg.seed * 31) + 1) ()
  in
  let terminal term_id =
    let env = W.split_env base_env in
    let think_g = Prng.create ~seed:((cfg.seed * 1009) + term_id) in
    let rec loop () =
      if Sim.now sim < cfg.horizon then begin
        Sim.delay (Prng.exponential think_g ~mean:cfg.think_mean);
        if Sim.now sim < cfg.horizon then begin
          let input = W.gen_input env in
          let t0 = Sim.now sim in
          let outcome =
            Schedule.within waits (fun () ->
                match cfg.system with
                | Baseline -> begin
                    match W.run_flat eng env input with
                    | `Committed -> `Done
                    | `Aborted -> `Forced_abort
                  end
                | Acc -> begin
                    match W.run_acc ~options:cfg.acc_options eng env input with
                    | Runtime.Committed -> `Done
                    | Runtime.Compensated _ ->
                        if W.forced_abort input then `Forced_abort_compensated
                        else `Compensated
                  end)
          in
          let t1 = Sim.now sim in
          (match outcome with
          | `Done -> ()
          | `Forced_abort -> incr forced_aborts
          | `Forced_abort_compensated ->
              incr forced_aborts;
              incr compensations
          | `Compensated -> incr compensations);
          if t0 >= cfg.warmup && t1 <= cfg.horizon then begin
            incr completed;
            Tally.add response (t1 -. t0);
            Tally.add (type_tally (W.txn_name input)) (t1 -. t0)
          end;
          loop ()
        end
      end
    in
    loop
  in
  let active_terminals = ref 0 in
  for term_id = 1 to cfg.terminals do
    incr active_terminals;
    Sim.spawn sim (fun () ->
        terminal term_id ();
        decr active_terminals)
  done;
  (* Periodic deadlock detector (in addition to the at-block check): grant
     promotions and lock upgrades can close a waits-for cycle without any
     transaction newly blocking, so an Ingres-style background sweep is the
     safety net that guarantees progress. *)
  let rec detector () =
    if !active_terminals > 0 then begin
      Sim.delay 0.25;
      ignore (Schedule.sweep_parked waits);
      detector ()
    end
  in
  Sim.spawn sim detector;
  (* event budget proportional to the configured load: a runaway-retry guard
     that legitimate heavy configurations (many terminals, huge orders) do
     not trip *)
  let max_events =
    max 50_000_000 (int_of_float (float_of_int cfg.terminals *. cfg.horizon *. 20_000.))
  in
  Sim.run ~max_events sim;
  if Schedule.parked waits > 0 then begin
    let locks = Executor.lock_service eng in
    Format.eprintf "stranded lock state:@.%a@.wait edges:@." Lock_service.pp_state locks;
    List.iter (fun (a, b) -> Format.eprintf "  T%d -> T%d@." a b) (Lock_service.wait_edges locks);
    raise (Txn_effect.Stuck "driver: terminals stranded on locks at quiescence")
  end;
  let quiesced_at = Sim.now sim in
  {
    completed = !completed;
    response;
    lock_wait = Schedule.lock_wait waits;
    per_type =
      Hashtbl.fold (fun name t acc -> (name, t) :: acc) per_type []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    throughput =
      (if cfg.horizon > cfg.warmup then float_of_int !completed /. (cfg.horizon -. cfg.warmup)
       else 0.);
    deadlock_victims = Schedule.victims waits;
    forced_aborts = !forced_aborts;
    compensations = !compensations;
    cpu_utilization = Sim.Resource.utilization servers_pool ~at:quiesced_at;
    quiesced_at;
    violations = W.consistency (Executor.db eng);
  }
