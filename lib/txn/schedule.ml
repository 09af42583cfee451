module Lock_core = Acc_lock.Lock_core
module Lock_table = Acc_lock.Lock_table
module Lock_service = Acc_lock.Lock_service
module Sim = Acc_sim.Sim
module Tally = Acc_util.Stats.Tally
module Trace = Acc_obs.Trace

type victim_policy = Lock_service.t -> requester:int -> cycle:int list -> int list

let abort_youngest _locks ~requester ~cycle = [ List.fold_left max requester cycle ]

let spare_compensating locks ~requester ~cycle =
  Lock_core.victim_policy
    ~is_compensating:(fun txn -> Lock_service.compensating_waiter locks ~txn)
    ~requester ~cycle

(* The victims [policy] names for the cycle [requester] closed, traced. *)
let victims_of policy locks ~requester ~cycle =
  let victims = policy locks ~requester ~cycle in
  assert (victims <> [] && List.for_all (fun v -> List.mem v cycle) victims);
  if Trace.enabled () then begin
    Trace.emit (Trace.Deadlock_cycle { cycle });
    (* §3.4: the requester was spared iff it is compensating and the policy
       shifted the abort onto the transactions delaying it *)
    let spared_compensating = not (List.mem requester victims) in
    List.iter (fun v -> Trace.emit (Trace.Victim { txn = v; spared_compensating })) victims
  end;
  victims

let sweep policy locks ~kill =
  let edges = Lock_service.wait_edges locks in
  let waiters = List.sort_uniq compare (List.map fst edges) in
  List.fold_left
    (fun killed txn ->
      (* re-snapshot after each kill so one sweep resolves overlapping cycles
         without victimizing transactions a previous kill already unblocked *)
      let edges = if killed = 0 then edges else Lock_service.wait_edges locks in
      match Lock_core.find_cycle ~edges ~from:txn with
      | None -> killed
      | Some cycle ->
          List.fold_left
            (fun k v -> k + kill v)
            killed
            (victims_of policy locks ~requester:txn ~cycle))
    0 waiters

type wait_outcome = Granted | Victim
type parked = { p_txn : int; p_cond : wait_outcome Sim.Condition.cond }

type t = {
  sim : Sim.t;
  locks : Lock_service.t;
  policy : victim_policy;
  yield_delay : int -> float;
  parked : (Lock_table.ticket, parked) Hashtbl.t;
  lock_wait : Tally.t;
  mutable victims : int;
}

let deliver h wakeups =
  List.iter
    (fun w ->
      match Hashtbl.find_opt h.parked w.Lock_table.woken_ticket with
      | Some p ->
          Hashtbl.remove h.parked w.Lock_table.woken_ticket;
          ignore (Sim.Condition.signal h.sim p.p_cond Granted)
      | None -> () (* granted to a request that was cancelled concurrently *))
    wakeups

(* Withdraw [txn]'s parked wait and resume its fiber with Deadlock_victim;
   the number of waits withdrawn. *)
let kill_waiter h txn =
  let victim_waits =
    Hashtbl.fold (fun ticket p acc -> if p.p_txn = txn then (ticket, p) :: acc else acc)
      h.parked []
  in
  List.iter
    (fun (ticket, p) ->
      Hashtbl.remove h.parked ticket;
      h.victims <- h.victims + 1;
      (* the service delivers the cancellation's wakeups through the
         [set_on_wakeup] hook, i.e. straight back into [deliver h] *)
      Lock_service.cancel h.locks ~ticket;
      ignore (Sim.Condition.signal h.sim p.p_cond Victim))
    victim_waits;
  List.length victim_waits

let wait : type r.
    t -> ticket:Lock_table.ticket -> txn:int -> (unit, r) Effect.Deep.continuation -> r =
 fun h ~ticket ~txn k ->
  if not (Lock_service.outstanding h.locks ~ticket) then Effect.Deep.continue k ()
  else begin
    let self_victim =
      match Lock_core.find_cycle ~edges:(Lock_service.wait_edges h.locks) ~from:txn with
      | None -> false
      | Some cycle ->
          let victims = victims_of h.policy h.locks ~requester:txn ~cycle in
          List.iter (fun v -> if v <> txn then ignore (kill_waiter h v)) victims;
          List.mem txn victims
    in
    if self_victim then begin
      h.victims <- h.victims + 1;
      Lock_service.cancel h.locks ~ticket;
      Effect.Deep.discontinue k Txn_effect.Deadlock_victim
    end
    else if not (Lock_service.outstanding h.locks ~ticket) then
      (* killing the other victims promoted the queue and granted our own
         request before we could park *)
      Effect.Deep.continue k ()
    else begin
      let p_cond = Sim.Condition.create () in
      Hashtbl.replace h.parked ticket { p_txn = txn; p_cond };
      let t0 = Sim.now h.sim in
      let outcome = Sim.Condition.wait p_cond in
      Tally.add h.lock_wait (Sim.now h.sim -. t0);
      match outcome with
      | Granted -> Effect.Deep.continue k ()
      | Victim -> Effect.Deep.discontinue k Txn_effect.Deadlock_victim
    end
  end

let create ~policy ~yield_delay sim engine =
  let h =
    {
      sim;
      locks = Executor.lock_service engine;
      policy;
      yield_delay;
      parked = Hashtbl.create 16;
      lock_wait = Tally.create ();
      victims = 0;
    }
  in
  Executor.set_on_wakeup engine (deliver h);
  h

let within : type r. t -> (unit -> r) -> r =
 fun h f ->
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Txn_effect.Wait_lock { ticket; txn } ->
              Some (fun (k : (b, r) Effect.Deep.continuation) -> wait h ~ticket ~txn k)
          | Txn_effect.Yield attempt ->
              Some
                (fun (k : (b, r) Effect.Deep.continuation) ->
                  Sim.delay (h.yield_delay attempt);
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let sweep_parked h = sweep h.policy h.locks ~kill:(kill_waiter h)
let parked h = Hashtbl.length h.parked
let victims h = h.victims
let lock_wait h = h.lock_wait

(* resumptions allowed in one [run] before it is declared a livelock *)
let livelock_budget = 1_000_000

let run ?(policy = abort_youngest) ?choose engine fibers =
  let sim = Sim.create ?choose () in
  (* deterministic round-robin: backoff is a real-time notion, so a yield is
     a zero delay whatever its attempt number *)
  let h = create ~policy ~yield_delay:(fun _ -> 0.) sim engine in
  List.iter (fun f -> Sim.spawn sim (fun () -> within h f)) fibers;
  (* Grant promotions and lock upgrades can close a waits-for cycle without
     any transaction newly blocking; when the run drains with fibers still
     parked, sweep for cycles before declaring a bug. *)
  let rec drain () =
    (try Sim.run ~max_events:livelock_budget sim
     with Failure _ when Sim.events_executed sim > livelock_budget ->
       raise (Txn_effect.Stuck "livelock guard tripped"));
    if parked h > 0 && sweep_parked h > 0 then drain ()
  in
  drain ();
  if parked h > 0 then
    raise
      (Txn_effect.Stuck
         (Format.asprintf "fibers stranded on locks: txns %a"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Format.pp_print_int)
            (Hashtbl.fold (fun _ p acc -> p.p_txn :: acc) h.parked [] |> List.sort_uniq compare)))
