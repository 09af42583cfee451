type t = {
  mutable clock : float;
  mutable seq : int;
  events : (unit -> unit) Pqueue.t;
  mutable executed : int;
  choose : (int -> int) option;
}

type _ Effect.t += Delay : float -> unit Effect.t

(* The handler needs the world to schedule continuations; processes find it
   through the closure installed by [spawn]. *)

let create ?choose () =
  { clock = 0.; seq = 0; events = Pqueue.create (); executed = 0; choose }

let now t = t.clock

let schedule t ~at f =
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:(Float.max at t.clock) ~seq:t.seq f

let delay dt = Effect.perform (Delay dt)

module Condition = struct
  type 'a waiter = { w_resume : 'a -> unit }

  type 'a cond = { mutable queue : 'a waiter list (* FIFO: append at tail *) }

  let create () = { queue = [] }
  let waiters c = List.length c.queue

  type _ Effect.t += Wait : 'a cond -> 'a Effect.t

  let wait c = Effect.perform (Wait c)

  let signal t c v =
    match c.queue with
    | [] -> false
    | w :: rest ->
        c.queue <- rest;
        schedule t ~at:t.clock (fun () -> w.w_resume v);
        true
end

let handler t : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Delay dt ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                schedule t ~at:(t.clock +. Float.max 0. dt) (fun () ->
                    Effect.Deep.continue k ()))
        | Condition.Wait c ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                c.Condition.queue <-
                  c.Condition.queue
                  @ [ { Condition.w_resume = (fun v -> Effect.Deep.continue k v) } ])
        | _ -> None);
  }

let spawn t ?at f =
  let at = Option.value ~default:t.clock at in
  schedule t ~at (fun () -> Effect.Deep.match_with f () (handler t))

(* Of the events due at [time] (the head [seq, f] already popped), run the
   one the chooser picks and put the others back under their own sequence
   numbers, so insertion order among them is kept for the next pick. *)
let pick_tie t choose ~time seq f =
  let rec same_time acc =
    match Pqueue.peek_time t.events with
    | Some time' when time' = time -> (
        match Pqueue.pop t.events with
        | Some (_, seq', f') -> same_time ((seq', f') :: acc)
        | None -> assert false)
    | Some _ | None -> List.rev acc
  in
  match same_time [ (seq, f) ] with
  | [ (_, f) ] -> f
  | due ->
      let i = choose (List.length due) in
      List.iteri (fun j (seq', f') -> if j <> i then Pqueue.push t.events ~time ~seq:seq' f') due;
      snd (List.nth due i)

let run ?until ?(max_events = 50_000_000) t =
  let continue_loop = ref true in
  while !continue_loop do
    match Pqueue.pop t.events with
    | None -> continue_loop := false
    | Some (time, seq, f) -> (
        match until with
        | Some stop when time > stop ->
            (* freeze: drop this and all later events *)
            t.clock <- stop;
            continue_loop := false
        | Some _ | None ->
            t.clock <- time;
            t.executed <- t.executed + 1;
            if t.executed > max_events then failwith "Sim.run: event budget exhausted";
            let f = match t.choose with None -> f | Some choose -> pick_tie t choose ~time seq f in
            f ())
  done

let events_executed t = t.executed

module Resource = struct
  type resource = {
    world : t;
    cap : int;
    mutable busy : int;
    mutable busy_time : float;
    pending : unit Condition.cond;
  }

  let create world ~capacity =
    if capacity < 1 then invalid_arg "Resource.create: capacity must be positive";
    { world; cap = capacity; busy = 0; busy_time = 0.; pending = Condition.create () }

  let capacity r = r.cap
  let in_use r = r.busy
  let queue_length r = Condition.waiters r.pending

  let acquire r =
    if r.busy < r.cap && Condition.waiters r.pending = 0 then r.busy <- r.busy + 1
    else
      (* the releaser hands its unit over without it ever becoming free, so a
         latecomer cannot sneak past the FIFO queue *)
      Condition.wait r.pending

  let release r =
    if not (Condition.signal r.world r.pending ()) then r.busy <- r.busy - 1

  let use r dt =
    acquire r;
    delay dt;
    r.busy_time <- r.busy_time +. dt;
    release r

  let busy_time r = r.busy_time

  let utilization r ~at = if at <= 0. then 0. else r.busy_time /. (float_of_int r.cap *. at)
end
