type outcome = {
  schedules : int;
  exhausted : bool;
  failure : (string * int list) option;
}

(* Execute one schedule, steered by [trace] and by first choices beyond it;
   returns the choices made, as (chosen, degree) pairs. *)
let run_one ~policy ~trace engine fibers =
  let remaining = ref trace and choices_rev = ref [] in
  let choose n =
    let c =
      match !remaining with
      | c :: rest ->
          remaining := rest;
          min c (n - 1)
      | [] -> 0
    in
    choices_rev := (c, n) :: !choices_rev;
    c
  in
  Schedule.run ~policy ~choose engine fibers;
  List.rev !choices_rev

(* The next trace in depth-first order: increment the last incrementable
   choice and drop everything after it; None when the tree is exhausted. *)
let bump choices_in_order =
  let rec go = function
    | [] -> None
    | (c, d) :: rest_rev ->
        if c + 1 < d then Some (List.rev_map fst (((c + 1), d) :: rest_rev)) else go rest_rev
  in
  go (List.rev choices_in_order)

let explore ?(max_schedules = 10_000) ?(policy = Schedule.abort_youngest) ~make ~check () =
  let schedules = ref 0 in
  let rec walk trace =
    if !schedules >= max_schedules then { schedules = !schedules; exhausted = false; failure = None }
    else begin
      incr schedules;
      let engine, fibers = make () in
      match
        let choices = run_one ~policy ~trace engine fibers in
        (choices, check engine)
      with
      | choices, Ok () -> begin
          match bump choices with
          | Some next -> walk next
          | None -> { schedules = !schedules; exhausted = true; failure = None }
        end
      | choices, Error msg ->
          {
            schedules = !schedules;
            exhausted = false;
            failure = Some (msg, List.map fst choices);
          }
      | exception e ->
          {
            schedules = !schedules;
            exhausted = false;
            failure = Some (Printexc.to_string e, trace);
          }
    end
  in
  walk []

let replay ?(policy = Schedule.abort_youngest) ~make trace =
  let engine, fibers = make () in
  ignore (run_one ~policy ~trace engine fibers);
  engine
