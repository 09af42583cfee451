type ticket = int

type grant = Granted | Queued of ticket

type wakeup = { woken_ticket : ticket; woken_txn : int }

(* a queued request withdrawn because its lock-wait deadline passed *)
type expired = {
  ex_ticket : ticket;
  ex_txn : int;
  ex_mode : Mode.t;
  ex_resource : Resource_id.t;
  ex_waited : float; (* seconds spent queued, in the table's clock *)
}

(* the hold/waiter shapes and all compatibility decisions live in the pure
   [Lock_core], shared with the sharded multi-domain table (lib/parallel) *)
type hold = Lock_core.hold = {
  h_txn : int;
  h_mode : Mode.t;
  h_step : int;
  mutable h_count : int;
}

type waiter = Lock_core.waiter = {
  w_ticket : ticket;
  w_txn : int;
  w_mode : Mode.t;
  w_step : int;
  w_requester : Mode.requester;
  w_resource : Resource_id.t;
  w_compensating : bool;
  w_deadline : float option;
  w_enqueued : float;
  mutable w_bypassed : int;
}

type entry = {
  e_resource : Resource_id.t;
  mutable holds : hold list; (* oldest first *)
  mutable queue : waiter list; (* FIFO, head = next to be served *)
}

(* Observations of lock-manager decisions, for the observability layer
   (lib/obs).  Emitted only when an observer is installed — the disabled path
   is a single [None] match and allocates nothing. *)
type decision =
  | Dec_granted of {
      past_2pl : int; (* foreign holds a strict-2PL system would have blocked on *)
      reentrant : bool; (* covered by an own hold; no compatibility check ran *)
      checks : Lock_core.acheck list; (* interference-oracle consultations *)
    }
  | Dec_blocked of {
      blocker_txn : int;
      blocker_mode : Mode.t;
      blocker_waiting : bool; (* blocked behind a queued waiter (FIFO), not a holder *)
      assertion : int option; (* set when the blocking conflict is assertional *)
      interfering_step : int option;
      checks : Lock_core.acheck list;
    }

type observation =
  | Ob_request of {
      or_txn : int;
      or_step_type : int;
      or_mode : Mode.t;
      or_resource : Resource_id.t;
      or_decision : decision;
    }
  | Ob_attach of { oa_txn : int; oa_step_type : int; oa_mode : Mode.t; oa_resource : Resource_id.t }
  | Ob_wake of { ow_txn : int; ow_mode : Mode.t; ow_resource : Resource_id.t }
  | Ob_release of { ol_txn : int; ol_mode : Mode.t; ol_resource : Resource_id.t }
  | Ob_cancel of { oc_txn : int; oc_resource : Resource_id.t }

type t = {
  sem : Mode.semantics;
  entries : entry Resource_id.Tbl.t;
  (* all resources of a table that currently carry holds or waiters: the
     hierarchical checks and cross-level promotion need them *)
  by_table : (string, unit Resource_id.Tbl.t) Hashtbl.t;
  (* the entries of a table whose queue is non-empty — all that promotion
     visits, so a release in a table without waiters sweeps nothing *)
  queued : (string, entry Resource_id.Tbl.t) Hashtbl.t;
  mutable next_ticket : int;
  tickets : (ticket, waiter) Hashtbl.t; (* outstanding waits only *)
  by_txn : (int, unit Resource_id.Tbl.t) Hashtbl.t; (* txn -> resources held *)
  mutable obs : (observation -> unit) option;
  mutable activity : (int -> int -> unit) option;
  (* per-transaction bookkeeping hook: called with (txn, +1) whenever a hold
     record or a waiter of [txn] enters the table and (txn, -1) when one
     leaves (re-entrant count changes are not reported).  The sharded table
     points this at per-shard atomic counters so "does txn hold or wait for
     anything here?" is answerable without the shard mutex. *)
  mutable on_entry : (Resource_id.t -> int -> unit) option;
  (* entry hook: called with (res, +1) when [res]'s entry is created and
     (res, -1) when it is collected.  The sharded table counts entries per
     fast bucket with it: a resource whose bucket counts none has every hold
     in that bucket, which is its lock-free fast path's gate. *)
  max_bypass : int; (* bounded-bypass fairness limit *)
  clock : unit -> float; (* timestamps queue times and checks deadlines *)
}

let create ?(max_bypass = Lock_core.default_max_bypass) ?(clock = fun () -> 0.) sem =
  {
    sem;
    entries = Resource_id.Tbl.create 1024;
    by_table = Hashtbl.create 64;
    queued = Hashtbl.create 16;
    next_ticket = 0;
    tickets = Hashtbl.create 64;
    by_txn = Hashtbl.create 64;
    obs = None;
    activity = None;
    on_entry = None;
    max_bypass;
    clock;
  }

let set_observer t obs = t.obs <- obs
let set_activity_hook t hook = t.activity <- hook
let act t txn delta = match t.activity with None -> () | Some f -> f txn delta
let set_entry_hook t hook = t.on_entry <- hook
let note_entry t res delta = match t.on_entry with None -> () | Some f -> f res delta

let table_members t tname =
  match Hashtbl.find_opt t.by_table tname with
  | Some set -> set
  | None ->
      let set = Resource_id.Tbl.create 64 in
      Hashtbl.add t.by_table tname set;
      set

let note_entry_active t res = Resource_id.Tbl.replace (table_members t (Resource_id.table_of res)) res ()

let entry t res =
  match Resource_id.Tbl.find_opt t.entries res with
  | Some e -> e
  | None ->
      let e = { e_resource = res; holds = []; queue = [] } in
      Resource_id.Tbl.add t.entries res e;
      note_entry t res 1;
      e

(* drop empty entries so the child-sweep of table-level assertional requests
   stays proportional to live locks *)
let gc_entry t e =
  if e.holds = [] && e.queue = [] then begin
    Resource_id.Tbl.remove t.entries e.e_resource;
    note_entry t e.e_resource (-1);
    let tname = Resource_id.table_of e.e_resource in
    match Hashtbl.find_opt t.by_table tname with
    | Some set ->
        Resource_id.Tbl.remove set e.e_resource;
        if Resource_id.Tbl.length set = 0 then Hashtbl.remove t.by_table tname
    | None -> ()
  end

(* Keep [e]'s membership of the queued-entry index in step with its queue;
   called wherever a queue changes (enqueue, promotion, cancel). *)
let note_queue t e =
  let tname = Resource_id.table_of e.e_resource in
  match (e.queue, Hashtbl.find_opt t.queued tname) with
  | [], None -> ()
  | [], Some set ->
      Resource_id.Tbl.remove set e.e_resource;
      if Resource_id.Tbl.length set = 0 then Hashtbl.remove t.queued tname
  | _ :: _, Some set -> Resource_id.Tbl.replace set e.e_resource e
  | _ :: _, None ->
      let set = Resource_id.Tbl.create 8 in
      Resource_id.Tbl.add set e.e_resource e;
      Hashtbl.add t.queued tname set

let note_held t ~txn res =
  let set =
    match Hashtbl.find_opt t.by_txn txn with
    | Some s -> s
    | None ->
        let s = Resource_id.Tbl.create 16 in
        Hashtbl.add t.by_txn txn s;
        s
  in
  Resource_id.Tbl.replace set res ()

let forget_held_if_empty t ~txn res e =
  if not (List.exists (fun h -> h.h_txn = txn) e.holds) then
    match Hashtbl.find_opt t.by_txn txn with
    | Some set ->
        Resource_id.Tbl.remove set res;
        if Resource_id.Tbl.length set = 0 then Hashtbl.remove t.by_txn txn
    | None -> ()

let hold_conflict t h ~mode ~requester = Lock_core.hold_conflict t.sem h ~mode ~requester
let waiter_conflict t w ~mode ~requester = Lock_core.waiter_conflict t.sem w ~mode ~requester

(* The holds a request on [res] must be compatible with:
   - holds on [res] itself;
   - holds on the parent table (a tuple write must respect table-level
     assertional locks, e.g. a legacy scan's isolation lock);
   - for a checked assertional request on a whole table: holds on the
     table's tuples (a legacy scan must wait out in-flight writers, whose
     exposure is recorded by tuple-level compensation locks). *)
let relevant_holds t res ~mode =
  let own = match Resource_id.Tbl.find_opt t.entries res with Some e -> e.holds | None -> [] in
  let parent =
    match Resource_id.parent res with
    | Some p -> (
        match Resource_id.Tbl.find_opt t.entries p with
        | Some e -> List.filter Lock_core.reaches_down e.holds
        | None -> [])
    | None -> []
  in
  let children =
    if Lock_core.needs_child_sweep res ~mode then
      match Hashtbl.find_opt t.by_table (Resource_id.table_of res) with
      | Some set ->
          Resource_id.Tbl.fold
            (fun r () acc ->
              match r with
              | Resource_id.Tuple _ -> (
                  match Resource_id.Tbl.find_opt t.entries r with
                  | Some e -> e.holds @ acc
                  | None -> acc)
              | Resource_id.Table _ -> acc)
            set []
      | None -> []
    else []
  in
  own @ parent @ children

let holds_compatible t res ~txn ~mode ~requester =
  Lock_core.holds_compatible t.sem (relevant_holds t res ~mode) ~txn ~mode ~requester

(* --- bounded-bypass fairness ---------------------------------------------

   FIFO already prevents a request from overtaking a conflicting waiter in
   the same queue, but three avenues bypass it: upgrades (which only check
   holders), re-entrant grants, and cross-level grants (a tuple grant never
   consults the table-level queue, and an absolute table grant never consults
   the tuple queues).  Every such grant increments [w_bypassed] on the
   conflicting waiters it overtook; once a waiter has been overtaken
   [max_bypass] times the table refuses further conflicting grants until it
   is served.  Compensating requests are exempt from the gate (§3.4: nothing
   may delay compensation). *)

(* waiters in other queues a grant on [res] can overtake: the parent table's
   queue for a tuple grant, the tuple queues for an absolute table grant *)
let cross_level_waiters t res ~mode =
  let parent =
    match Resource_id.parent res with
    | Some p -> (
        match Resource_id.Tbl.find_opt t.entries p with Some e -> e.queue | None -> [])
    | None -> []
  in
  let children =
    match (res, mode) with
    | Resource_id.Table _, (Mode.IS | Mode.IX) -> []
    | Resource_id.Table _, _ -> (
        match Hashtbl.find_opt t.by_table (Resource_id.table_of res) with
        | Some set ->
            Resource_id.Tbl.fold
              (fun r () acc ->
                match r with
                | Resource_id.Tuple _ -> (
                    match Resource_id.Tbl.find_opt t.entries r with
                    | Some e -> e.queue @ acc
                    | None -> acc)
                | Resource_id.Table _ -> acc)
              set []
        | None -> [])
    | Resource_id.Tuple _, _ -> []
  in
  parent @ children

(* a foreign waiter already overtaken [max_bypass] times that this grant
   would overtake again — the fairness gate's refusal witness *)
let starving_waiter t ~txn ~mode ~step_type waiters =
  List.find_opt
    (fun w ->
      w.w_txn <> txn
      && w.w_bypassed >= t.max_bypass
      && Lock_core.grant_blocks_waiter t.sem ~mode ~step_type w)
    waiters

let record_bypass t ~txn ~mode ~step_type waiters =
  List.iter
    (fun w ->
      if w.w_txn <> txn && Lock_core.grant_blocks_waiter t.sem ~mode ~step_type w then
        w.w_bypassed <- w.w_bypassed + 1)
    waiters

let queue_ahead_compatible t ~txn ~mode ~requester ahead =
  Lock_core.queue_ahead_compatible t.sem ~txn ~mode ~requester ahead

let add_hold t e ~txn ~step_type ~mode res =
  e.holds <- e.holds @ [ { h_txn = txn; h_mode = mode; h_step = step_type; h_count = 1 } ];
  note_entry_active t res;
  note_held t ~txn res;
  act t txn 1

(* Post-hoc classification of a decision, for the observer.  Runs only when
   an observer is installed; re-reads the same holds/queue the decision
   used. *)
let classify_decision t ~txn ~mode ~requester ?starved ~granted rel queue_ahead =
  let checks = Lock_core.checks_against t.sem rel ~txn ~mode ~requester in
  if granted then
    Dec_granted
      { past_2pl = Lock_core.past_2pl_count rel ~txn ~mode; reentrant = false; checks }
  else
    match starved with
    | Some s ->
        (* fairness deferral: otherwise-compatible, held back behind a
           starved waiter the grant would overtake again *)
        Dec_blocked
          {
            blocker_txn = s.w_txn;
            blocker_mode = s.w_mode;
            blocker_waiting = true;
            assertion = None;
            interfering_step = None;
            checks;
          }
    | None -> (
    match Lock_core.first_blocking_hold t.sem rel ~txn ~mode ~requester with
    | Some h ->
        let ac = Lock_core.assertional_check t.sem ~held:h.h_mode ~held_step:h.h_step ~req:mode ~requester in
        Dec_blocked
          {
            blocker_txn = h.h_txn;
            blocker_mode = h.h_mode;
            blocker_waiting = false;
            assertion = Option.map (fun c -> c.Lock_core.ac_assertion) ac;
            interfering_step = Option.map (fun c -> c.Lock_core.ac_step_type) ac;
            checks;
          }
    | None -> (
        match Lock_core.first_blocking_waiter t.sem queue_ahead ~txn ~mode ~requester with
        | Some w ->
            let ac =
              Lock_core.assertional_check t.sem ~held:w.w_mode ~held_step:w.w_step ~req:mode ~requester
            in
            Dec_blocked
              {
                blocker_txn = w.w_txn;
                blocker_mode = w.w_mode;
                blocker_waiting = true;
                assertion = Option.map (fun c -> c.Lock_core.ac_assertion) ac;
                interfering_step = Option.map (fun c -> c.Lock_core.ac_step_type) ac;
                checks;
              }
        | None ->
            (* cannot happen: a blocked request conflicts somewhere; emit a
               self-blocked marker rather than failing the observer *)
            Dec_blocked
              {
                blocker_txn = txn;
                blocker_mode = mode;
                blocker_waiting = false;
                assertion = None;
                interfering_step = None;
                checks;
              }))

let submit t (r : Lock_request.t) =
  let txn = r.Lock_request.txn
  and step_type = r.Lock_request.step_type
  and admission = r.Lock_request.admission
  and compensating = r.Lock_request.compensating
  and mode = r.Lock_request.mode
  and res = r.Lock_request.resource in
  (* §3.4 compensation-sparing: a compensating request never times out *)
  let deadline = if compensating then None else r.Lock_request.deadline in
  let e = entry t res in
  match Lock_core.find_covering e.holds ~txn ~mode with
  | Some h ->
      h.h_count <- h.h_count + 1;
      record_bypass t ~txn ~mode ~step_type (e.queue @ cross_level_waiters t res ~mode);
      (match t.obs with
      | None -> ()
      | Some f ->
          f
            (Ob_request
               {
                 or_txn = txn;
                 or_step_type = step_type;
                 or_mode = mode;
                 or_resource = res;
                 or_decision = Dec_granted { past_2pl = 0; reentrant = true; checks = [] };
               }));
      Granted
  | None ->
      let requester = Mode.{ req_step_type = step_type; req_admission = admission } in
      let upgrade = List.exists (fun h -> h.h_txn = txn) e.holds in
      let rel = relevant_holds t res ~mode in
      let affected = e.queue @ cross_level_waiters t res ~mode in
      let compatible =
        Lock_core.holds_compatible t.sem rel ~txn ~mode ~requester
        && (upgrade || queue_ahead_compatible t ~txn ~mode ~requester e.queue)
      in
      let starved =
        if compatible && not compensating then
          starving_waiter t ~txn ~mode ~step_type affected
        else None
      in
      let granted = compatible && starved = None in
      (match t.obs with
      | None -> ()
      | Some f ->
          f
            (Ob_request
               {
                 or_txn = txn;
                 or_step_type = step_type;
                 or_mode = mode;
                 or_resource = res;
                 or_decision =
                   classify_decision t ~txn ~mode ~requester ?starved ~granted rel e.queue;
               }));
      if granted then begin
        record_bypass t ~txn ~mode ~step_type affected;
        add_hold t e ~txn ~step_type ~mode res;
        Granted
      end
      else begin
        let ticket = t.next_ticket in
        t.next_ticket <- ticket + 1;
        let w =
          {
            w_ticket = ticket;
            w_txn = txn;
            w_mode = mode;
            w_step = step_type;
            w_requester = requester;
            w_resource = res;
            w_compensating = compensating;
            w_deadline = deadline;
            w_enqueued = t.clock ();
            w_bypassed = 0;
          }
        in
        (* upgrades wait at the head so they cannot deadlock behind requests
           that conflict with the lock they already hold *)
        e.queue <- (if upgrade then w :: e.queue else e.queue @ [ w ]);
        note_queue t e;
        note_entry_active t res;
        Hashtbl.replace t.tickets ticket w;
        act t txn 1;
        Queued ticket
      end

let attach_req t (r : Lock_request.t) =
  let txn = r.Lock_request.txn
  and step_type = r.Lock_request.step_type
  and mode = r.Lock_request.mode
  and res = r.Lock_request.resource in
  (match t.obs with
  | None -> ()
  | Some f ->
      f (Ob_attach { oa_txn = txn; oa_step_type = step_type; oa_mode = mode; oa_resource = res }));
  let e = entry t res in
  (* unconditional grants still count against the fairness bound of the
     waiters they overtake *)
  record_bypass t ~txn ~mode ~step_type (e.queue @ cross_level_waiters t res ~mode);
  match Lock_core.find_hold e.holds ~txn ~mode with
  | Some h -> h.h_count <- h.h_count + 1
  | None -> add_hold t e ~txn ~step_type ~mode res

(* The same-queue waiters a grant of queued waiter [w] overtakes.  An
   upgrade waits at the head, so its grant passes every other waiter of the
   entry (as [submit]'s gate already counts it); any other waiter passes
   only those ahead of it.  Promotion's fairness gate, its bypass accounting
   and the gate's wait edges all use this set, so a gate-deferred upgrade
   stays deferred and shows its starved waiters as blockers. *)
let overtaken_in_queue e w ~ahead ~behind =
  if List.exists (fun h -> h.h_txn = w.w_txn) e.holds then ahead @ behind else ahead

(* Grant the maximal FIFO-respecting set of waiters on [e].  A promotion
   grant is subject to the same fairness gate as a fresh request: it may not
   overtake (again) a starved waiter it was already counted past — skipped
   same-queue waiters and cross-level queues both count. *)
let promote_entry t e =
  let rec loop granted still_waiting = function
    | [] ->
        if granted <> [] then begin
          e.queue <- List.rev still_waiting;
          note_queue t e
        end;
        List.rev granted
    | w :: rest ->
        let ahead = List.rev still_waiting in
        let overtaken =
          overtaken_in_queue e w ~ahead ~behind:rest
          @ cross_level_waiters t w.w_resource ~mode:w.w_mode
        in
        let compatible =
          holds_compatible t w.w_resource ~txn:w.w_txn ~mode:w.w_mode ~requester:w.w_requester
          && queue_ahead_compatible t ~txn:w.w_txn ~mode:w.w_mode ~requester:w.w_requester ahead
        in
        let fair =
          w.w_compensating
          || starving_waiter t ~txn:w.w_txn ~mode:w.w_mode ~step_type:w.w_step overtaken
             = None
        in
        if compatible && fair then begin
          record_bypass t ~txn:w.w_txn ~mode:w.w_mode ~step_type:w.w_step overtaken;
          add_hold t e ~txn:w.w_txn ~step_type:w.w_step ~mode:w.w_mode w.w_resource;
          Hashtbl.remove t.tickets w.w_ticket;
          act t w.w_txn (-1);
          (match t.obs with
          | None -> ()
          | Some f ->
              f (Ob_wake { ow_txn = w.w_txn; ow_mode = w.w_mode; ow_resource = w.w_resource }));
          loop ({ woken_ticket = w.w_ticket; woken_txn = w.w_txn } :: granted) still_waiting rest
        end
        else loop granted (w :: still_waiting) rest
  in
  loop [] [] e.queue

(* A release on any resource of a table can unblock waiters anywhere in that
   table (cross-level conflicts), so promotion sweeps the table's queued
   entries to a fixpoint.  The queued-entry index makes that sweep visit only
   entries with waiters: none at all when the table has no queue.  The
   sharded table also calls this without a triggering release, after a
   lock-free fast-path retreat (a rolled-back optimistic install may have
   transiently blocked a grantable waiter). *)
let promote t ~table =
  let rec sweep acc =
    match Hashtbl.find_opt t.queued table with
    | None -> acc
    | Some set ->
        let entries_with_queues =
          Resource_id.Tbl.fold (fun _ e acc -> e :: acc) set []
          |> List.sort (fun a b -> Resource_id.compare a.e_resource b.e_resource)
        in
        let woken = List.concat_map (fun e -> promote_entry t e) entries_with_queues in
        if woken = [] then acc else sweep (acc @ woken)
  in
  sweep []

let after_change t e =
  let woken = promote t ~table:(Resource_id.table_of e.e_resource) in
  gc_entry t e;
  woken

(* Unconditional install of an already-granted hold, used when the sharded
   table migrates a lock-free fast-path grant into the sequential table (the
   resource is becoming contended).  The grant decision already happened —
   and was already observed — at fast-install time, and no waiter it could
   overtake existed then (a fast install requires the resource and its
   parent to have no entry), so neither the observer nor the bypass
   bookkeeping fires here. *)
let import_hold t ~txn ~step_type ~mode ~count res =
  if count < 1 then invalid_arg "Lock_table.import_hold: count must be >= 1";
  let e = entry t res in
  match Lock_core.find_hold e.holds ~txn ~mode with
  | Some h -> h.h_count <- h.h_count + count
  | None ->
      e.holds <-
        e.holds @ [ { h_txn = txn; h_mode = mode; h_step = step_type; h_count = count } ];
      note_entry_active t res;
      note_held t ~txn res;
      act t txn 1

let release t ~txn mode res =
  let e = entry t res in
  match Lock_core.find_hold e.holds ~txn ~mode with
  | None ->
      gc_entry t e;
      invalid_arg
        (Format.asprintf "Lock_table.release: %d does not hold %a on %a" txn Mode.pp mode
           Resource_id.pp res)
  | Some h ->
      if h.h_count > 1 then begin
        h.h_count <- h.h_count - 1;
        []
      end
      else begin
        e.holds <- List.filter (fun h' -> h' != h) e.holds;
        act t txn (-1);
        (match t.obs with
        | None -> ()
        | Some f -> f (Ob_release { ol_txn = txn; ol_mode = mode; ol_resource = res }));
        forget_held_if_empty t ~txn res e;
        after_change t e
      end

let release_where t ~txn pred =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> []
  | Some set ->
      let resources = Resource_id.Tbl.fold (fun res () acc -> res :: acc) set [] in
      List.concat_map
        (fun res ->
          let e = entry t res in
          let mine, kept =
            List.partition (fun h -> h.h_txn = txn && pred res h.h_mode) e.holds
          in
          if mine = [] then begin
            gc_entry t e;
            []
          end
          else begin
            e.holds <- kept;
            act t txn (-List.length mine);
            (match t.obs with
            | None -> ()
            | Some f ->
                List.iter
                  (fun h -> f (Ob_release { ol_txn = txn; ol_mode = h.h_mode; ol_resource = res }))
                  mine);
            forget_held_if_empty t ~txn res e;
            after_change t e
          end)
        (List.sort Resource_id.compare resources)

let cancel t ~ticket =
  match Hashtbl.find_opt t.tickets ticket with
  | None -> []
  | Some w ->
      Hashtbl.remove t.tickets ticket;
      act t w.w_txn (-1);
      (match t.obs with
      | None -> ()
      | Some f -> f (Ob_cancel { oc_txn = w.w_txn; oc_resource = w.w_resource }));
      let e = entry t w.w_resource in
      e.queue <- List.filter (fun w' -> w'.w_ticket <> ticket) e.queue;
      note_queue t e;
      after_change t e

let release_all t ~txn =
  (* withdraw any outstanding wait first so promotion is not blocked by it *)
  let my_tickets =
    Hashtbl.fold (fun tk w acc -> if w.w_txn = txn then tk :: acc else acc) t.tickets []
  in
  let w1 = List.concat_map (fun tk -> cancel t ~ticket:tk) my_tickets in
  let w2 = release_where t ~txn (fun _ _ -> true) in
  w1 @ w2

let outstanding t ~ticket = Hashtbl.mem t.tickets ticket

let outstanding_tickets t ~txn =
  Hashtbl.fold (fun tk w acc -> if w.w_txn = txn then tk :: acc else acc) t.tickets []

let holders t res =
  match Resource_id.Tbl.find_opt t.entries res with
  | None -> []
  | Some e -> List.map (fun h -> (h.h_txn, h.h_mode, h.h_step)) e.holds

let held_by t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> []
  | Some set ->
      Resource_id.Tbl.fold
        (fun res () acc ->
          let holds =
            match Resource_id.Tbl.find_opt t.entries res with Some e -> e.holds | None -> []
          in
          List.filter_map (fun h -> if h.h_txn = txn then Some (res, h.h_mode) else None) holds
          @ acc)
        set []
      |> List.sort compare

let waiting_on t ~txn =
  Hashtbl.fold
    (fun _ w acc -> if w.w_txn = txn then w.w_resource :: acc else acc)
    t.tickets []

let waiter_blockers t w =
  let from_holds =
    List.filter_map
      (fun h ->
        if
          h.h_txn <> w.w_txn
          && hold_conflict t h ~mode:w.w_mode ~requester:w.w_requester
        then Some h.h_txn
        else None)
      (relevant_holds t w.w_resource ~mode:w.w_mode)
  in
  (* a lookup, not [entry]: this runs in the sharded table's read-only
     sections, which must not create or collect entries.  An outstanding
     waiter is queued on its entry, so the entry exists. *)
  let e = Resource_id.Tbl.find t.entries w.w_resource in
  let rec split acc = function
    | [] -> ([], [])
    | w' :: rest when w'.w_ticket = w.w_ticket -> (List.rev acc, rest)
    | w' :: rest -> split (w' :: acc) rest
  in
  let ahead_ws, behind_ws = split [] e.queue in
  let from_queue =
    List.filter_map
      (fun w' ->
        if w'.w_txn <> w.w_txn && waiter_conflict t w' ~mode:w.w_mode ~requester:w.w_requester
        then Some w'.w_txn
        else None)
      ahead_ws
  in
  (* fairness edges: a waiter deferred by the bounded-bypass gate is waiting
     on the starved waiters its grant would overtake.  Without these edges a
     gate-induced wedge would be invisible to the deadlock detector. *)
  let from_fairness =
    if w.w_compensating then []
    else
      List.filter_map
        (fun s ->
          if
            s.w_txn <> w.w_txn
            && s.w_bypassed >= t.max_bypass
            && Lock_core.grant_blocks_waiter t.sem ~mode:w.w_mode ~step_type:w.w_step s
          then Some s.w_txn
          else None)
        (overtaken_in_queue e w ~ahead:ahead_ws ~behind:behind_ws
        @ cross_level_waiters t w.w_resource ~mode:w.w_mode)
  in
  List.sort_uniq compare (from_holds @ from_queue @ from_fairness)

let blockers t ~ticket =
  match Hashtbl.find_opt t.tickets ticket with
  | None -> []
  | Some w -> waiter_blockers t w

let wait_edges t =
  Hashtbl.fold
    (fun _ w acc -> List.map (fun b -> (w.w_txn, b)) (waiter_blockers t w) @ acc)
    t.tickets []

let find_cycle t ~from = Lock_core.find_cycle ~edges:(wait_edges t) ~from

let compensating_waiter t ~txn =
  Hashtbl.fold
    (fun _ w acc -> acc || (w.w_txn = txn && w.w_compensating))
    t.tickets false

let is_overdue ~now w =
  match w.w_deadline with
  | Some d -> d <= now && not w.w_compensating
  | None -> false

let has_overdue t ~now = Hashtbl.fold (fun _ w acc -> acc || is_overdue ~now w) t.tickets false

(* Withdraw every non-compensating waiter whose deadline has passed.  The
   expired requests are reported to the caller (who turns them into timeout
   aborts); the wakeups are the promotions their withdrawal enabled. *)
let expire_overdue t ~now =
  let overdue =
    Hashtbl.fold (fun _ w acc -> if is_overdue ~now w then w :: acc else acc) t.tickets []
    |> List.sort (fun a b -> compare a.w_ticket b.w_ticket)
  in
  let wakeups = List.concat_map (fun w -> cancel t ~ticket:w.w_ticket) overdue in
  let expired =
    List.map
      (fun w ->
        {
          ex_ticket = w.w_ticket;
          ex_txn = w.w_txn;
          ex_mode = w.w_mode;
          ex_resource = w.w_resource;
          ex_waited = now -. w.w_enqueued;
        })
      overdue
  in
  (expired, wakeups)

let oldest_wait t ~now =
  Hashtbl.fold (fun _ w acc -> Float.max acc (now -. w.w_enqueued)) t.tickets 0.

let max_bypassed t = Hashtbl.fold (fun _ w acc -> max acc w.w_bypassed) t.tickets 0

let lock_count t =
  Resource_id.Tbl.fold (fun _ e acc -> acc + List.length e.holds) t.entries 0

let waiter_count t = Hashtbl.length t.tickets
let entry_count t = Resource_id.Tbl.length t.entries

let pp_state ppf t =
  Resource_id.Tbl.iter
    (fun res e ->
      if e.holds <> [] || e.queue <> [] then begin
        Format.fprintf ppf "@[<h>%a:" Resource_id.pp res;
        List.iter
          (fun h -> Format.fprintf ppf " held(T%d,%a,x%d)" h.h_txn Mode.pp h.h_mode h.h_count)
          e.holds;
        List.iter (fun w -> Format.fprintf ppf " wait(T%d,%a)" w.w_txn Mode.pp w.w_mode) e.queue;
        Format.fprintf ppf "@]@."
      end)
    t.entries
