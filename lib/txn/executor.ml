module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Value = Acc_relation.Value
module Predicate = Acc_relation.Predicate
module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id
module Lock_table = Acc_lock.Lock_table
module Lock_request = Acc_lock.Lock_request
module Lock_service = Acc_lock.Lock_service
module Log = Acc_wal.Log
module Record = Acc_wal.Record
module Recovery = Acc_wal.Recovery
module Trace = Acc_obs.Trace
module Fault = Acc_fault.Fault

(* Crash points at the engine's recovery-critical state transitions (the
   per-record points inside [Log.append] cover each record's durability;
   these cover the windows {e between} appends): a durable commit whose locks
   are not yet released, a lock release that never happens, and a
   compensating write. *)
let cp_commit_durable = Fault.register "exec.commit.durable"
let cp_release = Fault.register "exec.release"
let cp_comp_write = Fault.register "comp.write"

(* the 2PC participant's vote window: the Prepare record is durable but the
   coordinator has not decided — a crash here leaves the branch in doubt *)
let cp_prepare = Fault.register "dist.prepare"

type table_wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

type config = {
  mutable on_wakeup : Lock_table.wakeup list -> unit;
  mutable charge : float -> unit;
  mutable trace : (int -> [ `R | `W ] -> Resource_id.t -> unit) option;
  mutable clock : unit -> float;
  (* time source for step latencies: the simulator installs virtual time, the
     parallel driver wall-clock; default (constantly 0) yields 0 durations *)
  mutable on_step_end : step_type:int -> dur:float -> unit;
  mutable table_wrap : table_wrap;
  (* every storage-engine access runs inside [table_wrap.wrap tname]; the
     parallel engine installs a per-table mutex here so hashtable/index
     structure is never mutated concurrently (row-content races are already
     excluded by the lock protocol) *)
  mutable lock_deadline : float option;
  (* relative lock-wait budget in seconds applied to every non-compensating
     acquisition (the absolute deadline is [clock () + budget]); [None]
     disables timeouts *)
}

type t = {
  db : Database.t;
  service : Lock_service.t;
  log : Log.t;
  cost : Cost_model.t;
  config : config;
  next_txn : int Atomic.t;
  active : int Atomic.t;
}

type ctx = {
  eng : t;
  txn : int;
  txn_type : string;
  multi_step : bool;
  mutable step_type : int;
  mutable step_index : int;
  mutable compensating : bool;
  mutable undo_stack : Record.write list; (* newest first *)
  mutable area : (string * Value.t) list;
      (* the work area the last forward step-end record carried (or that
         [adopt_pending] re-logged): the compensating step's only input *)
  mutable on_lock : Resource_id.t -> Mode.t -> unit;
  mutable on_before_lock : Resource_id.t -> Mode.t -> unit;
  mutable step_t0 : float;
  mutable finished : bool;
}

let make ?(cost = Cost_model.default) ?wal_policy service db =
  {
    db;
    service;
    log = Log.create ?policy:wal_policy ();
    cost;
    config =
      {
        on_wakeup = (fun _ -> ());
        charge = (fun _ -> ());
        trace = None;
        clock = (fun () -> 0.);
        on_step_end = (fun ~step_type:_ ~dur:_ -> ());
        table_wrap = { wrap = (fun _ f -> f ()) };
        lock_deadline = None;
      };
    next_txn = Atomic.make 1;
    active = Atomic.make 0;
  }

(* The sequential backend's wakeup routing is a knot: the service's [deliver]
   must call [t.config.on_wakeup], but the service is built before [t].  A
   forward reference unties it — [on_wakeup] is mutable anyway, so the one
   extra indirection changes nothing observable. *)
let create ?cost ?wal_policy ~sem db =
  let table = Lock_table.create sem in
  let deliver_ref = ref (fun (_ : Lock_table.wakeup list) -> ()) in
  let service =
    Lock_service.of_table
      ~wait:(fun ~ticket ~txn -> Effect.perform (Txn_effect.Wait_lock { ticket; txn }))
      ~deliver:(fun wakeups -> !deliver_ref wakeups)
      table
  in
  let t = make ?cost ?wal_policy service db in
  deliver_ref := (fun wakeups -> if wakeups <> [] then t.config.on_wakeup wakeups);
  t

let create_with ?cost ?wal_policy ~service db = make ?cost ?wal_policy service db

let db t = t.db
let lock_service t = t.service
let log t = t.log
let set_on_wakeup t f = t.config.on_wakeup <- f
let set_charge t f = t.config.charge <- f
let set_trace t f = t.config.trace <- f
let set_clock t f = t.config.clock <- f
let set_on_step_end t f = t.config.on_step_end <- f
let set_table_wrap t w = t.config.table_wrap <- w
let set_lock_deadline t d = t.config.lock_deadline <- d
let lock_deadline t = t.config.lock_deadline

(* monotonic: only moves the counter forward, so it composes with
   [adopt_pending]'s bump and is safe to call on a live engine *)
let set_next_txn t base =
  let rec bump () =
    let cur = Atomic.get t.next_txn in
    if cur < base && not (Atomic.compare_and_set t.next_txn cur base) then bump ()
  in
  bump ()
let charge t units = t.config.charge units
let cost t = t.cost

(* --- lock service dispatch ---------------------------------------------- *)

let lock_release t ~txn mode res = Lock_service.release t.service ~txn mode res
let lock_release_where t ~txn pred = Lock_service.release_where t.service ~txn pred
let lock_release_all t ~txn = Lock_service.release_all t.service ~txn

(* --- transaction lifecycle ---------------------------------------------- *)

let open_ctx t ~txn ~txn_type ~multi_step ~step_index ~area =
  if Trace.enabled () then Trace.emit (Trace.Txn_begin { txn; txn_type });
  {
    eng = t;
    txn;
    txn_type;
    multi_step;
    step_type = 0;
    step_index;
    compensating = false;
    undo_stack = [];
    area;
    on_lock = (fun _ _ -> ());
    on_before_lock = (fun _ _ -> ());
    step_t0 = 0.;
    finished = false;
  }

let begin_txn t ~txn_type ~multi_step =
  let txn = Atomic.fetch_and_add t.next_txn 1 in
  Atomic.incr t.active;
  ignore (Log.append t.log (Record.Begin { txn; txn_type; multi_step }));
  open_ctx t ~txn ~txn_type ~multi_step ~step_index:1 ~area:[]

let txn_id ctx = ctx.txn
let txn_type ctx = ctx.txn_type
let engine ctx = ctx.eng

let set_step ctx ~step_type ~step_index =
  ctx.step_type <- step_type;
  ctx.step_index <- step_index;
  ctx.step_t0 <- ctx.eng.config.clock ();
  if Trace.enabled () then
    if ctx.compensating then
      (* the runtime enters the compensating step at index completed+1 *)
      Trace.emit (Trace.Comp_run { txn = ctx.txn; step_type; from_step = step_index })
    else Trace.emit (Trace.Step_begin { txn = ctx.txn; step_type; step_index })

let step_type ctx = ctx.step_type
let step_index ctx = ctx.step_index
let set_compensating ctx flag = ctx.compensating <- flag
let compensating ctx = ctx.compensating
let set_on_lock ctx f = ctx.on_lock <- f
let set_on_before_lock ctx f = ctx.on_before_lock <- f
let finished ctx = ctx.finished

let trace ctx rw res =
  match ctx.eng.config.trace with None -> () | Some f -> f ctx.txn rw res

let with_table ctx tname f = ctx.eng.config.table_wrap.wrap tname f

(* compensating steps never carry a deadline (§3.4) *)
let deadline_for ctx =
  if ctx.compensating then None
  else Option.map (fun d -> ctx.eng.config.clock () +. d) ctx.eng.config.lock_deadline

let request_of ctx ~admission ~deadline mode res =
  {
    Lock_request.txn = ctx.txn;
    step_type = ctx.step_type;
    admission;
    compensating = ctx.compensating;
    deadline;
    mode;
    resource = res;
  }

(* Checked lock acquisition: grant, or suspend (Wait_lock effect /
   domain-blocking wait, depending on the backend).  When control returns
   normally the lock is held. *)
let acquire ctx ?(admission = false) mode res =
  (* assertional locks that must be in place before the data lock (legacy
     isolation) are taken here, ahead of the conventional request, so the
     transaction never waits for them while already holding the data lock *)
  if Mode.conventional mode then ctx.on_before_lock res mode;
  charge ctx.eng
    (if Mode.conventional mode then ctx.eng.cost.lock_op else ctx.eng.cost.assertional_op);
  Lock_service.acquire ctx.eng.service
    (request_of ctx ~admission ~deadline:(deadline_for ctx) mode res);
  ctx.on_lock res mode

let attach_request_of ctx mode res =
  {
    Lock_request.txn = ctx.txn;
    step_type = ctx.step_type;
    admission = false;
    compensating = false;
    deadline = None;
    mode;
    resource = res;
  }

let attach_lock ctx mode res =
  charge ctx.eng ctx.eng.cost.assertional_op;
  Lock_service.attach ctx.eng.service (attach_request_of ctx mode res)

let lock_tuple_read ctx tname key =
  acquire ctx Mode.IS (Resource_id.Table tname);
  acquire ctx Mode.S (Resource_id.Tuple (tname, key))

let lock_tuple_write ctx tname key =
  acquire ctx Mode.IX (Resource_id.Table tname);
  acquire ctx Mode.X (Resource_id.Tuple (tname, key))

let table_of ctx tname = Database.table ctx.eng.db tname

let read ctx tname key =
  lock_tuple_read ctx tname key;
  charge ctx.eng ctx.eng.cost.point_op;
  trace ctx `R (Resource_id.Tuple (tname, key));
  let table = table_of ctx tname in
  with_table ctx tname (fun () -> Table.get table key)

let read_exn ctx tname key =
  match read ctx tname key with
  | Some row -> row
  | None -> raise (Table.No_such_row (tname, key))

(* does the transaction already hold a lock on [res] covering S? *)
let holds_s ctx res =
  List.exists
    (fun (txn, m, _) -> txn = ctx.txn && Mode.covers m Mode.S)
    (Lock_service.holders ctx.eng.service res)

let read_committed ctx tname key =
  let res = Resource_id.Tuple (tname, key) in
  let held_before = holds_s ctx res in
  lock_tuple_read ctx tname key;
  charge ctx.eng ctx.eng.cost.point_op;
  trace ctx `R res;
  let table = table_of ctx tname in
  let row = with_table ctx tname (fun () -> Table.get table key) in
  (* short lock: give the S back straight away unless it was already held *)
  if not held_before then lock_release ctx.eng ~txn:ctx.txn Mode.S res;
  row

let charge_scan ctx scanned =
  charge ctx.eng
    (ctx.eng.cost.scan_base +. (ctx.eng.cost.scan_row *. float_of_int scanned))

let scan ctx tname ?where () =
  acquire ctx Mode.S (Resource_id.Table tname);
  let table = table_of ctx tname in
  let rows, cost =
    with_table ctx tname (fun () ->
        let rows = Table.scan ?where table in
        (rows, Table.last_scan_cost table))
  in
  charge_scan ctx cost;
  trace ctx `R (Resource_id.Table tname);
  rows

let scan_committed ctx tname ?where () =
  let res = Resource_id.Table tname in
  let held_before = holds_s ctx res in
  acquire ctx Mode.S res;
  let table = table_of ctx tname in
  let rows, cost =
    with_table ctx tname (fun () ->
        let rows = Table.scan ?where table in
        (rows, Table.last_scan_cost table))
  in
  charge_scan ctx cost;
  trace ctx `R res;
  if not held_before then lock_release ctx.eng ~txn:ctx.txn Mode.S res;
  rows

let scan_keys ctx tname ?where () =
  acquire ctx Mode.S (Resource_id.Table tname);
  let table = table_of ctx tname in
  let keys, cost =
    with_table ctx tname (fun () ->
        let keys = Table.scan_keys ?where table in
        (keys, Table.last_scan_cost table))
  in
  charge_scan ctx cost;
  trace ctx `R (Resource_id.Table tname);
  keys

let peek_keys ctx tname ?where () =
  (* index peek without row locks (degree-1 read): the caller X-locks and
     re-verifies whichever candidate it acts on.  Sound when the predicate's
     answer can only grow monotonically (e.g. the oldest queue entry of a
     district cannot be displaced by inserts, which always carry higher
     ids). *)
  acquire ctx Mode.IS (Resource_id.Table tname);
  let table = table_of ctx tname in
  let keys, cost =
    with_table ctx tname (fun () ->
        let keys = Table.scan_keys ?where table in
        (keys, Table.last_scan_cost table))
  in
  charge_scan ctx cost;
  keys

let scan_keys_for_update ctx tname ?where () =
  (* scan with intent to modify: take the table lock exclusively up front so
     that two such scanners serialize instead of meeting in the classic
     S-then-upgrade deadlock (the update-mode-lock idiom) *)
  acquire ctx Mode.X (Resource_id.Table tname);
  let table = table_of ctx tname in
  let keys, cost =
    with_table ctx tname (fun () ->
        let keys = Table.scan_keys ?where table in
        (keys, Table.last_scan_cost table))
  in
  charge_scan ctx cost;
  trace ctx `R (Resource_id.Table tname);
  keys

let log_write ctx write =
  if ctx.compensating then Fault.trip cp_comp_write;
  (* a compensating step's writes are compensation records: recovery replays
     them like any write, but if the step's end record is not durable they
     are physically rewound rather than treated as forward progress *)
  ignore (Log.append ctx.eng.log (Record.Write { txn = ctx.txn; write; undo = ctx.compensating }));
  ctx.undo_stack <- write :: ctx.undo_stack

(* The images a Write record carries are the table's own rows, which are
   never written in place (see [Table]): logging them costs no copy, and an
   update's before image is the very array the previous write logged as its
   after image. *)
let insert ctx tname row =
  let table = table_of ctx tname in
  let key = Acc_relation.Schema.key_of_row (Table.schema table) row in
  lock_tuple_write ctx tname key;
  charge ctx.eng ctx.eng.cost.point_op;
  trace ctx `W (Resource_id.Tuple (tname, key));
  let stored_key, stored = with_table ctx tname (fun () -> Table.insert table row) in
  log_write ctx
    { Record.w_table = tname; w_key = stored_key; w_before = None; w_after = Some stored }

(* [update] without the step body's copy: returns the table's own row *)
let update_stored ctx tname key f =
  lock_tuple_write ctx tname key;
  charge ctx.eng ctx.eng.cost.point_op;
  trace ctx `W (Resource_id.Tuple (tname, key));
  let table = table_of ctx tname in
  let before, after = with_table ctx tname (fun () -> Table.update table key f) in
  log_write ctx
    { Record.w_table = tname; w_key = key; w_before = Some before; w_after = Some after };
  after

let update ctx tname key f = Array.copy (update_stored ctx tname key f)

let set_column ctx tname key col v =
  ignore
    (update_stored ctx tname key (fun row ->
         row.(Acc_relation.Schema.position (Table.schema (table_of ctx tname)) col) <- v;
         row))

let delete ctx tname key =
  lock_tuple_write ctx tname key;
  charge ctx.eng ctx.eng.cost.point_op;
  trace ctx `W (Resource_id.Tuple (tname, key));
  let table = table_of ctx tname in
  let before = with_table ctx tname (fun () -> Table.delete table key) in
  log_write ctx { Record.w_table = tname; w_key = key; w_before = Some before; w_after = None }

let undo_stack_size ctx = List.length ctx.undo_stack

let rollback_current_step ctx =
  List.iter
    (fun write ->
      let undo = Record.invert write in
      ignore (Log.append ctx.eng.log (Record.Write { txn = ctx.txn; write = undo; undo = true }));
      charge ctx.eng ctx.eng.cost.point_op;
      with_table ctx undo.Record.w_table (fun () -> Recovery.apply_write ctx.eng.db undo))
    ctx.undo_stack;
  ctx.undo_stack <- []

(* What every step end pays, forward or compensating: the charge, the
   latency hook and the trace event. *)
let close_step ctx =
  charge ctx.eng ctx.eng.cost.step_end;
  ctx.eng.config.on_step_end ~step_type:ctx.step_type
    ~dur:(ctx.eng.config.clock () -. ctx.step_t0);
  if Trace.enabled () then
    Trace.emit (Trace.Step_end { txn = ctx.txn; step_index = ctx.step_index });
  ctx.undo_stack <- []

(* Bit for bit: [-0.0] never stands in for [0.0], so an area reused by
   [end_step] always reads back the values the step ended with. *)
let same_value a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Int.equal x y
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Bool x, Value.Bool y -> Bool.equal x y
  | Value.Null, Value.Null -> true
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ | Value.Null), _ -> false

let rec same_area a b =
  match (a, b) with
  | [], [] -> true
  | (n, v) :: a, (m, w) :: b -> String.equal n m && same_value v w && same_area a b
  | [], _ :: _ | _ :: _, [] -> false

let end_step ctx ~area =
  (* an area identical to the last step end's is logged as that very list,
     so the log keeps one copy however many steps carry it *)
  let area = if same_area ctx.area area then ctx.area else area in
  (* one record completes the step and makes its work area durable: a
     crash finds either an undoable step or a compensable one with its area,
     never a completed step without one *)
  ignore
    (Log.append ctx.eng.log
       (Record.Step_end { txn = ctx.txn; step_index = ctx.step_index; area }));
  ctx.area <- area;
  close_step ctx

let work_area ctx = ctx.area

let area_field ctx name =
  match List.assoc_opt name ctx.area with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "%s (txn %d): work area lacks %s" ctx.txn_type ctx.txn name)

let release_locks ctx pred =
  (* WAL-before-unlock: once a conventional lock drops at a step boundary,
     a foreign transaction may read (and log decisions over) this step's
     writes, so the records describing them must be durable first — under a
     buffered policy that means flushing this domain's batch *)
  Log.sync ctx.eng.log;
  lock_release_where ctx.eng ~txn:ctx.txn pred

let release_everything ctx =
  (* WAL-before-unlock, as in [release_locks]: nothing of this transaction
     may become foreign-visible before its records are durable *)
  Log.sync ctx.eng.log;
  (* a crash here leaves every lock of the transaction dangling in the dying
     process; the restarted engine must come up with an empty lock table *)
  Fault.trip cp_release;
  lock_release_all ctx.eng ~txn:ctx.txn

let finish ctx =
  ctx.finished <- true;
  Atomic.decr ctx.eng.active

let prepare ctx ~gid =
  (* participant vote: all steps have run and their conventional locks are
     released; the assertional and compensation locks stay held across the
     in-doubt window so foreign steps that would invalidate either outcome
     keep blocking until the decision arrives *)
  assert (not ctx.finished);
  ignore (Log.append ctx.eng.log (Record.Prepare { txn = ctx.txn; gid }));
  (* the YES vote must be durable before the coordinator may count it: the
     sync orders the Prepare record's flush before [cp_prepare] — the crash
     window after which recovery must re-derive the in-doubt branch *)
  Log.sync ctx.eng.log;
  Fault.trip cp_prepare;
  if Trace.enabled () then Trace.emit (Trace.Prepare { txn = ctx.txn; gid })

let commit ctx =
  assert (not ctx.finished);
  ignore (Log.append ctx.eng.log (Record.Commit { txn = ctx.txn }));
  (* group-commit durability contract: the commit is acknowledged (and the
     locks released) only after the batch holding the Commit record flushed *)
  Log.sync ctx.eng.log;
  (* commit durable, locks still held *)
  Fault.trip cp_commit_durable;
  if Trace.enabled () then Trace.emit (Trace.Txn_commit { txn = ctx.txn });
  finish ctx;
  release_everything ctx

let abort_physical ctx =
  assert (not ctx.finished);
  rollback_current_step ctx;
  ignore (Log.append ctx.eng.log (Record.Abort { txn = ctx.txn }));
  if Trace.enabled () then
    Trace.emit (Trace.Txn_abort { txn = ctx.txn; compensated = false });
  finish ctx;
  release_everything ctx

let finish_compensated ctx =
  assert (not ctx.finished);
  (* the compensating step ends without a step-end record: the Abort record
     is its commit point, so every step-end in the log is a forward step's *)
  close_step ctx;
  ignore (Log.append ctx.eng.log (Record.Abort { txn = ctx.txn }));
  if Trace.enabled () then
    Trace.emit (Trace.Txn_abort { txn = ctx.txn; compensated = true });
  finish ctx;
  release_everything ctx

(* Re-open a transaction that recovery reported as pending compensation.
   The adopted context keeps the original transaction id, and its protocol
   obligations — Begin, and the last completed step with its work area —
   are re-logged on the (new) engine's log: if the process dies again before
   the compensating step commits, the next recovery re-derives exactly the
   same pending obligation from this engine's baseline + log. *)
let adopt_pending t ~txn ~txn_type ~completed_steps ~area =
  if completed_steps < 1 then invalid_arg "Executor.adopt_pending: nothing to compensate";
  let rec bump () =
    let cur = Atomic.get t.next_txn in
    if cur <= txn && not (Atomic.compare_and_set t.next_txn cur (txn + 1)) then bump ()
  in
  bump ();
  Atomic.incr t.active;
  ignore (Log.append t.log (Record.Begin { txn; txn_type; multi_step = true }));
  ignore (Log.append t.log (Record.Step_end { txn; step_index = completed_steps; area }));
  open_ctx t ~txn ~txn_type ~multi_step:true ~step_index:completed_steps ~area

(* Re-open an in-doubt 2PC participant.  Same contract as [adopt_pending],
   plus the Prepare record is re-logged: if the process dies again before
   the resolution completes, the next recovery re-derives the same in-doubt
   obligation (instead of misreading the branch as an ordinary pending
   compensation and wrongly undoing a committed decision). *)
let adopt_in_doubt t ~txn ~txn_type ~completed_steps ~area ~gid =
  let ctx = adopt_pending t ~txn ~txn_type ~completed_steps ~area in
  ignore (Log.append t.log (Record.Prepare { txn; gid }));
  ctx

let active_txns t = Atomic.get t.active

let checkpoint t =
  if Atomic.get t.active > 0 then
    invalid_arg
      (Printf.sprintf "Executor.checkpoint: %d transaction(s) still active" (Atomic.get t.active));
  Log.flush_all t.log;
  Acc_wal.Checkpoint.take t.db t.log
