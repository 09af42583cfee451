module Mode = Acc_lock.Mode
module Resource_id = Acc_lock.Resource_id

type event =
  | Txn_begin of { txn : int; txn_type : string }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; compensated : bool }
  | Step_begin of { txn : int; step_type : int; step_index : int }
  | Step_end of { txn : int; step_index : int }
  | Comp_run of { txn : int; step_type : int; from_step : int }
  | Lock_request of { txn : int; step_type : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_grant of {
      txn : int;
      step_type : int;
      mode : Mode.t;
      resource : Resource_id.t;
      past_2pl : int;
      reentrant : bool;
    }
  | Lock_block of {
      txn : int;
      step_type : int;
      mode : Mode.t;
      resource : Resource_id.t;
      blocker_txn : int;
      blocker_mode : Mode.t;
      blocker_waiting : bool;
      assertion : int option;
      interfering_step : int option;
    }
  | Lock_wake of { txn : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_release of { txn : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_attach of { txn : int; step_type : int; mode : Mode.t; resource : Resource_id.t }
  | Lock_cancel of { txn : int; resource : Resource_id.t }
  | Assertion_check of { txn : int; assertion : int; interfering_step : int; passed : bool }
  | Deadlock_cycle of { cycle : int list }
  | Victim of { txn : int; spared_compensating : bool }
  | Wal_append of { txn : int; lsn : int; kind : string; dur : float }
  | Wal_flush of { records : int }
  (* overload robustness (DESIGN.md §13) *)
  | Timed_out of { txn : int; mode : Mode.t; resource : Resource_id.t; waited : float }
  | Shed of { inflight : int; reason : string }
  | Degraded of { on : bool; oldest_wait : float }
  (* distributed commit (DESIGN.md §15) *)
  | Prepare of { txn : int; gid : int }
  | Decide of { gid : int; commit : bool; participants : int }
  | Resolve of { txn : int; gid : int; commit : bool }
  (* faultable transport (DESIGN.md §18) *)
  | Net_fault of { kind : string; msg : string }
  | Rpc_retry of { msg : string; gid : int; attempt : int }

let event_name = function
  | Txn_begin _ -> "txn_begin"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Step_begin _ -> "step_begin"
  | Step_end _ -> "step_end"
  | Comp_run _ -> "comp_run"
  | Lock_request _ -> "lock_request"
  | Lock_grant _ -> "lock_grant"
  | Lock_block _ -> "lock_block"
  | Lock_wake _ -> "lock_wake"
  | Lock_release _ -> "lock_release"
  | Lock_attach _ -> "lock_attach"
  | Lock_cancel _ -> "lock_cancel"
  | Assertion_check _ -> "assertion_check"
  | Deadlock_cycle _ -> "deadlock_cycle"
  | Victim _ -> "victim"
  | Wal_append _ -> "wal_append"
  | Wal_flush _ -> "wal_flush"
  | Timed_out _ -> "timed_out"
  | Shed _ -> "shed"
  | Degraded _ -> "degraded"
  | Prepare _ -> "prepare"
  | Decide _ -> "decide"
  | Resolve _ -> "resolve"
  | Net_fault _ -> "net_fault"
  | Rpc_retry _ -> "rpc_retry"

let all_event_names =
  [
    "txn_begin"; "txn_commit"; "txn_abort"; "step_begin"; "step_end"; "comp_run";
    "lock_request"; "lock_grant"; "lock_block"; "lock_wake"; "lock_release"; "lock_attach";
    "lock_cancel"; "assertion_check"; "deadlock_cycle"; "victim";
    "wal_append"; "wal_flush"; "timed_out"; "shed"; "degraded"; "prepare"; "decide";
    "resolve"; "net_fault"; "rpc_retry";
  ]

(* ---------- the sink ----------------------------------------------------- *)

let pad_event = Txn_commit { txn = -1 }

type buf = {
  b_dom : int;
  b_ring : (float * event) array;
  mutable b_head : int; (* total events emitted by this domain, ≥ ring length *)
}

type sink = {
  s_gen : int;
  s_capacity : int;
  s_t0 : float;
  s_bufs : buf list Atomic.t; (* CAS-prepend registration, like Metrics.Latency *)
}

let current : sink option Atomic.t = Atomic.make None
let generations = Atomic.make 0

let enabled () = Atomic.get current <> None

let default_capacity = 1 lsl 16

let start ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.start: capacity must be >= 1";
  let sink =
    {
      s_gen = Atomic.fetch_and_add generations 1;
      s_capacity = capacity;
      s_t0 = Unix.gettimeofday ();
      s_bufs = Atomic.make [];
    }
  in
  Atomic.set current (Some sink)

(* Each domain's buffer, cached in domain-local storage along with the sink
   generation it belongs to, so a buffer never outlives its sink. *)
let dls : (int * buf) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let rec register sink b =
  let cur = Atomic.get sink.s_bufs in
  if not (Atomic.compare_and_set sink.s_bufs cur (b :: cur)) then register sink b

let emit ev =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
      let cell = Domain.DLS.get dls in
      let buf =
        match !cell with
        | Some (gen, b) when gen = sink.s_gen -> b
        | Some _ | None ->
            let b =
              {
                b_dom = (Domain.self () :> int);
                b_ring = Array.make sink.s_capacity (0., pad_event);
                b_head = 0;
              }
            in
            register sink b;
            cell := Some (sink.s_gen, b);
            b
      in
      let ts = Unix.gettimeofday () -. sink.s_t0 in
      buf.b_ring.(buf.b_head mod sink.s_capacity) <- (ts, ev);
      buf.b_head <- buf.b_head + 1

type entry = { ts : float; dom : int; seq : int; ev : event }

type dump = { events : entry list; emitted : int; dropped : int }

let empty_dump = { events = []; emitted = 0; dropped = 0 }

let drain_sink sink =
  let bufs = Atomic.get sink.s_bufs in
  let events =
    List.concat_map
      (fun b ->
        let head = b.b_head in
        let cap = Array.length b.b_ring in
        let kept = min head cap in
        let first = head - kept in
        List.init kept (fun i ->
            let seq = first + i in
            let ts, ev = b.b_ring.(seq mod cap) in
            { ts; dom = b.b_dom; seq; ev }))
      bufs
    |> List.sort (fun a b ->
           let c = Float.compare a.ts b.ts in
           if c <> 0 then c
           else
             let c = Int.compare a.dom b.dom in
             if c <> 0 then c else Int.compare a.seq b.seq)
  in
  let emitted = List.fold_left (fun acc b -> acc + b.b_head) 0 bufs in
  let dropped =
    List.fold_left (fun acc b -> acc + max 0 (b.b_head - Array.length b.b_ring)) 0 bufs
  in
  { events; emitted; dropped }

let drain () =
  match Atomic.get current with None -> empty_dump | Some sink -> drain_sink sink

let stop () =
  match Atomic.get current with
  | None -> empty_dump
  | Some sink ->
      Atomic.set current None;
      drain_sink sink

(* ---------- JSONL -------------------------------------------------------- *)

let mode_str m = Mode.to_string m
let res_str r = Format.asprintf "%a" Resource_id.pp r

let opt_field name = function None -> [] | Some v -> [ (name, Json.Int v) ]

let payload = function
  | Txn_begin { txn; txn_type } -> [ ("txn", Json.Int txn); ("type", Json.Str txn_type) ]
  | Txn_commit { txn } -> [ ("txn", Json.Int txn) ]
  | Txn_abort { txn; compensated } ->
      [ ("txn", Json.Int txn); ("compensated", Json.Bool compensated) ]
  | Step_begin { txn; step_type; step_index } ->
      [ ("txn", Json.Int txn); ("step", Json.Int step_type); ("idx", Json.Int step_index) ]
  | Step_end { txn; step_index } -> [ ("txn", Json.Int txn); ("idx", Json.Int step_index) ]
  | Comp_run { txn; step_type; from_step } ->
      [ ("txn", Json.Int txn); ("step", Json.Int step_type); ("from", Json.Int from_step) ]
  | Lock_request { txn; step_type; mode; resource } ->
      [
        ("txn", Json.Int txn); ("step", Json.Int step_type);
        ("mode", Json.Str (mode_str mode)); ("res", Json.Str (res_str resource));
      ]
  | Lock_grant { txn; step_type; mode; resource; past_2pl; reentrant } ->
      [
        ("txn", Json.Int txn); ("step", Json.Int step_type);
        ("mode", Json.Str (mode_str mode)); ("res", Json.Str (res_str resource));
        ("past2pl", Json.Int past_2pl); ("reentrant", Json.Bool reentrant);
      ]
  | Lock_block
      { txn; step_type; mode; resource; blocker_txn; blocker_mode; blocker_waiting; assertion;
        interfering_step } ->
      [
        ("txn", Json.Int txn); ("step", Json.Int step_type);
        ("mode", Json.Str (mode_str mode)); ("res", Json.Str (res_str resource));
        ("btxn", Json.Int blocker_txn); ("bmode", Json.Str (mode_str blocker_mode));
        ("bwaiting", Json.Bool blocker_waiting);
      ]
      @ opt_field "assertion" assertion
      @ opt_field "istep" interfering_step
  | Lock_wake { txn; mode; resource } ->
      [
        ("txn", Json.Int txn); ("mode", Json.Str (mode_str mode));
        ("res", Json.Str (res_str resource));
      ]
  | Lock_release { txn; mode; resource } ->
      [
        ("txn", Json.Int txn); ("mode", Json.Str (mode_str mode));
        ("res", Json.Str (res_str resource));
      ]
  | Lock_attach { txn; step_type; mode; resource } ->
      [
        ("txn", Json.Int txn); ("step", Json.Int step_type);
        ("mode", Json.Str (mode_str mode)); ("res", Json.Str (res_str resource));
      ]
  | Lock_cancel { txn; resource } ->
      [ ("txn", Json.Int txn); ("res", Json.Str (res_str resource)) ]
  | Assertion_check { txn; assertion; interfering_step; passed } ->
      [
        ("txn", Json.Int txn); ("assertion", Json.Int assertion);
        ("istep", Json.Int interfering_step); ("passed", Json.Bool passed);
      ]
  | Deadlock_cycle { cycle } ->
      [ ("cycle", Json.List (List.map (fun t -> Json.Int t) cycle)) ]
  | Victim { txn; spared_compensating } ->
      [ ("txn", Json.Int txn); ("spared", Json.Bool spared_compensating) ]
  | Wal_append { txn; lsn; kind; dur } ->
      [
        ("txn", Json.Int txn); ("lsn", Json.Int lsn); ("kind", Json.Str kind);
        ("dur", Json.Float dur);
      ]
  | Wal_flush { records } -> [ ("records", Json.Int records) ]
  | Timed_out { txn; mode; resource; waited } ->
      [
        ("txn", Json.Int txn); ("mode", Json.Str (mode_str mode));
        ("res", Json.Str (res_str resource)); ("waited", Json.Float waited);
      ]
  | Shed { inflight; reason } ->
      [ ("inflight", Json.Int inflight); ("reason", Json.Str reason) ]
  | Degraded { on; oldest_wait } ->
      [ ("on", Json.Bool on); ("oldest_wait", Json.Float oldest_wait) ]
  | Prepare { txn; gid } -> [ ("txn", Json.Int txn); ("gid", Json.Int gid) ]
  | Decide { gid; commit; participants } ->
      [
        ("gid", Json.Int gid); ("commit", Json.Bool commit);
        ("participants", Json.Int participants);
      ]
  | Resolve { txn; gid; commit } ->
      [ ("txn", Json.Int txn); ("gid", Json.Int gid); ("commit", Json.Bool commit) ]
  | Net_fault { kind; msg } -> [ ("kind", Json.Str kind); ("msg", Json.Str msg) ]
  | Rpc_retry { msg; gid; attempt } ->
      [ ("msg", Json.Str msg); ("gid", Json.Int gid); ("attempt", Json.Int attempt) ]

let to_json e =
  Json.Obj
    ([
       ("ts", Json.Float e.ts); ("dom", Json.Int e.dom); ("seq", Json.Int e.seq);
       ("ev", Json.Str (event_name e.ev));
     ]
    @ payload e.ev)

let write_jsonl oc dump =
  List.iter
    (fun e ->
      Json.to_channel oc (to_json e);
      output_char oc '\n')
    dump.events;
  Json.to_channel oc
    (Json.Obj
       [
         ("ev", Json.Str "trace_summary");
         ("events", Json.Int (List.length dump.events));
         ("emitted", Json.Int dump.emitted);
         ("dropped", Json.Int dump.dropped);
       ]);
  output_char oc '\n'

(* ---------- Chrome trace format ------------------------------------------ *)

(* Transactions and steps become complete ("X") duration events on a
   per-transaction track, so interleaved transactions (the simulator runs
   every terminal on one domain) never violate B/E nesting.  Everything else
   is an instant event on the same track. *)

let txn_of_event = function
  | Txn_begin { txn; _ } | Txn_commit { txn } | Txn_abort { txn; _ }
  | Step_begin { txn; _ } | Step_end { txn; _ } | Comp_run { txn; _ }
  | Lock_request { txn; _ } | Lock_grant { txn; _ } | Lock_block { txn; _ }
  | Lock_wake { txn; _ } | Lock_release { txn; _ } | Lock_attach { txn; _ }
  | Lock_cancel { txn; _ } | Assertion_check { txn; _ }
  | Victim { txn; _ } | Wal_append { txn; _ } | Timed_out { txn; _ }
  | Prepare { txn; _ } | Resolve { txn; _ } ->
      txn
  | Deadlock_cycle _ | Wal_flush _ | Shed _ | Degraded _ | Decide _ | Net_fault _
  | Rpc_retry _ ->
      0

let us t = t *. 1e6

let chrome_complete ~name ~cat ~tid ~ts ~dur args =
  Json.Obj
    ([
       ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "X");
       ("ts", Json.Float (us ts)); ("dur", Json.Float (us dur)); ("pid", Json.Int 1);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let chrome_instant e =
  Json.Obj
    [
      ("name", Json.Str (event_name e.ev)); ("cat", Json.Str "event"); ("ph", Json.Str "i");
      ("s", Json.Str "t"); ("ts", Json.Float (us e.ts)); ("pid", Json.Int 1);
      ("tid", Json.Int (txn_of_event e.ev));
      ("args", Json.Obj (("dom", Json.Int e.dom) :: payload e.ev));
    ]

let write_chrome oc dump =
  let out = ref [] in
  let push j = out := j :: !out in
  (* pair txn and step spans *)
  let txn_open = Hashtbl.create 64 in
  let step_open = Hashtbl.create 64 in
  List.iter
    (fun e ->
      (match e.ev with
      | Txn_begin { txn; txn_type } -> Hashtbl.replace txn_open txn (e.ts, txn_type)
      | Txn_commit { txn } | Txn_abort { txn; _ } -> (
          match Hashtbl.find_opt txn_open txn with
          | Some (t0, txn_type) ->
              Hashtbl.remove txn_open txn;
              push
                (chrome_complete ~name:txn_type ~cat:"txn" ~tid:txn ~ts:t0 ~dur:(e.ts -. t0)
                   [ ("txn", Json.Int txn) ])
          | None -> ())
      | Step_begin { txn; step_type; step_index } ->
          Hashtbl.replace step_open txn (e.ts, step_type, step_index)
      | Step_end { txn; step_index } -> (
          match Hashtbl.find_opt step_open txn with
          | Some (t0, step_type, idx) when idx = step_index ->
              Hashtbl.remove step_open txn;
              push
                (chrome_complete
                   ~name:(Printf.sprintf "step %d" step_type)
                   ~cat:"step" ~tid:txn ~ts:t0 ~dur:(e.ts -. t0)
                   [ ("txn", Json.Int txn); ("idx", Json.Int idx) ])
          | Some _ | None -> ())
      | Comp_run _ | Lock_request _ | Lock_grant _ | Lock_block _ | Lock_wake _
      | Lock_release _ | Lock_attach _ | Lock_cancel _ | Assertion_check _
      | Deadlock_cycle _ | Victim _ | Wal_append _ | Wal_flush _
      | Timed_out _ | Shed _ | Degraded _ | Prepare _ | Decide _ | Resolve _
      | Net_fault _ | Rpc_retry _ -> ());
      match e.ev with
      | Txn_begin _ | Txn_commit _ | Txn_abort _ | Step_begin _ | Step_end _ -> ()
      | Comp_run _ | Lock_request _ | Lock_grant _ | Lock_block _ | Lock_wake _
      | Lock_release _ | Lock_attach _ | Lock_cancel _ | Assertion_check _
      | Deadlock_cycle _ | Victim _ | Wal_append _ | Wal_flush _
      | Timed_out _ | Shed _ | Degraded _ | Prepare _ | Decide _ | Resolve _
      | Net_fault _ | Rpc_retry _ ->
          push (chrome_instant e))
    dump.events;
  (* spans still open at drain time become instants so no data is lost *)
  Hashtbl.iter
    (fun txn (t0, txn_type) ->
      push
        (chrome_complete ~name:(txn_type ^ " (unfinished)") ~cat:"txn" ~tid:txn ~ts:t0 ~dur:0.
           [ ("txn", Json.Int txn) ]))
    txn_open;
  Json.to_channel oc (Json.Obj [ ("traceEvents", Json.List (List.rev !out)) ])
