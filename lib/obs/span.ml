(* Span reconstruction: fold a timestamp-ordered event stream into one span
   per transaction, attributing wall time to disjoint phases.

   The phase taxonomy (DESIGN.md §16):

     lock_wait     every Lock_block → (Lock_wake | Timed_out) interval
     execute       Step_begin → Step_end of non-compensating steps, minus the
                   lock_wait and wal_append time that fell inside the step
     wal_append    the [dur] carried by each Wal_append event
     prepare_hold  Prepare(txn,gid) → Decide(gid) — the 2PC in-doubt window,
                   the cost the assertional-lock-across-prepare design bets on
     decide        Decide(gid) → the branch's end event — applying the
                   decision (commit/compensation dispatch tail)
     compensate    Comp_run → Step_end of compensating steps, minus inner
                   lock_wait/wal, plus the abort dispatch tail

   The intervals are disjoint by construction (a step cannot end while its
   transaction is blocked; the prepare window opens after the last step's
   end), so the phase durations of a closed span sum to at most its wall
   time — the qcheck property in test_span.ml.

   Events are correlated by txn id; Decide events carry only a gid, so the
   builder keeps a gid → txns index populated by Prepare events.  Partition
   attribution rides on the per-partition txn-id bands of
   {!Acc_dist.Partition} (txn / band = partition id). *)

type phase = Lock_wait | Execute | Wal_append | Prepare_hold | Decide | Compensate

let all_phases = [ Lock_wait; Execute; Wal_append; Prepare_hold; Decide; Compensate ]

let phase_name = function
  | Lock_wait -> "lock_wait"
  | Execute -> "execute"
  | Wal_append -> "wal_append"
  | Prepare_hold -> "prepare_hold"
  | Decide -> "decide"
  | Compensate -> "compensate"

let phase_index = function
  | Lock_wait -> 0
  | Execute -> 1
  | Wal_append -> 2
  | Prepare_hold -> 3
  | Decide -> 4
  | Compensate -> 5

let n_phases = 6

let phase_of_index = function
  | 0 -> Lock_wait
  | 1 -> Execute
  | 2 -> Wal_append
  | 3 -> Prepare_hold
  | 4 -> Decide
  | 5 -> Compensate
  | _ -> invalid_arg "Span.phase_of_index"

type outcome = Committed | Aborted of { compensated : bool } | Open

type t = {
  sp_txn : int;
  sp_txn_type : string;
  sp_dom : int;
  sp_gid : int option;
  sp_begin : float;
  sp_end : float option;
  sp_outcome : outcome;
  sp_phases : (phase * float) list;  (* all six phases, zeros included *)
  sp_open_phase : phase option;
      (* the phase left open: always set for Open spans that died inside a
         phase; set on a closed span only when its prepare window was never
         resolved by a Decide/Resolve (a protocol-order violation) *)
}

let wall t = Option.map (fun e -> e -. t.sp_begin) t.sp_end
let phase t p = List.assoc p t.sp_phases
let complete t = t.sp_end <> None && t.sp_open_phase = None

(* ---------- the builder --------------------------------------------------- *)

(* The event subset spans care about, already stripped of lock modes,
   resources and step types — both front-ends (live Trace.event values and
   parsed JSONL lines) normalize to this. *)
type sev =
  | E_begin of string  (* txn_type *)
  | E_commit
  | E_abort of bool  (* compensated *)
  | E_step_begin
  | E_step_end
  | E_comp_run
  | E_block
  | E_unblock  (* lock_wake or timed_out *)
  | E_wal of float  (* dur *)
  | E_prepare of int  (* gid *)
  | E_decide of int  (* gid; txn field is meaningless *)
  | E_resolve of int  (* gid *)

module Builder = struct
  type state = {
    st_begin : float;
    mutable st_txn_type : string;
    mutable st_dom : int;
    mutable st_gid : int option;
    acc : float array;  (* per-phase accumulators, indexed by phase_index *)
    mutable step_open : (float * bool * float) option;
        (* (open ts, compensating, lock_wait+wal accumulated at open) *)
    mutable block_open : float option;
    mutable prep_open : float option;
    mutable decide_open : float option;
  }

  type b = {
    states : (int, state) Hashtbl.t;
    by_gid : (int, int list ref) Hashtbl.t;  (* gid -> prepared txns *)
    mutable done_ : t list;  (* finalized spans, newest first *)
    mutable orphans : int;
    mutable orphan_sample : (int * string) list;  (* (txn, event), first few *)
    mutable last_ts : float;
  }

  let create () =
    {
      states = Hashtbl.create 256;
      by_gid = Hashtbl.create 64;
      done_ = [];
      orphans = 0;
      orphan_sample = [];
      last_ts = 0.;
    }

  let inner st = st.acc.(phase_index Lock_wait) +. st.acc.(phase_index Wal_append)

  let close_block st ts =
    match st.block_open with
    | None -> ()
    | Some t0 ->
        st.acc.(phase_index Lock_wait) <- st.acc.(phase_index Lock_wait) +. (ts -. t0);
        st.block_open <- None

  let close_step st ts =
    match st.step_open with
    | None -> ()
    | Some (t0, comp, inner0) ->
        let raw = ts -. t0 in
        let charged = Float.max 0. (raw -. (inner st -. inner0)) in
        let p = if comp then Compensate else Execute in
        st.acc.(phase_index p) <- st.acc.(phase_index p) +. charged;
        st.step_open <- None

  (* A span that ends with its prepare window still open never saw the
     decision event: charge the whole in-doubt window to prepare_hold and
     flag the span incomplete (sp_open_phase = Prepare_hold). *)
  let close_prepare st ts =
    match st.prep_open with
    | None -> false
    | Some t0 ->
        st.acc.(phase_index Prepare_hold) <-
          st.acc.(phase_index Prepare_hold) +. (ts -. t0);
        st.prep_open <- None;
        true

  let phases_of st = List.map (fun p -> (p, st.acc.(phase_index p))) all_phases

  let finalize b txn st ~ts ~outcome =
    Hashtbl.remove b.states txn;
    let ended, open_phase =
      match outcome with
      | Open ->
          (* crash-truncated: report what was mid-flight at the cut *)
          let op =
            match (st.step_open, st.block_open, st.prep_open, st.decide_open) with
            | Some (_, comp, _), _, _, _ -> Some (if comp then Compensate else Execute)
            | None, Some _, _, _ -> Some Lock_wait
            | None, None, Some _, _ -> Some Prepare_hold
            | None, None, None, Some _ -> Some Decide
            | None, None, None, None -> None
          in
          (None, op)
      | Committed | Aborted _ ->
          close_block st ts;
          close_step st ts;
          let dangling = close_prepare st ts in
          (match st.decide_open with
          | Some d ->
              st.acc.(phase_index Decide) <- st.acc.(phase_index Decide) +. (ts -. d);
              st.decide_open <- None
          | None -> ());
          (Some ts, if dangling then Some Prepare_hold else None)
    in
    b.done_ <-
      {
        sp_txn = txn;
        sp_txn_type = st.st_txn_type;
        sp_dom = st.st_dom;
        sp_gid = st.st_gid;
        sp_begin = st.st_begin;
        sp_end = ended;
        sp_outcome = outcome;
        sp_phases = phases_of st;
        sp_open_phase = open_phase;
      }
      :: b.done_

  let orphan b txn ev =
    b.orphans <- b.orphans + 1;
    if List.length b.orphan_sample < 8 then
      b.orphan_sample <- b.orphan_sample @ [ (txn, ev) ]

  let decide_for b gid ts =
    match Hashtbl.find_opt b.by_gid gid with
    | None -> ()
    | Some txns ->
        List.iter
          (fun txn ->
            match Hashtbl.find_opt b.states txn with
            | None -> ()
            | Some st ->
                (match st.prep_open with
                | Some t0 ->
                    st.acc.(phase_index Prepare_hold) <-
                      st.acc.(phase_index Prepare_hold) +. (ts -. t0);
                    st.prep_open <- None
                | None -> ());
                if st.decide_open = None then st.decide_open <- Some ts)
          !txns

  let feed b ~ts ~dom ~txn ev =
    b.last_ts <- Float.max b.last_ts ts;
    let state orphan_name =
      match Hashtbl.find_opt b.states txn with
      | Some st -> Some st
      | None ->
          orphan b txn orphan_name;
          None
    in
    match ev with
    | E_begin txn_type ->
        (* a second begin for a live txn id means the first span was cut
           (crash + recovery re-adoption within one trace): close it open *)
        (match Hashtbl.find_opt b.states txn with
        | Some st -> finalize b txn st ~ts ~outcome:Open
        | None -> ());
        Hashtbl.replace b.states txn
          {
            st_begin = ts;
            st_txn_type = txn_type;
            st_dom = dom;
            st_gid = None;
            acc = Array.make n_phases 0.;
            step_open = None;
            block_open = None;
            prep_open = None;
            decide_open = None;
          }
    | E_commit -> (
        match state "txn_commit" with
        | Some st -> finalize b txn st ~ts ~outcome:Committed
        | None -> ())
    | E_abort compensated -> (
        match state "txn_abort" with
        | Some st -> finalize b txn st ~ts ~outcome:(Aborted { compensated })
        | None -> ())
    | E_step_begin -> (
        match state "step_begin" with
        | Some st ->
            close_step st ts;
            st.step_open <- Some (ts, false, inner st)
        | None -> ())
    | E_comp_run -> (
        match state "comp_run" with
        | Some st ->
            close_step st ts;
            st.step_open <- Some (ts, true, inner st)
        | None -> ())
    | E_step_end -> (
        match state "step_end" with Some st -> close_step st ts | None -> ())
    | E_block -> (
        match Hashtbl.find_opt b.states txn with
        | Some st -> if st.block_open = None then st.block_open <- Some ts
        | None -> ())
    | E_unblock -> (
        match Hashtbl.find_opt b.states txn with
        | Some st -> close_block st ts
        | None -> ())
    | E_wal dur -> (
        match Hashtbl.find_opt b.states txn with
        | Some st ->
            st.acc.(phase_index Wal_append) <- st.acc.(phase_index Wal_append) +. dur
        | None -> ())
    | E_prepare gid -> (
        match state "prepare" with
        | Some st ->
            st.st_gid <- Some gid;
            st.prep_open <- Some ts;
            let txns =
              match Hashtbl.find_opt b.by_gid gid with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace b.by_gid gid l;
                  l
            in
            txns := txn :: !txns
        | None -> ())
    | E_decide gid -> decide_for b gid ts
    | E_resolve gid -> (
        (* recovery learned the decision for an adopted in-doubt branch *)
        match Hashtbl.find_opt b.states txn with
        | None -> ()
        | Some st ->
            st.st_gid <- Some gid;
            ignore
              (match st.prep_open with
              | Some t0 ->
                  st.acc.(phase_index Prepare_hold) <-
                    st.acc.(phase_index Prepare_hold) +. (ts -. t0);
                  st.prep_open <- None;
                  true
              | None -> false);
            if st.decide_open = None then st.decide_open <- Some ts)

  let feed_event b ~ts ~dom (ev : Trace.event) =
    match ev with
    | Trace.Txn_begin { txn; txn_type } -> feed b ~ts ~dom ~txn (E_begin txn_type)
    | Trace.Txn_commit { txn } -> feed b ~ts ~dom ~txn E_commit
    | Trace.Txn_abort { txn; compensated } -> feed b ~ts ~dom ~txn (E_abort compensated)
    | Trace.Step_begin { txn; _ } -> feed b ~ts ~dom ~txn E_step_begin
    | Trace.Step_end { txn; _ } -> feed b ~ts ~dom ~txn E_step_end
    | Trace.Comp_run { txn; _ } -> feed b ~ts ~dom ~txn E_comp_run
    | Trace.Lock_block { txn; _ } -> feed b ~ts ~dom ~txn E_block
    | Trace.Lock_wake { txn; _ } | Trace.Timed_out { txn; _ } ->
        feed b ~ts ~dom ~txn E_unblock
    | Trace.Wal_append { txn; dur; _ } -> feed b ~ts ~dom ~txn (E_wal dur)
    | Trace.Prepare { txn; gid } -> feed b ~ts ~dom ~txn (E_prepare gid)
    | Trace.Decide { gid; _ } -> feed b ~ts ~dom ~txn:(-1) (E_decide gid)
    | Trace.Resolve { txn; gid; _ } -> feed b ~ts ~dom ~txn (E_resolve gid)
    | Trace.Lock_request _ | Trace.Lock_grant _ | Trace.Lock_release _
    | Trace.Lock_attach _ | Trace.Lock_cancel _ | Trace.Assertion_check _
    | Trace.Deadlock_cycle _ | Trace.Victim _ | Trace.Wal_flush _ | Trace.Shed _
    | Trace.Degraded _ | Trace.Net_fault _ | Trace.Rpc_retry _ ->
        ()

  (* One parsed JSONL trace line (see {!Trace.to_json}); unknown events and
     the trace_summary trailer are ignored, so a whole file can be streamed
     through without pre-filtering. *)
  let feed_json b json =
    let str name = Option.bind (Json.member name json) Json.to_str in
    let int name = Option.bind (Json.member name json) Json.to_int in
    let num name =
      match Json.member name json with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let bool name =
      match Json.member name json with Some (Json.Bool v) -> Some v | _ -> None
    in
    match (str "ev", num "ts") with
    | None, _ | _, None -> ()
    | Some ev, Some ts -> (
        let dom = Option.value ~default:0 (int "dom") in
        let txn = Option.value ~default:(-1) (int "txn") in
        let go sev = feed b ~ts ~dom ~txn sev in
        match ev with
        | "txn_begin" -> go (E_begin (Option.value ~default:"?" (str "type")))
        | "txn_commit" -> go E_commit
        | "txn_abort" -> go (E_abort (Option.value ~default:false (bool "compensated")))
        | "step_begin" -> go E_step_begin
        | "step_end" -> go E_step_end
        | "comp_run" -> go E_comp_run
        | "lock_block" -> go E_block
        | "lock_wake" | "timed_out" -> go E_unblock
        | "wal_append" -> go (E_wal (Option.value ~default:0. (num "dur")))
        | "prepare" -> (
            match int "gid" with Some gid -> go (E_prepare gid) | None -> ())
        | "decide" -> (
            match int "gid" with Some gid -> go (E_decide gid) | None -> ())
        | "resolve" -> (
            match int "gid" with Some gid -> go (E_resolve gid) | None -> ())
        | _ -> ())

  let orphans b = b.orphans
  let orphan_sample b = b.orphan_sample

  let finish b =
    (* everything still live is an open (crash-truncated) span *)
    let live = Hashtbl.fold (fun txn st acc -> (txn, st) :: acc) b.states [] in
    List.iter (fun (txn, st) -> finalize b txn st ~ts:b.last_ts ~outcome:Open) live;
    List.rev b.done_
end

let of_entries (entries : Trace.entry list) =
  let b = Builder.create () in
  List.iter (fun (e : Trace.entry) -> Builder.feed_event b ~ts:e.Trace.ts ~dom:e.Trace.dom e.Trace.ev) entries;
  Builder.finish b

let of_dump (dump : Trace.dump) = of_entries dump.Trace.events

(* ---------- the report ---------------------------------------------------- *)

module Report = struct
  module H = Acc_util.Metrics.Histogram

  (* histogram + exact max: the histogram gives the quantiles, the max keeps
     the tail honest past bucket resolution *)
  type agg = { h : H.t; mutable mx : float }

  let agg () = { h = H.create (); mx = 0. }

  let agg_record a v =
    H.record a.h v;
    if v > a.mx then a.mx <- v

  type key_aggs = (phase * agg) list

  let key_aggs () = List.map (fun p -> (p, agg ())) all_phases

  type r = {
    total : int;
    committed : int;
    aborted : int;
    compensated : int;
    open_spans : int;
    incomplete_committed : int;  (* committed spans with an unresolved phase *)
    wall : agg;
    overall : key_aggs;
    by_txn_type : (string * key_aggs) list;
    by_partition : (int * key_aggs) list;
  }

  let find_or_add assoc key mk =
    match List.assoc_opt key !assoc with
    | Some v -> v
    | None ->
        let v = mk () in
        assoc := !assoc @ [ (key, v) ];
        v

  let build ?partition_of spans =
    let total = ref 0
    and committed = ref 0
    and aborted = ref 0
    and compensated = ref 0
    and open_spans = ref 0
    and incomplete = ref 0 in
    let wall_agg = agg () in
    let overall = key_aggs () in
    let by_type = ref [] in
    let by_part = ref [] in
    List.iter
      (fun sp ->
        incr total;
        (match sp.sp_outcome with
        | Committed ->
            incr committed;
            if not (complete sp) then incr incomplete
        | Aborted { compensated = c } ->
            incr aborted;
            if c then incr compensated
        | Open -> incr open_spans);
        match sp.sp_end with
        | None -> ()
        | Some e ->
            agg_record wall_agg (e -. sp.sp_begin);
            let tkey = find_or_add by_type sp.sp_txn_type key_aggs in
            let pkey =
              Option.map
                (fun f -> find_or_add by_part (f sp.sp_txn) key_aggs)
                partition_of
            in
            List.iter
              (fun (p, v) ->
                (* conditional distributions: a phase the span never entered
                   contributes no sample, so p50(compensate) is the median of
                   actual compensation runs, not of a sea of zeros *)
                if v > 0. then begin
                  agg_record (List.assoc p overall) v;
                  agg_record (List.assoc p tkey) v;
                  match pkey with
                  | Some k -> agg_record (List.assoc p k) v
                  | None -> ()
                end)
              sp.sp_phases)
      spans;
    {
      total = !total;
      committed = !committed;
      aborted = !aborted;
      compensated = !compensated;
      open_spans = !open_spans;
      incomplete_committed = !incomplete;
      wall = wall_agg;
      overall;
      by_txn_type = !by_type;
      by_partition = !by_part;
    }

  let agg_json a =
    let s = H.snapshot a.h in
    Json.Obj
      [
        ("count", Json.Int (H.Snapshot.count s));
        ("mean", Json.Float (H.Snapshot.mean s));
        ("p50", Json.Float (H.Snapshot.percentile s 0.50));
        ("p95", Json.Float (H.Snapshot.percentile s 0.95));
        ("p99", Json.Float (H.Snapshot.percentile s 0.99));
        ("max", Json.Float a.mx);
      ]

  let key_aggs_json ks =
    Json.Obj
      (List.filter_map
         (fun (p, a) ->
           if H.count a.h = 0 then None else Some (phase_name p, agg_json a))
         ks)

  let to_json r =
    Json.Obj
      [
        ( "spans",
          Json.Obj
            [
              ("total", Json.Int r.total);
              ("committed", Json.Int r.committed);
              ("aborted", Json.Int r.aborted);
              ("compensated", Json.Int r.compensated);
              ("open", Json.Int r.open_spans);
              ("incomplete_committed", Json.Int r.incomplete_committed);
            ] );
        ("wall", agg_json r.wall);
        ("by_phase", key_aggs_json r.overall);
        ( "prepare_hold",
          agg_json (List.assoc Prepare_hold r.overall) );
        ( "by_txn_type",
          Json.Obj (List.map (fun (k, v) -> (k, key_aggs_json v)) r.by_txn_type) );
        ( "by_partition",
          Json.Obj
            (List.map
               (fun (k, v) -> (string_of_int k, key_aggs_json v))
               r.by_partition) );
      ]

  let incomplete_committed r = r.incomplete_committed
  let committed r = r.committed
  let open_spans r = r.open_spans

  let pp_aggs ppf ks =
    List.iter
      (fun (p, a) ->
        if H.count a.h > 0 then
          let s = H.snapshot a.h in
          Format.fprintf ppf "  %-13s %8d %12.6f %12.6f %12.6f %12.6f %12.6f@."
            (phase_name p) (H.Snapshot.count s) (H.Snapshot.mean s)
            (H.Snapshot.percentile s 0.50) (H.Snapshot.percentile s 0.95)
            (H.Snapshot.percentile s 0.99) a.mx)
      ks

  let pp ppf r =
    Format.fprintf ppf "spans: %d total, %d committed, %d aborted (%d compensated), %d open@."
      r.total r.committed r.aborted r.compensated r.open_spans;
    if r.incomplete_committed > 0 then
      Format.fprintf ppf "!! %d committed span(s) with an unresolved phase@."
        r.incomplete_committed;
    Format.fprintf ppf "@.phase breakdown (seconds):@.";
    Format.fprintf ppf "  %-13s %8s %12s %12s %12s %12s %12s@." "phase" "count" "mean"
      "p50" "p95" "p99" "max";
    pp_aggs ppf r.overall;
    List.iter
      (fun (name, ks) ->
        Format.fprintf ppf "@.txn type %s:@." name;
        pp_aggs ppf ks)
      r.by_txn_type;
    List.iter
      (fun (pid, ks) ->
        Format.fprintf ppf "@.partition %d:@." pid;
        pp_aggs ppf ks)
      r.by_partition;
    let ph = List.assoc Prepare_hold r.overall in
    if H.count ph.h > 0 then
      Format.fprintf ppf
        "@.prepare-hold tail: p95 %.6fs p99 %.6fs max %.6fs over %d windows@."
        (H.percentile ph.h 0.95) (H.percentile ph.h 0.99) ph.mx (H.count ph.h)
end
