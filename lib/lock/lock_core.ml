(* The pure decision core of the lock manager, shared by the sequential
   table ([Lock_table], driven by the discrete-event simulator) and the
   sharded multi-domain table (lib/parallel).  Everything here is
   side-effect-free over its inputs: mode compatibility against held locks
   and queued waiters, the hierarchical reach-down rule, the waits-for cycle
   search, and the paper's §3.4 victim policy.  Keeping the logic in one
   module is what guarantees the two tables make identical grant/block
   decisions for the same request sequence. *)

type hold = {
  h_txn : int;
  h_mode : Mode.t;
  h_step : int;
  mutable h_count : int;
}

type waiter = {
  w_ticket : int;
  w_txn : int;
  w_mode : Mode.t;
  w_step : int;
  w_requester : Mode.requester;
  w_resource : Resource_id.t;
  w_compensating : bool;
  w_deadline : float option;
      (* absolute expiry in the owning table's clock; compensating requests
         never carry one (§3.4 compensation-sparing: a compensating step is
         never timed out) *)
  w_enqueued : float; (* table-clock timestamp at queue time *)
  mutable w_bypassed : int;
      (* grants made past this waiter that it conflicts with; the fairness
         gate refuses further bypass once this reaches the table's bound *)
}

(* Default bound on how many conflicting grants may overtake one waiter
   before the table stops granting past it (bounded bypass).  Large enough
   that healthy workloads never trip it; small enough that a pathological
   grant stream cannot starve a waiter. *)
let default_max_bypass = 64

let hold_conflict sem h ~mode ~requester =
  Mode.conflicts sem ~held:h.h_mode ~held_step:h.h_step ~req:mode ~requester

let waiter_conflict sem w ~mode ~requester =
  Mode.conflicts sem ~held:w.w_mode ~held_step:w.w_step ~req:mode ~requester

(* Would granting [mode] (requested by [step_type]) delay waiter [w]?  The
   conflict is taken in the direction the grant creates: the granted request
   becomes a hold that [w]'s queued request must then be compatible with.
   This is the bypass test of the fairness rule: a grant for which this holds
   overtakes [w]. *)
let grant_blocks_waiter sem ~mode ~step_type w =
  Mode.conflicts sem ~held:mode ~held_step:step_type ~req:w.w_mode ~requester:w.w_requester

(* A request is compatible with a set of (relevant) holds when every foreign
   hold is non-conflicting.  A plain recursion: the lock-free fast path runs
   this on every grant, and a [List.for_all] closure would allocate. *)
let rec holds_compatible sem holds ~txn ~mode ~requester =
  match holds with
  | [] -> true
  | h :: rest ->
      (h.h_txn = txn || not (hold_conflict sem h ~mode ~requester))
      && holds_compatible sem rest ~txn ~mode ~requester

(* FIFO discipline: a request must also be compatible with every foreign
   waiter queued ahead of it, or it would overtake them. *)
let queue_ahead_compatible sem ~txn ~mode ~requester ahead =
  List.for_all (fun w -> w.w_txn = txn || not (waiter_conflict sem w ~mode ~requester)) ahead

(* Intention holders at the table level never constrain tuple-level requests:
   only absolute table locks (S/X/A/Comp) reach down the hierarchy. *)
let reaches_down h = match h.h_mode with Mode.IS | Mode.IX -> false | _ -> true

(* A checked assertional request on a whole table must also be compatible
   with the table's tuple-level holds (a legacy scan waits out in-flight
   writers, whose exposure is recorded by tuple-level compensation locks). *)
let needs_child_sweep res ~mode =
  match (res, mode) with
  | Resource_id.Table _, Mode.A _ -> true
  | (Resource_id.Table _ | Resource_id.Tuple _), _ -> false

(* Re-entrant grant: an existing hold of the same transaction that covers the
   requested mode. *)
let rec find_covering holds ~txn ~mode =
  match holds with
  | [] -> None
  | h :: rest ->
      if h.h_txn = txn && Mode.covers h.h_mode mode then Some h else find_covering rest ~txn ~mode

(* The hold of [txn] in exactly [mode]: what an attach merges into and a
   release decrements. *)
let rec find_hold holds ~txn ~mode =
  match holds with
  | [] -> None
  | h :: rest ->
      if h.h_txn = txn && Mode.equal h.h_mode mode then Some h else find_hold rest ~txn ~mode

(* --- decision classification (observability) ----------------------------

   Pure post-hoc analysis of a grant/block decision, consumed by the tracing
   and conflict-accounting layer.  Nothing here influences the decision
   itself; the functions re-read the same hold/waiter lists the decision
   used. *)

(* One consultation of the interference oracle: which assertion was checked
   against which step type, and did the request pass it.  [ac_step_type] is
   the interfering step under test — the requester's step for writes hitting
   a foreign assertion, the holder's step for checked assertional requests,
   the compensating step type for compensation-lock pairs. *)
type acheck = { ac_assertion : int; ac_step_type : int; ac_passed : bool }

(* The oracle consultations a (held, requested) mode pair triggers — mirrors
   the assertional arms of [Mode.conflicts].  [None] for pairs decided by the
   static matrix. *)
let assertional_check sem ~held ~held_step ~req ~requester =
  match (held, req) with
  | Mode.A a, Mode.X ->
      let step = requester.Mode.req_step_type in
      Some { ac_assertion = a; ac_step_type = step;
             ac_passed = not (sem.Mode.step_interferes ~step_type:step ~assertion:a) }
  | Mode.X, Mode.A a ->
      Some { ac_assertion = a; ac_step_type = held_step;
             ac_passed = not (sem.Mode.step_interferes ~step_type:held_step ~assertion:a) }
  | Mode.A ha, Mode.A a when requester.Mode.req_admission ->
      Some { ac_assertion = a; ac_step_type = held_step;
             ac_passed = not (sem.Mode.prefix_interferes ~holder_assertion:ha ~assertion:a) }
  | (Mode.Comp cs, Mode.A a | Mode.A a, Mode.Comp cs) ->
      Some { ac_assertion = a; ac_step_type = cs;
             ac_passed = not (sem.Mode.step_interferes ~step_type:cs ~assertion:a) }
  | (Mode.IS | Mode.IX | Mode.S | Mode.X | Mode.A _ | Mode.Comp _), _ -> None

let checks_against sem holds ~txn ~mode ~requester =
  List.filter_map
    (fun h ->
      if h.h_txn = txn then None
      else assertional_check sem ~held:h.h_mode ~held_step:h.h_step ~req:mode ~requester)
    holds

(* Foreign holds whose 2PL shadow conflicts with the request: on a granted
   request this is the count of conflicts a conventional system would have
   suffered — the paper's false conflicts, avoided. *)
let past_2pl_count holds ~txn ~mode =
  List.length
    (List.filter
       (fun h -> h.h_txn <> txn && Mode.twopl_would_block ~held:h.h_mode ~req:mode)
       holds)

let first_blocking_hold sem holds ~txn ~mode ~requester =
  List.find_opt
    (fun h -> h.h_txn <> txn && hold_conflict sem h ~mode ~requester)
    holds

let first_blocking_waiter sem waiters ~txn ~mode ~requester =
  List.find_opt
    (fun w -> w.w_txn <> txn && waiter_conflict sem w ~mode ~requester)
    waiters

(* BFS from [from]'s successors back to [from] over an explicit waits-for
   edge list: O(V + E), with parent pointers to reconstruct one witness
   cycle. *)
let find_cycle ~edges ~from =
  let succ = Hashtbl.create 32 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace succ a (b :: Option.value ~default:[] (Hashtbl.find_opt succ a)))
    edges;
  let successors n = Option.value ~default:[] (Hashtbl.find_opt succ n) in
  let parent = Hashtbl.create 32 in
  let frontier = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem parent s) then begin
        Hashtbl.replace parent s from;
        Queue.add s frontier
      end)
    (successors from);
  let rec search () =
    if Queue.is_empty frontier then None
    else begin
      let n = Queue.pop frontier in
      if n = from then begin
        (* walk the parent chain back to [from] *)
        let rec unwind node acc =
          if node = from && acc <> [] then acc
          else unwind (Hashtbl.find parent node) (node :: acc)
        in
        (* n = from was enqueued with a parent on the cycle *)
        let last = Hashtbl.find parent from in
        Some (from :: List.filter (fun x -> x <> from) (unwind last []))
      end
      else begin
        List.iter
          (fun s ->
            if not (Hashtbl.mem parent s) then begin
              Hashtbl.replace parent s n;
              Queue.add s frontier
            end)
          (successors n);
        search ()
      end
    end
  in
  search ()

(* §3.4: a compensating step is never victimized; the transactions delaying
   it are aborted instead.  With an all-compensating cycle (which the paper
   argues cannot arise from well-formed compensation) fall back to the
   requester. *)
let victim_policy ~is_compensating ~requester ~cycle =
  if is_compensating requester then begin
    match List.filter (fun t -> t <> requester && not (is_compensating t)) cycle with
    | [] -> [ requester ]
    | victims -> victims
  end
  else [ requester ]
