module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Value = Acc_relation.Value

type pending = {
  p_txn : int;
  p_txn_type : string;
  p_completed_steps : int;
  p_area : (string * Value.t) list;
}

type in_doubt = {
  i_txn : int;
  i_txn_type : string;
  i_completed_steps : int;
  i_area : (string * Value.t) list;
  i_gid : int;
}

type report = {
  db : Database.t;
  pending : pending list;
  in_doubt : in_doubt list;
  committed : int list;
  physically_undone : int list;
  already_resolved : int list;
}

let apply_write db (w : Record.write) =
  let table = Database.table db w.Record.w_table in
  match (w.Record.w_before, w.Record.w_after) with
  | None, Some row -> ignore (Table.insert table row)
  | Some _, None -> ignore (Table.delete table w.Record.w_key)
  | Some _, Some row -> ignore (Table.update table w.Record.w_key (fun _ -> row))
  | None, None -> ()

let undo_write db w = apply_write db (Record.invert w)

(* Per-transaction crash-time picture assembled during analysis. *)
type txn_info = {
  mutable txn_type : string;
  mutable multi_step : bool;
  mutable status : [ `Active | `Committed | `Resolved ];
  mutable completed_steps : int;
  (* the work area the last durable step-end record carried *)
  mutable area : (string * Value.t) list;
  (* forward writes since the last step boundary, newest first *)
  mutable tail_writes : Record.write list;
  (* compensation-log records seen since the last step boundary: each one
     already undid the newest not-yet-covered forward write *)
  mutable tail_undone : int;
  (* undo-records beyond those covering the forward tail: the writes of a
     logical compensating step in progress, newest first.  A compensation
     commits with its Abort record; without it these are physically rewound
     so the replayed compensating step restarts from a clean post-last-step
     state *)
  mutable comp_writes : Record.write list;
  (* a durable Prepare vote: the transaction is a 2PC participant in doubt
     until its coordinator's decision is known *)
  mutable prepared_gid : int option;
}

let recover ~baseline records =
  let db = Database.copy baseline in
  let txns : (int, txn_info) Hashtbl.t = Hashtbl.create 32 in
  let info txn =
    match Hashtbl.find_opt txns txn with
    | Some i -> i
    | None ->
        let i =
          {
            txn_type = "?";
            multi_step = false;
            status = `Active;
            completed_steps = 0;
            area = [];
            tail_writes = [];
            tail_undone = 0;
            comp_writes = [];
            prepared_gid = None;
          }
        in
        Hashtbl.add txns txn i;
        i
  in
  (* single pass: redo while building the analysis *)
  List.iter
    (fun record ->
      match record with
      | Record.Begin { txn; txn_type; multi_step } ->
          let i = info txn in
          i.txn_type <- txn_type;
          i.multi_step <- multi_step
      | Record.Write { txn; write; undo } ->
          apply_write db write;
          let i = info txn in
          if undo then
            (* the first [length tail_writes] undo-records reverse the
               forward tail (physical step rollback, newest first); any
               further ones are the writes of a logical compensating step *)
            if i.tail_undone < List.length i.tail_writes then
              i.tail_undone <- i.tail_undone + 1
            else i.comp_writes <- write :: i.comp_writes
          else i.tail_writes <- write :: i.tail_writes
      | Record.Step_end { txn; step_index; area } ->
          (* always a forward step (a compensating step logs none): the step
             and the area its compensation reads become durable together *)
          let i = info txn in
          i.completed_steps <- max i.completed_steps step_index;
          i.area <- area;
          i.tail_writes <- [];
          i.tail_undone <- 0
      | Record.Prepare { txn; gid } -> (info txn).prepared_gid <- Some gid
      | Record.Commit { txn } -> (info txn).status <- `Committed
      | Record.Abort { txn } -> (info txn).status <- `Resolved)
    records;
  (* physical undo of every loser's uncompleted work, newest first: the
     writes of an interrupted compensating step, then the forward tail of
     the uncompleted step (of which the newest [tail_undone] were already
     reversed by logged rollback records) *)
  let losers =
    Hashtbl.fold (fun txn i acc -> if i.status = `Active then (txn, i) :: acc else acc) txns []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (_, i) ->
      let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
      List.iter (undo_write db) (i.comp_writes @ drop i.tail_undone i.tail_writes))
    losers;
  (* a prepared loser voted yes in a two-phase commit and must await its
     coordinator's decision: it is reported in doubt, neither compensated
     (the decision may be commit) nor treated as undone (its steps stand).
     The physical rewind above only cleared an interrupted compensating
     step, which the eventual abort resolution restarts from scratch. *)
  let in_doubt, undecided =
    List.partition (fun (_, i) -> i.prepared_gid <> None) losers
  in
  let pending, physically_undone =
    List.partition (fun (_, i) -> i.multi_step && i.completed_steps > 0) undecided
  in
  {
    db;
    in_doubt =
      List.map
        (fun (txn, i) ->
          {
            i_txn = txn;
            i_txn_type = i.txn_type;
            i_completed_steps = i.completed_steps;
            i_area = i.area;
            i_gid = (match i.prepared_gid with Some g -> g | None -> assert false);
          })
        in_doubt;
    pending =
      List.map
        (fun (txn, i) ->
          {
            p_txn = txn;
            p_txn_type = i.txn_type;
            p_completed_steps = i.completed_steps;
            p_area = i.area;
          })
        pending;
    committed =
      Hashtbl.fold (fun txn i acc -> if i.status = `Committed then txn :: acc else acc) txns []
      |> List.sort compare;
    physically_undone = List.map fst physically_undone;
    already_resolved =
      Hashtbl.fold (fun txn i acc -> if i.status = `Resolved then txn :: acc else acc) txns []
      |> List.sort compare;
  }
