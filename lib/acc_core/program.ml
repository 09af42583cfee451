type step_def = {
  sd_id : int;
  sd_name : string;
  sd_txn_type : string;
  sd_index : int;
  sd_reads : Footprint.access list;
  sd_writes : Footprint.access list;
  sd_repeats : bool;
}

let legacy_step_id = 0

let legacy_step =
  {
    sd_id = legacy_step_id;
    sd_name = "legacy";
    sd_txn_type = "";
    sd_index = 1;
    sd_reads = [ Footprint.make "*" Footprint.All_columns ];
    sd_writes = [ Footprint.make "*" Footprint.All_columns ];
    sd_repeats = false;
  }

let step ~id ~name ~txn_type ~index ?(repeats = false) ~reads ~writes () =
  if id = legacy_step_id then invalid_arg "Program.step: id 0 is reserved";
  if id < 0 then invalid_arg "Program.step: negative id";
  {
    sd_id = id;
    sd_name = name;
    sd_txn_type = txn_type;
    sd_index = index;
    sd_reads = reads;
    sd_writes = writes;
    sd_repeats = repeats;
  }

type txn_type_def = {
  tt_name : string;
  tt_steps : step_def list;
  tt_comp : step_def option;
  tt_compensate : (Acc_txn.Executor.ctx -> completed:int -> unit) option;
  tt_assertions : Assertion.t list;
}

let txn_type ~name ~steps ?comp ?compensate ~assertions () =
  if steps = [] then invalid_arg (name ^ ": no steps");
  List.iteri
    (fun i sd ->
      if sd.sd_txn_type <> name then
        invalid_arg (Printf.sprintf "%s: step %s belongs to %s" name sd.sd_name sd.sd_txn_type);
      if sd.sd_index <> i + 1 then
        invalid_arg (Printf.sprintf "%s: step %s has index %d, expected %d" name sd.sd_name
           sd.sd_index (i + 1)))
    steps;
  (match (comp, compensate) with
  | None, Some _ -> invalid_arg (name ^ ": a compensating body needs a compensating step")
  | Some c, _ ->
      if c.sd_txn_type <> name then invalid_arg (name ^ ": foreign compensating step");
      if c.sd_index <> 0 then invalid_arg (name ^ ": compensating step must have index 0")
  | None, None ->
      (* a transaction that can expose intermediate results across a step
         boundary must be able to roll back logically (§3.4) *)
      if List.length steps > 1 || List.exists (fun s -> s.sd_repeats) steps then
        invalid_arg (name ^ ": multi-step transaction types must declare a compensating step"));
  List.iter
    (fun (a : Assertion.t) ->
      if a.Assertion.txn_type <> name then
        invalid_arg (Printf.sprintf "%s: assertion %s belongs to %s" name a.Assertion.name
           a.Assertion.txn_type))
    assertions;
  {
    tt_name = name;
    tt_steps = steps;
    tt_comp = comp;
    tt_compensate = compensate;
    tt_assertions = assertions;
  }

type workload = {
  types : txn_type_def list;
  steps : step_def list; (* includes compensating + legacy *)
  asserts : Assertion.t list; (* includes legacy isolation *)
}

let workload types =
  let steps =
    legacy_step
    :: List.concat_map
         (fun tt -> tt.tt_steps @ match tt.tt_comp with Some c -> [ c ] | None -> [])
         types
  in
  let asserts = Assertion.legacy_isolation :: List.concat_map (fun tt -> tt.tt_assertions) types in
  let check_unique what ids =
    let sorted = List.sort compare ids in
    let rec dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted with
    | Some id -> invalid_arg (Printf.sprintf "Program.workload: duplicate %s id %d" what id)
    | None -> ()
  in
  check_unique "step" (List.map (fun s -> s.sd_id) steps);
  check_unique "assertion" (List.map (fun (a : Assertion.t) -> a.Assertion.id) asserts);
  check_unique "txn type (hashed name)"
    (List.map (fun tt -> Hashtbl.hash tt.tt_name) types);
  { types; steps; asserts }

let txn_types w = w.types

let find_txn_type w name =
  match List.find_opt (fun tt -> tt.tt_name = name) w.types with
  | Some tt -> tt
  | None -> invalid_arg ("Program.find_txn_type: " ^ name)

let all_steps w = w.steps
let all_assertions w = w.asserts
let find_step w id = List.find_opt (fun s -> s.sd_id = id) w.steps
let max_step_id w = List.fold_left (fun acc s -> max acc s.sd_id) 0 w.steps

let max_assertion_id w =
  List.fold_left (fun acc (a : Assertion.t) -> max acc a.Assertion.id) 0 w.asserts

(* --- run-time instances -------------------------------------------------- *)

type assertion_instance = {
  ai_assertion : Assertion.t;
  ai_from : int;
  ai_until : int;
  ai_check : (Acc_relation.Database.t -> bool) option;
}

type read_isolation = Exposed | Committed_only | Snapshot

type instance = {
  i_def : txn_type_def;
  i_steps : (step_def * (Acc_txn.Executor.ctx -> unit)) array;
  i_assertions : assertion_instance list;
  i_admission : (assertion_instance * Acc_lock.Resource_id.t list) list;
  i_compensate : (Acc_txn.Executor.ctx -> completed:int -> unit) option;
  i_comp_area : unit -> (string * Acc_relation.Value.t) list;
  i_read_isolation : read_isolation;
}

let check_step_sequence def steps =
  (* the concrete sequence must be the static sequence with repeating steps
     expanded in place *)
  let rec follow statics dynamics =
    match (statics, dynamics) with
    | _, [] ->
        if List.exists (fun (s : step_def) -> not s.sd_repeats) statics then
          invalid_arg (def.tt_name ^ ": instance is missing mandatory steps")
    | [], _ :: _ -> invalid_arg (def.tt_name ^ ": instance has extra steps")
    | s :: srest, (d, _) :: drest ->
        if (d : step_def).sd_id = s.sd_id then
          if s.sd_repeats then
            (* consume the run of this repeating step *)
            let rec run = function
              | ((d' : step_def), _) :: drest' when d'.sd_id = s.sd_id -> run drest'
              | rest -> follow srest rest
            in
            run drest
          else follow srest drest
        else if s.sd_repeats then follow srest dynamics
        else
          invalid_arg
            (Printf.sprintf "%s: expected step %s, got %s" def.tt_name s.sd_name d.sd_name)
  in
  follow def.tt_steps steps

let instance ~def ~steps ?(assertions = []) ?(admission = []) ?compensate
    ?(comp_area = fun () -> []) ?(read_isolation = Exposed) () =
  if steps = [] then invalid_arg (def.tt_name ^ ": empty instance");
  check_step_sequence def steps;
  let compensate =
    match (def.tt_comp, def.tt_compensate, compensate) with
    | _, Some _, Some _ -> invalid_arg (def.tt_name ^ ": the type declares its compensating body")
    | Some _, None, None -> invalid_arg (def.tt_name ^ ": compensation body required")
    | None, _, Some _ -> invalid_arg (def.tt_name ^ ": unexpected compensation body")
    | _, (Some _ as declared), None -> declared
    | _, None, given -> given
  in
  {
    i_def = def;
    i_steps = Array.of_list steps;
    i_assertions = assertions;
    i_admission = admission;
    i_compensate = compensate;
    i_comp_area = comp_area;
    i_read_isolation = read_isolation;
  }

let resolve_window inst (a : Assertion.t) =
  let n = Array.length inst.i_steps in
  let static_of j = (fst inst.i_steps.(j - 1)).sd_index in
  (* first dynamic position of the static index (for the window opening) and
     last dynamic position (for the closing) *)
  let first_at target =
    let rec look j = if j > n then n else if static_of j = target then j else look (j + 1) in
    look 1
  in
  let last_at target =
    let rec look j = if j < 1 then 1 else if static_of j = target then j else look (j - 1) in
    look n
  in
  let from = if a.Assertion.pre_of <= 1 then 1 else first_at a.Assertion.pre_of in
  let until =
    if a.Assertion.until = Assertion.until_commit then n else last_at a.Assertion.until
  in
  (max 1 (min n from), max 1 (min n until))
