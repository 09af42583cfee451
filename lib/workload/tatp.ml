(* TATP-style telecom mix (Neuvonen et al.): read-mostly — 80% point
   reads of subscriber/access rows, 20% updates.  The decomposed
   transaction is [tatp_update_location]: step 1 bumps the subscriber's
   update counter and claims a sequence number; step 2 writes the new
   location and journals the claimed number.  The interstep assertion
   mirrors TPC-C's order-counter claim: "the sequence number I drew is
   mine alone and below the counter" — foreign bumps are monotone and
   declared compatible, so concurrent location updates to the same
   subscriber pipeline instead of serializing on the counter, while the
   journal keyed (subscriber, seq) stays collision-free. *)

module W = Workload_intf
module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Database = Acc_relation.Database
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Replay = Acc_core.Replay
module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Prng = Acc_util.Prng
open Value

let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let subscribers_of_scale scale = 100 * max 1 scale

let schemas =
  let c = Schema.col in
  [
    Schema.make ~name:"subscriber" ~key:[ "s_id" ]
      [
        c "s_id" Tint; c "sub_nbr" Tstr; c "bit_1" Tint; c "vlr_location" Tint;
        c "upd_cnt" Tint;
      ];
    Schema.make ~name:"access_info" ~key:[ "ai_s_id"; "ai_type" ]
      [ c "ai_s_id" Tint; c "ai_type" Tint; c "ai_data" Tint ];
    (* location-update journal, keyed by the claimed (subscriber, seq):
       deterministic fresh keys, no surrogate sequence needed *)
    Schema.make ~name:"tatp_audit" ~key:[ "au_s_id"; "au_seq" ]
      [ c "au_s_id" Tint; c "au_seq" Tint; c "au_loc" Tint ];
  ]

let populate ~subscribers ~seed =
  let g = Prng.create ~seed in
  let db = Database.create () in
  List.iter (fun s -> ignore (Database.create_table db s)) schemas;
  let sub_t = Database.table db "subscriber" in
  let ai_t = Database.table db "access_info" in
  for s = 1 to subscribers do
    ignore
      (Acc_relation.Table.insert sub_t
         [|
           Int s; Str (Prng.numeric_string g 15); Int (Prng.int g 2); Int (Prng.int g 10_000);
           Int 0;
         |]);
    for ty = 1 to 4 do
      ignore (Acc_relation.Table.insert ai_t [| Int s; Int ty; Int (Prng.int g 256) |])
    done
  done;
  db

(* ------------------------------------------------------------------ *)
(* Inputs *)

type input =
  | Get_subscriber of { sub : int }
  | Get_access of { sub : int; ty : int }
  | Update_bit of { sub : int; bit : int }
  | Update_location of { sub : int; loc : int; fail : bool }

let txn_name = function
  | Get_subscriber _ -> "tatp_get_subscriber"
  | Get_access _ -> "tatp_get_access"
  | Update_bit _ -> "tatp_update_bit"
  | Update_location _ -> "tatp_update_location"

let forced_abort = function Update_location { fail; _ } -> fail | _ -> false

type env = {
  gen : Prng.t;
  n_subs : int;
  zipf : Prng.zipf option;
  abort_rate : float;
  update_heavy : bool;  (* "update-heavy" mix: 50% location updates *)
  pace : unit -> unit;
}

let make_env ?(pace = fun () -> ()) ~subscribers ~skew ~abort_rate ~mix ~seed () =
  let update_heavy =
    match mix with
    | Some "update-heavy" -> true
    | Some "standard" | None -> false
    | Some m -> failwith (Printf.sprintf "tatp: unknown mix %S" m)
  in
  {
    gen = Prng.create ~seed;
    n_subs = subscribers;
    zipf = (if skew > 0. then Some (Prng.zipf ~n:subscribers ~theta:skew) else None);
    abort_rate;
    update_heavy;
    pace;
  }

let split_env env = { env with gen = Prng.split env.gen }

let pick_sub env =
  match env.zipf with
  | Some z -> 1 + Prng.zipf_draw env.gen z
  | None -> 1 + Prng.int env.gen env.n_subs

let gen_input env =
  let g = env.gen in
  let sub = pick_sub env in
  let roll = Prng.int g 100 in
  let upd_loc () =
    Update_location { sub; loc = Prng.int g 10_000; fail = Prng.chance g env.abort_rate }
  in
  if env.update_heavy then
    if roll < 30 then Get_subscriber { sub }
    else if roll < 45 then Get_access { sub; ty = 1 + Prng.int g 4 }
    else if roll < 50 then Update_bit { sub; bit = Prng.int g 2 }
    else upd_loc ()
  else if roll < 35 then Get_subscriber { sub }
  else if roll < 75 then Get_access { sub; ty = 1 + Prng.int g 4 }
  else if roll < 80 then Update_bit { sub; bit = Prng.int g 2 }
  else upd_loc ()

(* ------------------------------------------------------------------ *)
(* Static decomposition *)

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh

let gs_read =
  Program.step ~id:1 ~name:"read-profile" ~txn_type:"tatp_get_subscriber" ~index:1
    ~reads:[ fp "subscriber" Footprint.All_columns ]
    ~writes:[] ()

let get_subscriber_type =
  Program.txn_type ~name:"tatp_get_subscriber" ~steps:[ gs_read ] ~assertions:[] ()

let ga_read =
  Program.step ~id:2 ~name:"read-access" ~txn_type:"tatp_get_access" ~index:1
    ~reads:[ fp "access_info" (cols [ "ai_data" ]) ]
    ~writes:[] ()

let get_access_type =
  Program.txn_type ~name:"tatp_get_access" ~steps:[ ga_read ] ~assertions:[] ()

let ub_write =
  Program.step ~id:3 ~name:"flip-bit" ~txn_type:"tatp_update_bit" ~index:1
    ~reads:[ fp "subscriber" (cols [ "bit_1" ]) ]
    ~writes:[ fp "subscriber" (cols [ "bit_1" ]) ]
    ()

let ub_comp =
  Program.step ~id:4 ~name:"unflip-bit" ~txn_type:"tatp_update_bit" ~index:0 ~reads:[]
    ~writes:[ fp "subscriber" (cols [ "bit_1" ]) ]
    ()

let update_bit_type =
  Program.txn_type ~name:"tatp_update_bit" ~steps:[ ub_write ] ~comp:ub_comp ~assertions:[] ()

let ul_bump =
  Program.step ~id:5 ~name:"claim-seq" ~txn_type:"tatp_update_location" ~index:1
    ~reads:[ fp "subscriber" (cols [ "upd_cnt" ]) ]
    ~writes:[ fp "subscriber" (cols [ "upd_cnt" ]) ]
    ()

let ul_write =
  Program.step ~id:6 ~name:"write-location" ~txn_type:"tatp_update_location" ~index:2
    ~reads:[]
    ~writes:
      [
        fp "subscriber" (cols [ "vlr_location" ]);
        fp ~fresh "tatp_audit" Footprint.All_columns;
      ]
    ()

let ul_comp =
  Program.step ~id:7 ~name:"void-update" ~txn_type:"tatp_update_location" ~index:0 ~reads:[]
    ~writes:[ fp ~fresh "tatp_audit" Footprint.All_columns ]
    ()

(* pre(S_2): "the sequence number I claimed is mine alone and below the
   counter" — references the shared counter, but foreign bumps only grow
   it: declared compatible below (TPC-C's a_no_seq shape). *)
let a_ul_seq =
  Assertion.make ~id:1 ~name:"ul_seq_claimed" ~txn_type:"tatp_update_location" ~pre_of:2
    ~until:2
    ~refs:
      [ fp "subscriber" (cols [ "upd_cnt" ]); fp ~fresh "tatp_audit" Footprint.All_columns ]

let update_location_type =
  Program.txn_type ~name:"tatp_update_location" ~steps:[ ul_bump; ul_write ] ~comp:ul_comp
    ~assertions:[ a_ul_seq ] ()

let workload =
  Program.workload
    [ get_subscriber_type; get_access_type; update_bit_type; update_location_type ]

let interference =
  Interference.build ~compatible:[ (ul_bump.Program.sd_id, a_ul_seq.Assertion.id) ] workload

let semantics = Interference.semantics interference

(* ------------------------------------------------------------------ *)
(* Bodies (all randomness drawn at generation time) *)

type ul_ws = { mutable seq : int }

let gs_body env ~sub ctx =
  let row = Executor.read_exn ctx "subscriber" [ Int sub ] in
  env.pace ();
  ignore (as_int row.(3))

let ga_body env ~sub ~ty ctx =
  let row = Executor.read_exn ctx "access_info" [ Int sub; Int ty ] in
  env.pace ();
  ignore (as_int row.(2))

let ub_body env ~sub ~bit ctx =
  ignore env;
  ignore
    (Executor.update ctx "subscriber" [ Int sub ] (fun row ->
         row.(2) <- Int bit;
         row))

let ul_bump_body env ~sub (ws : ul_ws) ctx =
  let row =
    Executor.update ctx "subscriber" [ Int sub ] (fun row ->
        row.(4) <- Int (as_int row.(4) + 1);
        row)
  in
  ws.seq <- as_int row.(4);
  env.pace ()

let ul_write_body env ~sub ~loc ~fail (ws : ul_ws) ctx =
  if fail then raise Txn_effect.Abort_requested;
  ignore
    (Executor.update ctx "subscriber" [ Int sub ] (fun row ->
         row.(3) <- Int loc;
         row));
  env.pace ();
  Executor.insert ctx "tatp_audit" [| Int sub; Int ws.seq; Int loc |]

(* ------------------------------------------------------------------ *)
(* Compensations *)

(* bit flips are last-writer-wins noise; semantic undo is a no-op beyond
   honoring the obligation *)
let ub_compensate _ctx ~completed:_ = ()

(* the claimed sequence number is exposed and stays burnt (TPC-C's order
   id); journal it as a cancelled update so the counter still reconciles *)
let ul_compensate ctx ~completed =
  let sub = as_int (Executor.area_field ctx "sub") in
  let seq = as_int (Executor.area_field ctx "seq") in
  if seq > 0 then begin
    if completed >= 2 then ignore (Executor.delete ctx "tatp_audit" [ Int sub; Int seq ]);
    if completed >= 1 then Executor.insert ctx "tatp_audit" [| Int sub; Int seq; Int (-1) |]
  end

let register_replay () =
  Replay.register ~txn_type:"tatp_update_bit" ~step_type:ub_comp.Program.sd_id ub_compensate;
  Replay.register ~txn_type:"tatp_update_location" ~step_type:ul_comp.Program.sd_id
    ul_compensate

let reset_global () = register_replay ()

(* ------------------------------------------------------------------ *)
(* Instances *)

let instance env input =
  match input with
  | Get_subscriber { sub } ->
      Program.instance ~def:get_subscriber_type
        ~steps:[ (gs_read, fun ctx -> gs_body env ~sub ctx) ]
        ()
  | Get_access { sub; ty } ->
      Program.instance ~def:get_access_type
        ~steps:[ (ga_read, fun ctx -> ga_body env ~sub ~ty ctx) ]
        ()
  | Update_bit { sub; bit } ->
      Program.instance ~def:update_bit_type
        ~steps:[ (ub_write, fun ctx -> ub_body env ~sub ~bit ctx) ]
        ~compensate:ub_compensate
        ~comp_area:(fun () -> [ ("sub", Int sub) ])
        ()
  | Update_location { sub; loc; fail } ->
      let ws = { seq = 0 } in
      Program.instance ~def:update_location_type
        ~steps:
          [
            (ul_bump, fun ctx -> ul_bump_body env ~sub ws ctx);
            (ul_write, fun ctx -> ul_write_body env ~sub ~loc ~fail ws ctx);
          ]
        ~assertions:
          [ { Program.ai_assertion = a_ul_seq; ai_from = 2; ai_until = 2; ai_check = None } ]
        ~compensate:ul_compensate
        ~comp_area:(fun () -> [ ("sub", Int sub); ("seq", Int ws.seq) ])
        ()

let run_acc ?options ?stop eng env input = Runtime.run ?options ?stop eng (instance env input)

let run_flat ?stop eng env input =
  Runtime.run_flat ?stop ~between:env.pace eng ~txn_type:(txn_name input) (fun () ->
      instance env input)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let consistency db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let sub_t = Database.table db "subscriber" in
  let audit = Database.table db "tatp_audit" in
  (* journal rows per subscriber; (s, seq) uniqueness is enforced by the
     table's primary key — a duplicate claim would have failed the insert *)
  let counts = Hashtbl.create 64 in
  Acc_relation.Table.iter
    (fun _ row ->
      let s = as_int row.(0) and seq = as_int row.(1) in
      Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s));
      if seq < 1 then add "tatp: subscriber %d journal row with bad seq %d" s seq)
    audit;
  Acc_relation.Table.iter
    (fun _ row ->
      let s = as_int row.(0) in
      let cnt = as_int row.(4) in
      let journaled = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      (* every claimed sequence number is journaled exactly once, as a
         committed update or a cancellation *)
      if cnt <> journaled then
        add "tatp: subscriber %d claimed %d updates but journaled %d" s cnt journaled)
    sub_t;
  List.rev !violations

(* ------------------------------------------------------------------ *)

let make (spec : W.spec) : W.t =
  let subscribers = subscribers_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  let skew = spec.W.skew in
  let mix = spec.W.mix in
  (module struct
    let name = "tatp"
    let describe = "TATP-style read-mostly telecom mix with pipelined location updates"
    let conflict_shape = "80% point reads; counter-claim pipeline on hot subscribers"

    type nonrec input = input
    type nonrec env = env

    let populate ~seed = populate ~subscribers ~seed
    let make_env ?pace ~seed () = make_env ?pace ~subscribers ~skew ~abort_rate ~mix ~seed ()
    let split_env = split_env
    let reset_global = reset_global
    let gen_input = gen_input
    let txn_name = txn_name
    let forced_abort = forced_abort
    let workload = workload
    let interference = interference
    let semantics = semantics
    let run_flat = run_flat
    let run_acc = run_acc
    let consistency = consistency
    let extras () = []
  end : W.S)
