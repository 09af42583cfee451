(* SmallBank (Alonso et al., as catalogued by "Alone Together"): five
   short banking transactions over per-customer saving/checking balances.
   The interesting conflict shape is {e write-skew}: [write_check] reads
   both balances, decides the funds suffice, then deducts from checking in
   a later step.  Under snapshot-style weakenings two write_checks on the
   same customer both pass the check and jointly overdraw — the classic
   anomaly.  Here the interstep assertion [a_wc_funds] ("the funds I
   verified are still there") keeps the decision sound: foreign deposits
   are declared compatible (monotone increase cannot falsify it) while
   foreign withdrawals block — exactly the paper's §3.2 admit-more /
   stay-safe trade.  [interference_weakened] deliberately mis-declares the
   withdrawal steps as compatible too; the directed test drives two
   write_checks through it and proves {!consistency} catches the overdraw
   the correct table prevents. *)

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

let fnum = Value.number
let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let init_saving = 500.0
let init_checking = 100.0
let accounts_of_scale scale = 20 * max 1 scale

let schemas =
  let c = Schema.col in
  [
    Schema.make ~name:"account" ~key:[ "a_id" ] [ c "a_id" Tint; c "a_name" Tstr ];
    Schema.make ~name:"saving" ~key:[ "s_id" ] [ c "s_id" Tint; c "s_bal" Tfloat ];
    Schema.make ~name:"checking" ~key:[ "c_id" ] [ c "c_id" Tint; c "c_bal" Tfloat ];
    (* append-only journal: one row per (account, delta); instance-unique
       surrogate keys, hence Fresh in every footprint that mentions it *)
    Schema.make ~name:"sb_audit" ~key:[ "au_id" ]
      [ c "au_id" Tint; c "au_op" Tstr; c "au_acct" Tint; c "au_delta" Tfloat ];
  ]

let populate ~accounts ~seed =
  let g = Prng.create ~seed in
  let db = Database.create () in
  List.iter (fun s -> ignore (Database.create_table db s)) schemas;
  let acct_t = Database.table db "account" in
  let sav_t = Database.table db "saving" in
  let chk_t = Database.table db "checking" in
  for a = 1 to accounts do
    ignore (Acc_relation.Table.insert acct_t [| Int a; Str (Prng.alpha_string g ~min:4 ~max:10) |]);
    ignore (Acc_relation.Table.insert sav_t [| Int a; Float init_saving |]);
    ignore (Acc_relation.Table.insert chk_t [| Int a; Float init_checking |])
  done;
  db

(* ------------------------------------------------------------------ *)
(* Inputs and generation *)

type input =
  | Balance of { acct : int }
  | Deposit of { acct : int; amount : float }
  | Transact of { acct : int; amount : float }  (* savings; may be negative *)
  | Amalgamate of { src : int; dst : int; fail : bool }
  | Write_check of { acct : int; amount : float; fail : bool }

let txn_name = function
  | Balance _ -> "sb_balance"
  | Deposit _ -> "sb_deposit"
  | Transact _ -> "sb_transact"
  | Amalgamate _ -> "sb_amalgamate"
  | Write_check _ -> "sb_write_check"

let forced_abort = function
  | Amalgamate { fail; _ } | Write_check { fail; _ } -> fail
  | Balance _ | Deposit _ | Transact _ -> false

type env = {
  gen : Prng.t;
  n_accounts : int;
  zipf : Prng.zipf option;  (* account-selection skew; None = uniform *)
  abort_rate : float;
  write_skew_mix : bool;  (* "write-skew" mix: write_check + deposit only *)
  pace : unit -> unit;
}

let make_env ?(pace = fun () -> ()) ~accounts ~skew ~abort_rate ~mix ~seed () =
  let write_skew_mix =
    match mix with
    | Some "write-skew" -> true
    | Some "standard" | None -> false
    | Some m -> failwith (Printf.sprintf "smallbank: unknown mix %S" m)
  in
  {
    gen = Prng.create ~seed;
    n_accounts = accounts;
    zipf = (if skew > 0. then Some (Prng.zipf ~n:accounts ~theta:skew) else None);
    abort_rate;
    write_skew_mix;
    pace;
  }

let split_env env = { env with gen = Prng.split env.gen }

let pick_acct env =
  match env.zipf with
  | Some z -> 1 + Prng.zipf_draw env.gen z
  | None -> 1 + Prng.int env.gen env.n_accounts

let gen_input env =
  let g = env.gen in
  let acct = pick_acct env in
  let fail () = Prng.chance g env.abort_rate in
  if env.write_skew_mix then
    if Prng.int g 100 < 30 then
      Deposit { acct; amount = float_of_int (1 + Prng.int g 100) }
    else Write_check { acct; amount = float_of_int (1 + Prng.int g 500); fail = fail () }
  else
    let roll = Prng.int g 100 in
    if roll < 15 then Balance { acct }
    else if roll < 40 then Deposit { acct; amount = float_of_int (1 + Prng.int g 100) }
    else if roll < 60 then
      Transact { acct; amount = float_of_int (Prng.int_in g (-50) 150) }
    else if roll < 75 then
      let dst = 1 + ((acct + Prng.int g (env.n_accounts - 1)) mod env.n_accounts) in
      Amalgamate { src = acct; dst; fail = fail () }
    else Write_check { acct; amount = float_of_int (1 + Prng.int g 500); fail = fail () }

(* ------------------------------------------------------------------ *)
(* Surrogate audit keys (process-wide, reset per harness run) *)

let au_seq = Atomic.make 1_000_000
let next_au () = 1 + Atomic.fetch_and_add au_seq 1

(* ------------------------------------------------------------------ *)
(* Static decomposition *)

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh

let bal_read =
  Program.step ~id:1 ~name:"read-both" ~txn_type:"sb_balance" ~index:1
    ~reads:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]
    ~writes:[] ()

let balance_type = Program.txn_type ~name:"sb_balance" ~steps:[ bal_read ] ~assertions:[] ()

let dc_apply =
  Program.step ~id:2 ~name:"credit" ~txn_type:"sb_deposit" ~index:1
    ~reads:[ fp "checking" (cols [ "c_bal" ]) ]
    ~writes:[ fp "checking" (cols [ "c_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let dc_comp =
  Program.step ~id:3 ~name:"uncredit" ~txn_type:"sb_deposit" ~index:0 ~reads:[]
    ~writes:[ fp "checking" (cols [ "c_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let deposit_type =
  Program.txn_type ~name:"sb_deposit" ~steps:[ dc_apply ] ~comp:dc_comp ~assertions:[] ()

let ts_apply =
  Program.step ~id:4 ~name:"adjust" ~txn_type:"sb_transact" ~index:1
    ~reads:[ fp "saving" (cols [ "s_bal" ]) ]
    ~writes:[ fp "saving" (cols [ "s_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let ts_comp =
  Program.step ~id:5 ~name:"unadjust" ~txn_type:"sb_transact" ~index:0 ~reads:[]
    ~writes:[ fp "saving" (cols [ "s_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let transact_type =
  Program.txn_type ~name:"sb_transact" ~steps:[ ts_apply ] ~comp:ts_comp ~assertions:[] ()

let wc_check =
  Program.step ~id:6 ~name:"verify-funds" ~txn_type:"sb_write_check" ~index:1
    ~reads:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]
    ~writes:[] ()

let wc_deduct =
  Program.step ~id:7 ~name:"deduct" ~txn_type:"sb_write_check" ~index:2
    ~reads:[]
    ~writes:[ fp "checking" (cols [ "c_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let wc_comp =
  Program.step ~id:8 ~name:"void-check" ~txn_type:"sb_write_check" ~index:0 ~reads:[]
    ~writes:[ fp "checking" (cols [ "c_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

(* pre(S_deduct): "the balances I verified still cover the check."
   References both shared balances — the write-skew window. *)
let a_wc_funds =
  Assertion.make ~id:1 ~name:"wc_funds_hold" ~txn_type:"sb_write_check" ~pre_of:2 ~until:2
    ~refs:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]

let write_check_type =
  Program.txn_type ~name:"sb_write_check" ~steps:[ wc_check; wc_deduct ] ~comp:wc_comp
    ~assertions:[ a_wc_funds ] ()

let am_take =
  Program.step ~id:9 ~name:"drain-src" ~txn_type:"sb_amalgamate" ~index:1
    ~reads:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]
    ~writes:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]
    ()

let am_put =
  Program.step ~id:10 ~name:"credit-dst" ~txn_type:"sb_amalgamate" ~index:2
    ~reads:[]
    ~writes:[ fp "checking" (cols [ "c_bal" ]); fp ~fresh "sb_audit" Footprint.All_columns ]
    ()

let am_comp =
  Program.step ~id:11 ~name:"restore" ~txn_type:"sb_amalgamate" ~index:0 ~reads:[]
    ~writes:
      [
        fp "saving" (cols [ "s_bal" ]);
        fp "checking" (cols [ "c_bal" ]);
        fp ~fresh "sb_audit" Footprint.All_columns;
      ]
    ()

(* "the money I drained from src is accounted for until it lands in dst" *)
let a_am_moved =
  Assertion.make ~id:2 ~name:"am_drained_intact" ~txn_type:"sb_amalgamate" ~pre_of:2 ~until:2
    ~refs:[ fp "saving" (cols [ "s_bal" ]); fp "checking" (cols [ "c_bal" ]) ]

let amalgamate_type =
  Program.txn_type ~name:"sb_amalgamate" ~steps:[ am_take; am_put ] ~comp:am_comp
    ~assertions:[ a_am_moved ] ()

let workload =
  Program.workload
    [ balance_type; deposit_type; transact_type; write_check_type; amalgamate_type ]

(* Hand-proved compatibilities: a foreign deposit only increases a checking
   balance, so it cannot falsify "the funds I verified still cover the
   check" nor "the money I drained is accounted for" — ACC admits it where
   2PL would block.  Withdrawals (transact, another check's deduct, a
   drain) genuinely can falsify both and stay interfering. *)
let compatible_true =
  [
    (dc_apply.Program.sd_id, a_wc_funds.Assertion.id);
    (dc_apply.Program.sd_id, a_am_moved.Assertion.id);
  ]

let interference = Interference.build ~compatible:compatible_true workload
let semantics = Interference.semantics interference

(* The deliberately broken table for the directed write-skew test: it also
   declares the withdrawal steps — and the check-voiding compensation that
   shadows a deduct's exposed write — compatible with [a_wc_funds], i.e. it
   "proves" a claim that is false.  Two concurrent write_checks then both
   pass verify-funds and jointly overdraw — the anomaly {!consistency}
   must catch.  (Without the [wc_comp] pair the deducts still serialize:
   each deduct's Comp lock blocks on the other's held assertion.) *)
let interference_weakened =
  Interference.build
    ~compatible:
      (compatible_true
      @ [
          (ts_apply.Program.sd_id, a_wc_funds.Assertion.id);
          (wc_deduct.Program.sd_id, a_wc_funds.Assertion.id);
          (wc_comp.Program.sd_id, a_wc_funds.Assertion.id);
          (am_take.Program.sd_id, a_wc_funds.Assertion.id);
        ])
    workload

let semantics_weakened = Interference.semantics interference_weakened

(* ------------------------------------------------------------------ *)
(* Bodies (idempotent under step retry: workspaces are assigned, never
   accumulated, and all randomness lives in the input) *)

let audit ctx ~au ~op ~acct ~delta =
  Executor.insert ctx "sb_audit" [| Int au; Str op; Int acct; Float delta |]

type wc_ws = { mutable ok : bool; mutable au : int }
type am_ws = { mutable ms : float; mutable mc : float; mutable au : int }
type one_ws = { mutable au1 : int }

let bal_body env ~acct ctx =
  let s = Executor.read_exn ctx "saving" [ Int acct ] in
  env.pace ();
  let c = Executor.read_exn ctx "checking" [ Int acct ] in
  ignore (fnum s.(1) +. fnum c.(1))

let dc_body env ~acct ~amount (ws : one_ws) ctx =
  ignore
    (Executor.update ctx "checking" [ Int acct ] (fun row ->
         row.(1) <- Float (fnum row.(1) +. amount);
         row));
  env.pace ();
  ws.au1 <- next_au ();
  audit ctx ~au:ws.au1 ~op:"dc" ~acct ~delta:amount

let ts_body env ~acct ~amount (ws : one_ws) ctx =
  let row = Executor.read_exn ctx "saving" [ Int acct ] in
  if fnum row.(1) +. amount < 0. then raise Txn_effect.Abort_requested;
  ignore
    (Executor.update ctx "saving" [ Int acct ] (fun row ->
         row.(1) <- Float (fnum row.(1) +. amount);
         row));
  env.pace ();
  ws.au1 <- next_au ();
  audit ctx ~au:ws.au1 ~op:"ts" ~acct ~delta:amount

let wc_check_body env ~acct ~amount (ws : wc_ws) ctx =
  let s = Executor.read_exn ctx "saving" [ Int acct ] in
  env.pace ();
  let c = Executor.read_exn ctx "checking" [ Int acct ] in
  ws.ok <- fnum s.(1) +. fnum c.(1) >= amount;
  (* the client's pause between checking funds and writing the check: the
     window write skew lives in *)
  env.pace ()

let wc_deduct_body env ~acct ~amount ~fail (ws : wc_ws) ctx =
  if fail then raise Txn_effect.Abort_requested;
  if not ws.ok then raise Txn_effect.Abort_requested;
  (* no re-check: pre(S_deduct) — the assertional lock — is what makes the
     stale decision sound.  That is the point of the workload. *)
  ignore
    (Executor.update ctx "checking" [ Int acct ] (fun row ->
         row.(1) <- Float (fnum row.(1) -. amount);
         row));
  env.pace ();
  ws.au <- next_au ();
  audit ctx ~au:ws.au ~op:"wc" ~acct ~delta:(-.amount)

let am_take_body env ~src (ws : am_ws) ctx =
  let s = Executor.update ctx "saving" [ Int src ] (fun row ->
      ws.ms <- fnum row.(1);
      row.(1) <- Float 0.;
      row)
  in
  ignore s;
  env.pace ();
  ignore
    (Executor.update ctx "checking" [ Int src ] (fun row ->
         ws.mc <- fnum row.(1);
         row.(1) <- Float 0.;
         row))

let am_put_body env ~src ~dst ~fail (ws : am_ws) ctx =
  if fail then raise Txn_effect.Abort_requested;
  let total = ws.ms +. ws.mc in
  ignore
    (Executor.update ctx "checking" [ Int dst ] (fun row ->
         row.(1) <- Float (fnum row.(1) +. total);
         row));
  env.pace ();
  ws.au <- next_au ();
  audit ctx ~au:ws.au ~op:"am_out" ~acct:src ~delta:(-.total);
  audit ctx ~au:(ws.au + 1000000000) ~op:"am_in" ~acct:dst ~delta:total

(* ------------------------------------------------------------------ *)
(* Compensations: one body per type, reading only the work area, shared
   by an inline abort and crash replay *)

(* undo one journaled single-balance change: the deposit's credit to
   checking, or the transact's adjustment of savings *)
let unapply ~table ctx =
  let field = Executor.area_field ctx in
  let amount = fnum (field "amount") in
  ignore
    (Executor.update ctx table [ field "acct" ] (fun row ->
         row.(1) <- Float (fnum row.(1) -. amount);
         row));
  Executor.delete ctx "sb_audit" [ field "au" ]

let dc_compensate ctx ~completed = if completed >= 1 then unapply ~table:"checking" ctx
let ts_compensate ctx ~completed = if completed >= 1 then unapply ~table:"saving" ctx

let wc_compensate ctx ~completed =
  (* step 1 is read-only; only a completed deduct leaves anything to undo *)
  if completed >= 2 then begin
    let field = Executor.area_field ctx in
    let amount = fnum (field "amount") in
    ignore
      (Executor.update ctx "checking" [ field "acct" ] (fun row ->
           row.(1) <- Float (fnum row.(1) +. amount);
           row));
    Executor.delete ctx "sb_audit" [ field "au" ]
  end

let am_compensate ctx ~completed =
  let field = Executor.area_field ctx in
  let ms = fnum (field "ms") and mc = fnum (field "mc") in
  if completed >= 2 then begin
    let au = as_int (field "au") in
    ignore
      (Executor.update ctx "checking" [ field "dst" ] (fun row ->
           row.(1) <- Float (fnum row.(1) -. (ms +. mc));
           row));
    Executor.delete ctx "sb_audit" [ Int au ];
    Executor.delete ctx "sb_audit" [ Int (au + 1000000000) ]
  end;
  if completed >= 1 then begin
    ignore
      (Executor.update ctx "saving" [ field "src" ] (fun row ->
           row.(1) <- Float (fnum row.(1) +. ms);
           row));
    ignore
      (Executor.update ctx "checking" [ field "src" ] (fun row ->
           row.(1) <- Float (fnum row.(1) +. mc);
           row))
  end

let register_replay () =
  Replay.register ~txn_type:"sb_deposit" ~step_type:dc_comp.Program.sd_id dc_compensate;
  Replay.register ~txn_type:"sb_transact" ~step_type:ts_comp.Program.sd_id ts_compensate;
  Replay.register ~txn_type:"sb_write_check" ~step_type:wc_comp.Program.sd_id wc_compensate;
  Replay.register ~txn_type:"sb_amalgamate" ~step_type:am_comp.Program.sd_id am_compensate

let reset_global () =
  Atomic.set au_seq 1_000_000;
  register_replay ()

(* ------------------------------------------------------------------ *)
(* Instances *)

let balance_instance env ~acct =
  Program.instance ~def:balance_type
    ~steps:[ (bal_read, fun ctx -> bal_body env ~acct ctx) ]
    ()

let deposit_instance env ~acct ~amount =
  let ws = { au1 = 0 } in
  Program.instance ~def:deposit_type
    ~steps:[ (dc_apply, fun ctx -> dc_body env ~acct ~amount ws ctx) ]
    ~compensate:dc_compensate
    ~comp_area:(fun () ->
      [ ("acct", Int acct); ("amount", Float amount); ("au", Int ws.au1) ])
    ()

let transact_instance env ~acct ~amount =
  let ws = { au1 = 0 } in
  Program.instance ~def:transact_type
    ~steps:[ (ts_apply, fun ctx -> ts_body env ~acct ~amount ws ctx) ]
    ~compensate:ts_compensate
    ~comp_area:(fun () ->
      [ ("acct", Int acct); ("amount", Float amount); ("au", Int ws.au1) ])
    ()

let write_check_instance env ~acct ~amount ~fail =
  let ws = { ok = false; au = 0 } in
  Program.instance ~def:write_check_type
    ~steps:
      [
        (wc_check, fun ctx -> wc_check_body env ~acct ~amount ws ctx);
        (wc_deduct, fun ctx -> wc_deduct_body env ~acct ~amount ~fail ws ctx);
      ]
    ~assertions:[ { Program.ai_assertion = a_wc_funds; ai_from = 2; ai_until = 2; ai_check = None } ]
    ~compensate:wc_compensate
    ~comp_area:(fun () -> [ ("acct", Int acct); ("amount", Float amount); ("au", Int ws.au) ])
    ()

let amalgamate_instance env ~src ~dst ~fail =
  let ws = { ms = 0.; mc = 0.; au = 0 } in
  Program.instance ~def:amalgamate_type
    ~steps:
      [
        (am_take, fun ctx -> am_take_body env ~src ws ctx);
        (am_put, fun ctx -> am_put_body env ~src ~dst ~fail ws ctx);
      ]
    ~assertions:[ { Program.ai_assertion = a_am_moved; ai_from = 2; ai_until = 2; ai_check = None } ]
    ~compensate:am_compensate
    ~comp_area:(fun () ->
      [
        ("src", Int src); ("dst", Int dst); ("ms", Float ws.ms); ("mc", Float ws.mc);
        ("au", Int ws.au);
      ])
    ()

let instance env input =
  match input with
  | Balance { acct } -> balance_instance env ~acct
  | Deposit { acct; amount } -> deposit_instance env ~acct ~amount
  | Transact { acct; amount } -> transact_instance env ~acct ~amount
  | Write_check { acct; amount; fail } -> write_check_instance env ~acct ~amount ~fail
  | Amalgamate { src; dst; fail } -> amalgamate_instance env ~src ~dst ~fail

let run_acc ?options ?stop eng env input = Runtime.run ?options ?stop eng (instance env input)

(* The strict-2PL comparator runs the same steps as one transaction.  It
   paces between an amalgamate's two steps, where the ACC program does not
   (DESIGN.md §19.1); a write_check's first step already ends with the
   client's pause. *)
let run_flat ?stop eng env input =
  let between =
    match input with
    | Amalgamate _ -> env.pace
    | Balance _ | Deposit _ | Transact _ | Write_check _ -> fun () -> ()
  in
  Runtime.run_flat ?stop ~between eng ~txn_type:(txn_name input) (fun () -> instance env input)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let eps = 1e-6

let consistency db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let sav = Database.table db "saving" in
  let chk = Database.table db "checking" in
  let audit = Database.table db "sb_audit" in
  (* per-account audit deltas *)
  let deltas = Hashtbl.create 64 in
  Acc_relation.Table.iter
    (fun _ row ->
      let acct = as_int row.(2) and d = fnum row.(3) in
      Hashtbl.replace deltas acct (d +. (Option.value ~default:0. (Hashtbl.find_opt deltas acct))))
    audit;
  Acc_relation.Table.iter
    (fun _ srow ->
      let acct = as_int srow.(0) in
      let s = fnum srow.(1) in
      let c = fnum (Acc_relation.Table.get_exn chk [ Int acct ]).(1) in
      let d = Option.value ~default:0. (Hashtbl.find_opt deltas acct) in
      (* conservation: today's balances are exactly the initial endowment
         plus the committed journal *)
      let expect = init_saving +. init_checking +. d in
      if Float.abs (s +. c -. expect) > eps then
        add "smallbank: account %d balance %.2f != endowment+journal %.2f" acct (s +. c) expect;
      (* the write-skew invariant: no overdrawn customer *)
      if s +. c < -.eps then add "smallbank: account %d overdrawn (%.2f)" acct (s +. c);
      if s < -.eps then add "smallbank: account %d negative savings (%.2f)" acct s)
    sav;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* The plugin value *)

let make (spec : W.spec) : W.t =
  let accounts = accounts_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  let skew = spec.W.skew in
  let mix = spec.W.mix in
  (module struct
    let name = "smallbank"
    let describe = "SmallBank banking mix; write-skew anomaly guarded by an interstep assertion"
    let conflict_shape = "read-two-balances/deduct-one write-skew on hot accounts"

    type nonrec input = input
    type nonrec env = env

    let populate ~seed = populate ~accounts ~seed
    let make_env ?pace ~seed () = make_env ?pace ~accounts ~skew ~abort_rate ~mix ~seed ()
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
