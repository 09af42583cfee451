(* Hotspot: the paper's own skew axis as a standalone workload.  A single
   counter table is hammered by multi-row increment transactions whose
   rows are drawn from a Zipfian distribution ([--theta], 0 =
   uniform).  Each increment is one repeating step, so ACC releases the
   hot row's X lock at the step boundary while strict 2PL holds every row
   to commit — the false-conflict gap widens directly with the skew knob,
   which is exactly the Fig 2-4 quantity the conflict accounting reports.

   The interstep assertion references only the transaction's own (fresh)
   journal rows, so foreign increments never block an in-flight
   transaction's next step (the §3.1 weakest-assertion principle). *)

module W = Workload_intf
module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Database = Acc_relation.Database
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Prng = Acc_util.Prng
open Value

let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let rows_of_scale scale = 200 * max 1 scale

let schemas =
  let c = Schema.col in
  [
    Schema.make ~name:"hot" ~key:[ "h_id" ] [ c "h_id" Tint; c "h_val" Tint ];
    (* one journal row per applied increment, keyed (txn surrogate, k) *)
    Schema.make ~name:"hot_audit" ~key:[ "au_txn"; "au_k" ]
      [ c "au_txn" Tint; c "au_k" Tint; c "au_row" Tint ];
  ]

let populate ~rows ~seed =
  ignore seed;
  let db = Database.create () in
  List.iter (fun s -> ignore (Database.create_table db s)) schemas;
  let hot_t = Database.table db "hot" in
  for r = 1 to rows do
    ignore (Acc_relation.Table.insert hot_t [| Int r; Int 0 |])
  done;
  db

(* ------------------------------------------------------------------ *)
(* Inputs *)

type input =
  | Bump of { txn : int; rows : int list; fail : bool }
      (* increment each row, one repeating step per row; [txn] is the
         journal surrogate, claimed at generation time *)
  | Sum of { threshold : int }  (* READ COMMITTED whole-table sum *)

let txn_name = function Bump _ -> "hs_bump" | Sum _ -> "hs_sum"
let forced_abort = function Bump { fail; _ } -> fail | Sum _ -> false

let txn_seq = Atomic.make 1_000_000
let next_txn () = 1 + Atomic.fetch_and_add txn_seq 1

type env = {
  gen : Prng.t;
  n_rows : int;
  zipf : Prng.zipf option;
  abort_rate : float;
  pace : unit -> unit;
}

let make_env ?(pace = fun () -> ()) ~rows ~skew ~abort_rate ~mix ~seed () =
  (match mix with
  | None | Some "standard" -> ()
  | Some m -> failwith (Printf.sprintf "hotspot: unknown mix %S" m));
  {
    gen = Prng.create ~seed;
    n_rows = rows;
    zipf = (if skew > 0. then Some (Prng.zipf ~n:rows ~theta:skew) else None);
    abort_rate;
    pace;
  }

let split_env env = { env with gen = Prng.split env.gen }

let pick_row env =
  match env.zipf with
  | Some z -> 1 + Prng.zipf_draw env.gen z
  | None -> 1 + Prng.int env.gen env.n_rows

let gen_input env =
  let g = env.gen in
  if Prng.int g 100 < 10 then Sum { threshold = Prng.int g 50 }
  else begin
    let k = 2 + Prng.int g 3 in
    (* distinct rows: redraw on collision (k << n_rows) *)
    let rec draw acc n =
      if n = 0 then acc
      else
        let r = pick_row env in
        if List.mem r acc then draw acc n else draw (r :: acc) (n - 1)
    in
    Bump { txn = next_txn (); rows = draw [] k; fail = Prng.chance g env.abort_rate }
  end

(* ------------------------------------------------------------------ *)
(* Static decomposition *)

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh

let hb_inc =
  Program.step ~id:1 ~name:"increment" ~txn_type:"hs_bump" ~index:1 ~repeats:true
    ~reads:[ fp "hot" (cols [ "h_val" ]) ]
    ~writes:[ fp "hot" (cols [ "h_val" ]); fp ~fresh "hot_audit" Footprint.All_columns ]
    ()

let hb_comp =
  Program.step ~id:2 ~name:"decrement" ~txn_type:"hs_bump" ~index:0 ~reads:[]
    ~writes:[ fp "hot" (cols [ "h_val" ]); fp ~fresh "hot_audit" Footprint.All_columns ]
    ()

(* the loop invariant: my journal rows agree with my progress — fresh rows
   only, so no foreign step ever blocks on it *)
let a_hb_mine =
  Assertion.make ~id:1 ~name:"hb_journal_mine" ~txn_type:"hs_bump" ~pre_of:2
    ~until:Assertion.until_commit
    ~refs:[ fp ~fresh "hot_audit" Footprint.All_columns ]

let compensate ctx ~completed =
  (* undo increments k = completed .. 1; journal keys are derivable from
     the surrogate, so the work area alone suffices *)
  let field name = as_int (Executor.area_field ctx name) in
  let txn = field "txn" in
  for k = min completed (field "n") downto 1 do
    let row = field (Printf.sprintf "r%d" (k - 1)) in
    ignore
      (Executor.update ctx "hot" [ Int row ] (fun r ->
           r.(1) <- Int (as_int r.(1) - 1);
           r));
    Executor.delete ctx "hot_audit" [ Int txn; Int k ]
  done

let bump_type =
  Program.txn_type ~name:"hs_bump" ~steps:[ hb_inc ] ~comp:hb_comp ~compensate
    ~assertions:[ a_hb_mine ] ()

let hs_read =
  Program.step ~id:3 ~name:"sum" ~txn_type:"hs_sum" ~index:1
    ~reads:[ fp "hot" (cols [ "h_val" ]) ]
    ~writes:[] ()

let sum_type = Program.txn_type ~name:"hs_sum" ~steps:[ hs_read ] ~assertions:[] ()

let workload = Program.workload [ bump_type; sum_type ]
let interference = Interference.build workload
let semantics = Interference.semantics interference

(* ------------------------------------------------------------------ *)
(* Bodies *)

let inc_body env ~txn ~k ~row ~fail ~last ctx =
  if last && fail then raise Txn_effect.Abort_requested;
  ignore
    (Executor.update ctx "hot" [ Int row ] (fun r ->
         r.(1) <- Int (as_int r.(1) + 1);
         r));
  env.pace ();
  Executor.insert ctx "hot_audit" [| Int txn; Int k; Int row |]

let sum_body env ~threshold ctx =
  let rows = Executor.scan_committed ctx "hot" () in
  env.pace ();
  let total = List.fold_left (fun acc r -> acc + as_int r.(1)) 0 rows in
  ignore (total > threshold)

let reset_global () = Atomic.set txn_seq 1_000_000

(* ------------------------------------------------------------------ *)
(* Instances *)

let bump_instance env ~txn ~rows ~fail =
  let n = List.length rows in
  let steps =
    List.mapi
      (fun idx row ->
        (hb_inc, fun ctx -> inc_body env ~txn ~k:(idx + 1) ~row ~fail ~last:(idx = n - 1) ctx))
      rows
  in
  Program.instance ~def:bump_type ~steps
    ~assertions:[ { Program.ai_assertion = a_hb_mine; ai_from = 2; ai_until = n; ai_check = None } ]
    ~comp_area:(fun () ->
      ("txn", Int txn) :: ("n", Int n)
      :: List.mapi (fun i row -> (Printf.sprintf "r%d" i, Int row)) rows)
    ()

let instance env input =
  match input with
  | Bump { txn; rows; fail } -> bump_instance env ~txn ~rows ~fail
  | Sum { threshold } ->
      Program.instance ~def:sum_type ~steps:[ (hs_read, sum_body env ~threshold) ] ()

let run_acc ?options ?stop eng env input =
  match input with
  | Bump _ -> Runtime.run ?options ?stop eng (instance env input)
  | Sum { threshold } ->
      (* READ COMMITTED: short read locks, no assertional locks *)
      Runtime.run_single ?stop ~step_type:hs_read.Program.sd_id eng ~txn_type:"hs_sum"
        (sum_body env ~threshold)

let run_flat ?stop eng env input =
  Runtime.run_flat ?stop ~between:env.pace eng ~txn_type:(txn_name input) (fun () ->
      instance env input)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let consistency db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let hot_t = Database.table db "hot" in
  let audit = Database.table db "hot_audit" in
  let per_row = Hashtbl.create 64 in
  Acc_relation.Table.iter
    (fun _ row ->
      let r = as_int row.(2) in
      Hashtbl.replace per_row r (1 + Option.value ~default:0 (Hashtbl.find_opt per_row r)))
    audit;
  let total = ref 0 and journaled = ref 0 in
  Acc_relation.Table.iter
    (fun _ row ->
      let r = as_int row.(0) and v = as_int row.(1) in
      total := !total + v;
      let j = Option.value ~default:0 (Hashtbl.find_opt per_row r) in
      journaled := !journaled + j;
      (* every committed increment left exactly one journal row *)
      if v <> j then add "hotspot: row %d counted %d but journaled %d" r v j;
      if v < 0 then add "hotspot: row %d negative (%d)" r v)
    hot_t;
  if !total <> !journaled then
    add "hotspot: table total %d != journal rows %d" !total !journaled;
  List.rev !violations

(* ------------------------------------------------------------------ *)

let make (spec : W.spec) : W.t =
  let rows = rows_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  (* the knob: default to a strong hotspot when the caller leaves skew 0,
     since a uniform "hotspot" workload defeats its purpose *)
  let skew = if spec.W.skew > 0. then spec.W.skew else 0.9 in
  let mix = spec.W.mix in
  (module struct
    let name = "hotspot"

    type nonrec input = input
    type nonrec env = env

    let populate ~seed = populate ~rows ~seed
    let make_env ?pace ~seed () = make_env ?pace ~rows ~skew ~abort_rate ~mix ~seed ()
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
    let partitioning = None
  end : W.S)
