(* Long-running readers over a partitioned ledger.  Writers ([lr_post])
   move money between two accounts of the same region in two steps —
   between the steps the books are transiently unbalanced, which is
   precisely the state a long audit scan must never observe.  Readers
   ([lr_audit]) run under the legacy full-isolation protocol
   (Runtime.run_legacy): their isolation assertional lock queues on every
   in-flight writer, and each committed scan journals the sum it saw so
   {!consistency} can prove after the fact that no torn read ever
   committed.

   The workload doubles as the multicore stress for
   [lib/lock/predicate_lock.ml]: a mutex-guarded shadow manager mirrors
   every reader as a predicate Read lock (l_region = r, or the whole
   table) and every writer step as Eq predicate Write locks, counting how
   often the 1976-style acquisition-time intersection test would have
   blocked.  The tallies surface through [extras] as
   [pl_shadow_acquires] / [pl_shadow_conflicts] — the comparator cost the
   paper positions assertional locks against, §3.2. *)

module W = Workload_intf
module Value = Acc_relation.Value
module Schema = Acc_relation.Schema
module Database = Acc_relation.Database
module Predicate = Acc_relation.Predicate
module Program = Acc_core.Program
module Assertion = Acc_core.Assertion
module Footprint = Acc_core.Footprint
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Executor = Acc_txn.Executor
module Txn_effect = Acc_txn.Txn_effect
module Predicate_lock = Acc_lock.Predicate_lock
module Prng = Acc_util.Prng
open Value

let fnum = Value.number
let as_int = Value.as_int

(* ------------------------------------------------------------------ *)
(* Schema and population *)

let regions = 10
let rows_of_scale scale = 100 * max 1 scale
let init_amount = 100.0

let schemas =
  let c = Schema.col in
  [
    Schema.make ~name:"ledger" ~key:[ "l_id" ]
      [ c "l_id" Tint; c "l_region" Tint; c "l_amount" Tfloat ];
    Schema.make ~name:"reader_audit" ~key:[ "ra_id" ]
      [ c "ra_id" Tint; c "ra_region" Tint; c "ra_sum" Tfloat; c "ra_rows" Tint ];
  ]

let region_of_row r = 1 + ((r - 1) mod regions)

let populate ~rows ~seed =
  ignore seed;
  let db = Database.create () in
  List.iter (fun s -> ignore (Database.create_table db s)) schemas;
  let t = Database.table db "ledger" in
  for r = 1 to rows do
    ignore (Acc_relation.Table.insert t [| Int r; Int (region_of_row r); Float init_amount |])
  done;
  db

(* expected invariant sums, derivable from the row count alone *)
let region_rows ~rows region =
  let q = rows / regions and rem = rows mod regions in
  q + (if region <= rem then 1 else 0)

(* ------------------------------------------------------------------ *)
(* The shadow predicate-lock manager *)

module Shadow = struct
  let mgr = ref (Predicate_lock.create ())
  let mu = Mutex.create ()
  let acquires = Atomic.make 0
  let conflicts = Atomic.make 0
  let enabled = Atomic.make true

  let reset () =
    Mutex.lock mu;
    mgr := Predicate_lock.create ();
    Atomic.set acquires 0;
    Atomic.set conflicts 0;
    Mutex.unlock mu

  (* non-blocking mirror: record whether the predicate system would have
     blocked, then proceed — the real isolation is the assertional locks'.
     Bodies release on their success and abort paths; a transaction that
     dies between (victimized past its retry budget) may leak its shadow
     entries, so a crude GC bounds the comparator's working set. *)
  let acquire ~txn ~mode pred =
    if Atomic.get enabled then begin
      Mutex.lock mu;
      if Predicate_lock.lock_count !mgr > 4096 then mgr := Predicate_lock.create ();
      Atomic.incr acquires;
      (match Predicate_lock.acquire !mgr ~txn ~mode ~table:"ledger" pred with
      | `Granted -> ()
      | `Conflict _ -> Atomic.incr conflicts);
      Mutex.unlock mu
    end

  let release ~txn =
    if Atomic.get enabled then begin
      Mutex.lock mu;
      Predicate_lock.release_all !mgr ~txn;
      Mutex.unlock mu
    end

  let stats () =
    [
      ("pl_shadow_acquires", float_of_int (Atomic.get acquires));
      ("pl_shadow_conflicts", float_of_int (Atomic.get conflicts));
    ]
end

(* ------------------------------------------------------------------ *)
(* Inputs *)

type input =
  | Post of { src : int; dst : int; amount : float; fail : bool }
  | Audit of { id : int; region : int option }  (* None = whole ledger *)

let txn_name = function Post _ -> "lr_post" | Audit _ -> "lr_audit"
let forced_abort = function Post { fail; _ } -> fail | Audit _ -> false

let audit_seq = Atomic.make 1_000_000
let next_audit () = 1 + Atomic.fetch_and_add audit_seq 1

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
  | Some m -> failwith (Printf.sprintf "longreader: unknown mix %S" m));
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
  if Prng.int g 100 < 15 then
    let region = if Prng.int g 100 < 20 then None else Some (1 + Prng.int g regions) in
    Audit { id = next_audit (); region }
  else begin
    (* both rows in one region, so region sums are invariant *)
    let src = pick_row env in
    let step = regions * (1 + Prng.int g (max 1 ((env.n_rows / regions) - 1))) in
    let dst =
      let d = src + step in
      if d <= env.n_rows then d else src - (regions * ((src - 1) / regions))
    in
    let dst = if dst = src || dst < 1 || dst > env.n_rows then src else dst in
    Post
      {
        src;
        dst;
        amount = float_of_int (1 + Prng.int g 20);
        fail = Prng.chance g env.abort_rate;
      }
  end

(* ------------------------------------------------------------------ *)
(* Static decomposition *)

let fp = Footprint.make
let cols cs = Footprint.Columns cs
let fresh = Footprint.Fresh

let post_debit =
  Program.step ~id:1 ~name:"debit" ~txn_type:"lr_post" ~index:1
    ~reads:[ fp "ledger" (cols [ "l_amount" ]) ]
    ~writes:[ fp "ledger" (cols [ "l_amount" ]) ]
    ()

let post_credit =
  Program.step ~id:2 ~name:"credit" ~txn_type:"lr_post" ~index:2
    ~reads:[]
    ~writes:[ fp "ledger" (cols [ "l_amount" ]) ]
    ()

let post_comp =
  Program.step ~id:3 ~name:"recredit" ~txn_type:"lr_post" ~index:0 ~reads:[]
    ~writes:[ fp "ledger" (cols [ "l_amount" ]) ]
    ()

let post_compensate ctx ~completed =
  (* abort after the credit cannot happen mid-transaction (credit is the
     last step), but a crash between the final end-of-step and commit can:
     undo newest-first *)
  let field = Executor.area_field ctx in
  let amount = fnum (field "amount") in
  if completed >= 2 then
    ignore
      (Executor.update ctx "ledger" [ field "dst" ] (fun row ->
           row.(2) <- Float (fnum row.(2) -. amount);
           row));
  if completed >= 1 then
    ignore
      (Executor.update ctx "ledger" [ field "src" ] (fun row ->
           row.(2) <- Float (fnum row.(2) +. amount);
           row))

let post_type =
  Program.txn_type ~name:"lr_post" ~steps:[ post_debit; post_credit ] ~comp:post_comp
    ~compensate:post_compensate ~assertions:[] ()

let audit_read =
  Program.step ~id:4 ~name:"region-scan" ~txn_type:"lr_audit" ~index:1
    ~reads:[ fp "ledger" (cols [ "l_region"; "l_amount" ]) ]
    ~writes:[ fp ~fresh "reader_audit" Footprint.All_columns ]
    ()

let audit_type = Program.txn_type ~name:"lr_audit" ~steps:[ audit_read ] ~assertions:[] ()

let workload = Program.workload [ post_type; audit_type ]
let interference = Interference.build workload
let semantics = Interference.semantics interference

(* ------------------------------------------------------------------ *)
(* Bodies *)

let debit_body env ~src ~amount ctx =
  Shadow.acquire ~txn:(Executor.txn_id ctx) ~mode:Predicate_lock.Write
    (Predicate.Eq ("l_id", Int src));
  ignore
    (Executor.update ctx "ledger" [ Int src ] (fun row ->
         row.(2) <- Float (fnum row.(2) -. amount);
         row));
  env.pace ()

let credit_body env ~dst ~amount ~fail ctx =
  let txn = Executor.txn_id ctx in
  if fail then begin
    Shadow.release ~txn;
    raise Txn_effect.Abort_requested
  end;
  Shadow.acquire ~txn ~mode:Predicate_lock.Write (Predicate.Eq ("l_id", Int dst));
  ignore
    (Executor.update ctx "ledger" [ Int dst ] (fun row ->
         row.(2) <- Float (fnum row.(2) +. amount);
         row));
  env.pace ();
  Shadow.release ~txn

let audit_body env ~id ~region ctx =
  let pred =
    match region with
    | Some r -> Predicate.Eq ("l_region", Int r)
    | None -> Predicate.Cmp (Predicate.Ge, "l_region", Int 0)
  in
  Shadow.acquire ~txn:(Executor.txn_id ctx) ~mode:Predicate_lock.Read pred;
  let where = match region with Some r -> Some (Predicate.Eq ("l_region", Int r)) | None -> None in
  let rows = Executor.scan ctx "ledger" ?where () in
  (* a deliberately long read: yield between per-row accumulations so the
     scan's lifetime spans many writer steps *)
  let sum = ref 0. and n = ref 0 in
  List.iter
    (fun row ->
      sum := !sum +. fnum row.(2);
      incr n;
      if !n mod 32 = 0 then env.pace ())
    rows;
  Executor.insert ctx "reader_audit"
    [| Int id; Int (match region with Some r -> r | None -> 0); Float !sum; Int !n |];
  Shadow.release ~txn:(Executor.txn_id ctx)

let reset_global () =
  Atomic.set audit_seq 1_000_000;
  Shadow.reset ()

(* ------------------------------------------------------------------ *)
(* Execution *)

let post_instance env ~src ~dst ~amount ~fail =
  Program.instance ~def:post_type
    ~steps:
      [
        (post_debit, fun ctx -> debit_body env ~src ~amount ctx);
        (post_credit, fun ctx -> credit_body env ~dst ~amount ~fail ctx);
      ]
    ~comp_area:(fun () -> [ ("src", Int src); ("dst", Int dst); ("amount", Float amount) ])
    ()

let instance env input =
  match input with
  | Post { src; dst; amount; fail } -> post_instance env ~src ~dst ~amount ~fail
  | Audit { id; region } ->
      Program.instance ~def:audit_type ~steps:[ (audit_read, audit_body env ~id ~region) ] ()

let run_acc ?options ?stop eng env input =
  match input with
  | Post _ -> Runtime.run ?options ?stop eng (instance env input)
  | Audit { id; region } ->
      (* the long reader: full isolation via the legacy protocol — its
         isolation assertional lock queues on in-flight writers *)
      Runtime.run_legacy ?stop eng ~txn_type:"lr_audit" (audit_body env ~id ~region)

let run_flat ?stop eng env input =
  Runtime.run_flat ?stop ~between:env.pace eng ~txn_type:(txn_name input) (fun () ->
      instance env input)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let eps = 1e-6

let consistency db =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let ledger = Database.table db "ledger" in
  let audit = Database.table db "reader_audit" in
  let n_rows = Acc_relation.Table.cardinality ledger in
  let region_sum = Array.make (regions + 1) 0. in
  let total = ref 0. in
  Acc_relation.Table.iter
    (fun _ row ->
      let reg = as_int row.(1) and amt = fnum row.(2) in
      region_sum.(reg) <- region_sum.(reg) +. amt;
      total := !total +. amt)
    ledger;
  (* global and per-region conservation: every post moves money within one
     region, so both sums are invariant *)
  let expect_total = init_amount *. float_of_int n_rows in
  if Float.abs (!total -. expect_total) > eps then
    add "longreader: ledger total %.2f != %.2f" !total expect_total;
  for reg = 1 to regions do
    let expect = init_amount *. float_of_int (region_rows ~rows:n_rows reg) in
    if Float.abs (region_sum.(reg) -. expect) > eps then
      add "longreader: region %d sum %.2f != %.2f" reg region_sum.(reg) expect
  done;
  (* the isolation proof: every committed audit saw exactly the invariant
     sum — a torn read (mid-post snapshot) would be off by the in-flight
     amount *)
  Acc_relation.Table.iter
    (fun _ row ->
      let id = as_int row.(0) and reg = as_int row.(1) in
      let seen = fnum row.(2) and seen_rows = as_int row.(3) in
      let expect =
        if reg = 0 then expect_total
        else init_amount *. float_of_int (region_rows ~rows:n_rows reg)
      in
      let expect_rows = if reg = 0 then n_rows else region_rows ~rows:n_rows reg in
      if seen_rows <> expect_rows then
        add "longreader: audit %d scanned %d rows, expected %d" id seen_rows expect_rows;
      if Float.abs (seen -. expect) > eps then
        add "longreader: audit %d observed torn sum %.2f (region %d expects %.2f)" id seen reg
          expect)
    audit;
  List.rev !violations

(* ------------------------------------------------------------------ *)

let make (spec : W.spec) : W.t =
  let rows = rows_of_scale spec.W.scale in
  let abort_rate = Option.value ~default:0.02 spec.W.abort_rate in
  let skew = spec.W.skew in
  let mix = spec.W.mix in
  (module struct
    let name = "longreader"

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
    let extras = Shadow.stats
    let partitioning = None
  end : W.S)
