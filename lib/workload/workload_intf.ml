(* The first-class workload surface: everything a driver, bench mode or
   crash harness needs to run a benchmark is bundled into one module value
   — schema population, environment/input generation, the decomposed
   transaction programs with their declared footprints, the design-time
   interference table (already folded into [semantics]), flat strict-2PL
   and assertional run functions, the workload's own consistency
   invariants, any extra counters the workload keeps on the side, and
   optionally what it takes to run on several partitions behind 2PC.

   TPC-C ([Acc_tpcc.Tpcc_workload]) is the reference instance; SmallBank,
   TATP, hotspot and the long-running-reader scenario live next door in
   this library.  Drivers unpack with [let module W = (val w)] and never
   mention a concrete workload again. *)

module Database = Acc_relation.Database
module Program = Acc_core.Program
module Interference = Acc_core.Interference
module Runtime = Acc_core.Runtime
module Executor = Acc_txn.Executor
module Mode = Acc_lock.Mode

(* ------------------------------------------------------------------ *)
(* Construction parameters *)

type spec = {
  scale : int;      (** dataset scale knob; the TPC-C analogue is warehouses *)
  skew : float;     (** access skew in [0,1): Zipf theta where meaningful *)
  mix : string option;  (** named transaction mix; [None] = the default *)
  abort_rate : float option;
      (** probability that a generated transaction is flagged to fail at
          its last step (exercising compensation); [None] = workload
          default *)
}

let default_spec = { scale = 1; skew = 0.; mix = None; abort_rate = None }

(* ------------------------------------------------------------------ *)
(* The partitioning capability *)

(** What a driver needs to run a workload on several engines behind a
    two-phase-commit coordinator.  Keys [1..keys] are what partitions own,
    in contiguous ranges; an input touching one partition runs its ordinary
    program there, any other runs one branch per partition it touches. *)
type ('env, 'input) partitioning = {
  keys : int;  (** partition keys at the spec's scale (TPC-C: warehouses) *)
  populate_range : seed:int -> lo:int -> hi:int -> Database.t;
      (** the part of [populate ~seed] whose keys fall in [lo..hi]: the same
          seed and the same draws, so the ranges' databases together are
          [populate]'s *)
  workload : Program.workload;
      (** what a partition engine serves: the single-node types plus the
          branch types, each compensable one with its declared body, which
          a partition's recovery replays *)
  semantics : Mode.semantics;  (** of [workload] *)
  route : part_of:(int -> int) -> 'input -> int list;
      (** sorted, distinct ids of the partitions the input touches;
          [part_of] maps a key to its partition id *)
  branches :
    'env -> part_of:(int -> int) -> 'input -> (int * Program.instance) list;
      (** the branch instances of an input [route] sends to several
          partitions, keyed by partition id *)
  consistency : Database.t list -> string list;
      (** the workload's invariants over the partitions' databases, in
          partition-id order *)
}

(** [capability ~who ~name ~partitions p] is workload [name]'s capability
    [p] for a run on [partitions] engines.  Raises [Invalid_argument],
    prefixed by [who], naming the field and its flag when [p] is [None] or
    has fewer keys than [partitions]. *)
let capability ~who ~name ~partitions = function
  | None ->
      invalid_arg
        (Printf.sprintf "%s: workload (--workload) %s has no partitioning capability" who name)
  | Some p when partitions > p.keys ->
      invalid_arg
        (Printf.sprintf
           "%s: partitions (--partitions) = %d exceeds the %d partition keys of workload %s \
            (its --scale)"
           who partitions p.keys name)
  | Some p -> p

(* ------------------------------------------------------------------ *)
(* The interface *)

module type S = sig
  val name : string

  type input
  (** One generated transaction request: all randomness is drawn at
      generation time, never during execution, so a crash harness can
      re-execute the same input deterministically. *)

  type env
  (** Per-worker generation state (PRNG, pacing hook, mix weights). *)

  val populate : seed:int -> Database.t
  (** Fresh database at the spec's scale. *)

  val make_env : ?pace:(unit -> unit) -> seed:int -> unit -> env
  (** [pace] is called at the workload's designated interleaving points
      inside transaction bodies (drivers install think-time or
      [Txn_effect.yield] here). *)

  val split_env : env -> env
  (** Independent stream for another worker (PRNG split). *)

  val reset_global : unit -> unit
  (** Reset process-wide state (surrogate-id sequences, shadow-lock
      counters).  Crash harnesses call this once per fresh run. *)

  val gen_input : env -> input
  val txn_name : input -> string

  val forced_abort : input -> bool
  (** The input was generated flagged to fail at its last step (TPC-C's
      1% aborted New-Orders); drivers count its compensation as a forced
      abort, not an anomaly. *)

  val workload : Program.workload
  (** The design-time step/assertion declarations, for step-histogram
      labels and conflict attribution.  Each compensable type declares its
      compensating body here, so this is also where crash replay
      ({!Acc_core.Replay.replay_pending}) finds it. *)

  val interference : Interference.t
  val semantics : Mode.semantics

  val run_flat :
    ?stop:(unit -> bool) -> Executor.t -> env -> input -> [ `Committed | `Aborted ]
  (** The conventional comparator: the same program's step bodies run back
      to back as one flat transaction under strict 2PL
      ({!Acc_core.Runtime.run_flat}), retried on deadlock/timeout until
      committed or [stop]. *)

  val run_acc :
    ?options:Runtime.options ->
    ?stop:(unit -> bool) ->
    Executor.t -> env -> input -> Runtime.outcome
  (** The decomposed assertional execution. *)

  val consistency : Database.t -> string list
  (** The workload's invariants over a quiescent database; each violated
      condition yields one message.  Empty = consistent. *)

  val extras : unit -> (string * float) list
  (** Workload-side counters to surface in reports (e.g. the
      long-reader's shadow predicate-lock conflict tallies). *)

  val partitioning : (env, input) partitioning option
  (** [None]: the workload runs on one engine only. *)
end

type t = (module S)

(* ------------------------------------------------------------------ *)
(* Step labeling, generic over any workload's Program declarations *)

module Step_info = struct
  type info = {
    label : int -> string;
    txn_type : int -> string option;
    max_step_id : int;
  }

  let of_workload (w : Program.workload) =
    let label id =
      if id = Program.legacy_step_id then "legacy"
      else
        match Program.find_step w id with
        | Some sd -> Printf.sprintf "%s.%s" sd.Program.sd_txn_type sd.Program.sd_name
        | None -> Printf.sprintf "step %d" id
    in
    (* the legacy step belongs to no declared type *)
    let txn_type id =
      match Program.find_step w id with
      | Some sd when sd.Program.sd_txn_type <> "" -> Some sd.Program.sd_txn_type
      | Some _ | None -> None
    in
    { label; txn_type; max_step_id = Program.max_step_id w }
end

(* ------------------------------------------------------------------ *)
(* Registry *)

module Registry = struct
  type entry = { r_name : string; r_doc : string; r_make : spec -> t }

  let entries : entry list ref = ref []

  let register ~name ~doc make =
    entries := { r_name = name; r_doc = doc; r_make = make }
                :: List.filter (fun e -> e.r_name <> name) !entries

  let find name =
    List.find_opt (fun e -> e.r_name = name) !entries
    |> Option.map (fun e -> e.r_make)

  let names () =
    List.map (fun e -> (e.r_name, e.r_doc)) !entries
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end
