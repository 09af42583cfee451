module Value = Acc_relation.Value

type write = {
  w_table : string;
  w_key : Value.t list;
  w_before : Value.t array option;
  w_after : Value.t array option;
}

type t =
  | Begin of { txn : int; txn_type : string; multi_step : bool }
  | Write of { txn : int; write : write; undo : bool }
  | Step_end of { txn : int; step_index : int; area : (string * Value.t) list }
  | Prepare of { txn : int; gid : int }
  | Commit of { txn : int }
  | Abort of { txn : int }

let txn_of = function
  | Begin { txn; _ }
  | Write { txn; _ }
  | Step_end { txn; _ }
  | Prepare { txn; _ }
  | Commit { txn }
  | Abort { txn } ->
      txn

let kind = function
  | Begin _ -> "begin"
  | Write { undo = false; _ } -> "write"
  | Write { undo = true; _ } -> "undo"
  | Step_end _ -> "step_end"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Abort _ -> "abort"

let pp_key ppf key =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Value.pp ppf key

let pp ppf = function
  | Begin { txn; txn_type; multi_step } ->
      Format.fprintf ppf "BEGIN T%d %s%s" txn txn_type (if multi_step then " (multi-step)" else "")
  | Write { txn; write; undo } ->
      let kind =
        match (write.w_before, write.w_after) with
        | None, Some _ -> "insert"
        | Some _, None -> "delete"
        | Some _, Some _ -> "update"
        | None, None -> "noop"
      in
      Format.fprintf ppf "%s T%d %s %s[%a]"
        (if undo then "UNDO" else "WRITE")
        txn kind write.w_table pp_key write.w_key
  | Step_end { txn; step_index; area = [] } ->
      Format.fprintf ppf "STEP_END T%d step %d" txn step_index
  | Step_end { txn; step_index; area } ->
      Format.fprintf ppf "STEP_END T%d step %d (area: %d values)" txn step_index
        (List.length area)
  | Prepare { txn; gid } -> Format.fprintf ppf "PREPARE T%d (global %d)" txn gid
  | Commit { txn } -> Format.fprintf ppf "COMMIT T%d" txn
  | Abort { txn } -> Format.fprintf ppf "ABORT T%d" txn

let invert w = { w with w_before = w.w_after; w_after = w.w_before }
