type t = {
  txn : int;
  step_type : int;
  admission : bool;
  compensating : bool;
  deadline : float option;
  mode : Mode.t;
  resource : Resource_id.t;
}

let make ~txn ?(step_type = 0) ?(admission = false) ?(compensating = false) ?deadline mode
    resource =
  { txn; step_type; admission; compensating; deadline; mode; resource }

let pp ppf r =
  Format.fprintf ppf "@[<h>T%d:%a@ on@ %a%s%s%s@]" r.txn Mode.pp r.mode Resource_id.pp
    r.resource
    (if r.admission then " (admission)" else "")
    (if r.compensating then " (compensating)" else "")
    (match r.deadline with None -> "" | Some d -> Printf.sprintf " (deadline %.3f)" d)
