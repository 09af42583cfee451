module Database = Acc_relation.Database
module Table = Acc_relation.Table
module Schema = Acc_relation.Schema
module Value = Acc_relation.Value

type t = { snapshot : Database.t; from_lsn : Log.lsn }

let take db log = { snapshot = Database.copy db; from_lsn = Log.length log }
let position t = t.from_lsn
let snapshot t = t.snapshot
let recover t log = Recovery.recover ~baseline:t.snapshot (Log.appended_since log t.from_lsn)

(* --- disk round-trip ----------------------------------------------------- *)

(* [Database.t] itself is not Marshal-safe: ordered indexes hold a [key_of]
   closure.  The dump stores rows plus the index {e specs} (name + columns)
   and rebuilds the access paths on load. *)
type table_dump = {
  d_schema : Schema.t;
  d_indexes : (string * string list) list;
  d_ordered : (string * string list) list;
  d_rows : Value.t array list;
}

type dump = { d_tables : table_dump list; d_from_lsn : int }

let save t path =
  let dump_table name =
    let tbl = Database.table t.snapshot name in
    {
      d_schema = Table.schema tbl;
      d_indexes = Table.index_specs tbl;
      d_ordered = Table.ordered_index_specs tbl;
      d_rows = Table.fold (fun _ row acc -> row :: acc) tbl [];
    }
  in
  let dump =
    {
      d_tables = List.map dump_table (Database.table_names t.snapshot);
      d_from_lsn = t.from_lsn;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc dump [])

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let dump : dump =
        try Marshal.from_channel ic
        with _ -> failwith ("Checkpoint.load: unreadable checkpoint file " ^ path)
      in
      let db = Database.create () in
      List.iter
        (fun d ->
          let tbl = Database.create_table db d.d_schema in
          List.iter (fun (name, cols) -> Table.add_index tbl ~name cols) d.d_indexes;
          List.iter (fun (name, cols) -> Table.add_ordered_index tbl ~name cols) d.d_ordered;
          List.iter (fun row -> ignore (Table.insert tbl row)) d.d_rows)
        dump.d_tables;
      { snapshot = db; from_lsn = dump.d_from_lsn })

(* --- cadence ------------------------------------------------------------- *)

module Manager = struct
  type checkpoint = t

  type nonrec t = { every : int; mutable latest : checkpoint option }

  let create ?(every = 256) () =
    if every < 1 then invalid_arg "Checkpoint.Manager.create: every must be >= 1";
    { every; latest = None }

  let latest m = m.latest

  let install m ckpt = m.latest <- Some ckpt

  let maybe_take m db log =
    let since =
      match m.latest with
      | None -> Log.length log
      | Some c -> Log.length log - c.from_lsn
    in
    if since >= m.every then begin
      m.latest <- Some (take db log);
      true
    end
    else false

  let recover m ~baseline log =
    match m.latest with
    | Some c -> recover c log
    | None -> Recovery.recover ~baseline (Log.to_list log)
end
