type t = { tables : (string, Table.t) Hashtbl.t }

let create () = { tables = Hashtbl.create 16 }

let create_table t schema =
  let name = Schema.name schema in
  if Hashtbl.mem t.tables name then invalid_arg ("Database.create_table: duplicate " ^ name);
  let table = Table.create schema in
  Hashtbl.add t.tables name table;
  table

let find_table t name = Hashtbl.find_opt t.tables name

let table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Database.table: no table " ^ name)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare

let copy t =
  let fresh = create () in
  Hashtbl.iter (fun name tbl -> Hashtbl.add fresh.tables name (Table.copy tbl)) t.tables;
  fresh

let total_rows t = Hashtbl.fold (fun _ tbl acc -> acc + Table.cardinality tbl) t.tables 0

let equal a b =
  table_names a = table_names b
  && List.for_all (fun n -> Table.equal (table a n) (table b n)) (table_names a)

let diff ?(limit = 10) a b =
  let out = ref [] in
  let add fmt = Format.kasprintf (fun s -> out := s :: !out) fmt in
  let pp_key ppf key =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      Value.pp ppf key
  in
  let pp_row ppf row =
    Format.fprintf ppf "(%a)" pp_key (Array.to_list row)
  in
  let names_a = table_names a and names_b = table_names b in
  List.iter (fun n -> if not (List.mem n names_b) then add "table %s only on left" n) names_a;
  List.iter (fun n -> if not (List.mem n names_a) then add "table %s only on right" n) names_b;
  List.iter
    (fun n ->
      if List.mem n names_b then begin
        let ta = table a n and tb = table b n in
        Table.iter
          (fun pk row ->
            match Table.get tb pk with
            | None -> add "%s[%a]: only on left" n pp_key pk
            | Some row' ->
                if not (Table.same_row row row') then
                  add "%s[%a]: %a <> %a" n pp_key pk pp_row row pp_row row')
          ta;
        Table.iter
          (fun pk _ ->
            if not (Table.mem ta pk) then add "%s[%a]: only on right" n pp_key pk)
          tb
      end)
    names_a;
  let all = List.rev !out in
  let n = List.length all in
  if n <= limit then all
  else List.filteri (fun i _ -> i < limit) all @ [ Printf.sprintf "... and %d more" (n - limit) ]

let pp_summary ppf t =
  List.iter
    (fun name ->
      Format.fprintf ppf "%-16s %6d rows@." name (Table.cardinality (table t name)))
    (table_names t)
