type key = Value.t list

exception Duplicate_key of string * key
exception No_such_row of string * key
exception Invalid_row of string

(* Hash tables keyed by a column list: the row table, every secondary index
   and each index entry's primary-key set.  Two keys are one when every
   column pair has [Value.compare = 0], which is exactly when polymorphic
   [compare] says so: a NaN finds itself and [0.0]/[-0.0] are one key.  The
   hash agrees, since [Hashtbl.hash] maps every NaN to one hash and [-0.0] to
   [0.0]'s. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> Value.compare x y = 0 && equal xs ys
    | [], _ :: _ | _ :: _, [] -> false

  let column_hash = function
    | Value.Int n -> n
    | Value.Float f -> Hashtbl.hash f
    | Value.Str s -> Hashtbl.hash s
    | Value.Bool b -> Bool.to_int b
    | Value.Null -> 0x5bd1e995

  (* Multiply each column in, then fold the high bits down and mix again:
     buckets are picked by the hash's low bits, which must depend on every
     bit of every column, or strided keys such as multiples of 1024 would
     share a few buckets. *)
  let hash k =
    let h = List.fold_left (fun h v -> (h lxor column_hash v) * 0x2127599bf4325c37) 0 k in
    let h = (h lxor (h lsr 32)) * 0x1b873593 in
    h lxor (h lsr 29)
end)

type index = {
  index_name : string;
  index_positions : int array;
  (* secondary key -> set of primary keys *)
  entries : unit Key_tbl.t Key_tbl.t;
}

type t = {
  schema : Schema.t;
  rows : Value.t array Key_tbl.t;
  mutable indexes : index list;
  mutable ordered : (Ordered_index.t * int array) list;
  mutable last_scan_cost : int;
}

let create schema =
  { schema; rows = Key_tbl.create 256; indexes = []; ordered = []; last_scan_cost = 0 }
let schema t = t.schema
let name t = Schema.name t.schema
let cardinality t = Key_tbl.length t.rows
let last_scan_cost t = t.last_scan_cost

let index_key idx row = Array.to_list (Array.map (fun i -> row.(i)) idx.index_positions)

(* Do rows [a] and [b] agree on the columns at [positions], from the [i]th
   on, under the key tables' equality?  Compared in place: no key list is
   built. *)
let rec same_from positions a b i =
  i = Array.length positions
  || (Value.compare a.(positions.(i)) b.(positions.(i)) = 0 && same_from positions a b (i + 1))

let same_at positions a b = same_from positions a b 0

let index_add idx ~pk row =
  let k = index_key idx row in
  let set =
    match Key_tbl.find_opt idx.entries k with
    | Some s -> s
    | None ->
        let s = Key_tbl.create 4 in
        Key_tbl.add idx.entries k s;
        s
  in
  Key_tbl.replace set pk ()

let index_remove idx ~pk row =
  let k = index_key idx row in
  match Key_tbl.find_opt idx.entries k with
  | None -> ()
  | Some set ->
      Key_tbl.remove set pk;
      if Key_tbl.length set = 0 then Key_tbl.remove idx.entries k

let index_name_taken t name =
  List.exists (fun i -> i.index_name = name) t.indexes
  || List.exists (fun (o, _) -> Ordered_index.name o = name) t.ordered

let add_index t ~name cols =
  if index_name_taken t name then
    invalid_arg (Printf.sprintf "%s: duplicate index %s" (Schema.name t.schema) name);
  let index_positions = Array.of_list (List.map (Schema.position t.schema) cols) in
  let idx = { index_name = name; index_positions; entries = Key_tbl.create 256 } in
  Key_tbl.iter (fun pk row -> index_add idx ~pk row) t.rows;
  t.indexes <- idx :: t.indexes

let add_ordered_index t ~name cols =
  if index_name_taken t name then
    invalid_arg (Printf.sprintf "%s: duplicate index %s" (Schema.name t.schema) name);
  let positions = Array.of_list (List.map (Schema.position t.schema) cols) in
  let key_of row = Array.to_list (Array.map (fun i -> row.(i)) positions) in
  let idx = Ordered_index.create ~name ~key_of in
  Key_tbl.iter (fun pk row -> Ordered_index.insert idx ~pk row) t.rows;
  t.ordered <- (idx, positions) :: t.ordered

let find_ordered t name =
  match List.find_opt (fun (o, _) -> Ordered_index.name o = name) t.ordered with
  | Some (o, _) -> o
  | None -> invalid_arg (Printf.sprintf "%s: no ordered index %s" (Schema.name t.schema) name)

let range_lookup t ~index ?lo ?hi () = Ordered_index.range (find_ordered t index) ?lo ?hi ()
let min_lookup t ~index ?above () = Ordered_index.min_entry (find_ordered t index) ?above ()

let validate t row =
  match Schema.check_row t.schema row with
  | Ok () -> ()
  | Error msg -> raise (Invalid_row msg)

let insert t row =
  validate t row;
  let row = Array.copy row in
  let pk = Schema.key_of_row t.schema row in
  if Key_tbl.mem t.rows pk then raise (Duplicate_key (name t, pk));
  Key_tbl.add t.rows pk row;
  List.iter (fun idx -> index_add idx ~pk row) t.indexes;
  List.iter (fun (o, _) -> Ordered_index.insert o ~pk row) t.ordered;
  (pk, row)

let get t pk = Option.map Array.copy (Key_tbl.find_opt t.rows pk)

let get_exn t pk =
  match get t pk with Some row -> row | None -> raise (No_such_row (name t, pk))

let mem t pk = Key_tbl.mem t.rows pk

let update t pk f =
  match Key_tbl.find_opt t.rows pk with
  | None -> raise (No_such_row (name t, pk))
  | Some old_row ->
      let new_row = f (Array.copy old_row) in
      validate t new_row;
      let new_row = Array.copy new_row in
      if not (same_at (Schema.key_positions t.schema) old_row new_row) then
        raise (Invalid_row (Printf.sprintf "%s: update may not change the primary key" (name t)));
      Key_tbl.replace t.rows pk new_row;
      (* an index entry moves only when its key columns changed *)
      List.iter
        (fun idx ->
          if not (same_at idx.index_positions old_row new_row) then begin
            index_remove idx ~pk old_row;
            index_add idx ~pk new_row
          end)
        t.indexes;
      List.iter
        (fun (o, positions) ->
          if not (same_at positions old_row new_row) then begin
            Ordered_index.remove o ~pk old_row;
            Ordered_index.insert o ~pk new_row
          end)
        t.ordered;
      (old_row, new_row)

let set_column t pk col v =
  let i = Schema.position t.schema col in
  snd
    (update t pk (fun row ->
         row.(i) <- v;
         row))

let delete t pk =
  match Key_tbl.find_opt t.rows pk with
  | None -> raise (No_such_row (name t, pk))
  | Some row ->
      Key_tbl.remove t.rows pk;
      List.iter (fun idx -> index_remove idx ~pk row) t.indexes;
      List.iter (fun (o, _) -> Ordered_index.remove o ~pk row) t.ordered;
      row

(* Pick an index whose columns are all bound by equality in the predicate. *)
let applicable_index t where =
  let bindings = Predicate.equality_bindings where in
  let bound col = List.assoc_opt col bindings in
  let rec try_indexes = function
    | [] -> None
    | idx :: rest ->
        let cols =
          Array.map (fun i -> (Schema.columns t.schema).(i).Schema.name) idx.index_positions
        in
        let probe = Array.map bound cols in
        if Array.for_all Option.is_some probe then
          Some (idx, Array.to_list (Array.map Option.get probe))
        else try_indexes rest
  in
  try_indexes t.indexes

(* An ordered index applies when a prefix of its columns is equality-bound
   and (optionally) the next column carries a range constraint: the classic
   composite-index access path.  The extracted candidate set may be a
   superset of the answer; the caller's residual filter finishes the job. *)
let applicable_ordered_index t where =
  let eqs = Predicate.equality_bindings where in
  let cmps = Predicate.comparison_bindings where in
  let col_name i = (Schema.columns t.schema).(i).Schema.name in
  let rec try_ordered = function
    | [] -> None
    | (o, positions) :: rest ->
        let cols = Array.to_list (Array.map col_name positions) in
        let rec split_prefix acc = function
          | c :: cs when List.mem_assoc c eqs -> split_prefix (List.assoc c eqs :: acc) cs
          | remaining -> (List.rev acc, remaining)
        in
        let prefix_vals, rest_cols = split_prefix [] cols in
        let lo_bound, hi_bound =
          match rest_cols with
          | c :: _ ->
              ( List.find_map
                  (fun (op, c', v) ->
                    if c' = c && (op = Predicate.Ge || op = Predicate.Gt) then Some v else None)
                  cmps,
                List.find_map
                  (fun (op, c', v) ->
                    if c' = c && (op = Predicate.Le || op = Predicate.Lt) then Some v else None)
                  cmps )
          | [] -> (None, None)
        in
        if prefix_vals = [] && lo_bound = None && hi_bound = None then try_ordered rest
        else begin
          let with_bound bound =
            match bound with
            | Some v -> Some (prefix_vals @ [ v ])
            | None -> if prefix_vals = [] then None else Some prefix_vals
          in
          Some
            (List.map snd
               (Ordered_index.range o ?lo:(with_bound lo_bound) ?hi:(with_bound hi_bound) ()))
        end
  in
  try_ordered t.ordered

let candidates t where =
  match applicable_index t where with
  | Some (idx, probe_key) -> begin
      match Key_tbl.find_opt idx.entries probe_key with
      | None -> []
      | Some set -> Key_tbl.fold (fun pk () acc -> pk :: acc) set []
    end
  | None -> (
      match applicable_ordered_index t where with
      | Some pks -> pks
      | None -> Key_tbl.fold (fun pk _ acc -> pk :: acc) t.rows [])

let scan_matches ?(where = Predicate.True) t f =
  let test = Predicate.compile t.schema where in
  let pks = List.sort compare (candidates t where) in
  t.last_scan_cost <- List.length pks;
  List.iter
    (fun pk ->
      match Key_tbl.find_opt t.rows pk with
      | Some row when test row -> f pk row
      | Some _ | None -> ())
    pks

let scan ?where t =
  let acc = ref [] in
  scan_matches ?where t (fun _ row -> acc := Array.copy row :: !acc);
  List.rev !acc

let scan_count ?where t =
  let n = ref 0 in
  scan_matches ?where t (fun _ _ -> incr n);
  !n

let scan_keys ?where t =
  let acc = ref [] in
  scan_matches ?where t (fun pk _ -> acc := pk :: !acc);
  List.rev !acc

let index_lookup t ~index probe =
  match List.find_opt (fun i -> i.index_name = index) t.indexes with
  | None -> invalid_arg (Printf.sprintf "%s: no index %s" (name t) index)
  | Some idx -> begin
      match Key_tbl.find_opt idx.entries probe with
      | None -> []
      | Some set -> List.sort compare (Key_tbl.fold (fun pk () acc -> pk :: acc) set [])
    end

let iter f t =
  let snapshot = Key_tbl.fold (fun pk row acc -> (pk, Array.copy row) :: acc) t.rows [] in
  List.iter (fun (pk, row) -> f pk row) (List.sort compare snapshot)

let fold f t init =
  let acc = ref init in
  iter (fun pk row -> acc := f pk row !acc) t;
  !acc

let copy t =
  let fresh = create t.schema in
  Key_tbl.iter (fun pk row -> Key_tbl.add fresh.rows pk (Array.copy row)) t.rows;
  List.iter
    (fun idx ->
      let cols =
        Array.to_list
          (Array.map (fun i -> (Schema.columns t.schema).(i).Schema.name) idx.index_positions)
      in
      add_index fresh ~name:idx.index_name cols)
    (List.rev t.indexes);
  List.iter
    (fun (o, positions) ->
      let fresh_idx =
        Ordered_index.create ~name:(Ordered_index.name o) ~key_of:(Ordered_index.projection o)
      in
      Key_tbl.iter (fun pk row -> Ordered_index.insert fresh_idx ~pk row) fresh.rows;
      fresh.ordered <- (fresh_idx, positions) :: fresh.ordered)
    (List.rev t.ordered);
  fresh.last_scan_cost <- t.last_scan_cost;
  fresh

let col_names t positions =
  Array.to_list (Array.map (fun i -> (Schema.columns t.schema).(i).Schema.name) positions)

let index_specs t =
  List.rev_map (fun idx -> (idx.index_name, col_names t idx.index_positions)) t.indexes

let ordered_index_specs t =
  List.rev_map (fun (o, positions) -> (Ordered_index.name o, col_names t positions)) t.ordered

let same_row a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Value.compare x y = 0) a b

let equal a b =
  Key_tbl.length a.rows = Key_tbl.length b.rows
  && Key_tbl.fold
       (fun pk row acc ->
         acc && match Key_tbl.find_opt b.rows pk with Some r -> same_row r row | None -> false)
       a.rows true

let field t row col = row.(Schema.position t.schema col)
