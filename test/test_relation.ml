(* Tests for acc.relation: values, schemas, predicates, tables, indexes. *)

open Acc_relation
module Prng = Acc_util.Prng

let v_int n = Value.Int n
let v_str s = Value.Str s

(* A small accounts table used throughout. *)
let accounts_schema () =
  Schema.make ~name:"accounts" ~key:[ "id" ]
    [
      Schema.col "id" Value.Tint;
      Schema.col "owner" Value.Tstr;
      Schema.col "balance" Value.Tint;
      Schema.col ~nullable:true "note" Value.Tstr;
    ]

let make_accounts () =
  let t = Table.create (accounts_schema ()) in
  List.iter (fun row -> ignore (Table.insert t row))
    [
      [| v_int 1; v_str "alice"; v_int 100; Value.Null |];
      [| v_int 2; v_str "bob"; v_int 250; Value.Null |];
      [| v_int 3; v_str "alice"; v_int 50; v_str "joint" |];
    ];
  t

(* --- Value ------------------------------------------------------------ *)

let test_value_equal () =
  Alcotest.(check bool) "int eq" true (Value.equal (v_int 3) (v_int 3));
  Alcotest.(check bool) "int ne" false (Value.equal (v_int 3) (v_int 4));
  Alcotest.(check bool) "null eq null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "null ne int" false (Value.equal Value.Null (v_int 0));
  Alcotest.(check bool) "cross-type ne" false (Value.equal (v_int 1) (Value.Float 1.))

let test_value_compare () =
  Alcotest.(check bool) "1 < 2" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "b > a" true (Value.compare (v_str "b") (v_str "a") > 0);
  Alcotest.(check int) "reflexive" 0 (Value.compare (Value.Bool true) (Value.Bool true));
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (v_int min_int) < 0)

let test_value_projections () =
  Alcotest.(check int) "as_int" 5 (Value.as_int (v_int 5));
  Alcotest.(check string) "as_str" "x" (Value.as_str (v_str "x"));
  Alcotest.(check (float 0.)) "number of int" 5. (Value.number (v_int 5));
  Alcotest.(check (float 0.)) "number of float" 2.5 (Value.number (Value.Float 2.5));
  Alcotest.check_raises "as_int on str" (Invalid_argument "Value.as_int: got \"x\"") (fun () ->
      ignore (Value.as_int (v_str "x")))

let test_value_typing () =
  Alcotest.(check bool) "int has tint" true (Value.has_type (v_int 1) Value.Tint);
  Alcotest.(check bool) "int lacks tstr" false (Value.has_type (v_int 1) Value.Tstr);
  Alcotest.(check bool) "null has any" true (Value.has_type Value.Null Value.Tbool)

(* --- Schema ----------------------------------------------------------- *)

let test_schema_basic () =
  let s = accounts_schema () in
  Alcotest.(check string) "name" "accounts" (Schema.name s);
  Alcotest.(check int) "arity" 4 (Schema.arity s);
  Alcotest.(check int) "position" 2 (Schema.position s "balance");
  Alcotest.(check bool) "mem" true (Schema.mem s "owner");
  Alcotest.(check bool) "not mem" false (Schema.mem s "nope");
  Alcotest.(check (list string)) "key" [ "id" ] (Schema.key_columns s)

let test_schema_rejects_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "t: duplicate column x")
    (fun () ->
      ignore (Schema.make ~name:"t" ~key:[ "x" ] [ Schema.col "x" Value.Tint; Schema.col "x" Value.Tint ]))

let test_schema_rejects_bad_key () =
  Alcotest.check_raises "empty key" (Invalid_argument "t: empty primary key") (fun () ->
      ignore (Schema.make ~name:"t" ~key:[] [ Schema.col "x" Value.Tint ]));
  Alcotest.check_raises "unknown key" (Invalid_argument "t: unknown key column y") (fun () ->
      ignore (Schema.make ~name:"t" ~key:[ "y" ] [ Schema.col "x" Value.Tint ]));
  Alcotest.check_raises "nullable key" (Invalid_argument "t: nullable key column x") (fun () ->
      ignore (Schema.make ~name:"t" ~key:[ "x" ] [ Schema.col ~nullable:true "x" Value.Tint ]))

let test_schema_check_row () =
  let s = accounts_schema () in
  let ok = [| v_int 1; v_str "a"; v_int 0; Value.Null |] in
  Alcotest.(check bool) "valid row" true (Result.is_ok (Schema.check_row s ok));
  let wrong_arity = [| v_int 1 |] in
  Alcotest.(check bool) "arity" true (Result.is_error (Schema.check_row s wrong_arity));
  let wrong_type = [| v_int 1; v_int 2; v_int 0; Value.Null |] in
  Alcotest.(check bool) "type" true (Result.is_error (Schema.check_row s wrong_type));
  let bad_null = [| v_int 1; Value.Null; v_int 0; Value.Null |] in
  Alcotest.(check bool) "null" true (Result.is_error (Schema.check_row s bad_null))

let test_schema_key_of_row () =
  let s =
    Schema.make ~name:"pairs" ~key:[ "a"; "b" ]
      [ Schema.col "a" Value.Tint; Schema.col "x" Value.Tstr; Schema.col "b" Value.Tint ]
  in
  let row = [| v_int 1; v_str "mid"; v_int 2 |] in
  Alcotest.(check bool) "composite key" true (Schema.key_of_row s row = [ v_int 1; v_int 2 ])

(* --- Predicate -------------------------------------------------------- *)

let test_predicate_eval () =
  let s = accounts_schema () in
  let row = [| v_int 1; v_str "alice"; v_int 100; Value.Null |] in
  let holds p = Predicate.compile s p row in
  Alcotest.(check bool) "true" true (holds Predicate.True);
  Alcotest.(check bool) "eq" true (holds (Predicate.Eq ("owner", v_str "alice")));
  Alcotest.(check bool) "eq false" false (holds (Predicate.Eq ("owner", v_str "bob")));
  Alcotest.(check bool) "ne" true (holds (Predicate.Ne ("id", v_int 9)));
  Alcotest.(check bool) "lt" true (holds (Predicate.Cmp (Predicate.Lt, "balance", v_int 200)));
  Alcotest.(check bool) "ge" true (holds (Predicate.Cmp (Predicate.Ge, "balance", v_int 100)));
  Alcotest.(check bool) "gt false" false (holds (Predicate.Cmp (Predicate.Gt, "balance", v_int 100)));
  Alcotest.(check bool) "in" true (holds (Predicate.In ("id", [ v_int 7; v_int 1 ])));
  Alcotest.(check bool) "and" true
    (holds (Predicate.And (Predicate.Eq ("id", v_int 1), Predicate.True)));
  Alcotest.(check bool) "or" true
    (holds (Predicate.Or (Predicate.Eq ("id", v_int 9), Predicate.Eq ("id", v_int 1))));
  Alcotest.(check bool) "not" false (holds (Predicate.Not Predicate.True))

let test_predicate_bindings () =
  let p =
    Predicate.And
      ( Predicate.Eq ("a", v_int 1),
        Predicate.And (Predicate.Cmp (Predicate.Lt, "b", v_int 9), Predicate.Eq ("c", v_int 2)) )
  in
  Alcotest.(check bool) "eq conjuncts extracted" true
    (Predicate.equality_bindings p = [ ("a", v_int 1); ("c", v_int 2) ]);
  let p_or = Predicate.Or (Predicate.Eq ("a", v_int 1), Predicate.Eq ("a", v_int 2)) in
  Alcotest.(check bool) "or yields none" true (Predicate.equality_bindings p_or = [])

let test_predicate_unknown_column () =
  let s = accounts_schema () in
  Alcotest.check_raises "unknown col"
    (Invalid_argument "accounts: unknown column ghost")
    (fun () ->
      let (_ : Value.t array -> bool) =
        Predicate.compile s (Predicate.Eq ("ghost", v_int 0))
      in
      ())

let test_predicate_conj () =
  let s = accounts_schema () in
  let row = [| v_int 1; v_str "alice"; v_int 100; Value.Null |] in
  Alcotest.(check bool) "empty conj = true" true (Predicate.compile s (Predicate.conj []) row);
  let p = Predicate.conj [ Predicate.Eq ("id", v_int 1); Predicate.Eq ("owner", v_str "alice") ] in
  Alcotest.(check bool) "conj of two" true (Predicate.compile s p row)

(* --- Table ------------------------------------------------------------ *)

let test_table_insert_get () =
  let t = make_accounts () in
  Alcotest.(check int) "cardinality" 3 (Table.cardinality t);
  match Table.get t [ v_int 2 ] with
  | None -> Alcotest.fail "row 2 missing"
  | Some row ->
      Alcotest.(check string) "owner" "bob" (Value.as_str row.(1));
      Alcotest.(check int) "balance" 250 (Value.as_int row.(2))

let test_table_get_returns_copy () =
  let t = make_accounts () in
  (match Table.get t [ v_int 1 ] with
  | Some row -> row.(2) <- v_int 0 (* mutate the copy *)
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "store unaffected" 100
    (Value.as_int (Table.get_exn t [ v_int 1 ]).(2))

let test_table_duplicate_key () =
  let t = make_accounts () in
  Alcotest.check_raises "dup"
    (Table.Duplicate_key ("accounts", [ v_int 1 ]))
    (fun () -> ignore (Table.insert t [| v_int 1; v_str "x"; v_int 0; Value.Null |]))

let test_table_invalid_row () =
  let t = make_accounts () in
  let raised =
    try
      ignore (Table.insert t [| v_int 9; v_int 0; v_int 0; Value.Null |]);
      false
    with Table.Invalid_row _ -> true
  in
  Alcotest.(check bool) "invalid row rejected" true raised

let test_table_update () =
  let t = make_accounts () in
  let replaced, updated =
    Table.update t [ v_int 1 ] (fun row ->
        row.(2) <- v_int 175;
        row)
  in
  Alcotest.(check int) "replaced row" 100 (Value.as_int replaced.(2));
  Alcotest.(check int) "returned row" 175 (Value.as_int updated.(2));
  Alcotest.(check int) "stored row" 175 (Value.as_int (Table.get_exn t [ v_int 1 ]).(2))

let test_table_set_column () =
  let t = make_accounts () in
  ignore (Table.set_column t [ v_int 3 ] "balance" (v_int 999));
  Alcotest.(check int) "set_column" 999 (Value.as_int (Table.get_exn t [ v_int 3 ]).(2))

let test_table_update_missing () =
  let t = make_accounts () in
  Alcotest.check_raises "missing"
    (Table.No_such_row ("accounts", [ v_int 42 ]))
    (fun () -> ignore (Table.update t [ v_int 42 ] Fun.id))

let test_table_update_key_change_rejected () =
  let t = make_accounts () in
  let raised =
    try
      ignore
        (Table.update t [ v_int 1 ] (fun row ->
             row.(0) <- v_int 10;
             row));
      false
    with Table.Invalid_row _ -> true
  in
  Alcotest.(check bool) "key change rejected" true raised;
  Alcotest.(check bool) "old key still present" true (Table.mem t [ v_int 1 ])

let test_table_delete () =
  let t = make_accounts () in
  let row = Table.delete t [ v_int 2 ] in
  Alcotest.(check string) "deleted row returned" "bob" (Value.as_str row.(1));
  Alcotest.(check int) "cardinality" 2 (Table.cardinality t);
  Alcotest.(check bool) "gone" false (Table.mem t [ v_int 2 ]);
  Alcotest.check_raises "double delete"
    (Table.No_such_row ("accounts", [ v_int 2 ]))
    (fun () -> ignore (Table.delete t [ v_int 2 ]))

let test_table_scan_full () =
  let t = make_accounts () in
  Alcotest.(check int) "all rows" 3 (List.length (Table.scan t));
  Alcotest.(check int) "scan cost = cardinality" 3 (Table.last_scan_cost t)

let test_table_scan_predicate () =
  let t = make_accounts () in
  let rows = Table.scan ~where:(Predicate.Eq ("owner", v_str "alice")) t in
  Alcotest.(check int) "two alices" 2 (List.length rows);
  let n = Table.scan_count ~where:(Predicate.Cmp (Predicate.Ge, "balance", v_int 100)) t in
  Alcotest.(check int) "balance >= 100" 2 n

let test_table_scan_keys () =
  let t = make_accounts () in
  let keys = Table.scan_keys ~where:(Predicate.Eq ("owner", v_str "alice")) t in
  Alcotest.(check bool) "keys 1 and 3" true (keys = [ [ v_int 1 ]; [ v_int 3 ] ])

let test_index_lookup_and_maintenance () =
  let t = make_accounts () in
  Table.add_index t ~name:"by_owner" [ "owner" ];
  let keys = Table.index_lookup t ~index:"by_owner" [ v_str "alice" ] in
  Alcotest.(check int) "two alices via index" 2 (List.length keys);
  (* insert maintains the index *)
  ignore (Table.insert t [| v_int 4; v_str "alice"; v_int 1; Value.Null |]);
  Alcotest.(check int) "three after insert" 3
    (List.length (Table.index_lookup t ~index:"by_owner" [ v_str "alice" ]));
  (* delete maintains the index *)
  ignore (Table.delete t [ v_int 1 ]);
  Alcotest.(check int) "two after delete" 2
    (List.length (Table.index_lookup t ~index:"by_owner" [ v_str "alice" ]));
  (* update that moves the secondary key maintains the index *)
  ignore (Table.set_column t [ v_int 3 ] "owner" (v_str "carol"));
  Alcotest.(check int) "one after move" 1
    (List.length (Table.index_lookup t ~index:"by_owner" [ v_str "alice" ]));
  Alcotest.(check bool) "carol indexed" true
    (Table.index_lookup t ~index:"by_owner" [ v_str "carol" ] = [ [ v_int 3 ] ])

let test_index_accelerates_scan () =
  let t = make_accounts () in
  Table.add_index t ~name:"by_owner" [ "owner" ];
  let rows = Table.scan ~where:(Predicate.Eq ("owner", v_str "bob")) t in
  Alcotest.(check int) "one bob" 1 (List.length rows);
  Alcotest.(check int) "only indexed candidates examined" 1 (Table.last_scan_cost t)

let test_index_on_populated_table () =
  let t = make_accounts () in
  Table.add_index t ~name:"late" [ "balance" ];
  Alcotest.(check bool) "finds existing row" true
    (Table.index_lookup t ~index:"late" [ v_int 250 ] = [ [ v_int 2 ] ])

let test_index_duplicate_name () =
  let t = make_accounts () in
  Table.add_index t ~name:"i" [ "owner" ];
  Alcotest.check_raises "dup index"
    (Invalid_argument "accounts: duplicate index i")
    (fun () -> Table.add_index t ~name:"i" [ "balance" ])

let test_table_iter_sorted_snapshot () =
  let t = make_accounts () in
  let seen = ref [] in
  Table.iter
    (fun pk _row ->
      seen := pk :: !seen;
      (* mutating from within iter must be safe *)
      if pk = [ v_int 1 ] then ignore (Table.delete t [ v_int 2 ]))
    t;
  Alcotest.(check int) "all three visited" 3 (List.length !seen)

let test_table_fold () =
  let t = make_accounts () in
  let total = Table.fold (fun _ row acc -> acc + Value.as_int row.(2)) t 0 in
  Alcotest.(check int) "sum balances" 400 total

(* A copy shares the stored rows and its ordered indexes' trees, which
   neither side writes in place: an insert, update or delete on either side
   leaves the other side's rows, and its range, minimum and equality-scan
   answers, as they were. *)
let test_table_copy_independent () =
  let t = make_accounts () in
  Table.add_index t ~name:"by_owner" [ "owner" ];
  Table.add_ordered_index t ~name:"by_owner_balance" [ "owner"; "balance" ];
  let c = Table.copy t in
  let answers tbl =
    ( Table.range_lookup tbl ~index:"by_owner_balance" ~lo:[ v_str "alice" ]
        ~hi:[ v_str "alice"; v_int 500 ] (),
      Table.min_lookup tbl ~index:"by_owner_balance" ~above:[ v_str "alice" ] (),
      Table.scan_keys ~where:(Predicate.Eq ("owner", v_str "alice")) tbl )
  in
  let copy_before = answers c in
  ignore (Table.delete t [ v_int 1 ]);
  Alcotest.(check int) "copy keeps row" 3 (Table.cardinality c);
  Alcotest.(check int) "copy index intact" 2
    (List.length (Table.index_lookup c ~index:"by_owner" [ v_str "alice" ]));
  ignore (Table.set_column t [ v_int 2 ] "balance" (v_int 999));
  ignore (Table.insert t [| v_int 4; v_str "alice"; v_int 70; Value.Null |]);
  ignore (Table.insert t [| v_int 5; v_str "bob"; v_int 10; Value.Null |]);
  Alcotest.(check bool) "the original's writes moved its answers" false
    (answers t = copy_before);
  Alcotest.(check bool) "the copy's answers stand" true (answers c = copy_before);
  let original_before = answers t in
  ignore (Table.set_column c [ v_int 3 ] "balance" (v_int 1));
  ignore (Table.delete c [ v_int 2 ]);
  ignore (Table.insert c [| v_int 6; v_str "alice"; v_int 20; Value.Null |]);
  ignore (Table.insert c [| v_int 7; v_str "bob"; v_int 5; Value.Null |]);
  Alcotest.(check bool) "the original's answers stand" true (answers t = original_before);
  let balance tbl k = Option.map (fun row -> Value.as_int row.(2)) (Table.get tbl [ v_int k ]) in
  Alcotest.(check (option int)) "original's update" (Some 999) (balance t 2);
  Alcotest.(check (option int)) "original's row 3 untouched by the copy" (Some 50) (balance t 3);
  Alcotest.(check (option int)) "copy's row 1 untouched by the delete" (Some 100) (balance c 1);
  Alcotest.(check (option int)) "copy's update" (Some 1) (balance c 3);
  Alcotest.(check (option int)) "copy's delete" None (balance c 2)

(* Small integers are stored as one shared block each: rows written with
   integers built at run time hold the same [Int 7], whether inserted or
   updated; an integer outside the shared range is stored as given. *)
let test_table_small_ints_shared () =
  let t = Table.create (accounts_schema ()) in
  let fresh n = Value.Int (Sys.opaque_identity n) in
  let _, a = Table.insert t [| v_int 1; v_str "a"; fresh 7; Value.Null |] in
  let _, b = Table.insert t [| v_int 2; v_str "b"; fresh 7; Value.Null |] in
  Alcotest.(check bool) "two inserted 7s are one block" true (a.(2) == b.(2));
  let _, c =
    Table.update t [ v_int 1 ] (fun row ->
        row.(2) <- fresh 7;
        row)
  in
  Alcotest.(check bool) "an updated 7 is that block" true (c.(2) == b.(2));
  let large = fresh 1_000_000_007 in
  let _, d = Table.insert t [| v_int 3; v_str "c"; large; Value.Null |] in
  Alcotest.(check bool) "a large int is stored as given" true (d.(2) == large)

let test_field () =
  let t = make_accounts () in
  let row = Table.get_exn t [ v_int 2 ] in
  Alcotest.(check int) "field by name" 250 (Value.as_int (Table.field t row "balance"))

(* Keys are one exactly when polymorphic [compare] says so: [0.0] and
   [-0.0] are one key, and a NaN key finds itself. *)
let test_table_float_key_equality () =
  let t =
    Table.create
      (Schema.make ~name:"readings" ~key:[ "at" ]
         [ Schema.col "at" Value.Tfloat; Schema.col "v" Value.Tint ])
  in
  let duplicate row =
    match Table.insert t row with _ -> false | exception Table.Duplicate_key _ -> true
  in
  let v_at at = Option.map (fun row -> Value.as_int row.(1)) (Table.get t [ Value.Float at ]) in
  ignore (Table.insert t [| Value.Float 0.0; v_int 1 |]);
  Alcotest.(check bool) "-0.0 duplicates 0.0" true (duplicate [| Value.Float (-0.0); v_int 2 |]);
  Alcotest.(check (option int)) "-0.0 finds 0.0's row" (Some 1) (v_at (-0.0));
  ignore (Table.insert t [| Value.Float Float.nan; v_int 3 |]);
  Alcotest.(check bool) "NaN duplicates NaN" true (duplicate [| Value.Float Float.nan; v_int 4 |]);
  Alcotest.(check (option int)) "NaN finds its row" (Some 3) (v_at Float.nan);
  Alcotest.(check int) "two rows" 2 (Table.cardinality t)

(* Rows compare column by column as keys do: a table holding a NaN equals
   its own copy, and so does its database. *)
let test_table_equal_nan_row () =
  let db = Database.create () in
  let t =
    Database.create_table db
      (Schema.make ~name:"readings" ~key:[ "id" ]
         [ Schema.col "id" Value.Tint; Schema.col "v" Value.Tfloat ])
  in
  ignore (Table.insert t [| v_int 1; Value.Float Float.nan |]);
  Alcotest.(check bool) "table equals its copy" true (Table.equal t (Table.copy t));
  Alcotest.(check bool) "database equals its copy" true (Database.equal db (Database.copy db));
  Alcotest.(check (list string)) "no diff" [] (Database.diff db (Database.copy db))

(* --- Ordered index ------------------------------------------------------ *)

module Ordered_index = Acc_relation.Ordered_index

let oi_key row = [ row.(1) ] (* index accounts by owner *)

let make_oi rows =
  let idx = Ordered_index.create ~name:"t" ~key_of:oi_key in
  List.iter (fun (pk, owner) -> Ordered_index.insert idx ~pk:[ v_int pk ] [| v_int pk; owner |]) rows;
  idx

let test_oi_basic () =
  let idx = make_oi [ (1, v_str "carol"); (2, v_str "alice"); (3, v_str "bob") ] in
  Alcotest.(check int) "size" 3 (Ordered_index.size idx);
  Alcotest.(check bool) "invariant" true (Ordered_index.invariant_ok idx);
  (match Ordered_index.min_entry idx () with
  | Some ([ Value.Str "alice" ], [ Value.Int 2 ]) -> ()
  | _ -> Alcotest.fail "wrong min");
  (match Ordered_index.max_entry idx with
  | Some ([ Value.Str "carol" ], [ Value.Int 1 ]) -> ()
  | _ -> Alcotest.fail "wrong max");
  (* ascending order *)
  let keys = List.map fst (Ordered_index.range idx ()) in
  Alcotest.(check bool) "ascending" true
    (keys = [ [ v_str "alice" ]; [ v_str "bob" ]; [ v_str "carol" ] ])

let test_oi_min_above () =
  let idx = make_oi [ (1, v_int 10); (2, v_int 20); (3, v_int 30) ] in
  (match Ordered_index.min_entry idx ~above:[ v_int 10 ] () with
  | Some ([ Value.Int 20 ], _) -> ()
  | _ -> Alcotest.fail "min above 10 should be 20");
  Alcotest.(check bool) "above max is none" true
    (Ordered_index.min_entry idx ~above:[ v_int 30 ] () = None)

let test_oi_range_bounds () =
  let idx = make_oi (List.init 10 (fun i -> (i, v_int (i * 10)))) in
  let in_range lo hi =
    List.map (fun (k, _) -> Value.as_int (List.hd k)) (Ordered_index.range idx ~lo ~hi ())
  in
  Alcotest.(check (list int)) "closed range" [ 20; 30; 40 ] (in_range [ v_int 20 ] [ v_int 40 ]);
  Alcotest.(check (list int)) "open top"
    [ 70; 80; 90 ]
    (List.map (fun (k, _) -> Value.as_int (List.hd k)) (Ordered_index.range idx ~lo:[ v_int 70 ] ()));
  Alcotest.(check (list int)) "empty range" [] (in_range [ v_int 41 ] [ v_int 49 ])

let test_oi_duplicate_keys () =
  (* same index key for two rows: both entries live, distinguished by pk *)
  let idx = make_oi [ (1, v_str "x"); (2, v_str "x") ] in
  Alcotest.(check int) "both present" 2 (List.length (Ordered_index.prefix idx [ v_str "x" ]));
  Ordered_index.remove idx ~pk:[ v_int 1 ] [| v_int 1; v_str "x" |];
  Alcotest.(check int) "one left" 1 (List.length (Ordered_index.prefix idx [ v_str "x" ]));
  Alcotest.(check bool) "right one left" true
    (List.for_all (fun (_, pk) -> pk = [ v_int 2 ]) (Ordered_index.prefix idx [ v_str "x" ]))

let test_oi_prefix_composite () =
  let idx = Ordered_index.create ~name:"c" ~key_of:(fun row -> [ row.(0); row.(1) ]) in
  List.iter
    (fun (a, b) -> Ordered_index.insert idx ~pk:[ v_int a; v_int b ] [| v_int a; v_int b |])
    [ (1, 1); (1, 2); (2, 1); (2, 9); (3, 5) ];
  Alcotest.(check int) "prefix 2" 2 (List.length (Ordered_index.prefix idx [ v_int 2 ]));
  Alcotest.(check int) "prefix 9" 0 (List.length (Ordered_index.prefix idx [ v_int 9 ]));
  (* short lo bound acts as prefix bound: everything from group 2 up *)
  Alcotest.(check int) "lo prefix" 3 (List.length (Ordered_index.range idx ~lo:[ v_int 2 ] ()))

let prop_oi_matches_model =
  QCheck2.Test.make ~name:"ordered_index: random ops match sorted model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 30) (int_range 0 8)))
    (fun ops ->
      (* insert (k, pk); key collisions and re-insertions exercised via a
         model association set *)
      let idx = Ordered_index.create ~name:"m" ~key_of:(fun row -> [ row.(0) ]) in
      let model = ref [] in
      List.iteri
        (fun i (k, action) ->
          let pk = [ v_int i ] in
          if action < 6 then begin
            Ordered_index.insert idx ~pk [| v_int k |];
            model := (k, i) :: !model
          end
          else begin
            match !model with
            | (k', i') :: rest ->
                Ordered_index.remove idx ~pk:[ v_int i' ] [| v_int k' |];
                model := rest
            | [] -> ()
          end)
        ops;
      let expected = List.sort compare (List.map (fun (k, i) -> (k, i)) !model) in
      let actual =
        List.map
          (fun (key, pk) -> (Value.as_int (List.hd key), Value.as_int (List.hd pk)))
          (Ordered_index.range idx ())
      in
      Ordered_index.invariant_ok idx
      && Ordered_index.size idx = List.length !model
      && actual = expected)

let test_table_ordered_integration () =
  let t = make_accounts () in
  Table.add_ordered_index t ~name:"by_balance" [ "balance" ];
  (* range probe *)
  let entries = Table.range_lookup t ~index:"by_balance" ~lo:[ v_int 60 ] () in
  Alcotest.(check int) "two rows >= 60" 2 (List.length entries);
  (* maintained by update *)
  ignore (Table.set_column t [ v_int 3 ] "balance" (v_int 70));
  Alcotest.(check int) "three rows >= 60" 3
    (List.length (Table.range_lookup t ~index:"by_balance" ~lo:[ v_int 60 ] ()));
  (* min probe *)
  (match Table.min_lookup t ~index:"by_balance" () with
  | Some ([ Value.Int 70 ], [ Value.Int 3 ]) -> ()
  | _ -> Alcotest.fail "min should be the moved row");
  (* maintained by delete *)
  ignore (Table.delete t [ v_int 3 ]);
  match Table.min_lookup t ~index:"by_balance" () with
  | Some ([ Value.Int 100 ], _) -> ()
  | _ -> Alcotest.fail "min after delete"

let test_ordered_planner () =
  (* the scan planner uses an ordered index for equality-prefix + range
     predicates: candidates shrink below the cardinality *)
  let t = Table.create (accounts_schema ()) in
  Table.add_ordered_index t ~name:"owner_balance" [ "owner"; "balance" ];
  for i = 1 to 50 do
    ignore
      (Table.insert t
         [| v_int i; v_str (if i mod 2 = 0 then "alice" else "bob"); v_int i; Value.Null |])
  done;
  let where =
    Predicate.conj
      [ Predicate.Eq ("owner", v_str "alice"); Predicate.Cmp (Predicate.Ge, "balance", v_int 40) ]
  in
  let rows = Table.scan ~where t in
  Alcotest.(check int) "six alices >= 40" 6 (List.length rows);
  Alcotest.(check bool)
    (Printf.sprintf "examined %d candidates, not all 50" (Table.last_scan_cost t))
    true
    (Table.last_scan_cost t < 10)

(* --- Aggregate ----------------------------------------------------------- *)

let test_aggregate_scalars () =
  let t = make_accounts () in
  Alcotest.(check int) "count" 3 (Aggregate.count t);
  Alcotest.(check int) "count where" 2
    (Aggregate.count ~where:(Predicate.Eq ("owner", v_str "alice")) t);
  Alcotest.(check int) "sum" 400 (Aggregate.sum_int t ~column:"balance");
  Alcotest.(check (float 1e-9)) "sum float of ints" 400.
    (Aggregate.sum_float t ~column:"balance");
  Alcotest.(check bool) "min" true (Aggregate.min_value t ~column:"balance" = Some (v_int 50));
  Alcotest.(check bool) "max" true (Aggregate.max_value t ~column:"balance" = Some (v_int 250));
  let empty = Table.create (accounts_schema ()) in
  Alcotest.(check bool) "min of empty" true (Aggregate.min_value empty ~column:"balance" = None);
  Alcotest.(check int) "sum of empty" 0 (Aggregate.sum_int empty ~column:"balance")

let test_aggregate_group_by () =
  let t = make_accounts () in
  Alcotest.(check bool) "count by owner" true
    (Aggregate.count_by t ~key:[ "owner" ]
    = [ ([ v_str "alice" ], 2); ([ v_str "bob" ], 1) ]);
  Alcotest.(check bool) "sum by owner" true
    (Aggregate.sum_float_by t ~key:[ "owner" ] ~column:"balance"
    = [ ([ v_str "alice" ], 150.); ([ v_str "bob" ], 250.) ]);
  Alcotest.(check bool) "group with predicate" true
    (Aggregate.count_by ~where:(Predicate.Cmp (Predicate.Ge, "balance", v_int 100)) t
       ~key:[ "owner" ]
    = [ ([ v_str "alice" ], 1); ([ v_str "bob" ], 1) ])

(* --- Database ---------------------------------------------------------- *)

let test_database () =
  let db = Database.create () in
  let _accounts = Database.create_table db (accounts_schema ()) in
  Alcotest.(check (list string)) "names" [ "accounts" ] (Database.table_names db);
  Alcotest.(check bool) "find" true (Option.is_some (Database.find_table db "accounts"));
  Alcotest.(check bool) "find missing" true (Option.is_none (Database.find_table db "ghost"));
  Alcotest.check_raises "dup table"
    (Invalid_argument "Database.create_table: duplicate accounts")
    (fun () -> ignore (Database.create_table db (accounts_schema ())))

let test_database_copy () =
  let db = Database.create () in
  let t = Database.create_table db (accounts_schema ()) in
  ignore (Table.insert t [| v_int 1; v_str "a"; v_int 7; Value.Null |]);
  let db2 = Database.copy db in
  ignore (Table.delete t [ v_int 1 ]);
  Alcotest.(check int) "copy unaffected" 1 (Table.cardinality (Database.table db2 "accounts"));
  Alcotest.(check int) "total rows" 1 (Database.total_rows db2)

(* --- qcheck: table/index coherence under random mutation sequences ----- *)

(* [Rename] rewrites the unindexed [owner] and [Rewrite] writes a row's
   balance back unchanged: both leave every index key as it was.  [Update]
   may move one, so updates take both the unchanged and the re-index branch
   of [Table.update]. *)
type op =
  | Insert of int * int
  | Delete of int
  | Update of int * int
  | Rename of int * string
  | Rewrite of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> Insert (k, v)) (int_range 0 20) (int_range 0 100);
        map (fun k -> Delete k) (int_range 0 20);
        map2 (fun k v -> Update (k, v)) (int_range 0 20) (int_range 0 100);
        map2 (fun k o -> Rename (k, o)) (int_range 0 20) (oneofl [ "o"; "p"; "q" ]);
        map (fun k -> Rewrite k) (int_range 0 20);
      ])

let apply_op model table op =
  (* [model] is an association list mirror of the table: id -> (owner, balance) *)
  match op with
  | Insert (k, v) ->
      if List.mem_assoc k !model then ()
      else begin
        ignore (Table.insert table [| v_int k; v_str "o"; v_int v; Value.Null |]);
        model := (k, ("o", v)) :: !model
      end
  | Delete k ->
      if List.mem_assoc k !model then begin
        ignore (Table.delete table [ v_int k ]);
        model := List.remove_assoc k !model
      end
  | Update (k, v) -> (
      match List.assoc_opt k !model with
      | Some (owner, _) ->
          ignore (Table.set_column table [ v_int k ] "balance" (v_int v));
          model := (k, (owner, v)) :: List.remove_assoc k !model
      | None -> ())
  | Rename (k, owner) -> (
      match List.assoc_opt k !model with
      | Some (_, v) ->
          ignore (Table.set_column table [ v_int k ] "owner" (v_str owner));
          model := (k, (owner, v)) :: List.remove_assoc k !model
      | None -> ())
  | Rewrite k ->
      if List.mem_assoc k !model then
        ignore
          (Table.update table [ v_int k ] (fun row ->
               row.(2) <- v_int (Value.as_int row.(2));
               row))

let prop_table_matches_model =
  QCheck2.Test.make ~name:"table: random ops match model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) op_gen)
    (fun ops ->
      let table = Table.create (accounts_schema ()) in
      Table.add_index table ~name:"by_balance" [ "balance" ];
      Table.add_ordered_index table ~name:"balance_order" [ "balance" ];
      (* the twin's only index is the ordered one: it serves the equality
         probes the hash index serves in [table] *)
      let twin = Table.create (accounts_schema ()) in
      Table.add_ordered_index twin ~name:"balance_order" [ "balance" ];
      let model = ref [] and twin_model = ref [] in
      List.iter
        (fun op ->
          apply_op model table op;
          apply_op twin_model twin op)
        ops;
      let sorted_model = List.sort compare !model in
      (* cardinality and every row agree with the model *)
      Table.cardinality table = List.length !model
      && List.for_all
           (fun (k, (owner, v)) ->
             match Table.get table [ v_int k ] with
             | Some row -> Value.as_str row.(1) = owner && Value.as_int row.(2) = v
             | None -> false)
           !model
      (* the index agrees with a predicate scan for every live balance, and
         the ordered index lists the rows at or above it in (balance, id)
         order *)
      && List.for_all
           (fun (_, (_, v)) ->
             let via_index = Table.index_lookup table ~index:"by_balance" [ v_int v ] in
             let via_scan = Table.scan_keys ~where:(Predicate.Eq ("balance", v_int v)) table in
             let ranged = Table.range_lookup table ~index:"balance_order" ~lo:[ v_int v ] () in
             let expected =
               List.sort compare
                 (List.filter_map
                    (fun (k, (_, b)) -> if b >= v then Some (b, k) else None)
                    !model)
             in
             List.sort compare via_index = List.sort compare via_scan
             && ranged = List.map (fun (b, k) -> ([ v_int b ], [ v_int k ])) expected)
           !model
      (* the twin's ordered index finds the model's keys in ascending order,
         and a walk visits ascending keys with the model's values *)
      && List.for_all
           (fun (_, (_, v)) ->
             Table.scan_keys ~where:(Predicate.Eq ("balance", v_int v)) twin
             = List.filter_map
                 (fun (k, (_, b)) -> if b = v then Some [ v_int k ] else None)
                 sorted_model)
           !model
      && List.rev
           (Table.fold
              (fun pk row acc -> (pk, Value.as_str row.(1), Value.as_int row.(2)) :: acc)
              twin [])
         = List.map (fun (k, (owner, v)) -> ([ v_int k ], owner, v)) sorted_model)

let suites =
  [
    ( "relation.value",
      [
        Alcotest.test_case "equal" `Quick test_value_equal;
        Alcotest.test_case "compare" `Quick test_value_compare;
        Alcotest.test_case "projections" `Quick test_value_projections;
        Alcotest.test_case "typing" `Quick test_value_typing;
      ] );
    ( "relation.schema",
      [
        Alcotest.test_case "basic" `Quick test_schema_basic;
        Alcotest.test_case "rejects duplicates" `Quick test_schema_rejects_duplicates;
        Alcotest.test_case "rejects bad keys" `Quick test_schema_rejects_bad_key;
        Alcotest.test_case "check_row" `Quick test_schema_check_row;
        Alcotest.test_case "key_of_row composite" `Quick test_schema_key_of_row;
      ] );
    ( "relation.predicate",
      [
        Alcotest.test_case "eval" `Quick test_predicate_eval;
        Alcotest.test_case "equality bindings" `Quick test_predicate_bindings;
        Alcotest.test_case "unknown column" `Quick test_predicate_unknown_column;
        Alcotest.test_case "conj" `Quick test_predicate_conj;
      ] );
    ( "relation.table",
      [
        Alcotest.test_case "insert/get" `Quick test_table_insert_get;
        Alcotest.test_case "get returns copy" `Quick test_table_get_returns_copy;
        Alcotest.test_case "duplicate key" `Quick test_table_duplicate_key;
        Alcotest.test_case "invalid row" `Quick test_table_invalid_row;
        Alcotest.test_case "update" `Quick test_table_update;
        Alcotest.test_case "set_column" `Quick test_table_set_column;
        Alcotest.test_case "update missing" `Quick test_table_update_missing;
        Alcotest.test_case "update cannot change key" `Quick test_table_update_key_change_rejected;
        Alcotest.test_case "delete" `Quick test_table_delete;
        Alcotest.test_case "scan full" `Quick test_table_scan_full;
        Alcotest.test_case "scan with predicate" `Quick test_table_scan_predicate;
        Alcotest.test_case "scan keys" `Quick test_table_scan_keys;
        Alcotest.test_case "index lookup + maintenance" `Quick test_index_lookup_and_maintenance;
        Alcotest.test_case "index accelerates scan" `Quick test_index_accelerates_scan;
        Alcotest.test_case "index on populated table" `Quick test_index_on_populated_table;
        Alcotest.test_case "index duplicate name" `Quick test_index_duplicate_name;
        Alcotest.test_case "iter snapshot" `Quick test_table_iter_sorted_snapshot;
        Alcotest.test_case "fold" `Quick test_table_fold;
        Alcotest.test_case "copy independent" `Quick test_table_copy_independent;
        Alcotest.test_case "stored small ints are shared" `Quick test_table_small_ints_shared;
        Alcotest.test_case "field by name" `Quick test_field;
        Alcotest.test_case "float key equality" `Quick test_table_float_key_equality;
        Alcotest.test_case "NaN row equals its copy" `Quick test_table_equal_nan_row;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_table_matches_model;
      ] );
    ( "relation.ordered_index",
      [
        Alcotest.test_case "basic" `Quick test_oi_basic;
        Alcotest.test_case "min above" `Quick test_oi_min_above;
        Alcotest.test_case "range bounds" `Quick test_oi_range_bounds;
        Alcotest.test_case "duplicate keys" `Quick test_oi_duplicate_keys;
        Alcotest.test_case "composite prefix" `Quick test_oi_prefix_composite;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xACC |]) prop_oi_matches_model;
        Alcotest.test_case "table integration" `Quick test_table_ordered_integration;
        Alcotest.test_case "planner uses ordered index" `Quick test_ordered_planner;
      ] );
    ( "relation.aggregate",
      [
        Alcotest.test_case "scalars" `Quick test_aggregate_scalars;
        Alcotest.test_case "group by" `Quick test_aggregate_group_by;
      ] );
    ( "relation.database",
      [
        Alcotest.test_case "namespace" `Quick test_database;
        Alcotest.test_case "deep copy" `Quick test_database_copy;
      ] );
  ]
