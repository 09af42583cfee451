(** In-memory tables: a primary-key hash plus optional secondary hash
    indexes, maintained transparently by the mutators.

    {b A stored row is never written in place}: an update stores a fresh
    array and leaves the one it replaces untouched.  {!insert} and {!update}
    hand back the table's own arrays, and the write-ahead log keeps exactly
    those as its images, so an update's before image is the row it replaced
    and costs no copy.  Callers must not write the arrays {!insert},
    {!update} and {!delete} return; every read ({!get}, {!scan}, {!iter},
    ...) hands out copies. *)

type t

type key = Value.t list
(** Primary-key values in schema key order. *)

exception Duplicate_key of string * key
exception No_such_row of string * key
exception Invalid_row of string

val create : Schema.t -> t
(** An empty table of the given schema. *)

val schema : t -> Schema.t
(** The table's schema. *)

val name : t -> string
(** = [Schema.name (schema t)]. *)

val cardinality : t -> int
(** Number of rows. *)

val add_index : t -> name:string -> string list -> unit
(** Secondary hash index on the given columns.  May be added to a populated
    table (it is built immediately).  Raises [Invalid_argument] on duplicate
    index names or unknown columns. *)

val insert : t -> Value.t array -> key * Value.t array
(** Stores a copy of the row and returns the primary key and the row as the
    table holds them (not to be written).  Raises {!Invalid_row} if the row
    does not satisfy the schema and {!Duplicate_key} if the primary key is
    taken. *)

val get : t -> key -> Value.t array option
(** Point lookup; the returned array is a copy. *)

val get_exn : t -> key -> Value.t array
(** {!get}, raising {!No_such_row} when absent. *)

val mem : t -> key -> bool
(** Whether a row with that key exists. *)

val update :
  t -> key -> (Value.t array -> Value.t array) -> Value.t array * Value.t array
(** [update t k f] replaces the row at [k] with a copy of [f row] and returns
    [(replaced, stored)]: the row it held before and the row it holds now,
    both the table's own arrays (not to be written).  [f] receives a private
    copy.  Raises {!No_such_row} if absent, {!Invalid_row} if the result is
    schema-invalid or changes the primary key (delete + insert is the
    supported way to move a row). *)

val set_column : t -> key -> string -> Value.t -> Value.t array
(** Specialised single-column update; returns the stored row, as {!update}
    does. *)

val delete : t -> key -> Value.t array
(** Remove and return the row (the array the table held, not to be
    written).  Raises {!No_such_row} if absent. *)

val scan : ?where:Predicate.t -> t -> Value.t array list
(** All rows satisfying the predicate (copies).  Uses a secondary index when
    the predicate's equality bindings cover one; otherwise a full scan.
    Result order is unspecified but deterministic for a given history. *)

val scan_count : ?where:Predicate.t -> t -> int
(** [List.length (scan ~where t)] without building the rows. *)

val scan_keys : ?where:Predicate.t -> t -> key list
(** Primary keys of the satisfying rows. *)

val index_lookup : t -> index:string -> Value.t list -> key list
(** Exact-match probe of a secondary index. *)

val add_ordered_index : t -> name:string -> string list -> unit
(** Ordered secondary index on the given columns; supports range and
    min/max probes.  May be added to a populated table. *)

val range_lookup :
  t -> index:string -> ?lo:Value.t list -> ?hi:Value.t list -> unit ->
  (Value.t list * key) list
(** Entries of an ordered index with [lo <= key <= hi] (lexicographic;
    shorter bounds act as prefix bounds), ascending. *)

val min_lookup :
  t -> index:string -> ?above:Value.t list -> unit -> (Value.t list * key) option
(** Smallest entry of an ordered index, optionally strictly above a key. *)

val iter : (key -> Value.t array -> unit) -> t -> unit
(** Iterate over a snapshot of the rows; the visited arrays are copies, and
    mutating the table from the callback is allowed. *)

val fold : (key -> Value.t array -> 'a -> 'a) -> t -> 'a -> 'a
(** {!iter} as a fold, with the same snapshot semantics. *)

val last_scan_cost : t -> int
(** Number of rows examined by the most recent [scan]/[scan_count]/
    [scan_keys]: the harness reads this to charge simulated CPU. *)

val copy : t -> t
(** Deep copy (rows and indexes). *)

val index_specs : t -> (string * string list) list
(** Name and column list of every secondary hash index, in creation order;
    with {!ordered_index_specs} this is enough to rebuild the table's access
    paths after deserializing its rows (checkpoint save/load). *)

val ordered_index_specs : t -> (string * string list) list
(** Name and column list of every ordered index, in creation order. *)

val equal : t -> t -> bool
(** Row-level equality: same key set, and rows equal column by column under
    {!same_row}.  Indexes are derived data and not compared. *)

val same_row : Value.t array -> Value.t array -> bool
(** Same length and [Value.compare x y = 0] at every column: the equality
    the key tables use, under which a NaN equals itself and [0.0] equals
    [-0.0]. *)

val field : t -> Value.t array -> string -> Value.t
(** [field t row col] reads a column by name, e.g.
    [Value.as_int (Table.field stock row "s_level")]. *)
