(** A database: a mutable namespace of {!Table.t}. *)

type t

val create : unit -> t
(** An empty database. *)

val create_table : t -> Schema.t -> Table.t
(** Create and register an empty table.  Raises [Invalid_argument] if a
    table with that schema name already exists. *)

val table : t -> string -> Table.t
(** Raises [Invalid_argument] if absent. *)

val find_table : t -> string -> Table.t option
(** Like {!table}, but [None] when absent. *)

val table_names : t -> string list
(** Sorted. *)

val copy : t -> t
(** An independent copy of every table ({!Table.copy}: fresh row tables and
    hash indexes over the shared, never-written stored rows and ordered
    index trees): checkpoints and crash recovery use it to rebuild a
    database from a log against a pristine baseline. *)

val total_rows : t -> int
(** Sum of all table cardinalities. *)

val equal : t -> t -> bool
(** Same table names and row-level equal contents ({!Table.equal}); the
    idempotence check for double WAL replay compares recovered databases
    with this. *)

val diff : ?limit:int -> t -> t -> string list
(** Human-readable row-level differences (at most [limit], default 10), for
    harness failure messages.  Empty iff {!equal}. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per table with its cardinality. *)
