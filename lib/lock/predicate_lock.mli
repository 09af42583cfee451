(** Predicate locks (Eswaran, Gray, Lorie, Traiger 1976) — the comparator
    §3.2 positions assertional locks against.

    A predicate lock protects the set of rows satisfying a predicate; two
    locks conflict when at least one writes and their predicates may
    intersect.  The expensive part — and the paper's point — is that the
    intersection test runs {e at lock-acquisition time}, for every pair of
    outstanding locks on the table, instead of being a precomputed table
    lookup.  {!may_intersect} is implemented as a sound, conservative
    satisfiability check over per-column interval summaries (exact for
    conjunctive predicates over [=], [<>], [<], [<=], [>], [>=], [IN];
    disjunctions and negations fall back to "may intersect").

    [bench/main.exe micro] times {!may_intersect}; set against the ACC's
    interference lookup, which perfbench's cost ladder times, it quantifies
    the claim. *)

module Predicate = Acc_relation.Predicate

type t

val create : unit -> t

type mode = Read | Write

val acquire :
  t -> txn:int -> mode:mode -> table:string -> Predicate.t ->
  [ `Granted | `Conflict of int list ]
(** Grant unless a conflicting lock is held by another transaction; on
    conflict, report the blockers (this manager does not queue — it is a
    comparator for conflict-checking cost and semantics, not a scheduler). *)

val release_all : t -> txn:int -> unit
val lock_count : t -> int

val may_intersect : Predicate.t -> Predicate.t -> bool
(** Could some row satisfy both predicates?  Sound (never answers [false]
    when a common row exists); conservative on non-conjunctive structure. *)

val definitely_disjoint : Predicate.t -> Predicate.t -> bool
(** [not (may_intersect a b)]. *)
