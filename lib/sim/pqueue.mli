(** Minimal binary min-heap keyed by [(time, sequence)] — the event queue.
    The sequence number breaks ties so same-time events run in insertion
    order, keeping the simulation deterministic. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Smallest (time, seq) first. *)

val peek_time : 'a t -> float option
