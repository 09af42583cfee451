(** Online statistics used by the experiment harness.

    A {!Tally} accumulates scalar observations (response times, queue waits)
    with numerically stable mean/variance and exact quantiles (observations
    are retained; experiment sizes are small enough that this is cheap and it
    keeps quantiles exact rather than approximate). *)

module Tally : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** Mean of the observations; [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,1\]], linear interpolation between
      order statistics; [nan] when empty. *)

  val merge : t -> t -> t
  (** Combined tally of both argument tallies (arguments unchanged). *)

  val since : t -> int -> t
  (** [since t n]: a tally of the observations added to [t] after its first
      [n] ([t] unchanged). *)
end

module Counter : sig
  (** Named integer counters, e.g. commits/aborts/deadlocks per experiment. *)

  type t

  val create : unit -> t
  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list
  (** Sorted by name. *)
end
