module type S = sig
  val acquire : Lock_request.t -> unit
  val attach : Lock_request.t -> unit
  val release : txn:int -> Mode.t -> Resource_id.t -> unit
  val release_where : txn:int -> (Resource_id.t -> Mode.t -> bool) -> unit
  val release_all : txn:int -> unit
  val cancel : ticket:int -> unit
  val outstanding : ticket:int -> bool
  val holders : Resource_id.t -> (int * Mode.t * int) list
  val wait_edges : unit -> (int * int) list
  val find_cycle : from:int -> int list option
  val compensating_waiter : txn:int -> bool
  val expire : now:float -> Lock_table.expired list
  val kill : txn:int -> int
  val lock_count : unit -> int
  val waiter_count : unit -> int
  val oldest_wait : now:float -> float
  val timeout_count : unit -> int
  val set_observer : (Lock_table.observation -> unit) option -> unit
  val pp_state : Format.formatter -> unit -> unit
end

type t = (module S)

let acquire (module M : S) req = M.acquire req
let attach (module M : S) req = M.attach req
let release (module M : S) ~txn mode res = M.release ~txn mode res
let release_where (module M : S) ~txn pred = M.release_where ~txn pred
let release_all (module M : S) ~txn = M.release_all ~txn
let cancel (module M : S) ~ticket = M.cancel ~ticket
let outstanding (module M : S) ~ticket = M.outstanding ~ticket
let holders (module M : S) res = M.holders res
let wait_edges (module M : S) = M.wait_edges ()
let find_cycle (module M : S) ~from = M.find_cycle ~from
let compensating_waiter (module M : S) ~txn = M.compensating_waiter ~txn
let expire (module M : S) ~now = M.expire ~now
let kill (module M : S) ~txn = M.kill ~txn
let lock_count (module M : S) = M.lock_count ()
let waiter_count (module M : S) = M.waiter_count ()
let oldest_wait (module M : S) ~now = M.oldest_wait ~now
let timeout_count (module M : S) = M.timeout_count ()
let set_observer (module M : S) obs = M.set_observer obs
let pp_state ppf (module M : S) = M.pp_state ppf ()

let of_table ~wait ~deliver table : t =
  (module struct
    let acquire (r : Lock_request.t) =
      match Lock_table.submit table r with
      | Lock_table.Granted -> ()
      | Lock_table.Queued ticket -> wait ~ticket ~txn:r.Lock_request.txn

    let attach r = Lock_table.attach_req table r
    let release ~txn mode res = deliver (Lock_table.release table ~txn mode res)
    let release_where ~txn pred = deliver (Lock_table.release_where table ~txn pred)
    let release_all ~txn = deliver (Lock_table.release_all table ~txn)
    let cancel ~ticket = deliver (Lock_table.cancel table ~ticket)
    let outstanding ~ticket = Lock_table.outstanding table ~ticket
    let holders res = Lock_table.holders table res
    let wait_edges () = Lock_table.wait_edges table
    let find_cycle ~from = Lock_table.find_cycle table ~from
    let compensating_waiter ~txn = Lock_table.compensating_waiter table ~txn

    let expire ~now =
      let expired, wakeups = Lock_table.expire_overdue table ~now in
      deliver wakeups;
      expired

    let kill ~txn =
      let tickets = Lock_table.outstanding_tickets table ~txn in
      List.iter (fun ticket -> deliver (Lock_table.cancel table ~ticket)) tickets;
      List.length tickets

    let lock_count () = Lock_table.lock_count table
    let waiter_count () = Lock_table.waiter_count table
    let oldest_wait ~now = Lock_table.oldest_wait table ~now
    let timeout_count () = 0
    let set_observer obs = Lock_table.set_observer table obs
    let pp_state ppf () = Lock_table.pp_state ppf table
  end)
