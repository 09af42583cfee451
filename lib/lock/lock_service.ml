module type S = sig
  val backend_name : string
  val acquire : Lock_request.t -> unit
  val attach : Lock_request.t -> unit
  val release : txn:int -> Mode.t -> Resource_id.t -> unit
  val release_where : txn:int -> (Resource_id.t -> Mode.t -> bool) -> unit
  val release_all : txn:int -> unit
  val cancel : ticket:int -> unit
  val outstanding : ticket:int -> bool
  val ticket_txn : ticket:int -> int option
  val outstanding_tickets : txn:int -> int list
  val holders : Resource_id.t -> (int * Mode.t * int) list
  val held_by : txn:int -> (Resource_id.t * Mode.t) list
  val waiting_on : txn:int -> Resource_id.t list
  val wait_edges : unit -> (int * int) list
  val find_cycle : from:int -> int list option
  val compensating_waiter : txn:int -> bool
  val expire : now:float -> Lock_table.expired list
  val kill : txn:int -> int
  val lock_count : unit -> int
  val waiter_count : unit -> int
  val entry_count : unit -> int
  val oldest_wait : now:float -> float
  val max_bypassed : unit -> int
  val timeout_count : unit -> int
  val mutex_acquisitions : unit -> int
  val fast_attempts : unit -> int
  val fast_hits : unit -> int
  val set_observer : (Lock_table.observation -> unit) option -> unit
  val pp_state : Format.formatter -> unit -> unit
end

type t = (module S)

let backend_name (module M : S) = M.backend_name
let acquire (module M : S) req = M.acquire req
let attach (module M : S) req = M.attach req
let release (module M : S) ~txn mode res = M.release ~txn mode res
let release_where (module M : S) ~txn pred = M.release_where ~txn pred
let release_all (module M : S) ~txn = M.release_all ~txn
let cancel (module M : S) ~ticket = M.cancel ~ticket
let outstanding (module M : S) ~ticket = M.outstanding ~ticket
let ticket_txn (module M : S) ~ticket = M.ticket_txn ~ticket
let outstanding_tickets (module M : S) ~txn = M.outstanding_tickets ~txn
let holders (module M : S) res = M.holders res
let held_by (module M : S) ~txn = M.held_by ~txn
let waiting_on (module M : S) ~txn = M.waiting_on ~txn
let wait_edges (module M : S) = M.wait_edges ()
let find_cycle (module M : S) ~from = M.find_cycle ~from
let compensating_waiter (module M : S) ~txn = M.compensating_waiter ~txn
let expire (module M : S) ~now = M.expire ~now
let kill (module M : S) ~txn = M.kill ~txn
let lock_count (module M : S) = M.lock_count ()
let waiter_count (module M : S) = M.waiter_count ()
let entry_count (module M : S) = M.entry_count ()
let oldest_wait (module M : S) ~now = M.oldest_wait ~now
let max_bypassed (module M : S) = M.max_bypassed ()
let timeout_count (module M : S) = M.timeout_count ()
let mutex_acquisitions (module M : S) = M.mutex_acquisitions ()
let fast_attempts (module M : S) = M.fast_attempts ()
let fast_hits (module M : S) = M.fast_hits ()
let set_observer (module M : S) obs = M.set_observer obs
let pp_state ppf (module M : S) = M.pp_state ppf ()

let of_table ~wait ~deliver table : t =
  (module struct
    let backend_name = "sequential"

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
    let ticket_txn ~ticket = Lock_table.ticket_txn table ~ticket
    let outstanding_tickets ~txn = Lock_table.outstanding_tickets table ~txn
    let holders res = Lock_table.holders table res
    let held_by ~txn = Lock_table.held_by table ~txn
    let waiting_on ~txn = Lock_table.waiting_on table ~txn
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
    let entry_count () = Lock_table.entry_count table
    let oldest_wait ~now = Lock_table.oldest_wait table ~now
    let max_bypassed () = Lock_table.max_bypassed table
    let timeout_count () = 0
    let mutex_acquisitions () = 0

    (* no lock-free fast path in the sequential backend: every request is
       already a plain function call *)
    let fast_attempts () = 0
    let fast_hits () = 0
    let set_observer obs = Lock_table.set_observer table obs
    let pp_state ppf () = Lock_table.pp_state ppf table
  end)
