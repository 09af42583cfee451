(** The five TPC-C transaction types, in both forms under test.

    {b Stepped} instances are the ACC decomposition (§5.1): the eleven
    forward step types, their compensating steps and the interstep
    assertions, mirroring the paper's analysis.  The {b flat} form — the
    "unmodified Open Ingres" comparator — runs the same step bodies back to
    back as one strict-2PL transaction ({!Acc_core.Runtime.run_flat}).

    - [new_order]: reads + district-counter increment | order/queue insert |
      one step per order line | finalize.  Its counter assertion is declared
      {e compatible} with foreign counter increments (monotonicity), which is
      exactly how the analysis learns that new-order and payment "within the
      same district" may interleave — the counter and the year-to-date
      columns do not overlap.
    - [payment]: warehouse ytd | district ytd | customer + history.
    - [delivery]: header | one step per district (the long transaction).
    - [order_status]: analyzed read-only single step, executed with full
      isolation (it must not observe exposed intermediate order lines).
    - [stock_level]: single step at READ COMMITTED, as the spec permits.

    Forced failure: the spec requires 1% of new-orders to abort "during the
    order of the final item" — [fail_last] makes the last line step raise,
    which the ACC answers with the compensating step. *)

type env = {
  gen : Random_gen.t;
  params : Params.t;
  skewed_district : bool;
  min_items : int;
  max_items : int;
  new_order_abort_rate : float;  (** spec: 0.01 *)
  remote_customer_rate : float;
      (** fraction of payments made for a customer of another warehouse
          (spec §2.5.1.2: 0.15); inert with a single warehouse *)
  remote_item_rate : float;
      (** per-line probability of drawing stock from another warehouse
          (spec §2.4.1.5: 0.01); inert with a single warehouse *)
  pace : unit -> unit;
      (** called between successive SQL statements — the experiment knob
          "adding compute time between successive SQL statements" *)
}

val default_env : ?seed:int -> Params.t -> env

(** {1 Generated inputs} *)

type new_order_input = {
  no_w : int;
  no_d : int;
  no_c : int;
  no_items : (int * int * int) list;
      (** (item id, quantity, supplying warehouse), distinct items; the
          supplying warehouse differs from [no_w] for ~1% of lines *)
  no_fail_last : bool;
}

type customer_selector =
  | By_id of int
  | By_last_name of string
      (** the spec's 60% case: resolve via the last-name index, choosing the
          midpoint of the matches (Rev 3.1 §2.5.2.2) *)

type payment_input = {
  p_w : int;  (** warehouse taking the payment *)
  p_d : int;
  p_c_w : int;  (** the customer's warehouse; <> [p_w] for 15% of payments *)
  p_c_d : int;
  p_customer : customer_selector;
  p_amount : float;
}

type order_status_input = { os_w : int; os_d : int; os_customer : customer_selector }

type delivery_input = { dl_w : int; dl_carrier : int }

type stock_level_input = { sl_w : int; sl_d : int; sl_threshold : int }

type input =
  | New_order of new_order_input
  | Payment of payment_input
  | Order_status of order_status_input
  | Delivery of delivery_input
  | Stock_level of stock_level_input

val txn_name : input -> string

val gen_input : env -> input
(** Draw a transaction from the standard mix
    (45 / 43 / 4 / 4 / 4 % for new-order / payment / order-status /
    delivery / stock-level). *)

val gen_new_order : env -> new_order_input
val gen_payment : env -> payment_input

(** {1 The static ACC workload} *)

val workload : Acc_core.Program.workload
val interference : Acc_core.Interference.t
val semantics : Acc_lock.Mode.semantics
val forward_step_count : int
(** = 11, the paper's "eleven distinct forward step types". *)

val no_comp : Acc_core.Program.step_def
(** new_order's compensating step (cancel-order); {!Recovery_comp}
    registers {!new_order_compensate} under its design-time id. *)

val no_reads : Acc_core.Program.step_def
(** new_order's first forward step (reads + order counter); named so
    {!Dist_txns} can extend the counter's interference compatibility to the
    partitioned home branch. *)

val a_no_seq : Acc_core.Assertion.t
(** the order-counter sequencing assertion, for the same reason. *)

val pay_comp : Acc_core.Program.step_def
(** payment's compensating step (refund). *)

val dl_comp : Acc_core.Program.step_def
(** delivery's compensating step (undeliver). *)

(** {1 Compensating bodies}

    One per compensable type, each reading only
    {!Acc_txn.Executor.work_area}: the instances pass them as
    [~compensate], and {!Recovery_comp} registers the same functions with
    {!Acc_core.Replay}, so an inline abort and crash replay run one body. *)

val new_order_compensate : Acc_txn.Executor.ctx -> completed:int -> unit
(** Cancel the order: a burnt order number becomes a cancelled header; the
    committed lines (point-keyed, capped by the area's line count [n]) give
    their stock back — where the supplying warehouse is in this database —
    and go, the header is marked cancelled and the queue row dropped.  Also
    the body of the partitioned home branch {!Dist_txns} runs. *)

val new_order_area : w:int -> d:int -> o:int -> c:int -> n:int -> (string * Acc_relation.Value.t) list
(** new_order's work area: warehouse, district, drawn order id, customer and
    line count. *)

val payment_compensate : Acc_txn.Executor.ctx -> completed:int -> unit
(** Refund the warehouse and district ytd bumps the completed steps made,
    and after step 3 the customer update and its history row.  Also the body
    of the partitioned home branch, whose two steps are payment's first
    two. *)

val delivery_compensate : Acc_txn.Executor.ctx -> completed:int -> unit
(** Undeliver every order the work area lists, newest first. *)

val reset_history_seq : unit -> unit
(** Reset the process-wide surrogate history-key sequence.  Call before a
    run whose final state must be comparable with another run of the same
    inputs (the crash-equivalence property test). *)

val next_history_id : unit -> int
(** Draw the next surrogate history key (shared with the partitioned
    payment branches, which insert history rows of their own). *)

(** {1 Shared SQL-ish pieces, reused by the partitioned branch programs} *)

val resolve_customer :
  Acc_txn.Executor.ctx -> w:int -> d:int -> customer_selector -> int
(** Resolve a selector to a customer id ([By_last_name] probes the index and
    picks the spec's midpoint match; raises
    {!Acc_txn.Txn_effect.Abort_requested} on an unknown name). *)

val draw_stock : Acc_txn.Executor.ctx -> supply:int -> item:int -> qty:int -> unit
(** The new-order stock draw: quantity decrement with the spec's +91 restock
    rule, s_ytd and s_order_cnt bumped. *)

val undo_stock : Acc_txn.Executor.ctx -> supply:int -> item:int -> qty:int -> unit
(** Exact inverse of {!draw_stock}. *)

(** {1 Step bodies, shared with the partitioned branch programs}

    {!Dist_txns}' home and remote-customer branches run these same bodies
    under their own step types. *)

type no_ws = { mutable o_id : int }
(** new_order's workspace: the order id its first step draws. *)

val no_step1 : env -> new_order_input -> no_ws -> Acc_txn.Executor.ctx -> unit
(** Read the warehouse, advance the district's order counter (drawing the
    order id), read the customer. *)

val no_step2 : env -> new_order_input -> no_ws -> Acc_txn.Executor.ctx -> unit
(** Insert the order header and its new-order queue row. *)

val no_step_line :
  env ->
  new_order_input ->
  no_ws ->
  ln:int ->
  last:bool ->
  item:int ->
  qty:int ->
  supply:int ->
  draw:bool ->
  Acc_txn.Executor.ctx ->
  unit
(** Order line [ln]: read the item, draw the stock when [draw], insert the
    line.  Raises {!Acc_txn.Txn_effect.Abort_requested} on the [last] line
    of an input generated to fail. *)

val no_step_final : new_order_input -> no_ws -> Acc_txn.Executor.ctx -> unit
(** Re-read the order header. *)

type pay_ws = { mutable h_id : int; mutable w_customer : int }
(** payment's workspace: the history key and the resolved customer id. *)

val pay_step1 : env -> payment_input -> Acc_txn.Executor.ctx -> unit
(** Add the amount to the warehouse's ytd. *)

val pay_step2 : env -> payment_input -> Acc_txn.Executor.ctx -> unit
(** Add the amount to the district's ytd. *)

val pay_step3 : env -> payment_input -> pay_ws -> Acc_txn.Executor.ctx -> unit
(** Resolve and charge the customer, insert the history row. *)

(** {1 Programs} *)

val instance : env -> input -> Acc_core.Program.instance
(** The input's program.  New-order, payment and delivery run it through
    {!Acc_core.Runtime.run}; order-status and stock-level are single steps,
    which {!run_acc} runs through the legacy full-isolation path and at READ
    COMMITTED. *)

val run_acc :
  ?options:Acc_core.Runtime.options ->
  ?stop:(unit -> bool) ->
  Acc_txn.Executor.t -> env -> input ->
  Acc_core.Runtime.outcome
(** Dispatch one transaction under the ACC regime: decomposed types through
    the runtime, order-status through the legacy path, stock-level as a flat
    read-committed transaction.  [stop] bounds drain: once it returns [true]
    no new step is issued and no victim/timeout retry is attempted (see
    {!Acc_core.Runtime.run}). *)

val run_flat :
  ?stop:(unit -> bool) ->
  Acc_txn.Executor.t -> env -> input -> [ `Committed | `Aborted ]
(** Dispatch one transaction under the baseline regime: the input's program
    run back to back as one strict-2PL transaction, with [env.pace] called
    between consecutive steps (retry on deadlock or lock timeout, abort on
    the 1% rule).  A [stop] that turns [true] during a retry converts it
    into [`Aborted]. *)
