(* Registers the workloads that ship with the library.  TPC-C lives in
   acc_tpcc (above this library in the dependency order) and registers
   itself via Tpcc_workload.register; callers that want the full menu go
   through Acc_harness.Cli, which forces both linkages. *)

module W = Workload_intf

let registered = ref false

let ensure () =
  if not !registered then begin
    registered := true;
    W.Registry.register ~name:"smallbank"
      ~doc:"SmallBank: five banking txns; write-skew overdraw is the target anomaly"
      Smallbank.make;
    W.Registry.register ~name:"tatp"
      ~doc:"TATP-style read-mostly subscriber mix with a sequenced location update"
      Tatp.make;
    W.Registry.register ~name:"hotspot"
      ~doc:"Zipfian increments on a small hot set; --theta sets theta (default 0.9)"
      Hotspot.make;
    W.Registry.register ~name:"longreader"
      ~doc:"region-sum ledger audited by long predicate-range readers"
      Long_reader.make;
    W.Registry.register ~name:"order-processing"
      ~doc:"the paper's Sec 4 order scenario: counter gate + admission-locked bills"
      Order_processing.make;
    W.Registry.register ~name:"stock-trading"
      ~doc:"multi-lot buys with no interstep assertions (non-CSR by design)"
      Stock_trading.make
  end
