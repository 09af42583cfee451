(* Shared CLI plumbing for the driver binaries (acc-tpcc-run,
   acc-tpcc-parallel, acc-crash-restart): workload selection against the
   plugin registry, trace collection, and metrics exposition — previously
   copy-pasted per binary.

   Workload selection: [--workload NAME] picks any registered
   {!Acc_workload.S} plugin (the two drivers default to TPC-C);
   [--scale]/[--theta]/[--mix]/[--abort-rate] populate the
   {!Acc_workload.spec} it is built from. *)

open Cmdliner
module Trace_events = Acc_obs.Trace

(* ------------------------------------------------------------------ *)
(* Workload selection *)

let ensure_registered () =
  Acc_workload.Builtin.ensure ();
  Acc_tpcc.Tpcc_workload.register ()

let print_workloads () =
  ensure_registered ();
  List.iter
    (fun (name, doc) -> Printf.printf "%-18s %s\n" name doc)
    (Acc_workload.Registry.names ())

(* [resolve] is the one place a workload name becomes a plugin value. *)
let resolve ~scale ~theta ?mix ?abort_rate name =
  ensure_registered ();
  match Acc_workload.Registry.find name with
  | Some make -> make { Acc_workload.scale; skew = theta; mix; abort_rate }
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (List.map fst (Acc_workload.Registry.names ()))))

let workload_doc = "Run this registered workload plugin (see --list-workloads for the menu)."

let workload_arg =
  Arg.(value & opt string "tpcc" & info [ "workload" ] ~docv:"NAME" ~doc:workload_doc)

(* the crash harness's variant: without --workload it crashes its own
   default profile *)
let workload_opt_arg =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:workload_doc)

let list_workloads_arg =
  Arg.(value & flag & info [ "list-workloads" ] ~doc:"List registered workloads and exit.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"N"
        ~doc:"Workload scale factor (rows, accounts, warehouses — \
              workload-defined).")

let theta_arg =
  Arg.(
    value & opt float 0.
    & info [ "theta" ] ~docv:"T"
        ~doc:"Access-skew knob in [0,1): Zipfian theta where the workload \
              supports it (hotspot defaults to 0.9); for TPC-C any value \
              above 0 skews district selection (hotspot).")

let wl_mix_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mix" ] ~docv:"MIX"
        ~doc:"Transaction mix, workload-defined (e.g. tpcc: standard, nop \
              (new-order/payment 50/50); smallbank: standard, write-skew; \
              tatp: standard, update-heavy).")

let wl_abort_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "abort-rate" ] ~docv:"P"
        ~doc:"Forced-abort probability for workloads that support it \
              (default is each workload's own: 0.01 for tpcc, typically \
              0.02).")

(* ------------------------------------------------------------------ *)
(* Trace collection, shared by the three driver binaries.

   A trace is requested either with the --trace/--trace-chrome flags (where
   a binary exposes them) or the ACC_TRACE / ACC_TRACE_CHROME environment
   variables.  Flags win over the environment.  With neither set, no sink is
   installed and every emission site in the engine stays on its no-op path. *)

module Trace = struct
  type t = { jsonl : string option; chrome : string option }

  (* version of the trace_meta stamp line; bumped with Bench_json since the
     consumers (acc-trace-check, acc-trace-profile) track both formats *)
  let meta_version = 4

  let configure ?(jsonl = None) ?(chrome = None) () =
    let pick flag env = match flag with Some _ -> flag | None -> Sys.getenv_opt env in
    let t = { jsonl = pick jsonl "ACC_TRACE"; chrome = pick chrome "ACC_TRACE_CHROME" } in
    if t.jsonl <> None || t.chrome <> None then begin
      (* ACC_TRACE_CAP sizes the per-domain ring; raise it when a long run
         must complete with dropped = 0 (the CI smoke test does) *)
      let capacity = Option.bind (Sys.getenv_opt "ACC_TRACE_CAP") int_of_string_opt in
      Trace_events.start ?capacity ()
    end;
    t

  let active t = t.jsonl <> None || t.chrome <> None

  (* [workload] stamps the JSONL trace with a leading trace_meta line so
     offline consumers know which workload's step ids they are decoding *)
  let finish ?workload t =
    if active t then begin
      let dump = Trace_events.stop () in
      let write path f =
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc dump)
      in
      Option.iter
        (fun p ->
          write p (fun oc dump ->
              (match workload with
              | Some w ->
                  Printf.fprintf oc
                    {|{"ev":"trace_meta","schema_version":%d,"workload":"%s"}|}
                    meta_version w;
                  output_char oc '\n'
              | None -> ());
              Trace_events.write_jsonl oc dump))
        t.jsonl;
      Option.iter (fun p -> write p Trace_events.write_chrome) t.chrome;
      Format.printf "trace: %d events captured, %d dropped%s%s@."
        (List.length dump.Trace_events.events)
        dump.Trace_events.dropped
        (match t.jsonl with Some p -> ", jsonl -> " ^ p | None -> "")
        (match t.chrome with Some p -> ", chrome -> " ^ p | None -> "")
    end

  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL event trace to FILE (also: ACC_TRACE env var).")

  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-chrome" ] ~docv:"FILE"
          ~doc:"Write a chrome://tracing JSON trace to FILE (also: \
                ACC_TRACE_CHROME env var).")
end

(* ------------------------------------------------------------------ *)
(* Metrics exposition *)

let metrics_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-dump" ] ~docv:"FILE"
        ~doc:"Write the metric registry as Prometheus text format to FILE, \
              refreshed every 250 ms while the run is live and once more \
              at its end.")

(* Refresh the exposition on the engines' snapshot cadence while the run is
   live; the returned closure uninstalls the hook and writes the final
   values. *)
let metrics_live = function
  | None -> fun () -> ()
  | Some path ->
      Acc_parallel.Engine.set_snapshot_hook
        (Some (0.25, fun () -> Acc_obs.Prom.dump_file path));
      fun () ->
        Acc_parallel.Engine.set_snapshot_hook None;
        Acc_obs.Prom.dump_file path;
        Format.printf "wrote %s@." path
