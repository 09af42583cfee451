type series = { name : string; points : Experiment.point list }

type figure = {
  fig_id : string;
  title : string;
  paper_claim : string;
  series : series list;
}

let terminals_axis = [ 5; 10; 20; 30; 40; 50; 60 ]
let quick_axis = [ 10; 40 ]

let trim ~quick settings =
  if quick then
    {
      settings with
      Experiment.seeds = [ List.hd settings.Experiment.seeds ];
      horizon = 150.0;
      warmup = 20.0;
    }
  else settings

let axis ~quick = if quick then quick_axis else terminals_axis
let sweep ~quick settings = Experiment.sweep_terminals settings (axis ~quick)

(* The standard mix: uniform districts, no compute between statements.
   Figures 2, 3 and 4 each plot it; the [_of] functions take it as [std]. *)
let standard ~quick settings =
  sweep ~quick { settings with Experiment.skewed = false; compute_between = 0.0 }

let fig2_of ~quick settings std =
  let skew = sweep ~quick { settings with Experiment.skewed = true } in
  {
    fig_id = "fig2";
    title = "Figure 2: The Effect of Hotspots (response-time ratio non-ACC/ACC)";
    paper_claim =
      "crossover ~20 terminals; at 60 terminals the unmodified system is >40% slower \
       (ratio ~1.4), and ~60% slower under a skewed district distribution (~1.6)";
    series = [ { name = "standard"; points = std }; { name = "skewed"; points = skew } ];
  }

let fig3_of ~quick settings std =
  let with_compute = sweep ~quick { settings with Experiment.compute_between = 0.004 } in
  {
    fig_id = "fig3";
    title = "Figure 3: The Effect of Transaction Duration (response-time ratio)";
    paper_claim =
      "adding several ms of compute time between successive SQL statements raises the \
       ratio to ~1.8 at 60 terminals; the no-compute curve matches Figure 2's standard curve";
    series =
      [
        { name = "w/o compute time"; points = std };
        { name = "with compute time"; points = with_compute };
      ];
  }

let fig4_of std =
  {
    fig_id = "fig4";
    title = "Figure 4: Response Time and Throughput (both ratios, standard mix)";
    paper_claim =
      "the response-time ratio rises above 1 with terminals while the throughput ratio \
       (completed non-ACC / completed ACC) falls below 1: the ACC both responds faster \
       and completes more";
    series = [ { name = "standard"; points = std } ];
  }

let fig2 ?(quick = false) settings =
  let settings = trim ~quick settings in
  fig2_of ~quick settings (standard ~quick settings)

let fig3 ?(quick = false) settings =
  let settings = trim ~quick settings in
  fig3_of ~quick settings (standard ~quick settings)

let fig4 ?(quick = false) settings = fig4_of (standard ~quick (trim ~quick settings))

let figs_2_to_4 ~quick settings =
  let settings = trim ~quick settings in
  let std = standard ~quick settings in
  let fig2 = fig2_of ~quick settings std in
  let fig3 = fig3_of ~quick settings std in
  [ fig2; fig3; fig4_of std ]

let servers ?(quick = false) settings =
  let settings = trim ~quick settings in
  let settings = { settings with Experiment.terminals = 40 } in
  let pts = Experiment.sweep_servers settings (if quick then [ 1; 3 ] else [ 1; 2; 3; 4 ]) in
  {
    fig_id = "servers";
    title = "Fourth experiment (Sec 5.3): database-server count at 40 terminals";
    paper_claim =
      "with a single server the server is the bottleneck and the ACC performs slightly \
       worse; with multiple servers lock contention dominates and the ACC wins";
    series = [ { name = "servers 1-4"; points = pts } ];
  }

let items ?(quick = false) settings =
  let settings = trim ~quick settings in
  let settings = { settings with Experiment.terminals = 40 } in
  (* (15,25) drives the flat baseline into a deadlock-retry storm (half-hour
     runs of mostly-wasted work) — itself a finding, reported in
     EXPERIMENTS.md, but too heavy for the default sweep *)
  let ranges = if quick then [ (5, 15); (10, 20) ] else [ (3, 7); (5, 15); (10, 20) ] in
  let pts =
    List.map
      (fun items_range -> Experiment.measure { settings with Experiment.items_range })
      ranges
  in
  {
    fig_id = "items";
    title = "Supplementary (Sec 5.2): items per order at 40 terminals";
    paper_claim =
      "lock duration was varied two ways: compute time between statements (Figure 3) and        the number of items in an order; longer new-orders hold their locks longer,        growing the ACC's advantage";
    series = [ { name = "items/order sweep"; points = pts } ];
  }

let ablation ?(quick = false) settings =
  let settings = trim ~quick settings in
  let ax = if quick then [ 25 ] else [ 10; 25; 40 ] in
  let sweep variant = Experiment.sweep_terminals ~variant settings ax in
  {
    fig_id = "ablation";
    title = "Ablations: one-level vs two-level ACC; with vs without commutativity facts";
    paper_claim =
      "Sec 3.2 argues the one-level design eliminates the two-level design's false \
       conflicts via run-time item identity. In the TPC-C mix those false conflicts \
       mostly hit delivery and admission-style assertions, so the aggregate response \
       effect is mixed: table-granularity locking saves per-tuple lock calls and can \
       even look faster at saturation, while its deadlock/compensation counts explode \
       (wasted work). The crisp demonstration of the one-level advantage is \
       behavioural: the 'two-level ablation: false conflict' test. Dropping the \
       hand-proved commutativity facts costs little at these parameters: the counter \
       assertion's window is two steps.";
    series =
      [
        { name = "one-level (paper)"; points = sweep Experiment.One_level };
        { name = "two-level (table locks)"; points = sweep Experiment.Two_level };
        { name = "no commutativity facts"; points = sweep Experiment.No_commutativity };
      ];
  }

let x_label fig (p : Experiment.point) =
  if fig.fig_id = "servers" || fig.fig_id = "items" then p.Experiment.p_label
  else string_of_int p.Experiment.p_terminals

let render ppf fig =
  Format.fprintf ppf "@.=== %s ===@." fig.title;
  Format.fprintf ppf "paper: %s@." fig.paper_claim;
  List.iter
    (fun s ->
      Format.fprintf ppf "@.  series: %s@." s.name;
      Format.fprintf ppf "  %-14s %10s %10s %10s %10s %10s %10s %8s %8s@." "x" "base-resp"
        "acc-resp" "resp-ratio" "tput-ratio" "base-wait" "acc-wait" "acc-dl" "acc-comp";
      List.iter
        (fun p ->
          Format.fprintf ppf "  %-14s %10.4f %10.4f %10.3f %10.3f %10.4f %10.4f %8.1f %8.1f@."
            (x_label fig p) p.Experiment.p_base.Experiment.s_response
            p.Experiment.p_acc.Experiment.s_response
            (Experiment.response_ratio p) (Experiment.throughput_ratio p)
            p.Experiment.p_base.Experiment.s_lock_wait p.Experiment.p_acc.Experiment.s_lock_wait
            p.Experiment.p_acc.Experiment.s_deadlocks
            p.Experiment.p_acc.Experiment.s_compensations)
        s.points)
    fig.series

let render_csv ppf fig =
  Format.fprintf ppf "figure,series,x,base_response,acc_response,response_ratio,throughput_ratio@.";
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Format.fprintf ppf "%s,%s,%s,%.6f,%.6f,%.6f,%.6f@." fig.fig_id s.name (x_label fig p)
            p.Experiment.p_base.Experiment.s_response p.Experiment.p_acc.Experiment.s_response
            (Experiment.response_ratio p) (Experiment.throughput_ratio p))
        s.points)
    fig.series

let consistency_violations fig =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc p ->
          acc + p.Experiment.p_base.Experiment.s_violations
          + p.Experiment.p_acc.Experiment.s_violations)
        acc s.points)
    0 fig.series
