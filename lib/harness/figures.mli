(** The paper's evaluation artifacts (§5.3), regenerated.

    Each figure returns its measured series and renders the same quantity the
    paper plots: the ratio of the unmodified system's metric to the ACC's, as
    a function of the number of terminals on one warehouse with ten
    districts. *)

type series = { name : string; points : Experiment.point list }

type figure = {
  fig_id : string;  (** "fig2", "fig3", "fig4", "servers" *)
  title : string;
  paper_claim : string;  (** what the paper reports, for side-by-side reading *)
  series : series list;
}

val terminals_axis : int list
(** 5, 10, 20, 30, 40, 50, 60 — the paper's 0–60 abscissa. *)

val fig2 : ?quick:bool -> Experiment.settings -> figure
(** Figure 2, "The Effect of Hotspots": standard vs skewed district
    selection. [quick] trims the axis and seeds for smoke runs. *)

val fig3 : ?quick:bool -> Experiment.settings -> figure
(** Figure 3, "The Effect of Transaction Duration": with vs without
    inter-statement compute time. *)

val fig4 : ?quick:bool -> Experiment.settings -> figure
(** Figure 4, "Response Time and Throughput": both ratios, standard mix. *)

val figs_2_to_4 : quick:bool -> Experiment.settings -> figure list
(** [[fig2; fig3; fig4]], each as its own function builds it, from one run
    of the standard sweep (uniform districts, no compute time) that all
    three plot. *)

val servers : ?quick:bool -> Experiment.settings -> figure
(** The §5.3 fourth experiment: database-server count 1–4 at a fixed,
    contended terminal count. *)

val items : ?quick:bool -> Experiment.settings -> figure
(** Supplementary (described in §5.2 but not plotted): the second way the
    paper lengthens lock holds — more items per order — at a fixed terminal
    count. *)

val ablation : ?quick:bool -> Experiment.settings -> figure
(** Not in the paper: the design-choice ablations DESIGN.md calls out —
    the two-level ACC of §3.2 (table-granularity assertional locks) and the
    analysis without the hand-proved commutativity facts, each against the
    one-level design. *)

val render : Format.formatter -> figure -> unit
(** Human-readable table with response (and where applicable throughput)
    ratios per point, plus the paper's claim. *)

val render_csv : Format.formatter -> figure -> unit
(** The same quantities as {!render}, one CSV row per point. *)

val consistency_violations : figure -> int
(** Total consistency violations across every run of the figure (semantic
    correctness demands 0). *)
