#!/usr/bin/env python3
"""Closed-loop ACC-vs-2PL benchmark.

Builds perfbench/cell.exe from the checkout's sources, then runs each
(workload, system) cell as its own child process under a wall-clock guard
and aggregates the cells' JSON results.

    python3 perfbench/run.py                      # every workload: untraced
                                                  # end-to-end pass, then the
                                                  # traced per-layer pass
    python3 perfbench/run.py --workload tpcc-paced --seed 3 --seconds 30 --trace 0

With --workload, the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  The command exits
non-zero on a consistency violation, a leaked lock or waiter, a dropped
trace event, a p99 resting on fewer than 10 samples beyond it, or a cell
the guard had to stop (its threads are saved to .bench_out/ first).  The
reasoning behind the workloads and metrics is in perfbench/WORKLOADS.md.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
CELL = os.path.join(BUILD, "default", "perfbench", "cell.exe")

# A --workload run must end within 180 s: its cells share this budget,
# counted from the end of the build.  The no-argument mode runs every
# workload's two passes, each the work of one --workload run, and gives each
# pass a budget of its own.
BUDGET_S = 170.0

# A cell cut off by the budget before its own limit is called hung only if,
# over one second, no client finished a transaction and no thread used this
# many CPU ticks (1/100 s each).  The engine's detector and watchdog, which
# keep running in a wedge, wake every 20 ms and 5 ms and use far less.
BUSY_TICKS = 10

# Each cell's p99 must rest on at least this many samples beyond it.
MIN_BEYOND_P99 = 10

# setup_s is the median of at least this many setups.
MIN_SETUPS = 3

# Duration-bound cells measure --seconds each; fixed-sequence cells run
# txns_per_s * --seconds transactions, the same sequence for a given seed
# whatever the build's speed.  The end-to-end pass splits that work over
# `cells` processes per system, run alternately (acc, 2pl, acc, 2pl, ...),
# and averages their figures; the per-layer pass runs trace_share of it per
# cell, untraced and traced.  `clock` is the clock timings are read on:
# "wall" where clients mostly sleep or wait, "cpu" (the client thread's CPU
# clock) where one client never waits and its response time is CPU work.
WORKLOADS = {
    "tpcc-paced": {"txns_per_s": None, "cells": 1, "trace_share": 0.25, "clock": "wall"},
    "tpcc-1client": {"txns_per_s": 540, "cells": 2, "trace_share": 0.25, "clock": "cpu"},
}
SYSTEMS = ["acc", "2pl"]
TPCC_TYPES = ["new_order", "payment", "delivery", "order_status", "stock_level"]

E2E = [("commit_per_s", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
       ("ok_frac", "frac"), ("cpu_ms_per_commit", "ms"), ("mem_mb", "MB")]

# per-system per-layer metrics: (name, unit, source)
LAYER = [
    ("lock.requests_per_commit", "count", ("t", "trace", "lock_requests_per_commit")),
    ("lock.fast_hit_frac", "frac", ("t", "lock", "fast_hit_frac")),
    ("lock.mutex_acq_per_commit", "count", ("t", "lock", "mutex_acq_per_commit")),
    ("lock.waits_per_commit", "count", ("t", "lock", "waits_per_commit")),
    ("lock.wait_p99_ms", "ms", ("t", "lock", "wait_p99_ms")),
    ("lock.victims_per_kcommit", "count", ("t", "lock", "victims_per_kcommit")),
    ("phase.lock_wait.p99_ms", "ms", ("t", "trace", "lock_wait_p99_ms")),
    ("conflict.false_per_commit", "count", ("t", "conflict", "false_per_commit")),
    ("conflict.true_per_commit", "count", ("t", "conflict", "true_per_commit")),
    ("step.per_commit", "count", ("t", "trace", "steps_per_commit")),
    ("assert.attaches_per_commit", "count", ("t", "trace", "attaches_per_commit")),
    ("assert.checks_per_commit", "count", ("t", "trace", "checks_per_commit")),
    ("comp.per_kcommit", "count", ("t", "trace", "comps_per_kcommit")),
    ("txn.begins_per_commit", "count", ("t", "trace", "begins_per_commit")),
    ("phase.execute.p50_ms", "ms", ("t", "trace", "execute_p50_ms")),
    ("wal.records_per_commit", "count", ("t", "wal", "records_per_commit")),
    ("wal.flushes_per_commit", "count", ("t", "wal", "flushes_per_commit")),
    ("phase.wal_append.p50_us", "us", ("t", "trace", "wal_append_p50_us")),
    ("gen.us_per_txn", "us", ("t", "gen_us_per_txn")),
    ("gc.minor_words_per_commit", "count", ("u", "gc_minor_words_per_commit")),
    ("gc.major_per_kcommit", "count", ("u", "gc_major_per_kcommit")),
]
LADDER = [
    ("ladder.table_get_ns", "ns"), ("ladder.table_update_ns", "ns"),
    ("ladder.ol_range_scan_us", "us"), ("ladder.lock_s_ns", "ns"),
    ("ladder.lock_x_ns", "ns"), ("ladder.lock_x_past_assert_ns", "ns"),
    ("ladder.interference_ns", "ns"), ("ladder.wal_append_ns", "ns"),
    ("ladder.flat_2op_us", "us"), ("ladder.acc_2step_us", "us"),
    ("ladder.2pc_round_us", "us"),
]

E2E_NAMES = [("setup_s", "s")] + [(f"{s}.{m}", u) for s in SYSTEMS for m, u in E2E]


def layer_names():
    names = []
    for sys_ in SYSTEMS:
        names += [(f"{sys_}.{m}", u) for m, u, _ in LAYER]
        names += [(f"{sys_}.setup.populate_s", "s"), (f"{sys_}.setup.engine_s", "s"),
                  (f"{sys_}.trace.overhead_frac", "frac"), (f"{sys_}.trace.dropped", "count")]
        for t in TPCC_TYPES:
            names += [(f"{sys_}.type.{t}.p50_ms", "ms"), (f"{sys_}.type.{t}.p99_ms", "ms")]
    return names + LADDER


# ---------------------------------------------------------------- build


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at the checkout root; nothing to build")
    if shutil.which("dune") is None:
        sys.exit("perfbench: dune not found")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "release",
           "./perfbench/cell.exe"]
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.isfile(CELL):
        sys.stderr.write(p.stdout)
        sys.exit(f"perfbench: build failed ({p.returncode})")


# ---------------------------------------------------------------- cells


class Stopped(Exception):
    """A cell the guard killed: "hung", or "over budget" when the run's
    budget ran out first and the cell was still making progress."""

    def __init__(self, cell, verdict, attempted, report):
        super().__init__(cell)
        self.cell, self.verdict, self.attempted, self.report = cell, verdict, attempted, report


class CellFailed(Exception):
    pass


def thread_snapshot(pid):
    """(tid, comm, state, wchan, utime+stime ticks) for every thread."""
    rows = []
    for task in sorted(glob.glob(f"/proc/{pid}/task/*")):
        try:
            with open(os.path.join(task, "stat")) as f:
                stat = f.read()
            with open(os.path.join(task, "wchan")) as f:
                wchan = f.read().strip() or "0"
            comm = stat[stat.index("(") + 1:stat.rindex(")")]
            fields = stat[stat.rindex(")") + 2:].split()
            rows.append((os.path.basename(task), comm, fields[0], wchan,
                         int(fields[11]) + int(fields[12])))
        except (OSError, ValueError, IndexError):
            pass
    return rows


def read_progress(d):
    """(attempted, ok) summed over the cell's per-client progress files."""
    attempted = ok = 0
    for f in glob.glob(os.path.join(d, "client*")):
        try:
            with open(f) as fh:
                a, o = fh.read().split()[:2]
            attempted, ok = attempted + int(a), ok + int(o)
        except (OSError, ValueError):
            pass
    return attempted, ok


class Runner:
    def __init__(self, seed, seconds):
        self.seed, self.seconds = seed, seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.done = []  # every finished child's result
        self.problems = []
        self.env = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))
        os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    def child(self, name, args, limit):
        """Run cell.exe with [args] under its wall-clock [limit], or until the
        run's budget is spent if that comes first; return its JSON."""
        tag = f"{name}-seed{self.seed}"
        left = self.deadline - time.monotonic()
        if left < 2.0:
            raise Stopped(name, "over budget", 0,
                          f"cell {name} not started: the run's {BUDGET_S:.0f} s budget is spent\n")
        cutoff = min(limit, left - 1.0)  # the guard's report takes a second
        out = os.path.join(OUT, f"{tag}.json")
        prog = os.path.join(OUT, f"{tag}.progress")
        shutil.rmtree(prog, ignore_errors=True)
        os.makedirs(prog)
        if os.path.exists(out):
            os.remove(out)
        argv = [CELL, "-seed", str(self.seed), "-progress", prog, "-out", out] + args
        with open(os.path.join(OUT, f"{tag}.log"), "w") as log:
            p = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                 stderr=subprocess.STDOUT)
            try:
                t0 = time.monotonic()
                while p.poll() is None:
                    if time.monotonic() - t0 > cutoff:
                        raise self.stop(p.pid, name, prog, limit, cutoff)
                    time.sleep(0.05)
            finally:
                # a stopped cell, or this runner being stopped, never leaves
                # the child behind
                if p.poll() is None:
                    p.kill()
                    p.wait()
        if p.returncode != 0 or not os.path.exists(out):
            raise CellFailed(f"cell {name} exited {p.returncode}; see .bench_out/{tag}.log")
        with open(out) as f:
            r = json.load(f)
        r["name"] = name
        self.done.append(r)
        return r

    def stop(self, pid, name, prog, limit, cutoff):
        """Save every thread's state, wchan and CPU ticks twice, one second
        apart, and say why the cell is stopped.  Past its own limit a cell is
        hung.  Cut off earlier by the run's budget, it is hung only if in that
        second no client finished a transaction and no thread was busy."""
        first, done0 = thread_snapshot(pid), read_progress(prog)
        time.sleep(1.0)
        second, done1 = {r[0]: r for r in thread_snapshot(pid)}, read_progress(prog)
        rows = [(row, (second[row[0]][4] - row[4]) if row[0] in second else 0) for row in first]
        busy = sum(1 for _, delta in rows if delta >= BUSY_TICKS)
        if cutoff >= limit:
            verdict, why = "hung", f"passed its {limit:.0f} s wall-clock limit"
        elif done1 == done0 and busy == 0:
            verdict, why = "hung", (f"was cut off by the run's {BUDGET_S:.0f} s budget after "
                                    f"{cutoff:.0f} s, and in the last second no client finished "
                                    "a transaction and no thread was busy")
        else:
            verdict, why = "over budget", (
                f"was cut off by the run's {BUDGET_S:.0f} s budget after {cutoff:.0f} s "
                f"(its own limit is {limit:.0f} s) while still making progress: "
                f"{done1[0] - done0[0]} transactions finished and {busy} thread(s) busy "
                "in the last second")
        lines = [f"cell {name} (pid {pid}) {why}",
                 f"{'tid':>8} {'comm':<16} st {'wchan':<24} ticks  +1s"]
        for (tid, comm, state, wchan, ticks), delta in rows:
            lines.append(f"{tid:>8} {comm:<16} {state}  {wchan:<24} {ticks:>5} {delta:>+4}")
        text = "\n".join(lines) + "\n"
        kind = "hung" if verdict == "hung" else "over-budget"
        with open(os.path.join(OUT, f"{kind}-{name}-seed{self.seed}.txt"), "w") as f:
            f.write(text)
        return Stopped(name, verdict, done1[0], text)

    def cell(self, workload, system, traced, share, part=0):
        """One cell; [share] of the run's work (a window or a transaction
        count).  [part] tells apart the cells of one system in one pass."""
        spec = WORKLOADS[workload]
        args = ["-mode", "cell", "-workload", workload, "-system", system,
                "-trace", "1" if traced else "0"]
        if spec["txns_per_s"]:
            txns = max(1, int(spec["txns_per_s"] * self.seconds * share))
            args += ["-txns", str(txns)]
            limit = 30 + txns / 150  # ACC runs ~1 200 txn/s on a 2-vCPU VM
        else:
            window = self.seconds * share
            args += ["-seconds", str(window)]
            limit = 40 + window
        name = f"{workload}-{system}" + ("-traced" if traced else "") + (f"-{part}" if part else "")
        if traced:
            args += ["-spans", os.path.join(OUT, f"spans-{name}-seed{self.seed}.jsonl")]
        return self.child(name, args, limit)

    def setup_only(self, workload, system, part):
        args = ["-mode", "setup", "-workload", workload, "-system", system]
        return self.child(f"{workload}-{system}-setup-{part}", args, 60)

    def ladder(self, workload):
        return self.child(f"{workload}-ladder", ["-mode", "ladder", "-workload", workload], 90)


def cell_problems(name, r):
    problems = [f"{name}: consistency: {v}" for v in r.get("violations", [])]
    if r.get("leaked_locks", 0) or r.get("leaked_waiters", 0):
        problems.append(f"{name}: leaked {r['leaked_locks']} lock(s), "
                        f"{r['leaked_waiters']} waiter(s)")
    if r.get("trace", {}).get("dropped", 0):
        problems.append(f"{name}: trace dropped {r['trace']['dropped']} event(s)")
    return problems


# ---------------------------------------------------------------- passes


def timings(r, clock):
    """A cell's (commits per second, latency summary) on the workload's clock."""
    if clock == "wall":
        return r["commit_per_s"], r["latency"]
    return r["commit_per_cpu_s"], r["latency_cpu"]


def end_to_end(runner, workload):
    """The workload's untraced cells, alternating between the systems, plus
    setup-only children until setup_s is a median of at least MIN_SETUPS
    setups.  A system's figures are the mean over its cells."""
    spec = WORKLOADS[workload]
    k, clock = spec["cells"], spec["clock"]
    cells = {s: [] for s in SYSTEMS}
    for i in range(k):
        for s in SYSTEMS:
            cells[s].append(runner.cell(workload, s, False, 1.0 / k, part=i))
    setups = [r["setup_s"] for rs in cells.values() for r in rs]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup_only(workload, SYSTEMS[0], part=len(setups))["setup_s"])
    metrics = {"setup_s": statistics.median(setups)}
    notes = {"setup_s": f"median of {len(setups)} setups"}
    on = "wall clock" if clock == "wall" else "client CPU clock"
    mean = statistics.fmean
    for system, rs in cells.items():
        rates, lats = zip(*(timings(r, clock) for r in rs))
        committed = sum(r["committed"] for r in rs)
        ok, attempted = sum(r["ok"] for r in rs), sum(r["attempted"] for r in rs)
        metrics[f"{system}.commit_per_s"] = mean(rates)
        metrics[f"{system}.p50_ms"] = mean(l["p50_ms"] for l in lats)
        metrics[f"{system}.p99_ms"] = mean(l["p99_ms"] for l in lats)
        metrics[f"{system}.ok_frac"] = ok / max(1, attempted)
        metrics[f"{system}.cpu_ms_per_commit"] = mean(r["cpu_ms_per_commit"] for r in rs)
        metrics[f"{system}.mem_mb"] = mean(r["mem_mb"] for r in rs)
        per = f" per cell, mean of {k}" if k > 1 else ""
        seconds = sum(r["window_s"] if clock == "wall" else r["client_cpu_s"] for r in rs)
        notes[f"{system}.commit_per_s"] = f"{committed} commits in {seconds:.2f} s, {on}"
        notes[f"{system}.p50_ms"] = f"n={sum(l['p50_n'] for l in lats)} new-orders, {on}"
        notes[f"{system}.p99_ms"] = (f"n={sum(l['n'] for l in lats)} committed, "
                                     f"{'/'.join(str(l['beyond_p99']) for l in lats)} beyond p99{per}, {on}")
        notes[f"{system}.ok_frac"] = f"{ok}/{attempted} as asked"
        notes[f"{system}.cpu_ms_per_commit"] = f"process CPU over {committed} commits"
        notes[f"{system}.mem_mb"] = "VmHWM of the cell's process" + (f", mean of {k}" if k > 1 else "")
        for r, lat in zip(rs, lats):
            if lat["beyond_p99"] < MIN_BEYOND_P99:
                runner.problems.append(f"{r['name']}: p99 rests on {lat['beyond_p99']} samples "
                                       f"beyond it, fewer than {MIN_BEYOND_P99}")
    return metrics, notes


def per_layer(runner, workload):
    """Per system, an untraced and a traced cell of the same length (so
    trace.overhead_frac compares like with like), then the cost ladder."""
    share, clock = WORKLOADS[workload]["trace_share"], WORKLOADS[workload]["clock"]
    untraced = {s: runner.cell(workload, s, False, share) for s in SYSTEMS}
    traced = {s: runner.cell(workload, s, True, share) for s in SYSTEMS}
    ladder = runner.ladder(workload)
    metrics = {}
    for system, t in traced.items():
        u = untraced[system]
        src = {"t": t, "u": u}
        for name, _, path in LAYER:
            v = src[path[0]]
            for key in path[1:]:
                v = v.get(key, {}) if isinstance(v, dict) else {}
            metrics[f"{system}.{name}"] = v if isinstance(v, (int, float)) else 0.0
        metrics[f"{system}.setup.populate_s"] = statistics.median([u["populate_s"], t["populate_s"]])
        metrics[f"{system}.setup.engine_s"] = statistics.median([u["engine_s"], t["engine_s"]])
        metrics[f"{system}.trace.overhead_frac"] = 1.0 - timings(t, clock)[0] / timings(u, clock)[0]
        metrics[f"{system}.trace.dropped"] = t["trace"]["dropped"]
        for typ in TPCC_TYPES:
            row = timings(u, clock)[1]["types"].get(typ, {})
            metrics[f"{system}.type.{typ}.p50_ms"] = row.get("p50_ms", 0.0)
            metrics[f"{system}.type.{typ}.p99_ms"] = row.get("p99_ms", 0.0)
    for name, _ in LADDER:
        metrics[name] = ladder[name[len("ladder."):]]
    return metrics, traced


# ---------------------------------------------------------------- output


def emit_spans(traced):
    """Where each traced cell's time went: total and self time per span name."""
    for system, t in traced.items():
        spans = t["spans"]
        print(f"  -- {system} spans ({spans['attached']} program transactions attached to "
              f"calls, {spans['unattached']} not): name, count, total ms, self ms")
        for name, row in spans["by_name"].items():
            print(f"     {name:<28} {row['n']:>8} {row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")


def emit(title, names, metrics, notes=None):
    print(f"== {title}")
    for name, unit in names:
        note = (notes or {}).get(name, "")
        print(f"  {name:<40} {metrics.get(name, 0.0):>14.6g} {unit:<6} {note}")


def measure(runner, workload, trace):
    """One --workload run's work; prints its table and returns (names, metrics)."""
    if trace == 0:
        metrics, notes = end_to_end(runner, workload)
        emit(f"{workload} end to end (seed {runner.seed})", E2E_NAMES, metrics, notes)
        return E2E_NAMES, metrics
    metrics, traced = per_layer(runner, workload)
    emit(f"{workload} per layer (seed {runner.seed})", layer_names(), metrics)
    emit_spans(traced)
    return layer_names(), metrics


def count(runner):
    """(attempted, failed) over the runner's finished cells."""
    cells = [c for c in runner.done if "attempted" in c]
    attempted = sum(c["attempted"] for c in cells)
    return attempted, attempted - sum(c["ok"] for c in cells)


def problems_of(runner):
    problems = runner.problems + [p for c in runner.done for p in cell_problems(c["name"], c)]
    for p in problems:
        sys.stderr.write(f"perfbench: {p}\n")
    return problems


def report_stopped(s):
    sys.stderr.write(s.report)
    sys.stderr.write(f"perfbench: cell {s.cell} {s.verdict}; its {s.attempted} attempted "
                     "transactions count as failed\n")


def run_one(args):
    runner = Runner(args.seed, args.seconds)
    try:
        names, metrics = measure(runner, args.workload, args.trace)
    except Stopped as s:
        report_stopped(s)
        attempted, failed = count(runner)
        print(json.dumps({"correct": False, "attempted": attempted + s.attempted,
                          "failed": failed + s.attempted, "metrics": {}}))
        return 1
    except CellFailed as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    problems = problems_of(runner)
    attempted, failed = count(runner)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in names},
    }))
    return 0 if not problems else 1


def run_all(args):
    """The one-command mode: every workload untraced, then traced."""
    problems = []
    for trace in (0, 1):
        for w in WORKLOADS:
            runner = Runner(args.seed, args.seconds)
            try:
                measure(runner, w, trace)
            except Stopped as s:
                report_stopped(s)
                return 1
            except CellFailed as e:
                sys.stderr.write(f"perfbench: {e}\n")
                return 1
            problems += problems_of(runner)
    return 1 if problems else 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
