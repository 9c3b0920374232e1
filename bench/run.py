"""Outside-in benchmark of the ``doubledet`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One client runs ``doubledet`` as a child
process, one invocation after another (a closed loop without concurrency),
and checks every output against the workload's oracle.  After one untimed
import-only warm-up, a run invokes the workload until the next invocation
would, at the median time so far, end after ``--seconds``; it makes at
least one.  The benchmark and its children stay on one CPU, and before
and after every child the benchmark times the host-speed calibration
(``calibrate.py``) on that CPU.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's correct invocations: ``wall_s`` (spawn to exit), ``cpu_s`` (user plus
system time), ``ttfb_s`` (spawn to the first byte of stdout), ``setup_s``
(spawn until ``doubledet.cli`` is imported and ``main`` is about to run)
and ``peak_rss_mb`` (the child's ``VmHWM``).  Times are in reference
seconds: each child's are scaled by the calibration on both sides of it.
A failed invocation (non-zero exit, an ``error:`` line on stderr, or a
wrong output) gives no timing and counts in ``failed``;
``failed / attempted`` is the error rate.

``--trace 1`` reports the per-layer metrics instead: one traced invocation
(see ``tracer.py``), the micro timings (see ``micro.py``) and untraced
invocations for the tracing overhead.  These are not scaled.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units are those of
``BENCHMARK.json``.  ``--all`` runs every workload and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import calibrate
from invoke import ROOT, spawn
from tracer import layer_metrics
from workloads import WORKLOADS

CALIBRATION_SAMPLES = 3
E2E_TIMES = ("wall_s", "cpu_s", "ttfb_s")


class Run:
    """The children of one run, in order, with the host-speed calibration
    taken in each gap between them.

    A child's times are scaled to reference seconds by the calibration
    samples on both sides of it: ``REFERENCE_S`` over their mean."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.children = []   # (mode, measured, failure reason or None)
        self.gaps = []       # mean calibration sample before each child

    def _calibrate(self):
        self.gaps.append(statistics.mean(
            calibrate.sample() for _ in range(CALIBRATION_SAMPLES)))

    def spawn(self, mode):
        """One child running the workload in this mode (``"run"`` or
        ``"trace"``), its output checked.  The k-th child of a run gets
        input number seed + k."""
        self._calibrate()
        n = self.seed + len(self.children)
        measured = spawn([mode, *self.workload.argv(n)])
        reason = self.workload.check(n, measured.output)
        self.children.append((mode, measured, reason))
        return measured

    def finish(self):
        """Calibrate after the last child."""
        self._calibrate()

    def spawn_for(self, seconds, started):
        """Invoke untraced until the next invocation would overrun."""
        durations = []
        while True:
            begin = time.monotonic()
            self.spawn("run")
            durations.append(time.monotonic() - begin)
            if (time.monotonic() - started + statistics.median(durations)
                    > seconds):
                return

    def scaled(self, modes):
        """``(scale, measured)`` of every correct child of these modes."""
        return [(calibrate.REFERENCE_S * 2 / (self.gaps[i] + self.gaps[i + 1]),
                 measured)
                for i, (mode, measured, reason) in enumerate(self.children)
                if mode in modes and reason is None]

    @property
    def failures(self):
        return [reason for _, _, reason in self.children if reason is not None]

    @property
    def attempted(self):
        return len(self.children)


def warm_up():
    """One untimed import-only child: it writes the bytecode caches and
    shows that the program imports."""
    measured = spawn([])
    if measured.output.returncode != 0 or measured.setup_s is None:
        raise RuntimeError("doubledet.cli does not import:\n"
                           + measured.output.stderr)


def end_to_end(workload, seed, seconds):
    started = time.monotonic()
    warm_up()
    run = Run(workload, seed)
    run.spawn_for(seconds, started)
    run.finish()
    good = run.scaled({"run"})
    metrics = {}
    if good:
        for field in E2E_TIMES:
            metrics[field] = statistics.median(
                scale * getattr(m, field) for scale, m in good)
        metrics["peak_rss_mb"] = statistics.median(
            m.peak_rss_mb for _, m in good)
        metrics["setup_s"] = statistics.median(
            scale * m.setup_s for scale, m in good)
    return run, metrics


def per_layer(workload, seed, seconds):
    started = time.monotonic()
    run = Run(workload, seed)
    micro = spawn(["micro"])
    if micro.output.returncode != 0 or micro.report is None:
        raise RuntimeError("micro timings failed:\n" + micro.output.stderr)
    traced = run.spawn("trace")
    run.spawn_for(seconds, started)
    run.finish()
    untraced = [m.wall_s for _, m in run.scaled({"run"})]
    if run.failures or traced.report is None or not untraced:
        return run, {}
    return run, layer_values(workload, traced, micro.report, untraced)


def layer_values(workload, traced, micro, untraced_walls):
    """Every per-layer metric, from a correct traced invocation, the micro
    timings and the wall times of untraced invocations."""
    metrics = layer_metrics(traced.report)
    metrics.update(micro)
    metrics["trace.overhead_s"] = (
        traced.wall_s - statistics.median(untraced_walls))
    metrics["cli.stdout_bytes"] = traced.output.size
    checks = (traced.output.json().get("checks", [])
              if workload.argv(0)[0] == "verify" else [])
    for status in ("ok", "skip"):
        metrics[f"cli.verify.checks_{status}"] = sum(
            1 for c in checks if c.get("status") == status)
    return metrics


def declared_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def result_line(run, metrics, units):
    """The JSON result; every declared metric, in declared units."""
    if metrics and set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are computed but "
            f"not declared in BENCHMARK.json, or declared but not computed")
    return json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics}})


def one_workload(args):
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    run, metrics = measure(workload, args.seed, args.seconds)
    units = declared_units(args.trace)
    for name in units:
        if name in metrics:
            print(f"{name:45} {metrics[name]:14.6g} {units[name]}")
    for reason in run.failures:
        print(f"failed: {reason}")
    print(f"oracle: {run.attempted - len(run.failures)}/{run.attempted} "
          f"correct; error_rate {len(run.failures) / run.attempted:.3g}")
    print(result_line(run, metrics, units))
    return 0


def all_workloads(args):
    measure = per_layer if args.trace else end_to_end
    units = declared_units(args.trace)
    columns, verdicts = {}, {}
    for name, workload in WORKLOADS.items():
        run, metrics = measure(workload, args.seed, args.seconds)
        columns[name] = metrics
        bad = f"FAIL ({run.failures[0]})" if run.failures else "ok"
        verdicts[name] = (bad, run.attempted,
                          len(run.failures) / run.attempted)
    print(f"{'metric':45} {'unit':6}" + "".join(f"{n:>16}" for n in columns))
    for metric, unit in units.items():
        print(f"{metric:45} {unit:6}" + "".join(
            f"{col.get(metric, float('nan')):16.6g}" for col in columns.values()))
    if not args.trace:
        print(f"{'error_rate':45} {'1':6}" + "".join(
            f"{v[2]:16.6g}" for v in verdicts.values()))
    print(f"{'oracle':45} {'':6}" + "".join(
        f"{v[0]:>16}" for v in verdicts.values()))
    print(f"{'invocations':45} {'count':6}" + "".join(
        f"{v[1]:16d}" for v in verdicts.values()))
    return 0 if all(v[0] == "ok" for v in verdicts.values()) else 1


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the
    calibration samples measure."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "doubledet" / "cli.py").is_file():
        print(f"error: no doubledet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    return all_workloads(args) if args.all else one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
