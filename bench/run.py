#!/usr/bin/env python3
"""depspan benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it sits in. Nothing is built:
every workload runs in a worker process (bench/worker.py) that imports
depspan from the checkout's src/. Without src/depspan the benchmark exits
with code 2 and prints no result.

--trace 0 measures one workload. Each pass of the workload runs in a fresh
worker process: start-up (import, input generation from --seed, warm-up),
one timed pass, then the output checks. Workers follow one another and stop
at the pass boundary nearest to --seconds; start-up-only workers then make
up SETUP_SAMPLES set-up samples. Every metric is a median over the
run's samples. The last line of stdout is the result, with every end-to-end
metric of BENCHMARK.json.

--trace 1 is the traced run. It runs one traced pass of every workload, each
in its own worker, with spans recorded around each call into a depspan layer,
plus the in-process replays (the cli-pipeline steps through fileio, graphs
and reach; the euclid per-ordering builds through lso and spanners1d). The
named --workload also gets one untraced pass in a worker of its own; its
tracing overhead is the traced pass's wall time minus the untraced one's.
A last worker times the named workload's rows of the ROADMAP baseline
table (bench/baseline.json) at the table's own sizes and compares them.
The last line holds every per-layer metric of BENCHMARK.json; the spans go
to .bench_run/trace-<workload>-seed<N>.json.

Every run also prints, just before the result, a JSON line with the
environment (nproc, Python, numpy, BLAS and its thread count, load average
before and after) and writes the full record to .bench_run/.

--record-reference re-records bench/reference.json (the outputs for
--seed 1 at both sizes) from the checkout; do that only in a change that
changes the benchmark, never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("hop-survival", "cli-pipeline", "euclid")
REFERENCE_SEED = 1
SETUP_SAMPLES = 11
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))

import childproc  # noqa: E402


def host_env() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


class Workers:
    """Starts worker processes one at a time, all within one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.started = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: list[dict] = []
        self.samples: dict[str, list] = defaultdict(list)

    def run(self, workload: str, mode: str, seed=None, size=None):
        """(report or None, ChildResult); a worker that crashes or prints no
        report counts as one failed operation."""
        a = self.args
        scratch = RUN_DIR / f"worker-{os.getpid()}-{self.started}"
        out = scratch.with_suffix(".out")
        self.started += 1
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", workload, "--mode", mode,
               "--seed", str(a.seed if seed is None else seed),
               "--size", a.size if size is None else size,
               "--reference", a.reference,
               "--reference-seed", str(REFERENCE_SEED),
               "--scratch", str(scratch)]
        try:
            res = childproc.run(
                cmd, env=self.env, cwd=ROOT, stdout_path=out,
                timeout=max(1.0, self.deadline - time.monotonic()),
                own_group=True)
            lines = out.read_text().splitlines()
        finally:
            out.unlink(missing_ok=True)
            shutil.rmtree(scratch, ignore_errors=True)
        report = None
        if res.code == 0 and lines:
            try:
                report = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if report is None:
            why = "timed out" if res.timed_out else f"exited with {res.code}"
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{workload} {mode} worker {why}")
            return None, res
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems += [f"{workload}: {p}" for p in report["problems"]]
        self.reports.append({k: v for k, v in report.items() if k != "spans"})
        return report, res

    def same_outputs(self, first: dict, later: dict) -> None:
        """Every pass of one seed must give the same outputs; a differing
        output counts as one more failed operation."""
        for key, value in later["outputs"].items():
            if value != first["outputs"].get(key):
                self.failed += 1
                self.problems.append(
                    f"{later['workload']}: {key} differs between passes: "
                    f"{first['outputs'].get(key)!r} then {value!r}")


def measure(args, workers: Workers) -> dict:
    """End-to-end metrics of one workload (trace 0): one worker per pass,
    stopping at the pass boundary nearest to --seconds, then start-up-only
    workers until there are SETUP_SAMPLES set-up samples. Each metric is the
    median of its samples, which are kept in workers.samples."""
    samples = workers.samples
    first, durations = None, []
    start = time.monotonic()
    while True:
        report, res = workers.run(args.workload, "pass")
        durations.append(res.seconds)
        if report is None or "wall_s" not in report:
            break
        first = first or report
        workers.same_outputs(first, report)
        samples["setup_s"].append(report["ready"] - res.start)
        samples["wall_s"].append(report["wall_s"])
        samples["build_s"].append(report["build_s"])
        samples["trials_per_s"] += report["trial_rates"]
        # the largest CLI child for cli-pipeline, else the worker itself
        samples["peak_rss_mb"].append(report.get("child_rss_mb",
                                                 res.maxrss_mb))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) / 2 > args.seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        report, res = workers.run(args.workload, "setup")
        if report is None:
            break
        samples["setup_s"].append(report["ready"] - res.start)
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                                  ("build_s", "s"), ("trials_per_s", "1/s"),
                                  ("peak_rss_mb", "MB"))
               if samples[name]}
    metrics["ops_ok_frac"] = (1.0 - workers.failed / max(1, workers.attempted),
                              "ratio")
    return metrics


def compare_baseline(workload: str, measured: dict) -> tuple[list, list]:
    """The ROADMAP baseline rows of `workload` next to the values a
    baseline worker measured; the notes name every row off by more than 2x
    either way."""
    table = json.loads((BENCH / "baseline.json").read_text())
    lines, notes = [], []
    for row in table["rows"]:
        if row["workload"] != workload or row["measure"] not in measured:
            continue
        value = measured[row["measure"]]
        ratio = value / row["value"]
        line = (f"{row['row']}: measured {value:.4g} vs baseline "
                f"{row['value']:.4g} ({ratio:.2f}x)")
        lines.append(line)
        if not 0.5 <= ratio <= 2.0:
            notes.append("beyond 2x: " + line)
    return lines, notes


def trace(args, workers: Workers) -> tuple[dict, list, list]:
    """Per-layer metrics of every workload (trace 1), the spans, and the
    baseline comparison lines. The named --workload also gets one untraced
    pass in a worker of its own, for the overhead, and one baseline worker
    that times its rows of the ROADMAP baseline table at the table's
    sizes."""
    layer, spans = {}, []
    for wl in WORKLOADS:
        untraced = None
        if wl == args.workload:
            untraced, _ = workers.run(wl, "pass")
        report, _ = workers.run(wl, "trace")
        if report is None:
            continue
        layer.update({k: (v["value"], v["unit"])
                      for k, v in report["layer_metrics"].items()})
        spans += report["spans"]
        if untraced is not None:
            workers.same_outputs(untraced, report)
            layer["trace.traced_wall_s"] = (report["wall_s"], "s")
            layer["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
            layer["trace_overhead_s"] = (
                report["wall_s"] - untraced["wall_s"], "s")
    base, _ = workers.run(args.workload, "baseline")
    lines, notes = compare_baseline(args.workload,
                                    base["baseline"] if base else {})
    layer["baseline.rows_compared"] = (len(lines), "count")
    layer["baseline.rows_beyond_2x"] = (len(notes), "count")
    for note in notes:
        print(note, file=sys.stderr)
    return layer, spans, lines


def record_reference(args, workers: Workers) -> int:
    ref = {}
    for size in ("full", "tiny"):
        for wl in WORKLOADS:
            report, _ = workers.run(wl, "record", seed=REFERENCE_SEED,
                                    size=size)
            if report is None or report["failed"]:
                print(f"error: {size}/{wl} failed: {workers.problems}",
                      file=sys.stderr)
                return 1
            ref.setdefault(size, {})[wl] = report["outputs"]
    Path(args.reference).write_text(json.dumps(ref, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="depspan benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the self-test")
    ap.add_argument("--reference", default=str(BENCH / "reference.json"),
                    help="expected outputs for --seed %d" % REFERENCE_SEED)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that childproc kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "depspan" / "__init__.py").is_file():
        print(f"error: no depspan sources at {ROOT / 'src' / 'depspan'}",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    RUN_DIR.mkdir(exist_ok=True)
    workers = Workers(args)
    if args.record_reference:
        return record_reference(args, workers)

    env = host_env()
    env["loadavg_before"] = os.getloadavg()
    spans, baseline = [], []
    if args.trace:
        metrics, spans, baseline = trace(args, workers)
    else:
        metrics = measure(args, workers)
    env["loadavg_after"] = os.getloadavg()
    if workers.reports:
        env.update(workers.reports[-1].get("env", {}))

    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
              if v is not None}
    correct = workers.failed == 0 and len(values) == len(metrics)
    result = {"correct": correct, "attempted": max(1, workers.attempted),
              "failed": workers.failed, "metrics": values}
    tag = f"{args.workload}-seed{args.seed}"
    record = {"env": env, "args": vars(args), "result": result,
              "problems": workers.problems, "samples": workers.samples,
              "workers": workers.reports,
              "baseline": baseline}
    (RUN_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RUN_DIR / f"trace-{tag}.json").write_text(
            json.dumps({"env": env, "spans": spans}) + "\n")
    for p in workers.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
