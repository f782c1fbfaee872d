#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, written as a BENCH record.

    python3 tools/ab_bench.py --workload hop-survival --seeds 1 7 \\
        --pairs 10 --seconds 30 --parent HEAD --note "what the change does" \\
        --out BENCH_hop-survival.json

The parent side is `git archive` of --parent. The change side is the
working tree: its tracked files and its untracked files that are not
ignored, as they are on disk. Each side is copied into a fresh directory
under --workdir, so neither run sees the other's build, cache or .bench_run,
and no worktree is registered in the repository.

For each seed, pair p runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` once in each directory, one run at a time; odd pairs
run the parent first, even pairs the change first. The last two stdout
lines of a run, the env line and the result, are kept unchanged.

The record has the format of the existing BENCH_*.json files: per seed and
per end-to-end metric of BENCHMARK.json, the median and quartiles
(statistics.quantiles, method="inclusive") of each side, and change_wins,
the pairs in which the change reads better (ties count for neither). It is
rewritten after every pair, so an interrupted session keeps what it ran.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export_rev(rev: str, dest: Path) -> None:
    """The files of commit rev, as `git archive` writes them, into dest."""
    tar = dest.with_suffix(".tar")
    git("archive", "--output", str(tar), rev)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    tar.unlink()


def export_worktree(dest: Path) -> None:
    """The working tree's tracked and unignored untracked files into dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its env and result lines, or the error."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        env, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"env": None, "result": None,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"env": env, "result": result}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        v = round(values[0], 4)
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list, metrics: list) -> dict:
    """Per seed and metric: each side's median and quartiles, change_wins."""
    summary = {}
    for seed in sorted({r["seed"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["seed"] == seed:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values()
                    if len(p) == 2 and all(p.values())]
        cell = {}
        for m in metrics if complete else ():
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            side = {s: [p[s]["metrics"][name]["value"] for p in complete]
                    for s in ("parent", "change")}
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(side["parent"], side["change"]))
            cell[name] = {"parent": quartiles(side["parent"]),
                          "change": quartiles(side["change"]),
                          "change_wins": f"{wins}/{len(complete)}"}
        seed_runs = [r for r in runs if r["seed"] == seed]
        correct = sum(bool(r["result"] and r["result"].get("correct"))
                      for r in seed_runs)
        cell["correct_runs"] = f"{correct}/{len(seed_runs)}"
        summary[f"seed{seed}"] = cell
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--parent", default="HEAD",
                    help="commit of the parent side (default HEAD)")
    ap.add_argument("--note", default="",
                    help="what the change does, for the record's change field")
    ap.add_argument("--workdir", default=None,
                    help="where the two trees go, replacing its parent/ and "
                         "change/ (default: a new temporary directory, removed "
                         "afterwards)")
    ap.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = ap.parse_args()

    parent = git("rev-parse", args.parent).decode().strip()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    made = args.workdir is None
    work = Path(tempfile.mkdtemp(prefix="ab_bench-") if made else args.workdir)
    trees = {"parent": work / "parent", "change": work / "change"}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    export_rev(parent, trees["parent"])
    export_worktree(trees["change"])

    record = {
        "workload": args.workload,
        "command": (f"python3 bench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {args.seconds:g} --trace 0"),
        "parent_commit": parent,
        "change": ("the commit that adds this file"
                   + (f" ({args.note})" if args.note else "")),
        "method": ("parent and change checkouts, each in a fresh directory, "
                   "run one after the other, alternating which side goes "
                   "first in each pair (odd pairs: parent first); env and "
                   "result are the run's last two stdout lines, unchanged; "
                   "quartiles are statistics.quantiles(method='inclusive'); "
                   "change_wins counts pairs where the change reads better "
                   "(ties count for neither)"),
        "summary": {},
        "runs": [],
    }
    out = Path(args.out)
    try:
        for seed in args.seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], args.workload, seed, args.seconds)
                    record["runs"].append({"side": side, "seed": seed,
                                           "pair": pair,
                                           "first_in_pair": side == order[0],
                                           **run})
                    shown = run["result"]["metrics"] if run["result"] else run
                    print(f"seed {seed} pair {pair} {side}: {json.dumps(shown)}",
                          file=sys.stderr, flush=True)
                record["summary"] = summarize(record["runs"], metrics)
                out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        if made:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
