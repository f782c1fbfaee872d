#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about half a minute).

    python3 bench/selftest.py

Checks that
  * BENCHMARK.json keeps to the benchmark's format rules;
  * every workload runs at tiny size with --seed 1, passes its output checks
    against bench/reference.json, and emits every end-to-end metric of
    BENCHMARK.json with its unit;
  * the traced run emits every per-layer metric with its unit;
  * for each workload, a deliberately perturbed reference value is counted
    as a failed operation (ops_ok_frac < 1, correct false) without a crash;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(*args: str, cwd: Path = ROOT):
    """(exit code, parsed last stdout line or None)."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if last is not None and "correct" not in last:
        last = None
    return proc.returncode, last


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "metric and workload names are well-formed and unique")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "workload reasons are one line")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics), "units and directions are well-formed")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "end-to-end bounds are in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present with the largest bound")


def check_metrics(result, wanted: list[dict], label: str) -> None:
    got = result["metrics"] if result else {}
    expect(set(got) == {m["name"] for m in wanted},
           f"{label}: emits exactly the named metrics "
           f"(missing {sorted({m['name'] for m in wanted} - set(got))})")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted
               if m["name"] in got), f"{label}: units match BENCHMARK.json")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    common = ["--seed", "1", "--seconds", "1", "--size", "tiny"]

    for wl in workloads:
        code, result = bench("--workload", wl, "--trace", "0", *common)
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0,
               f"{wl}: tiny run is correct against the reference")
        check_metrics(result, spec["end_to_end"], wl)

    code, result = bench("--workload", workloads[0], "--trace", "1", *common)
    expect(code == 0 and result is not None and result["correct"],
           "traced run is correct")
    check_metrics(result, spec["per_layer"], "traced run")

    reference = json.loads((BENCH / "reference.json").read_text())
    tiny = reference["tiny"]
    tiny["hop-survival"]["trial_splits"][0][0] += 1
    tiny["cli-pipeline"]["deficiency"] += 1
    tiny["euclid"]["stretch_failures"][0] += 1
    RUN_DIR.mkdir(exist_ok=True)
    perturbed = RUN_DIR / "perturbed-reference.json"
    perturbed.write_text(json.dumps(reference))
    for wl in workloads:
        code, result = bench("--workload", wl, "--trace", "0", *common,
                             "--reference", str(perturbed))
        ok_frac = (result or {}).get("metrics", {}).get("ops_ok_frac", {})
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1 and ok_frac.get("value", 1.0) < 1.0,
               f"{wl}: a perturbed reference value is counted as a failure")
        check_metrics(result, spec["end_to_end"], f"{wl} (perturbed)")
    perturbed.unlink()

    bare = RUN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", workloads[0], "--trace", "0",
                         "--seed", "1", "--seconds", "1", cwd=bare)
    expect(code != 0 and result is None,
           "without src/depspan: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
