"""One depspan benchmark workload, run in a process of its own.

run.py starts this script with PYTHONPATH pointing at the checkout's src/, so
the library under test is the one in the checkout. The worker prints one
JSON object as the last line of its standard output.

Modes:
  setup   import, generate the inputs from --seed, warm up, report when ready
  pass    setup, then one whole pass of the workload, then check its outputs
  trace   as pass, with spans recorded, plus the workload's in-process replay
  record  setup and one pass; report the outputs that reference.json keeps
  baseline  setup, then time the workload's rows of the ROADMAP baseline
            table at the table's own sizes (see baseline.json)

Workloads (see BENCHMARK.json and predictions.json for why each exists):
  hop-survival  one C07 cell in-process: four_hop_spanner, then per trial
                filter_edges and khop_deficiency_split
  cli-pipeline  the CLI as subprocesses: build fourhop, filter, deficiency
                (closure), deficiency --psi --trials --jobs 2 (Monte Carlo)
  euclid        locality_witness on sampled pairs, euclidean_dependable_spanner,
                filtered count_stretch_failures, extract_bounded_path
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(BENCH))

import childproc  # noqa: E402
from recorder import Recorder, layer_self_seconds, median_of  # noqa: E402

import numpy as np  # noqa: E402

import depspan  # noqa: E402
from depspan import (DeficiencyReport, GeometricGraph, PointSet,  # noqa: E402
                     bounded_hop_distance, build_lso_family, check_experiment,
                     complete_graph, count_stretch_failures, deficiency,
                     derive_seed, derive_stream, euclidean_dependable_spanner,
                     extract_bounded_path, filter_edges, four_hop_spanner,
                     khop_deficiency, khop_deficiency_split, locality_witness,
                     monte_carlo_deficiency, run_experiment)
from depspan.euclid import DEFAULT_MAX_ORDERINGS  # noqa: E402
from depspan.experiments import SCHEMA_VERSION, ExperimentConfig  # noqa: E402
from depspan.fileio import read_edge_list, write_edge_list  # noqa: E402
from depspan.spanners1d import DerivedParams  # noqa: E402

SIZES = {
    "full": {
        "hop-survival": {"n": 2048, "psi": 0.5, "k": 4, "c7": 4.0,
                         "trials": 12},
        "cli-pipeline": {"n": 1024, "psi": 0.5, "c7": 4.0, "trials": 32,
                         "jobs": 2, "startup_samples": 3},
        "euclid": {"n": 256, "dim": 2, "eps": 0.25, "psi": 0.5, "c7": 4.0,
                   "pairs": 64, "trials": 4, "paths": 3},
    },
    "tiny": {
        "hop-survival": {"n": 256, "psi": 0.5, "k": 4, "c7": 4.0,
                         "trials": 2},
        "cli-pipeline": {"n": 256, "psi": 0.5, "c7": 4.0, "trials": 2,
                         "jobs": 2, "startup_samples": 1},
        "euclid": {"n": 64, "dim": 2, "eps": 0.25, "psi": 0.5, "c7": 4.0,
                   "pairs": 8, "trials": 2, "paths": 2},
    },
}


@dataclass
class Pass:
    """One whole pass of a workload: timings, outputs, and for each output
    the span (or per-element spans) of the operation that produced it."""

    build_s: float
    trial_rates: list  # trials per second, one sample per timed trial group
    outputs: dict
    producers: dict
    wall_s: float = 0.0


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_graph(g) -> str:
    h = hashlib.sha256()
    for arr in (g.edge_i, g.edge_j, g.weights):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def header_edge_count(path: Path) -> int:
    with open(path, "r", encoding="ascii") as fh:
        return int(fh.readline().split()[1])


# ---------------------------------------------------------------------------


class HopSurvival:
    """One C07 cell, in-process: the calls experiment_hop_survival makes."""

    name = "hop-survival"
    reference_keys = ("edges", "edges_sha256", "trial_splits")
    self_layers = ("spanners1d", "graphs", "rng", "reach", "bench")

    def __init__(self, seed: int, cfg: dict, scratch: Path):
        self.seed = seed
        self.cfg = cfg
        # same seed derivation as experiment_hop_survival for cell 0
        self.cell_seed = derive_seed(seed, 0)
        self.build_seed = derive_seed(self.cell_seed, 0)
        self.mc_seed = derive_seed(self.cell_seed, 1)
        self.dp = DerivedParams.for_four_hop(cfg["n"], cfg["psi"], cfg["c7"])
        self.graph = None

    def warm_up(self, rec):
        c = self.cfg
        g = four_hop_spanner(128, c["psi"], c["c7"], seed=0)
        h = filter_edges(g, c["psi"], derive_stream(0, 0))
        khop_deficiency_split(h, c["k"], 8)
        deficiency(h)

    def run_pass(self, rec) -> Pass:
        c = self.cfg
        with rec.span("spanners1d.four_hop_spanner", n=c["n"]) as build:
            g = four_hop_spanner(c["n"], c["psi"], c["c7"], seed=self.build_seed)
        build.attrs["edges"] = g.m
        splits, split_ops, rates = [], [], []
        for t in range(c["trials"]):
            with rec.span("bench.trial") as trial:
                with rec.span("rng.derive_stream"):
                    stream = derive_stream(self.mc_seed, t)
                with rec.span("graphs.filter_edges") as filt:
                    h = filter_edges(g, c["psi"], stream)
                filt.attrs["kept"] = h.m
                with rec.span("reach.khop_deficiency_split") as op:
                    split = khop_deficiency_split(h, c["k"], self.dp.radius)
                op.attrs["failed_pairs"] = int(split[0] + split[1])
            rates.append(1.0 / trial.seconds)
            splits.append([int(split[0]), int(split[1])])
            split_ops.append(op)
        self.graph = g
        return Pass(build_s=build.seconds, trial_rates=rates,
                    outputs={"edges": g.m, "edges_sha256": sha256_graph(g),
                             "trial_splits": splits},
                    producers={"edges": build, "edges_sha256": build,
                               "trial_splits": split_ops})

    def digest(self, p: Pass):
        pass

    def replay(self, rec):
        return None

    def baseline(self, rec) -> dict:
        """k-hop (matmul engine) and closure deficiency of one filtered
        four-hop graph, n=4096, as in the baseline table."""
        g = four_hop_spanner(4096, 0.5, self.cfg["c7"], seed=self.build_seed)
        h = filter_edges(g, 0.5, derive_stream(self.mc_seed, 0))
        with rec.span("reach.khop_deficiency") as khop:
            khop_deficiency(h, 4)
        with rec.span("reach.deficiency") as closure:
            deficiency(h)
        return {"khop_deficiency_4096_s": khop.seconds,
                "deficiency_4096_s": closure.seconds}

    def experiment_row(self, splits):
        """The hop-survival CSV row for these per-trial splits, assembled as
        experiment_hop_survival assembles it."""
        c, dp = self.cfg, self.dp
        n, psi, trials = c["n"], c["psi"], c["trials"]
        totals = [s + l for s, l in splits]
        rep = DeficiencyReport.from_counts(n, psi, c["k"], self.mc_seed, totals)
        reference = n / (psi * psi)
        columns = ["schema_version", "experiment", "n", "psi", "k",
                   "construction", "nu", "block_size", "radius",
                   "connector_rate", "trials", "seed", "short_mean",
                   "long_mean", "total_mean", "total_stderr",
                   "reference_bound", "long_zero_trials",
                   "total_within_2x_trials"]
        row = [SCHEMA_VERSION, "hop-survival", n, psi, c["k"], "fourhop",
               dp.nu, dp.block_size, dp.radius, dp.connector_rate, trials,
               self.cell_seed, sum(s for s, _ in splits) / trials,
               sum(l for _, l in splits) / trials, rep.mean_failed_pairs,
               rep.stderr, reference, sum(1 for _, l in splits if l == 0),
               sum(1 for t in totals if t <= 2.0 * (reference + 1.0))]
        return columns, row

    def check(self, rec, p: Pass, replayed, size: str):
        c = self.cfg
        with rec.span("reach.deficiency") as op:
            d0 = deficiency(self.graph)
        rec.expect(op, d0 == 0, f"unfiltered deficiency is {d0}, expected 0")
        cfg = ExperimentConfig(name="hop-survival", ns=(c["n"],),
                               psis=(c["psi"],), ks=(c["k"],),
                               trials=c["trials"], seed=self.seed, c7=c["c7"])
        columns, row = self.experiment_row(p.outputs["trial_splits"])
        with rec.span("experiments.check_experiment") as op:
            problems = check_experiment(cfg, columns, [row])
        rec.expect(op, not problems, "check_experiment: " + "; ".join(problems))
        if size == "tiny":
            # the replayed calls must reproduce the experiment's own row
            with rec.span("experiments.run_experiment") as op:
                cols2, rows2 = run_experiment(cfg)
            rec.expect(op, (cols2, rows2) == (columns, [row]),
                       f"benchmark row {row} differs from experiment {rows2}")

    def layer_metrics(self, spans, replayed) -> dict:
        return {
            "spanners1d.four_hop_spanner_s":
                ("s", median_of(spans, "spanners1d.four_hop_spanner")),
            "spanners1d.edges":
                ("count", median_of(spans, "spanners1d.four_hop_spanner",
                                    "edges")),
            "graphs.filter_edges_s":
                ("s", median_of(spans, "graphs.filter_edges")),
            "graphs.kept_edges":
                ("count", median_of(spans, "graphs.filter_edges", "kept")),
            "reach.khop_deficiency_split_s":
                ("s", median_of(spans, "reach.khop_deficiency_split")),
            "reach.khop_failed_pairs":
                ("count", median_of(spans, "reach.khop_deficiency_split",
                                    "failed_pairs")),
        }


# ---------------------------------------------------------------------------


class CliPipeline:
    """The CLI as subprocesses, with its files in a scratch directory."""

    name = "cli-pipeline"
    reference_keys = ("graph_sha256", "filtered_sha256", "deficiency", "mc_row")
    self_layers = ("cli", "fileio", "graphs", "rng", "reach", "bench")

    def __init__(self, seed: int, cfg: dict, scratch: Path):
        self.seed = seed
        self.cfg = cfg
        self.build_seed = derive_seed(seed, 0)
        self.filter_seed = derive_seed(seed, 1)
        self.mc_seed = derive_seed(seed, 2)
        self.dir = scratch  # removed by run.py once this worker has ended
        self.dir.mkdir(parents=True, exist_ok=True)
        self.graph_path = self.dir / "g.edges"
        self.filtered_path = self.dir / "h.edges"
        self.replay_path = self.dir / "h-replay.edges"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.child_rss_mb: list[float] = []
        self.graph = None

    def cli(self, rec, name: str, args: list):
        out = self.dir / "stdout.txt"
        with rec.span(name) as op:
            res = childproc.run(
                [sys.executable, "-m", "depspan.cli", *map(str, args)],
                env=self.env, cwd=ROOT, stdout_path=out,
                timeout=CHILD_TIMEOUT_S)
        op.attrs["rss_mb"] = res.maxrss_mb
        self.child_rss_mb.append(res.maxrss_mb)
        if res.code != 0:
            why = "timed out" if res.timed_out else f"exited with {res.code}"
            rec.fail(op, f"{name} {why}")
            return op, None
        return op, out.read_text(encoding="ascii")

    def warm_up(self, rec):
        self.cli(rec, "cli.startup", ["--version"])

    def run_pass(self, rec) -> Pass:
        c = self.cfg
        build, _ = self.cli(rec, "cli.build", [
            "build", "fourhop", "--n", c["n"], "--psi", c["psi"],
            "--c7", c["c7"], "--seed", self.build_seed,
            "--out", self.graph_path])
        filt, _ = self.cli(rec, "cli.filter", [
            "filter", "--graph", self.graph_path, "--psi", c["psi"],
            "--seed", self.filter_seed, "--out", self.filtered_path])
        exact, text = self.cli(rec, "cli.deficiency", [
            "deficiency", "--graph", self.filtered_path])
        count = None
        if text is not None:
            try:
                count = int(text.strip())
            except ValueError:
                rec.fail(exact, f"deficiency printed {text.strip()!r}")
        mc, mc_text = self.cli(rec, "cli.deficiency_mc", [
            "deficiency", "--graph", self.graph_path, "--psi", c["psi"],
            "--trials", c["trials"], "--seed", self.mc_seed,
            "--jobs", c["jobs"]])
        row = None
        if mc_text is not None:
            lines = mc_text.strip().splitlines()
            if rec.expect(mc, len(lines) == 2
                          and lines[0] == DeficiencyReport.CSV_HEADER,
                          f"Monte Carlo printed {mc_text.strip()!r}"):
                row = lines[1]
        # Monte Carlo trials per second, the edge-list parse included
        return Pass(build_s=build.seconds,
                    trial_rates=[c["trials"] / mc.seconds],
                    outputs={"deficiency": count, "mc_row": row},
                    producers={"deficiency": exact, "mc_row": mc,
                               "graph_sha256": build,
                               "filtered_sha256": filt})

    def digest(self, p: Pass):
        """File hashes, taken after the pass so they are not timed."""
        for key, path in (("graph_sha256", self.graph_path),
                          ("filtered_sha256", self.filtered_path)):
            p.outputs[key] = sha256_file(path) if path.exists() else None

    def replay(self, rec):
        """CLI start-up alone, then the pipeline again in-process, so that
        fileio, graphs and reach get spans of their own."""
        c = self.cfg
        for _ in range(c["startup_samples"]):
            self.cli(rec, "cli.startup", ["--version"])
        with rec.span("fileio.read_edge_list",
                      mb=self.graph_path.stat().st_size / 1e6):
            g = read_edge_list(self.graph_path)
        with rec.span("rng.derive_stream"):
            stream = derive_stream(self.filter_seed, 0)
        with rec.span("graphs.filter_edges") as filt:
            h = filter_edges(g, c["psi"], stream)
        filt.attrs["kept"] = h.m
        with rec.span("fileio.write_edge_list") as write:
            write_edge_list(h, self.replay_path)
        write.attrs["mb"] = self.replay_path.stat().st_size / 1e6
        with rec.span("reach.deficiency") as exact:
            count = deficiency(h)
        exact.attrs["failed_pairs"] = count
        reps = {}
        for jobs in (1, c["jobs"]):
            with rec.span("reach.monte_carlo_deficiency", jobs=jobs) as mc:
                rep = monte_carlo_deficiency(g, c["psi"], c["trials"],
                                             master=self.mc_seed, jobs=jobs)
            reps[jobs] = (mc, rep.csv_row())
        self.graph = g
        return {"write": write, "exact": (exact, count), "mc": reps}

    def baseline(self, rec) -> dict:
        """CLI build and filter at n=4096, read_edge_list of the built file,
        and Monte Carlo on K_1024 (40 unbounded trials) with jobs=1 and 2,
        as in the baseline table."""
        c = self.cfg
        graph, filtered = self.dir / "base-g.edges", self.dir / "base-h.edges"
        build, _ = self.cli(rec, "cli.build", [
            "build", "fourhop", "--n", 4096, "--psi", 0.5, "--c7", c["c7"],
            "--seed", self.build_seed, "--out", graph])
        filt, _ = self.cli(rec, "cli.filter", [
            "filter", "--graph", graph, "--psi", 0.5,
            "--seed", self.filter_seed, "--out", filtered])
        with rec.span("fileio.read_edge_list") as read:
            read_edge_list(graph)
        k = complete_graph(1024)
        mc_s = {}
        for jobs in (1, 2):
            with rec.span("reach.monte_carlo_deficiency", jobs=jobs) as mc:
                monte_carlo_deficiency(k, 0.5, 40, master=self.mc_seed,
                                       jobs=jobs)
            mc_s[jobs] = mc.seconds
        return {"cli_build_4096_s": build.seconds,
                "cli_filter_4096_s": filt.seconds,
                "cli_filter_4096_rss_mb": filt.attrs["rss_mb"],
                "read_edge_list_4096_s": read.seconds,
                "mc_k1024_jobs2_speedup": mc_s[1] / mc_s[2]}

    def check(self, rec, p: Pass, replayed, size: str):
        c = self.cfg
        if not (self.graph_path.exists() and self.filtered_path.exists()):
            return  # the CLI steps already failed
        build_op = p.producers["graph_sha256"]
        filt_op = p.producers["filtered_sha256"]
        g = self.graph
        if g is None:  # not replayed: rebuild in-process
            with rec.span("spanners1d.four_hop_spanner", n=c["n"]):
                g = four_hop_spanner(c["n"], c["psi"], c["c7"],
                                     seed=self.build_seed)
        rec.expect(build_op, header_edge_count(self.graph_path) == g.m,
                   "CLI build edge count differs from four_hop_spanner")
        with rec.span("reach.deficiency") as op:
            d0 = deficiency(g)
        rec.expect(op, d0 == 0, f"unfiltered deficiency is {d0}, expected 0")
        cli_count = p.outputs["deficiency"]
        cli_row = p.outputs["mc_row"]
        if replayed is None:
            with rec.span("graphs.filter_edges") as op:
                h = filter_edges(g, c["psi"], derive_stream(self.filter_seed, 0))
            rec.expect(filt_op, header_edge_count(self.filtered_path) == h.m,
                       "CLI filter edge count differs from filter_edges")
            with rec.span("reach.deficiency") as op:
                count = deficiency(h)
            rec.expect(p.producers["deficiency"], count == cli_count,
                       f"CLI deficiency {cli_count} != in-process {count}")
            with rec.span("reach.monte_carlo_deficiency", jobs=1) as op:
                row = monte_carlo_deficiency(g, c["psi"], c["trials"],
                                             master=self.mc_seed,
                                             jobs=1).csv_row()
            rec.expect(p.producers["mc_row"], row == cli_row,
                       f"Monte Carlo row with --jobs {c['jobs']} ({cli_row}) "
                       f"differs from jobs=1 ({row})")
            return
        write = replayed["write"]
        rec.expect(write, sha256_file(self.replay_path)
                   == p.outputs["filtered_sha256"],
                   "write_edge_list bytes differ from the CLI filter output")
        exact, count = replayed["exact"]
        rec.expect(exact, count == cli_count,
                   f"CLI deficiency {cli_count} != in-process {count}")
        for mc, row in replayed["mc"].values():
            rec.expect(mc, row == cli_row,
                       f"Monte Carlo row {row} (jobs={mc.attrs['jobs']}) "
                       f"differs from the CLI row {cli_row}")

    def layer_metrics(self, spans, replayed) -> dict:
        c = self.cfg
        out = {"cli.startup_s": ("s", median_of(spans, "cli.startup"))}
        for step in ("build", "filter", "deficiency", "deficiency_mc"):
            out[f"cli.{step}_s"] = ("s", median_of(spans, f"cli.{step}"))
            out[f"cli.{step}_rss_mb"] = (
                "MB", median_of(spans, f"cli.{step}", "rss_mb"))
        read_s = median_of(spans, "fileio.read_edge_list")
        write_s = median_of(spans, "fileio.write_edge_list")
        j1 = median_of(spans, "reach.monte_carlo_deficiency", jobs=1)
        j2 = median_of(spans, "reach.monte_carlo_deficiency", jobs=c["jobs"])
        out.update({
            "fileio.read_edge_list_s": ("s", read_s),
            "fileio.write_edge_list_s": ("s", write_s),
            "fileio.read_mb_per_s": (
                "MB/s", median_of(spans, "fileio.read_edge_list", "mb") / read_s),
            "fileio.write_mb_per_s": (
                "MB/s", median_of(spans, "fileio.write_edge_list", "mb") / write_s),
            "reach.deficiency_s": ("s", median_of(spans, "reach.deficiency")),
            "reach.failed_pairs": (
                "count", median_of(spans, "reach.deficiency", "failed_pairs")),
            "reach.monte_carlo_deficiency_s": ("s", j1),
            "reach.monte_carlo_deficiency_jobs2_s": ("s", j2),
            "reach.mc_jobs2_speedup": ("ratio", j1 / j2),
        })
        return out


# ---------------------------------------------------------------------------


def spread_ids(total: int, cap: int | None) -> np.ndarray:
    """The family members a Euclidean build unions: all of them up to `cap`,
    else `cap` evenly spread ids (as euclidean_dependable_spanner picks them)."""
    if cap is None or total <= cap:
        return np.arange(total, dtype=np.int64)
    return np.unique(np.round(np.linspace(0, total - 1, cap)).astype(np.int64))


class Euclid:
    """Uniform points in [0,1)^d: locality witnesses, the Euclidean
    dependable spanner, filtered stretch counts, bounded path extraction."""

    name = "euclid"
    reference_keys = ("edges", "graph_sha256", "stretch_failures")
    self_layers = ("lso", "euclid", "spanners1d", "graphs", "rng", "bench")

    def __init__(self, seed: int, cfg: dict, scratch: Path):
        self.seed = seed
        self.cfg = cfg
        n, d = cfg["n"], cfg["dim"]
        coords = derive_stream(derive_seed(seed, 0), 0).uniforms(n * d)
        self.points = PointSet(coords.reshape(n, d) * (1.0 - 2.0 ** -16))
        self.family = build_lso_family(cfg["eps"], d)
        pair_stream = derive_stream(derive_seed(seed, 1), 0)
        self.pairs = [tuple(int(x) for x in
                            pair_stream.choice_without_replacement(n, 2))
                      for _ in range(cfg["pairs"])]
        self.build_seed = derive_seed(seed, 2)
        self.filter_master = derive_seed(seed, 3)
        self.built = None
        self.first_trial_graph = None

    def warm_up(self, rec):
        coords = self.points.coords
        i, j = self.pairs[0]
        locality_witness(self.family, coords, coords[i], coords[j])
        self.family.sort_indices(self.family.ordering(1), coords)

    def run_pass(self, rec) -> Pass:
        c = self.cfg
        coords = self.points.coords
        witnesses, witness_ops = [], []
        for i, j in self.pairs:
            with rec.span("lso.locality_witness") as op:
                oid = locality_witness(self.family, coords, coords[i], coords[j])
            op.attrs["found"] = int(oid is not None)
            rec.expect(op, oid is not None,
                       f"no locality witness for points {i}, {j}")
            witnesses.append(oid)
            witness_ops.append(op)
        with rec.span("euclid.euclidean_dependable_spanner", n=c["n"]) as build:
            built = euclidean_dependable_spanner(
                self.points, c["eps"], c["psi"], c["c7"], mode="four-hop",
                seed=self.build_seed)
        n = c["n"]
        build.attrs.update(edges=built.graph.m,
                           density=built.graph.m / (n * (n - 1) // 2),
                           orderings_used=built.info["orderings_used"])
        counts, count_ops, rates, first = [], [], [], None
        for t in range(c["trials"]):
            with rec.span("bench.trial") as trial:
                with rec.span("rng.derive_stream"):
                    stream = derive_stream(self.filter_master, t)
                with rec.span("graphs.filter_edges") as filt:
                    kept = filter_edges(built.graph, c["psi"], stream)
                filt.attrs["kept"] = kept.m
                h = GeometricGraph(kept, self.points)
                with rec.span("euclid.count_stretch_failures") as op:
                    failures = count_stretch_failures(h, self.points, c["eps"], 4)
                op.attrs["stretch_failures"] = failures
            rates.append(1.0 / trial.seconds)
            counts.append(failures)
            count_ops.append(op)
            if first is None:
                first = h
        paths, path_ops = [], []
        for i, j in self.pairs[:c["paths"]]:
            with rec.span("euclid.extract_bounded_path") as op:
                path = extract_bounded_path(first, i + 1, j + 1, 4)
            with rec.span("euclid.bounded_hop_distance"):
                dist = bounded_hop_distance(first, i + 1, j + 1, 4)
            paths.append([path, dist])
            path_ops.append(op)
        self.built = built
        self.first_trial_graph = first
        return Pass(build_s=build.seconds, trial_rates=rates,
                    outputs={"witness_ids": witnesses,
                             "edges": built.graph.m,
                             "graph_sha256": sha256_graph(built.graph),
                             "stretch_failures": counts,
                             "paths": paths},
                    producers={"witness_ids": witness_ops, "edges": build,
                               "graph_sha256": build,
                               "stretch_failures": count_ops,
                               "paths": path_ops})

    def digest(self, p: Pass):
        pass

    def replay(self, rec):
        """The per-ordering steps of the build again, through public calls,
        so that lso.sort_indices and the rank builds get spans."""
        c = self.cfg
        n = c["n"]
        coords = self.points.coords
        with rec.span("lso.build_lso_family"):
            fam = build_lso_family(c["eps"] / 8.0, c["dim"])
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        for oid in spread_ids(len(fam), DEFAULT_MAX_ORDERINGS).tolist():
            with rec.span("lso.sort_indices"):
                order = fam.sort_indices(fam.ordering(oid), coords)
            with rec.span("rng.derive_seed"):
                sub_seed = derive_seed(self.build_seed, oid)
            with rec.span("spanners1d.four_hop_spanner", n=n) as op:
                sub = four_hop_spanner(n, c["psi"], c["c7"], seed=sub_seed)
            op.attrs["edges"] = sub.m
            pu, pv = order[sub.edge_i - 1], order[sub.edge_j - 1]
            adj[np.minimum(pu, pv) + 1, np.maximum(pu, pv) + 1] = True
        built = np.zeros_like(adj)
        built[self.built.graph.edge_i, self.built.graph.edge_j] = True
        return {"mismatched": int((adj != built).sum())}

    def baseline(self, rec) -> dict:
        """locality_witness per pair, euclidean_dependable_spanner and one
        filtered count_stretch_failures, for n=512 points in 2-D with
        eps=0.25, as in the baseline table."""
        n, eps, psi = 512, 0.25, 0.5
        coords = derive_stream(derive_seed(self.seed, 0), 0).uniforms(n * 2)
        points = PointSet(coords.reshape(n, 2) * (1.0 - 2.0 ** -16))
        family = build_lso_family(eps, 2)
        c = points.coords
        pair_stream = derive_stream(derive_seed(self.seed, 1), 0)
        witness = []
        for _ in range(64):
            i, j = (int(x) for x in pair_stream.choice_without_replacement(n, 2))
            with rec.span("lso.locality_witness") as op:
                locality_witness(family, c, c[i], c[j])
            witness.append(op.seconds)
        with rec.span("euclid.euclidean_dependable_spanner") as build:
            built = euclidean_dependable_spanner(
                points, eps, psi, self.cfg["c7"], mode="four-hop",
                seed=self.build_seed)
        kept = filter_edges(built.graph, psi,
                            derive_stream(self.filter_master, 0))
        with rec.span("euclid.count_stretch_failures") as stretch:
            count_stretch_failures(GeometricGraph(kept, points), points, eps, 4)
        return {"locality_witness_512_s": float(np.median(witness)),
                "euclidean_dependable_spanner_512_s": build.seconds,
                "count_stretch_failures_512_s": stretch.seconds}

    def check(self, rec, p: Pass, replayed, size: str):
        h = self.first_trial_graph
        weight = h.graph.edge_weight_map()
        for (path, dist), op in zip(p.outputs["paths"],
                                    p.producers["paths"]):
            total = sum(weight[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:]))
            rec.expect(op, len(path) - 1 <= 4,
                       f"extracted path {path} has more than 4 edges")
            rec.expect(op, abs(total - dist) <= 1e-9 * dist,
                       f"path {path} re-sums to {total!r}, "
                       f"bounded_hop_distance says {dist!r}")

    def layer_metrics(self, spans, replayed) -> dict:
        witness = [sp.attrs["found"] for sp in spans
                   if sp.name == "lso.locality_witness"]
        return {
            "lso.locality_witness_s":
                ("s", median_of(spans, "lso.locality_witness")),
            "lso.witness_found_ratio": ("ratio", sum(witness) / len(witness)),
            "lso.sort_indices_s": ("s", median_of(spans, "lso.sort_indices")),
            "spanners1d.euclid_four_hop_spanner_s":
                ("s", median_of(spans, "spanners1d.four_hop_spanner")),
            "euclid.euclidean_dependable_spanner_s":
                ("s", median_of(spans, "euclid.euclidean_dependable_spanner")),
            "euclid.density":
                ("ratio", median_of(spans, "euclid.euclidean_dependable_spanner",
                                    "density")),
            "euclid.orderings_used":
                ("count", median_of(spans,
                                    "euclid.euclidean_dependable_spanner",
                                    "orderings_used")),
            "euclid.count_stretch_failures_s":
                ("s", median_of(spans, "euclid.count_stretch_failures")),
            "euclid.stretch_failures":
                ("count", median_of(spans, "euclid.count_stretch_failures",
                                    "stretch_failures")),
            "euclid.extract_bounded_path_s":
                ("s", median_of(spans, "euclid.extract_bounded_path")),
            "euclid.replay_edges_mismatched":
                ("count", replayed["mismatched"]),
        }


WORKLOADS = {cls.name: cls for cls in (HopSurvival, CliPipeline, Euclid)}


# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, asked of the library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_env() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "depspan": depspan.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
    }


def compare(rec, key, got, want, producer, what):
    """Fail the producing operation(s) of `key` where `got` differs from
    `want`; lists with per-element producers are compared element-wise."""
    if isinstance(producer, list):
        if not isinstance(want, list) or len(want) != len(got):
            rec.fail(producer[0], f"{key}: {what} {want!r}, got {got!r}")
            return
        for i, (g, w, op) in enumerate(zip(got, want, producer)):
            rec.expect(op, g == w, f"{key}[{i}]: {what} {w!r}, got {g!r}")
    else:
        rec.expect(producer, got == want, f"{key}: {what} {want!r}, got {got!r}")


def one_pass(wl, rec) -> Pass:
    with rec.span("bench.pass") as sp:
        p = wl.run_pass(rec)
    p.wall_s = sp.seconds
    wl.digest(p)
    return p


def check_outputs(wl, rec, args, p: Pass, replayed):
    with rec.span("bench.check"):
        wl.check(rec, p, replayed, args.size)
    if args.seed != args.reference_seed:
        return
    ref = json.loads(Path(args.reference).read_text())
    want = ref.get(args.size, {}).get(args.workload)
    if want is None:
        rec.fail_run(f"no reference recorded for {args.size}/{args.workload}")
        return
    for key, value in want.items():
        compare(rec, key, p.outputs.get(key), value, p.producers[key],
                "reference is")


def run(args) -> dict:
    cfg = SIZES[args.size][args.workload]
    rec = Recorder(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "size": args.size, "config": cfg}
    wl = WORKLOADS[args.workload](args.seed, cfg, Path(args.scratch))
    try:
        wl.warm_up(rec)
        result["ready"] = time.monotonic()
        result["env"] = library_env()
        if args.mode == "setup":
            return result
        if args.mode == "baseline":
            result["baseline"] = wl.baseline(rec)
            return result
        traced = args.mode == "trace"
        rec.recording = traced
        with rec.span("bench.traced"):
            p = one_pass(wl, rec)
            replayed = wl.replay(rec) if traced else None
        rec.recording = False
        if args.mode == "record":
            result["outputs"] = {k: p.outputs[k] for k in wl.reference_keys}
            return result
        result["outputs"] = p.outputs
        check_outputs(wl, rec, args, p, replayed)
        result.update(wall_s=p.wall_s, build_s=p.build_s,
                      trial_rates=p.trial_rates)
        if getattr(wl, "child_rss_mb", None):
            result["child_rss_mb"] = max(wl.child_rss_mb)
        if traced:
            spans = rec.spans
            self_s = layer_self_seconds(spans)
            layer = wl.layer_metrics(spans, replayed)
            for name in wl.self_layers:
                layer[f"self_s.{wl.name}.{name}"] = ("s", self_s.get(name, 0.0))
            result["layer_metrics"] = {
                name: {"value": value, "unit": unit}
                for name, (unit, value) in layer.items()}
            result["spans"] = [sp.as_dict(rec.run_id) for sp in rec.spans]
    except Exception:
        traceback.print_exc()
        rec.fail_run("worker raised: " + traceback.format_exc(limit=3))
    finally:
        result.update(attempted=rec.attempted, failed=rec.failed,
                      problems=rec.problems)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--mode",
                    choices=["setup", "pass", "trace", "record", "baseline"],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--reference", default=str(BENCH / "reference.json"))
    ap.add_argument("--reference-seed", type=int, default=1)
    ap.add_argument("--scratch", required=True,
                    help="directory for the worker's files")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that childproc kills and reaps the running CLI step
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = (ROOT / "src").resolve()
    if not Path(depspan.__file__).resolve().is_relative_to(src):
        print(f"error: depspan imported from {depspan.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
