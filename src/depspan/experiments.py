"""Experiment harness: quantitative-law reproduction as deterministic CSV.

An experiment is one entry of `_EXPERIMENTS`: the config fields it sweeps,
its columns, a row function `(cfg, cell_seed, *cell) -> list` and a check on
rows keyed by column. `run_experiment` is the one cell loop: cell i of the
swept cross product (n-major) gets `derive_seed(cfg.seed, i)`. Construction
randomness is separated from trial randomness, so re-running an experiment
reproduces the CSV byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import DEFAULT_C6, DEFAULT_C7, EXPERIMENT_NAMES
from .graphs import complete_graph, interval_graph
from .reach import (DeficiencyReport, expected_two_hop_deficiency,
                    failure_trials, khop_deficiency_split,
                    monte_carlo_deficiency)
from .rng import derive_seed
from .spanners1d import (DerivedParams, _assemble, _check_constant,
                         dependable_interval_spanner, interval_radius)

__all__ = [
    "ExperimentConfig",
    "EXPERIMENT_NAMES",
    "run_experiment",
    "render_csv",
    "experiment_csv",
    "check_experiment",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for one experiment run; lists are swept as a cross product."""

    name: str
    ns: tuple = ()
    psis: tuple = ()
    ks: tuple = (4,)
    trials: int = 100
    seed: int = 0
    hops: int | None = None
    c6: float = DEFAULT_C6
    c7: float = DEFAULT_C7
    source_samples: int | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}; "
                             f"expected one of {sorted(EXPERIMENT_NAMES)}")
        if not self.ns:
            raise ValueError("need at least one n value")
        if not self.psis:
            raise ValueError("need at least one survival probability")
        if any(n < 2 for n in self.ns):
            raise ValueError("all n values must be >= 2")
        if any(not (0.0 < p <= 1.0) for p in self.psis):
            raise ValueError("survival probabilities must be in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.hops is not None and self.hops < 1:
            raise ValueError("hop bound must be >= 1")
        if self.source_samples is not None:
            if self.source_samples < 1:
                raise ValueError("source samples must be >= 1")
            if self.hops is not None:
                raise ValueError("source sampling needs unbounded hops")
        if self.name != "clique-scaling":
            for field in ("hops", "source_samples"):
                if getattr(self, field) is not None:
                    raise ValueError(f"{field} applies only to clique-scaling, "
                                     f"not {self.name}")
        if any(k < 3 for k in self.ks):
            raise ValueError("hop budgets must be >= 3")
        _check_constant("c6", self.c6)
        _check_constant("c7", self.c7)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def render_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Row functions return a cell's row without the two leading columns.

_CLIQUE_COLS = ["n", "psi", "hop_bound", "trials", "seed", "mean", "stderr",
                "norm_ratio", "two_hop_expected"]


def experiment_clique_scaling(cfg, cell_seed, n, psi):
    """Deficiency of the filtered complete graph, normalized by
    (n/psi) ln(1/psi); the normalized ratios should be flat across psi."""
    rep = monte_carlo_deficiency(complete_graph(n), psi, cfg.trials,
                                 hop_bound=cfg.hops, master=cell_seed,
                                 source_sample=cfg.source_samples)
    denom = (n / psi) * math.log(1.0 / psi) if psi < 1.0 else 0.0
    ratio = rep.mean_failed_pairs / denom if denom > 0 else None
    oracle = expected_two_hop_deficiency(n, psi) if cfg.hops == 2 else None
    return [n, psi, "inf" if cfg.hops is None else cfg.hops, cfg.trials,
            cell_seed, rep.mean_failed_pairs, rep.stderr, ratio, oracle]


def _check_clique_scaling(rows):
    problems = [f"n={r['n']} psi={r['psi']}: mean {r['mean']:.3f} vs oracle "
                f"{r['two_hop_expected']:.3f} beyond 3 stderr"
                for r in rows if r["two_hop_expected"] is not None
                and abs(r["mean"] - r["two_hop_expected"]) > 3.0 * r["stderr"]]
    ratios = [r["norm_ratio"] for r in rows if r["norm_ratio"] is not None]
    if len(ratios) > 1 and max(ratios) > 4.0 * min(ratios):
        problems.append(f"normalized ratios spread beyond 4x: "
                        f"{min(ratios):.4g}..{max(ratios):.4g}")
    return problems


_PAIRED_COLS = ["n", "psi", "c6", "radius", "trials", "seed", "spanner_mean",
                "spanner_stderr", "clique_mean", "clique_stderr", "diff_mean",
                "combined_stderr"]


def experiment_spanner_vs_clique(cfg, cell_seed, n, psi):
    """Trials of the interval spanner against the complete graph; the mean
    deficiency difference should stay within one failed pair of zero. Both
    graphs read the same per-trial streams, but each draws one uniform per
    edge in its own canonical order, so failures are not coupled edge by
    edge and combined_stderr treats the two means as independent."""
    spanner = dependable_interval_spanner(n, psi, cfg.c6)
    rep_s = monte_carlo_deficiency(spanner, psi, cfg.trials, master=cell_seed)
    rep_c = monte_carlo_deficiency(complete_graph(n), psi, cfg.trials,
                                   master=cell_seed)
    return [n, psi, cfg.c6, interval_radius(n, psi, cfg.c6), cfg.trials,
            cell_seed, rep_s.mean_failed_pairs, rep_s.stderr,
            rep_c.mean_failed_pairs, rep_c.stderr,
            rep_s.mean_failed_pairs - rep_c.mean_failed_pairs,
            math.hypot(rep_s.stderr, rep_c.stderr)]


def _check_spanner_vs_clique(rows):
    return [f"n={r['n']} psi={r['psi']}: diff {r['diff_mean']:.3f} exceeds "
            f"3*stderr+1 = {3 * r['combined_stderr'] + 1:.3f}"
            for r in rows if r["diff_mean"] > 3.0 * r["combined_stderr"] + 1.0]


_SPARSE_COLS = ["n", "psi", "trials", "seed", "mean", "stderr", "threshold",
                "exceeds_threshold"]


def experiment_sparse_failure(cfg, cell_seed, n, psi):
    """Deficiency of the path graph (radius-1 interval graph): a graph this
    sparse must fail at least n^(3/2)/8 pairs in expectation."""
    rep = monte_carlo_deficiency(interval_graph(n, 1), psi, cfg.trials,
                                 master=cell_seed)
    threshold = n ** 1.5 / 8.0
    return [n, psi, cfg.trials, cell_seed, rep.mean_failed_pairs, rep.stderr,
            threshold, int(rep.mean_failed_pairs >= threshold)]


def _check_sparse_failure(rows):
    return [f"n={r['n']} psi={r['psi']}: mean {r['mean']:.1f} below "
            f"threshold {r['threshold']:.1f}"
            for r in rows if r["psi"] < 1.0 and not r["exceeds_threshold"]]


_HOP_COLS = ["n", "psi", "k", "construction", "nu", "block_size", "radius",
             "connector_rate", "trials", "seed", "short_mean", "long_mean",
             "total_mean", "total_stderr", "reference_bound",
             "long_zero_trials", "total_within_2x_trials"]


def experiment_hop_survival(cfg, cell_seed, n, psi, k):
    """k-hop failure counts of the few-hop constructions, split into short
    pairs (within the interval radius) and long pairs (that must cross
    connectors); the reference line is n/psi^2."""
    dp = (DerivedParams.for_four_hop(n, psi, cfg.c7) if k == 4
          else DerivedParams.for_k_hop(n, psi, k, cfg.c7))
    # built from the same object the row reports
    g = _assemble(n, dp, derive_seed(cell_seed, 0))
    mc_seed = derive_seed(cell_seed, 1)

    splits = list(itertools.starmap(
        lambda h, _: khop_deficiency_split(h, k, dp.radius),
        failure_trials(g, psi, cfg.trials, mc_seed)))
    totals = [s + l for s, l in splits]
    rep = DeficiencyReport.from_counts(n, psi, k, mc_seed, totals)
    # psi^2 underflows to 0 below about 1e-162, where n / psi^2 is past range
    reference = n / (psi * psi) if psi * psi > 0 else math.inf
    return [n, psi, k, "fourhop" if k == 4 else "khop", dp.nu,
            dp.block_size, dp.radius, dp.connector_rate, cfg.trials, cell_seed,
            sum(s for s, _ in splits) / cfg.trials,
            sum(l for _, l in splits) / cfg.trials,
            rep.mean_failed_pairs, rep.stderr, reference,
            sum(1 for _, l in splits if l == 0),
            sum(1 for t in totals if t <= 2.0 * (reference + 1.0))]


def _check_hop_survival(rows):
    problems = []
    for r in rows:
        trials, long_zero = r["trials"], r["long_zero_trials"]
        within = r["total_within_2x_trials"]
        label = f"n={r['n']} psi={r['psi']} k={r['k']}"
        if long_zero < math.ceil(0.95 * trials):
            problems.append(f"{label}: long-pair failures nonzero in "
                            f"{trials - long_zero}/{trials} trials")
        if within < math.ceil(0.90 * trials):
            problems.append(f"{label}: total failures above 2(n/psi^2+1) in "
                            f"{trials - within}/{trials} trials")
    return problems


_EXPERIMENTS = {
    # name: (swept config fields, columns, row function, check)
    "clique-scaling": (("ns", "psis"), _CLIQUE_COLS,
                       experiment_clique_scaling, _check_clique_scaling),
    "spanner-vs-clique": (("ns", "psis"), _PAIRED_COLS,
                          experiment_spanner_vs_clique,
                          _check_spanner_vs_clique),
    "sparse-failure": (("ns", "psis"), _SPARSE_COLS,
                       experiment_sparse_failure, _check_sparse_failure),
    "hop-survival": (("ns", "psis", "ks"), _HOP_COLS,
                     experiment_hop_survival, _check_hop_survival),
}


def run_experiment(cfg: ExperimentConfig):
    """(columns, raw rows) for the named experiment, one row per cell."""
    sweep, columns, row, _ = _EXPERIMENTS[cfg.name]
    cells = itertools.product(*(getattr(cfg, field) for field in sweep))
    rows = [[SCHEMA_VERSION, cfg.name,
             *row(cfg, derive_seed(cfg.seed, i), *cell)]
            for i, cell in enumerate(cells)]
    return ["schema_version", "experiment", *columns], rows


def experiment_csv(cfg: ExperimentConfig) -> str:
    return render_csv(*run_experiment(cfg))


def check_experiment(cfg: ExperimentConfig, columns, rows) -> list[str]:
    """Built-in threshold check; returns a list of violation messages."""
    return _EXPERIMENTS[cfg.name][3]([dict(zip(columns, r)) for r in rows])
