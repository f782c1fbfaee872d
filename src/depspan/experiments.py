"""Experiment harness: quantitative-law reproduction as deterministic CSV.

Every experiment is a pure function of (config, seed): cells are enumerated
in a fixed order, each cell derives its own master seed, and construction
randomness is separated from trial randomness, so re-running any experiment
reproduces the CSV byte for byte regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import complete_graph, filter_edges, interval_graph
from .reach import (DeficiencyReport, _map_trials, expected_two_hop_deficiency,
                    khop_deficiency_split, monte_carlo_deficiency)
from .rng import derive_seed, derive_stream
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
    c6: float = 4.0
    c7: float = 4.0
    jobs: int = 1
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
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
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

_CLIQUE_COLS = ["schema_version", "experiment", "n", "psi", "hop_bound",
                "trials", "seed", "mean", "stderr", "norm_ratio",
                "two_hop_expected"]


def experiment_clique_scaling(cfg: ExperimentConfig):
    """Deficiency of the filtered complete graph, normalized by
    (n/psi) ln(1/psi); the normalized ratios should be flat across psi."""
    rows = []
    for cell, (n, psi) in enumerate((n, p) for n in cfg.ns for p in cfg.psis):
        cell_seed = derive_seed(cfg.seed, cell)
        rep = monte_carlo_deficiency(complete_graph(n), psi, cfg.trials,
                                     hop_bound=cfg.hops, master=cell_seed,
                                     jobs=cfg.jobs,
                                     source_sample=cfg.source_samples)
        denom = (n / psi) * math.log(1.0 / psi) if psi < 1.0 else 0.0
        ratio = rep.mean_failed_pairs / denom if denom > 0 else None
        oracle = expected_two_hop_deficiency(n, psi) if cfg.hops == 2 else None
        rows.append([SCHEMA_VERSION, cfg.name, n, psi,
                     "inf" if cfg.hops is None else cfg.hops, cfg.trials,
                     cell_seed, rep.mean_failed_pairs, rep.stderr, ratio,
                     oracle])
    return _CLIQUE_COLS, rows


def _check_clique_scaling(columns, rows):
    mean_i = columns.index("mean")
    err_i = columns.index("stderr")
    oracle_i = columns.index("two_hop_expected")
    ratio_i = columns.index("norm_ratio")
    problems = []
    ratios = [r[ratio_i] for r in rows if r[ratio_i] is not None]
    for r in rows:
        if r[oracle_i] is not None:
            if abs(r[mean_i] - r[oracle_i]) > 3.0 * r[err_i]:
                problems.append(f"n={r[2]} psi={r[3]}: mean {r[mean_i]:.3f} "
                                f"vs oracle {r[oracle_i]:.3f} beyond 3 stderr")
    if len(ratios) > 1 and max(ratios) > 4.0 * min(ratios):
        problems.append(f"normalized ratios spread beyond 4x: "
                        f"{min(ratios):.4g}..{max(ratios):.4g}")
    return problems


_PAIRED_COLS = ["schema_version", "experiment", "n", "psi", "c6", "radius",
                "trials", "seed", "spanner_mean", "spanner_stderr",
                "clique_mean", "clique_stderr", "diff_mean", "combined_stderr"]


def experiment_spanner_vs_clique(cfg: ExperimentConfig):
    """Trials of the interval spanner against the complete graph; the mean
    deficiency difference should stay within one failed pair of zero. Both
    graphs read the same per-trial streams, but each draws one uniform per
    edge in its own canonical order, so failures are not coupled edge by
    edge and combined_stderr treats the two means as independent."""
    rows = []
    for cell, (n, psi) in enumerate((n, p) for n in cfg.ns for p in cfg.psis):
        cell_seed = derive_seed(cfg.seed, cell)
        spanner = dependable_interval_spanner(n, psi, cfg.c6)
        rep_s = monte_carlo_deficiency(spanner, psi, cfg.trials,
                                       master=cell_seed, jobs=cfg.jobs)
        rep_c = monte_carlo_deficiency(complete_graph(n), psi, cfg.trials,
                                       master=cell_seed, jobs=cfg.jobs)
        combined = math.hypot(rep_s.stderr, rep_c.stderr)
        rows.append([SCHEMA_VERSION, cfg.name, n, psi, cfg.c6,
                     interval_radius(n, psi, cfg.c6), cfg.trials, cell_seed,
                     rep_s.mean_failed_pairs, rep_s.stderr,
                     rep_c.mean_failed_pairs, rep_c.stderr,
                     rep_s.mean_failed_pairs - rep_c.mean_failed_pairs,
                     combined])
    return _PAIRED_COLS, rows


def _check_spanner_vs_clique(columns, rows):
    diff_i = columns.index("diff_mean")
    comb_i = columns.index("combined_stderr")
    return [f"n={r[2]} psi={r[3]}: diff {r[diff_i]:.3f} exceeds "
            f"3*stderr+1 = {3 * r[comb_i] + 1:.3f}"
            for r in rows if r[diff_i] > 3.0 * r[comb_i] + 1.0]


_SPARSE_COLS = ["schema_version", "experiment", "n", "psi", "trials", "seed",
                "mean", "stderr", "threshold", "exceeds_threshold"]


def experiment_sparse_failure(cfg: ExperimentConfig):
    """Deficiency of the path graph (radius-1 interval graph): a graph this
    sparse must fail at least n^(3/2)/8 pairs in expectation."""
    rows = []
    for cell, (n, psi) in enumerate((n, p) for n in cfg.ns for p in cfg.psis):
        cell_seed = derive_seed(cfg.seed, cell)
        rep = monte_carlo_deficiency(interval_graph(n, 1), psi, cfg.trials,
                                     master=cell_seed, jobs=cfg.jobs)
        threshold = n ** 1.5 / 8.0
        rows.append([SCHEMA_VERSION, cfg.name, n, psi, cfg.trials, cell_seed,
                     rep.mean_failed_pairs, rep.stderr, threshold,
                     int(rep.mean_failed_pairs >= threshold)])
    return _SPARSE_COLS, rows


def _check_sparse_failure(columns, rows):
    return [f"n={r[2]} psi={r[3]}: mean {r[6]:.1f} below threshold {r[8]:.1f}"
            for r in rows if r[3] < 1.0 and not r[9]]


_HOP_COLS = ["schema_version", "experiment", "n", "psi", "k", "construction",
             "nu", "block_size", "radius", "connector_rate", "trials", "seed",
             "short_mean", "long_mean", "total_mean", "total_stderr",
             "reference_bound", "long_zero_trials", "total_within_2x_trials"]


def experiment_hop_survival(cfg: ExperimentConfig):
    """k-hop failure counts of the few-hop constructions, split into short
    pairs (within the interval radius) and long pairs (that must cross
    connectors); the reference line is n/psi^2."""
    rows = []
    cells = [(n, p, k) for n in cfg.ns for p in cfg.psis for k in cfg.ks]
    for cell, (n, psi, k) in enumerate(cells):
        cell_seed = derive_seed(cfg.seed, cell)
        build_seed = derive_seed(cell_seed, 0)
        mc_seed = derive_seed(cell_seed, 1)
        if k == 4:
            construction = "fourhop"
            dp = DerivedParams.for_four_hop(n, psi, cfg.c7)
        else:
            construction = "khop"
            dp = DerivedParams.for_k_hop(n, psi, k, cfg.c7)
        # built from the same object the row reports
        g = _assemble(n, dp, build_seed)

        def run(t: int):
            h = filter_edges(g, psi, derive_stream(mc_seed, t))
            return khop_deficiency_split(h, k, dp.radius)

        splits = _map_trials(run, cfg.trials, cfg.jobs)
        totals = [s + l for s, l in splits]
        rep = DeficiencyReport.from_counts(n, psi, k, mc_seed, totals)
        reference = n / (psi * psi)
        long_zero = sum(1 for _, l in splits if l == 0)
        within = sum(1 for t in totals if t <= 2.0 * (reference + 1.0))
        rows.append([SCHEMA_VERSION, cfg.name, n, psi, k, construction,
                     dp.nu, dp.block_size, dp.radius, dp.connector_rate,
                     cfg.trials, cell_seed,
                     sum(s for s, _ in splits) / cfg.trials,
                     sum(l for _, l in splits) / cfg.trials,
                     rep.mean_failed_pairs, rep.stderr, reference,
                     long_zero, within])
    return _HOP_COLS, rows


def _check_hop_survival(columns, rows):
    problems = []
    for r in rows:
        trials = r[columns.index("trials")]
        long_zero = r[columns.index("long_zero_trials")]
        within = r[columns.index("total_within_2x_trials")]
        label = f"n={r[2]} psi={r[3]} k={r[4]}"
        if long_zero < math.ceil(0.95 * trials):
            problems.append(f"{label}: long-pair failures nonzero in "
                            f"{trials - long_zero}/{trials} trials")
        if within < math.ceil(0.90 * trials):
            problems.append(f"{label}: total failures above 2(n/psi^2+1) in "
                            f"{trials - within}/{trials} trials")
    return problems


_EXPERIMENTS = {
    "clique-scaling": (experiment_clique_scaling, _check_clique_scaling),
    "spanner-vs-clique": (experiment_spanner_vs_clique, _check_spanner_vs_clique),
    "sparse-failure": (experiment_sparse_failure, _check_sparse_failure),
    "hop-survival": (experiment_hop_survival, _check_hop_survival),
}

EXPERIMENT_NAMES = frozenset(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig):
    """(columns, raw rows) for the named experiment."""
    return _EXPERIMENTS[cfg.name][0](cfg)


def experiment_csv(cfg: ExperimentConfig) -> str:
    columns, rows = run_experiment(cfg)
    return render_csv(columns, rows)


def check_experiment(cfg: ExperimentConfig, columns, rows) -> list[str]:
    """Built-in threshold check; returns a list of violation messages."""
    return _EXPERIMENTS[cfg.name][1](columns, rows)
