"""Straight-path reachability and deficiency measurement.

A straight path is a path whose vertex ranks strictly increase, so the edges
of a RankGraph form a DAG when oriented low-to-high and reachability is a
single forward sweep. Two exact engines back the pair counts:

* unbounded reachability: a bitset closure over a set of sources (all n, or a
  sample), one row of source bits per target vertex, filled in one ascending
  pass (row i is ORed into the rows of its out-neighbors, which are one run
  of the canonical edge order, so no engine re-sorts edges);
* hop-bounded reachability: boolean powers of I + A, stored as float32 row
  panels that each hold their rows from the diagonal rightwards, and
  multiplied panel by panel with BLAS, for every n. Memory is about
  3 * (n^2 / 2) * 4 bytes plus one panel product.

The test suite cross-checks both against brute-force path enumeration on
small graphs, the hop-bounded engine also at panel heights far below n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import RankGraph, filter_edges
from .rng import derive_stream

__all__ = [
    "DeficiencyReport",
    "straight_reachable",
    "straight_hops",
    "deficiency",
    "khop_deficiency",
    "khop_deficiency_split",
    "no_two_hop_probability",
    "expected_two_hop_deficiency",
    "monte_carlo_deficiency",
]

# Rows per panel of the hop-bounded engine.
_TILE = 512

_ONE = np.uint64(1)


# ---------------------------------------------------------------------------
# per-source sweeps (the reference per-vertex API)

def _out_runs(g: RankGraph) -> list:
    """Bounds of each vertex's out-edges in canonical order: the edges
    (i, j), j > i, are runs[i]:runs[i + 1], for i in 0..n."""
    return np.searchsorted(g.edge_i, np.arange(g.n + 2)).tolist()


def straight_reachable(g: RankGraph, source: int) -> np.ndarray:
    """Boolean vector over ranks: entry j is True iff a straight path
    source = t_1 < ... < t_k = j exists. Indexed by rank; entries at
    positions <= source are False. The finite entries of straight_hops.
    """
    reach = np.isfinite(straight_hops(g, source))
    reach[:source + 1] = False
    return reach


def straight_hops(g: RankGraph, source: int) -> np.ndarray:
    """Minimum straight-path hop counts from source, np.inf where unreachable.

    Indexed by rank; hops[source] = 0, positions below source are np.inf.
    """
    if not (1 <= source <= g.n):
        raise ValueError(f"vertex {source} out of range [1, {g.n}]")
    runs = _out_runs(g)
    hops = np.full(g.n + 1, np.inf)
    hops[source] = 0.0
    for i in range(source, g.n + 1):
        if hops[i] < np.inf:
            nb = g.edge_j[runs[i]:runs[i + 1]]
            hops[nb] = np.minimum(hops[nb], hops[i] + 1.0)
    return hops


# ---------------------------------------------------------------------------
# bitset closure engine (a set of sources at once)

def _closure_reachable_pairs(g: RankGraph, sources: np.ndarray) -> int:
    """Number of pairs (src, j), src in the sorted `sources`, joined by a
    straight path src < ... < j.

    Row j of the bit matrix holds the sources that reach j, one bit per
    source. The ascending sweep ORs row i into its out-neighbors' rows; row i
    is final when reached because all its in-neighbors are smaller.
    """
    s = sources.size
    rows = np.zeros((g.n + 1, (s + 63) >> 6), dtype=np.uint64)
    bit = np.arange(s)
    rows[sources, bit >> 6] = _ONE << (bit & 63).astype(np.uint64)
    runs, heads = _out_runs(g), g.edge_j.astype(np.intp)
    for i in range(int(sources[0]), g.n):
        nb = heads[runs[i]:runs[i + 1]]
        # take + assign: about 1.3x faster than rows[nb] |= rows[i]
        rows[nb] = rows.take(nb, axis=0) | rows[i]
    return int(np.bitwise_count(rows[1:]).sum()) - s


def deficiency(g: RankGraph) -> int:
    """Number of pairs i < j with no straight path in g."""
    reachable = _closure_reachable_pairs(g, np.arange(1, g.n + 1))
    return g.n * (g.n - 1) // 2 - reachable


# ---------------------------------------------------------------------------
# hop-bounded engine: upper-triangular boolean matrix powers in row panels

def _panel_product(x: list, y: list) -> list:
    """Boolean product Z = (X @ Y) > 0 of two panel lists: panel I of Z is the
    sum over K >= I of X's panel I, columns of panel K's rows, @ Y's panel K."""
    z = []
    for I, xp in enumerate(x):
        out = xp[:, :_TILE] @ y[I]
        for K in range(I + 1, len(y)):
            off = (K - I) * _TILE
            out[:, off:] += xp[:, off:off + _TILE] @ y[K]
        np.minimum(out, 1.0, out=out)  # entries are path counts >= 0
        z.append(out)
    return z


def _zeros_beyond(panels: list, d: int) -> int:
    """Number of zero entries (i, j) with j - i > d >= 0 of a panel list
    (in every panel, entry (a, b) has j - i = b - a)."""
    return int(sum(np.count_nonzero(np.triu(p == 0, d + 1)) for p in panels))


def _khop_power(g: RankGraph, k: int) -> list:
    """(I + A)^k as a boolean matrix, A the adjacency of g's edges i < j.

    A is strictly upper triangular, so every power of I + A is upper
    triangular and a zero entry above the diagonal is exactly a missing
    <=k-hop path. The matrix is a list of float32 row panels: panel p holds
    rows s..s+h-1 and columns s..n-1, s = p * _TILE, h = min(_TILE, n - s),
    so its entry (a, b) is entry (s + a, s + b) and b - a is the rank
    distance. Square-and-multiply holds at most three such matrices, so
    memory is about 3 * (n^2 / 2) * 4 bytes plus one panel product; no dense
    n x n matrix is allocated.
    """
    n, runs = g.n, _out_runs(g)
    power = []
    for s in range(0, n, _TILE):
        h = min(_TILE, n - s)
        panel = np.zeros((h, n - s), dtype=np.float32)
        np.fill_diagonal(panel, 1.0)
        a, b = runs[s + 1], runs[s + h + 1]  # out-edges of ranks s+1..s+h
        panel[g.edge_i[a:b] - (s + 1), g.edge_j[a:b] - (s + 1)] = 1.0
        power.append(panel)
    result = None
    kk = min(k, max(1, n - 1))  # longer straight paths cannot exist
    while True:
        if kk & 1:
            result = power if result is None else _panel_product(result, power)
        kk >>= 1
        if kk == 0:
            return result
        power = _panel_product(power, power)


def khop_deficiency(g: RankGraph, k: int) -> int:
    """Number of pairs i < j whose minimum straight hop count exceeds k."""
    if k < 1:
        raise ValueError(f"hop bound must be >= 1, got {k}")
    return _zeros_beyond(_khop_power(g, k), 0)


def khop_deficiency_split(g: RankGraph, k: int, radius: int) -> tuple[int, int]:
    """(short, long) k-hop failure counts, split at rank distance `radius`:
    a pair is long when j - i > radius."""
    if k < 1:
        raise ValueError(f"hop bound must be >= 1, got {k}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    power = _khop_power(g, k)
    long_fail = _zeros_beyond(power, radius)
    return _zeros_beyond(power, 0) - long_fail, long_fail


# ---------------------------------------------------------------------------
# closed-form two-hop oracle

def no_two_hop_probability(delta: int, psi: float) -> float:
    """Probability that a pair at rank distance delta has no straight path of
    at most 2 hops after filtering K_n at survival rate psi.

    The direct edge and the delta-1 midpoint paths use pairwise disjoint edge
    sets, so (1 - psi) * (1 - psi^2)^(delta - 1) is exact, not just a bound.
    """
    if delta < 1:
        raise ValueError(f"rank distance must be >= 1, got {delta}")
    if not (0.0 <= psi <= 1.0):
        raise ValueError(f"survival probability must be in [0, 1], got {psi}")
    return (1.0 - psi) * (1.0 - psi * psi) ** (delta - 1)


def expected_two_hop_deficiency(n: int, psi: float) -> float:
    """Expected count of pairs of K_n with no <=2-hop straight path after
    filtering at psi; always at most n / psi^2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (0.0 < psi <= 1.0):
        raise ValueError(f"survival probability must be in (0, 1], got {psi}")
    deltas = np.arange(1, n, dtype=np.float64)
    terms = (n - deltas) * (1.0 - psi) * (1.0 - psi * psi) ** (deltas - 1.0)
    return float(terms.sum())


# ---------------------------------------------------------------------------
# Monte Carlo estimation

@dataclass(frozen=True)
class DeficiencyReport:
    """Aggregate of independent failure trials on one graph."""

    n: int
    psi: float
    trials: int
    hop_bound: int | None  # None = unbounded straight paths
    seed: int
    per_trial_counts: tuple
    mean_failed_pairs: float
    stderr: float

    CSV_HEADER = "n,psi,hop_bound,trials,mean,stderr,seed"

    @classmethod
    def from_counts(cls, n, psi, hop_bound, seed, counts) -> "DeficiencyReport":
        arr = np.asarray(counts, dtype=np.float64)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        return cls(n=n, psi=psi, trials=int(arr.size), hop_bound=hop_bound,
                   seed=seed, per_trial_counts=tuple(counts),
                   mean_failed_pairs=mean, stderr=stderr)

    def csv_row(self) -> str:
        hop = "inf" if self.hop_bound is None else str(self.hop_bound)
        return (f"{self.n},{self.psi:.12g},{hop},{self.trials},"
                f"{self.mean_failed_pairs:.12g},{self.stderr:.12g},{self.seed}")


def monte_carlo_deficiency(g: RankGraph, psi: float, trials: int,
                           hop_bound: int | None = None, master: int = 0,
                           jobs: int = 1,
                           source_sample: int | None = None) -> DeficiencyReport:
    """Estimate the expected deficiency of g under survival rate psi.

    Trial t is filter_edges(g, psi, derive_stream(master, t)) followed by the
    exact failed-pair count of the filtered graph, unless source_sample < n:
    then the same stream draws that many sources afterwards, and the count
    over them is scaled by n / source_sample (unbiased). Trials run in
    order, so the report is a pure function of the arguments. `jobs` is
    validated (>= 1) and otherwise ignored.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not (0.0 <= psi <= 1.0):
        raise ValueError(f"survival probability must be in [0, 1], got {psi}")
    if hop_bound is not None and hop_bound < 1:
        raise ValueError(f"hop bound must be >= 1, got {hop_bound}")
    if source_sample is not None:
        if source_sample < 1:
            raise ValueError(f"source sample must be >= 1, got {source_sample}")
        if hop_bound is not None:
            raise ValueError("source sampling needs unbounded hops; "
                             "hop-bounded counts are always exact")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n = g.n
    sampled = source_sample is not None and source_sample < n

    def run(t: int):
        stream = derive_stream(master, t)
        h = filter_edges(g, psi, stream)
        if hop_bound is not None:
            return khop_deficiency(h, hop_bound)
        if not sampled:
            return deficiency(h)
        sources = np.sort(stream.choice_without_replacement(n, source_sample) + 1)
        missing = int((n - sources).sum()) - _closure_reachable_pairs(h, sources)
        return missing * n / source_sample

    counts = [run(t) for t in range(trials)]
    return DeficiencyReport.from_counts(n, psi, hop_bound, master, counts)
