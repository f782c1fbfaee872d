"""One-dimensional dependable exact spanners.

All constructions here produce exact spanners on ranks 1..n (deficiency zero
before any failure) engineered so that, after each edge independently survives
with probability psi, the expected number of failed pairs stays close to the
unavoidable floor of the complete graph.

Parameter formulas use natural logarithms throughout. Derived quantities:

    nu  = psi^(-1/(k-1))                    expansion base (k = 4 by default)
    M   = min(n, ceil((c7 * nu / psi) ln n))  block size
    L   = 6M for the 4-hop construction, (k+4)M for the k-hop one, both
          clamped to n-1 (so small n degenerate to the complete graph)
    tau = min(1, c7^2 * nu / (psi * M))     bipartite connector rate

DerivedParams.for_k_hop / for_four_hop are the one check of (n, psi, k, c7):
n >= 2, psi in (0, 1], k >= 3, c7 finite and positive, raising ValueError
in that order. Each build derives its parameters once; callers that report
them (the CLI sidecar, the hop-survival CSV) pass that same object to
_assemble, so the reported values are the ones the graph was built with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import DEFAULT_C6, DEFAULT_C7
from .graphs import RankGraph, _with_far_edges, interval_graph
from .rng import RandomStream, derive_stream

__all__ = [
    "DerivedParams",
    "interval_radius",
    "dependable_interval_spanner",
    "two_hop_hierarchy",
    "block_partition",
    "bipartite_connector",
    "biclique_block_spanner",
    "four_hop_spanner",
    "khop_spanner",
]


def _check_constant(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"constant {name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from (n, psi, k, c7); see module docstring. The
    constructors are the one place the rank builds' inputs are checked."""

    nu: float
    block_size: int
    radius: int
    connector_rate: float

    @classmethod
    def for_k_hop(cls, n: int, psi: float, k: int, c7: float) -> "DerivedParams":
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if not (0.0 < psi <= 1.0):
            raise ValueError(f"survival probability must be in (0, 1], got {psi}")
        if k < 3:
            raise ValueError(f"hop budget must be >= 3, got {k}")
        _check_constant("c7", c7)
        nu = psi ** (-1.0 / (k - 1))
        block = min(n, math.ceil((c7 * nu / psi) * math.log(n)))
        return cls(nu=nu, block_size=block, radius=min((k + 4) * block, n - 1),
                   connector_rate=min(1.0, c7 * c7 * nu / (psi * block)))

    @classmethod
    def for_four_hop(cls, n: int, psi: float, c7: float) -> "DerivedParams":
        # The 4-hop construction uses the tighter interval radius 6M.
        dp = cls.for_k_hop(n, psi, 4, c7)
        return replace(dp, radius=min(6 * dp.block_size, n - 1))


def block_partition(n: int, size: int) -> tuple:
    """Consecutive inclusive rank intervals ((start, end), ...) covering 1..n.

    All blocks have the requested size except the last, which absorbs any
    remainder (sizes stay below twice the requested size); when the requested
    size exceeds n there is a single block.
    """
    if not (1 <= size):
        raise ValueError(f"block size must be >= 1, got {size}")
    nb = max(1, n // size)
    return tuple((b * size + 1, (b + 1) * size if b < nb - 1 else n)
                 for b in range(nb))


def interval_radius(n: int, psi: float, c6: float = DEFAULT_C6) -> int:
    """Connection radius of the plain interval spanner: ceil((c6/psi) ln n),
    clamped to n-1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < psi <= 1.0):
        raise ValueError(f"survival probability must be in (0, 1], got {psi}")
    _check_constant("c6", c6)
    return min(n - 1, math.ceil((c6 / psi) * math.log(n)))


def dependable_interval_spanner(n: int, psi: float, c6: float = DEFAULT_C6) -> RankGraph:
    """Connect every pair within rank distance ceil((c6/psi) ln n).

    Within any window of that width this graph is indistinguishable from the
    complete graph, which is what keeps its expected deficiency within one
    failed pair of the optimum.
    """
    if psi < 1.0 / max(n, 1):
        warnings.warn(f"survival probability {psi} below 1/n; the construction "
                      "degenerates", stacklevel=2)
    return interval_graph(n, interval_radius(n, psi, c6))


def two_hop_hierarchy(a: int, b: int) -> np.ndarray:
    """Edges of the median hierarchy on ranks a..b, as an (m, 2) array.

    The median m = floor((a+b)/2) is joined to every other rank of the range
    and both halves recurse, so every pair in the range gets a straight path
    of at most two hops while the edge count stays O(size * log(size)).
    """
    if a > b:
        raise ValueError(f"empty range [{a}, {b}]")
    chunks = [np.empty((0, 2), dtype=np.int64)]
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo:
            continue
        mid = (lo + hi) // 2
        others = np.concatenate([np.arange(lo, mid, dtype=np.int64),
                                 np.arange(mid + 1, hi + 1, dtype=np.int64)])
        chunks.append(np.stack([np.minimum(others, mid),
                                np.maximum(others, mid)], axis=1))
        if mid - 1 > lo:
            stack.append((lo, mid - 1))
        if hi > mid + 1:
            stack.append((mid + 1, hi))
    return np.concatenate(chunks, axis=0)


def bipartite_connector(x_block: tuple[int, int], y_block: tuple[int, int],
                        rate: float, rng: RandomStream) -> np.ndarray:
    """Sample each cross pair (x, y), x in x_block and y in the later y_block,
    independently with probability `rate`; returns an (m, 2) array, x < y.

    Pairs are enumerated row-major over (x ascending, y ascending), so the
    sample is a pure function of (blocks, rate, stream state).
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    xs, xe = x_block
    ys, ye = y_block
    if xs > xe or ys > ye:
        raise ValueError("empty block")
    if ys <= xe:
        raise ValueError(f"blocks overlap or are reversed: {x_block} vs {y_block}")
    ny = ye - ys + 1
    keep = np.flatnonzero(rng.uniforms((xe - xs + 1) * ny) < rate)
    return np.stack([xs + keep // ny, ys + keep % ny], axis=1)


def _far_block_pairs(n: int, dp: DerivedParams) -> list:
    """(stream index, x block, y block) of each hierarchy block pair whose
    widest cross pair reaches beyond the interval radius. Every pair the
    other block pairs could draw is an interval edge already, so they draw
    nothing; each block pair has its own stream, so skipping one changes no
    other's draws."""
    blocks = block_partition(n, dp.block_size)
    nb = len(blocks)
    return [((bi - 1) * nb + (bj - 1), blocks[bi - 1], blocks[bj - 1])
            for bi, bj in two_hop_hierarchy(1, nb).tolist()
            if blocks[bj - 1][1] - blocks[bi - 1][0] > dp.radius]


def _connectors(block_pairs: list, dp: DerivedParams, seed: int) -> np.ndarray:
    """The connector edges drawn by block_pairs (from _far_block_pairs) that
    are longer than the interval radius (the rest are interval edges), an
    (m, 2) array in canonical order. No pair repeats: the hierarchy's block
    pairs are distinct and disjoint."""
    parts = [np.empty((0, 2), dtype=np.int64)]
    for index, x_block, y_block in block_pairs:
        pairs = bipartite_connector(x_block, y_block, dp.connector_rate,
                                    derive_stream(seed, index))
        parts.append(pairs[pairs[:, 1] - pairs[:, 0] > dp.radius])
    far = np.concatenate(parts, axis=0)
    return far[np.lexsort((far[:, 1], far[:, 0]))]


def _assemble(n: int, dp: DerivedParams, seed: int) -> RankGraph:
    """Interval graph of radius dp.radius plus the block hierarchy's connector
    edges that reach beyond it, each inserted after its row's interval edges."""
    return _with_far_edges(interval_graph(n, dp.radius),
                           _connectors(_far_block_pairs(n, dp), dp, seed))


def biclique_block_spanner(n: int, psi: float, c7: float = DEFAULT_C7) -> RankGraph:
    """Baseline few-hop spanner: block hierarchy with full bicliques.

    Denser than the connector version by roughly a block-size factor; kept as
    the reference the sparse construction is measured against.
    """
    # uniforms lie in [0, 1), so rate 1 keeps every cross pair for any seed
    return _assemble(n, replace(DerivedParams.for_four_hop(n, psi, c7),
                                connector_rate=1.0), 0)


def four_hop_spanner(n: int, psi: float, c7: float = DEFAULT_C7, seed: int = 0) -> RankGraph:
    """Sparse dependable spanner giving (with high probability) straight paths
    of at most 4 hops to every surviving long pair.

    Cross-block bicliques are replaced by random bipartite connectors at rate
    tau, each sampled from its own derived stream indexed by the block pair,
    so the build is reproducible and order-independent.
    """
    return _assemble(n, DerivedParams.for_four_hop(n, psi, c7), seed)


def khop_spanner(n: int, psi: float, k: int, c7: float = DEFAULT_C7, seed: int = 0) -> RankGraph:
    """Generalization of the 4-hop construction to a hop budget k >= 3.

    Larger budgets shrink the expansion base nu = psi^(-1/(k-1)) and with it
    the connector rate, trading hops for edges. k = 4 matches the 4-hop
    construction except for the interval radius constant ((k+4)M here, 6M
    there).
    """
    return _assemble(n, DerivedParams.for_k_hop(n, psi, k, c7), seed)
