"""Graphs on ranked vertices 1..n with the rank metric |i - j|.

A RankGraph is immutable after construction. Edges are stored as two parallel
int32 arrays (i, j) with i < j, in lexicographic order; this canonical order
is what makes edge filtering reproducible (one uniform per edge, drawn in
canonical order). An optional weight table replaces the implicit rank metric,
which is how Euclidean graphs reuse this type.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable

import numpy as np

from .rng import RandomStream

_MAX_N = 2**31 - 1  # the largest vertex id int32 edge arrays hold

__all__ = [
    "RankGraph",
    "complete_graph",
    "interval_graph",
    "filter_edges",
    "graph_union",
]


@functools.cache
def _physical_memory() -> int:
    """Bytes of physical memory, read once."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_dense(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a dense engine's planned nbytes when they
    exceed physical memory."""
    limit = _physical_memory()
    if nbytes > limit:
        raise ValueError(f"{what} needs {nbytes} bytes, more than the "
                         f"{limit} bytes of physical memory")


class RankGraph:
    """Undirected graph on vertices 1..n, edge (i, j) weighted |i - j| unless
    an explicit weight table is attached."""

    __slots__ = ("n", "edge_i", "edge_j", "weights")

    def __init__(self, n: int, edge_i: np.ndarray, edge_j: np.ndarray,
                 weights: np.ndarray | None = None, _validated: bool = False):
        if not 1 <= n <= _MAX_N:
            raise ValueError(f"vertex count must be in [1, {_MAX_N}], got {n}")
        self.n = int(n)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        if not _validated:
            edge_i, edge_j, weights = _canonicalize(
                n, np.asarray(edge_i), np.asarray(edge_j), weights)
        edge_i = np.ascontiguousarray(edge_i, dtype=np.int32)
        edge_j = np.ascontiguousarray(edge_j, dtype=np.int32)
        for arr in (edge_i, edge_j, weights):
            if arr is not None:
                arr.setflags(write=False)
        self.edge_i = edge_i
        self.edge_j = edge_j
        self.weights = weights

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   weights: Iterable[float] | None = None) -> "RankGraph":
        pairs = list(edges)
        arr = np.asarray(pairs).reshape(len(pairs), 2)
        w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls(n, arr[:, 0], arr[:, 1], w)

    @property
    def m(self) -> int:
        """Edge count."""
        return int(self.edge_i.shape[0])

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.edge_i.tolist(), self.edge_j.tolist()))

    def edge_weight_map(self) -> dict[tuple[int, int], float]:
        w = self.edge_j - self.edge_i if self.weights is None else self.weights
        return {(int(i), int(j)): float(x)
                for i, j, x in zip(self.edge_i, self.edge_j, w)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankGraph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        if not (np.array_equal(self.edge_i, other.edge_i)
                and np.array_equal(self.edge_j, other.edge_j)):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        return self.weights is None or np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        tag = ", weighted" if self.weights is not None else ""
        return f"RankGraph(n={self.n}, m={self.m}{tag})"


def _edge_keys(n, lo, hi):
    """Keys lo*(n+1) + hi of edges lo < hi, increasing in canonical order."""
    return lo.astype(np.int64) * (n + 1) + hi


def _key_order(n, lo, hi):
    """Stable order of edges lo < hi into canonical order (by _edge_keys) and
    the mask, in that order, of each edge's first copy."""
    keys = _edge_keys(n, lo, hi)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return order, first


class _EdgeError(ValueError):
    """A bad input edge; row is its index in the input arrays."""

    def __init__(self, msg: str, row: int):
        super().__init__(msg)
        self.row = row


def _canonicalize(n, edge_i, edge_j, weights):
    """Canonical i < j order; rejects bad edges before narrowing to int32.
    Duplicates and bad weights raise _EdgeError naming the first input row."""
    if edge_i.shape != edge_j.shape:
        raise ValueError("edge arrays must have equal length")
    if weights is not None and weights.shape[0] != edge_i.shape[0]:
        raise ValueError("weight table must cover exactly the edge set")
    if edge_i.size and not (np.issubdtype(edge_i.dtype, np.integer)
                            and np.issubdtype(edge_j.dtype, np.integer)):
        raise ValueError("edge endpoints must be integers, got "
                         f"{edge_i.dtype} and {edge_j.dtype}")
    if np.any(edge_i == edge_j):
        raise ValueError("self-loops are not allowed")
    lo, hi = np.minimum(edge_i, edge_j), np.maximum(edge_i, edge_j)
    if lo.size and (lo.min() < 1 or hi.max() > n):
        raise ValueError(f"edge endpoint out of range [1, {n}]")
    keys = _edge_keys(n, lo, hi)
    order = None  # strictly increasing keys: no duplicates, identity order
    if np.any(keys[1:] <= keys[:-1]):
        del keys  # _key_order's own are freed as it sorts
        order, first = _key_order(n, lo, hi)
        if not first.all():
            row = int(order[~first].min())
            raise _EdgeError(f"duplicate edge ({lo[row]}, {hi[row]})", row)
    if weights is not None:
        bad = ~(np.isfinite(weights) & (weights > 0))
        if bad.any():
            raise _EdgeError("edge weights must be finite and positive",
                             int(bad.argmax()))
        # a copy either way: the graph owns its weights
        weights = weights.copy() if order is None else weights[order]
    if order is not None:
        lo, hi = lo[order], hi[order]
    return lo, hi, weights


def complete_graph(n: int) -> RankGraph:
    """K_n on vertices 1..n, with n(n-1)/2 edges."""
    return interval_graph(n, n - 1)


def interval_graph(n: int, radius: int) -> RankGraph:
    """Edge (i, j) present iff 0 < j - i <= radius. radius >= n-1 gives K_n."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"vertex count must be in [1, {_MAX_N}], got {n}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    radius = min(radius, n - 1)
    if radius == 0:
        return RankGraph(n, np.zeros(0, np.int32), np.zeros(0, np.int32),
                         _validated=True)
    # counts[i] = number of neighbors above i, in lexicographic order; ej is
    # the running sum of its steps: +1 within a row, 2 - counts[i-1] at the
    # start of row i, so no int64 array of m entries is made
    rows = np.arange(1, n, dtype=np.int32)
    counts = np.minimum(radius, n - rows)
    ej = np.ones(int(counts.sum()), np.int32)
    ej[0] = 2
    ej[np.cumsum(counts)[:-1]] = 2 - counts[:-1]
    np.cumsum(ej, out=ej)
    return RankGraph(n, np.repeat(rows, counts), ej, _validated=True)


def filter_edges(g: RankGraph, psi: float, rng: RandomStream) -> RankGraph:
    """Keep each edge independently with probability psi (the survival event).

    Draws one uniform per edge in canonical edge order, so the result is a
    pure function of (g, psi, stream state). The vertex set is unchanged.
    """
    if not (0.0 <= psi <= 1.0):
        raise ValueError(f"survival probability must be in [0, 1], got {psi}")
    keep = np.flatnonzero(rng.uniforms(g.m) < psi)
    w = None if g.weights is None else g.weights.take(keep)
    return RankGraph(g.n, g.edge_i.take(keep), g.edge_j.take(keep), w,
                     _validated=True)


def graph_union(g1: RankGraph, g2: RankGraph) -> RankGraph:
    """Edge-set union of two graphs on the same vertex set."""
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    if (g1.weights is None) != (g2.weights is None):
        raise ValueError("cannot union a weighted graph with an unweighted one")
    ei = np.concatenate([g1.edge_i, g2.edge_i])
    ej = np.concatenate([g1.edge_j, g2.edge_j])
    order, first = _key_order(g1.n, ei, ej)
    keep = order[first]
    weights = None
    if g1.weights is not None:
        w = np.concatenate([g1.weights, g2.weights])[order]
        if np.any(~first[1:] & (w[1:] != w[:-1])):
            raise ValueError("weight tables disagree on a shared edge")
        weights = w[first]
    return RankGraph(g1.n, ei[keep], ej[keep], weights, _validated=True)


def _with_far_edges(g: RankGraph, far: np.ndarray) -> RankGraph:
    """g plus the trusted edges far, an (m, 2) array in canonical order whose
    edges are new and longer than every edge of g at the same lower endpoint
    (as for an interval graph), so each goes right after its row of g."""
    at = np.searchsorted(g.edge_i, far[:, 0], side="right")
    return RankGraph(g.n, np.insert(g.edge_i, at, far[:, 0]),
                     np.insert(g.edge_j, at, far[:, 1]), _validated=True)
