"""Shared brute-force oracles, kept independent of the library's engines."""

from itertools import chain, combinations

import numpy as np
import pytest


def increasing_path_exists(edges: set, i: int, j: int, max_hops=None) -> bool:
    """Enumerate every strictly increasing vertex sequence from i to j and
    test whether all consecutive pairs are edges. Exponential on purpose."""
    interior = range(i + 1, j)
    budget = len(list(interior)) if max_hops is None else max_hops - 1
    for size in range(0, budget + 1):
        for mids in combinations(interior, size):
            seq = (i,) + mids + (j,)
            if all((a, b) in edges for a, b in zip(seq, seq[1:])):
                return True
    return False


def brute_deficiency(n: int, edges: set, max_hops=None) -> int:
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if not increasing_path_exists(edges, i, j, max_hops)
    )


def all_edge_subsets(n: int):
    """Every subset of K_n's edges, as a set of (i, j) tuples."""
    universe = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for subset in chain.from_iterable(
            combinations(universe, r) for r in range(len(universe) + 1)):
        yield set(subset)


def random_edge_subset(n: int, rng: np.random.Generator) -> set:
    universe = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = rng.random(len(universe)) < rng.random()
    return {e for e, keep in zip(universe, mask) if keep}


def dense_distances(coords: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of coords."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def dense_hop_distances(g, k: int) -> np.ndarray:
    """(n, n) cheapest walk lengths of at most k edges over g's weight table,
    by k dense min-plus rounds; O(k n^3) time and memory, small n only."""
    n = g.n
    w = np.full((n, n), np.inf)
    w[g.edge_i - 1, g.edge_j - 1] = g.weights
    w[g.edge_j - 1, g.edge_i - 1] = g.weights
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for _ in range(k):
        d = np.minimum(d, (d[:, :, None] + w[None, :, :]).min(axis=1))
    return d


@pytest.fixture
def np_rng():
    return np.random.default_rng(0xDE5B)
