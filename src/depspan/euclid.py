"""Euclidean dependable (1+eps)-spanners via locality-sensitive orderings.

Each ordering of the family linearizes the point set; a 1-D dependable
spanner built on those ranks is mapped back to point pairs, and the union
over orderings is the output graph. Edge weights are Euclidean distances in
normalized coordinates (PointSet.scale converts back to input units).
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from . import DEFAULT_C7, DEFAULT_MAX_ORDERINGS
from .graphs import RankGraph, _check_dense, interval_graph
from .lso import _sort_indices, build_lso_family
from .rng import derive_seed
from .spanners1d import DerivedParams, _connectors, _far_block_pairs

__all__ = [
    "PointSet",
    "GeometricGraph",
    "normalize_points",
    "euclidean_dependable_spanner",
    "bounded_hop_distance",
    "extract_bounded_path",
    "count_stretch_failures",
    "stretch_failure_row",
    "DEFAULT_MAX_ORDERINGS",
]

NORMALIZE_MARGIN = 2.0 ** -16  # keeps normalized coordinates strictly below 1


class PointSet:
    """n distinct points in [0,1)^d plus the scale back to input units."""

    __slots__ = ("coords", "scale")

    def __init__(self, coords: np.ndarray, scale: float = 1.0):
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("coordinates must be an (n, d) array")
        if coords.shape[0] < 2:
            raise ValueError("need at least two points")
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        if not np.all((coords >= 0.0) & (coords < 1.0)):
            raise ValueError("coordinates must lie in [0, 1)")
        _reject_duplicates(coords)
        coords.setflags(write=False)
        self.coords = coords
        self.scale = float(scale)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def distance(self, u: int, v: int) -> float:
        """Normalized Euclidean distance between vertices u, v (1-based)."""
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"vertices must be in [1, {self.n}], got {u} and {v}")
        return float(np.linalg.norm(self.coords[u - 1] - self.coords[v - 1]))

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.dim}, scale={self.scale:g})"


def _reject_duplicates(coords: np.ndarray) -> None:
    _, inverse, counts = np.unique(coords, axis=0, return_inverse=True,
                                   return_counts=True)
    if (counts > 1).any():
        bad = np.flatnonzero(counts[inverse] > 1)
        raise ValueError(f"duplicate points at indices {bad.tolist()}")


def normalize_points(raw) -> PointSet:
    """Translate to the origin and, if needed, scale uniformly so every
    coordinate lands in [0, 1 - margin]; relative distances are preserved
    up to the single recorded scale factor."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need an (n, d) array with n >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    mins = arr.min(axis=0)
    extent = float((arr.max(axis=0) - mins).max())
    if extent == 0.0:
        raise ValueError("all points are identical")
    top = 1.0 - NORMALIZE_MARGIN
    scale = extent / top if extent > top else 1.0
    coords = (arr - mins) / scale
    return PointSet(coords, scale)


class GeometricGraph:
    """A weighted RankGraph over point indices; weight(u, v) = |uv|."""

    __slots__ = ("graph", "points", "info", "_arc_cache")

    def __init__(self, graph: RankGraph, points: PointSet, info: dict | None = None):
        if graph.n != points.n:
            raise ValueError("graph and point set sizes differ")
        if graph.weights is None:
            raise ValueError("geometric graphs must carry a weight table")
        self.graph = graph
        self.points = points
        self.info = info or {}
        self._arc_cache = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def arcs(self):
        """_arcs(self.graph), built by the first query and kept for the rest."""
        if self._arc_cache is None:
            self._arc_cache = _arcs(self.graph)
        return self._arc_cache

    def __repr__(self) -> str:
        return f"GeometricGraph(n={self.n}, m={self.graph.m})"


def _spread_ids(total: int, cap: int) -> np.ndarray:
    if total <= cap:
        return np.arange(total, dtype=np.int64)
    # the linspace step exceeds 1, so the rounded ids are distinct and sorted
    return np.round(np.linspace(0, total - 1, cap)).astype(np.int64)


def _mapped_union(n: int, coords: np.ndarray, fam, ids: np.ndarray,
                  dp: DerivedParams, seed: int):
    """Canonical 0-based int32 point pairs of the rank builds (one shared
    seed-free interval graph plus per-ordering connectors) mapped through
    orderings ids; the n^2-byte mask is freed before the caller's weights.

    An interval graph of radius n - 1 is K_n, so its union under any
    orderings is K_n too: then no ordering is sorted and no connector drawn
    (each ordering draws from its own seed, so skipping one changes no
    other)."""
    _check_dense(n * n, f"the Euclidean union mask at n={n}")
    base = interval_graph(n, dp.radius)
    if dp.radius >= n - 1:
        return base.edge_i - 1, base.edge_j - 1
    block_pairs = _far_block_pairs(n, dp)
    # intp once here, not an int32 index cast per gather
    base_i, base_j = base.edge_i.astype(np.intp), base.edge_j.astype(np.intp)
    seen = np.zeros(n * n, dtype=bool)
    point_at = np.empty(n + 1, dtype=np.int64)  # 0-based point by 1-based rank
    for oid in ids.tolist():
        point_at[1:] = _sort_indices(fam.ordering(oid), coords)
        row_at = point_at * n
        pairs = _connectors(block_pairs, dp, derive_seed(seed, oid))
        for ri, rj in ((base_i, base_j), (pairs[:, 0], pairs[:, 1])):
            flat = row_at[ri]
            flat += point_at[rj]
            seen[flat] = True  # either orientation; folded below
    return _upper_pairs(seen.reshape(n, n))


def _upper_pairs(seen: np.ndarray):
    """Canonical int32 pairs u < v of a square mask set at (u, v) or (v, u):
    each block of 256 rows is folded with its transpose block on its own, so
    no second n^2 array is made."""
    n = seen.shape[0]
    parts_i, parts_j = [], []
    for a in range(0, n, 256):
        b = min(a + 256, n)
        upper = seen[a:b, a:] | seen[a:, a:b].T
        upper[:, :b - a] &= ~np.tri(b - a, dtype=bool)  # keep v > u
        r, c = np.nonzero(upper)
        parts_i.append((r + a).astype(np.int32))
        parts_j.append((c + a).astype(np.int32))
    return np.concatenate(parts_i), np.concatenate(parts_j)


def euclidean_dependable_spanner(points: PointSet, eps: float, psi: float,
                                 c7: float = DEFAULT_C7, mode: str = "four-hop",
                                 seed: int = 0,
                                 max_orderings: int = DEFAULT_MAX_ORDERINGS,
                                 ) -> GeometricGraph:
    """Union of 1-D dependable spanners over a locality-sensitive ordering
    family; the surviving graph keeps (1+eps)-stretch paths of at most 4 hops
    for almost all pairs.

    The build pairs an eps/8 family with the 4-hop rank construction. `mode`
    exists only for callers that pass "four-hop"; any other value raises
    ValueError. max_orderings bounds how many family members the union is
    taken over (an int >= 1, evenly spread, always including the identity
    ordering; len(family) is the whole family). info["orderings_used"] counts
    those members: the output is exactly their union, though an interval
    radius of n - 1 makes it K_n with none of them sorted or drawn.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if mode != "four-hop":
        raise ValueError(f"unknown mode {mode!r}; expected 'four-hop'")
    if not (isinstance(max_orderings, (int, np.integer)) and max_orderings >= 1):
        raise ValueError(f"max_orderings must be >= 1, got {max_orderings!r}")
    n, d = points.n, points.dim
    dp = DerivedParams.for_four_hop(n, psi, c7)
    fam = build_lso_family(eps / 8.0, d)
    ids = _spread_ids(len(fam), max_orderings)
    ei, ej = _mapped_union(n, points.coords, fam, ids, dp, seed)
    weights = np.linalg.norm(points.coords[ei] - points.coords[ej], axis=1)
    graph = RankGraph(n, ei + 1, ej + 1, weights, _validated=True)
    info = {
        "mode": mode,
        "eps": eps,
        "psi": psi,
        "c7": c7,
        "seed": seed,
        "hop_budget": 4,
        "family_eps": fam.eps,
        "family_size": len(fam),
        "orderings_used": int(ids.size),
        "density": graph.m / math.comb(n, 2),
        **asdict(dp),
    }
    return GeometricGraph(graph, points, info)


# ---------------------------------------------------------------------------
# hop-bounded shortest paths: Bellman rounds, one source at a time

def _arcs(g: RankGraph):
    """Both orientations of g's edges, grouped by head: (tail, weight, head,
    starts, heads, into), where arcs starts[i]:starts[i+1] all end at
    heads[i] and arcs into[v]:into[v + 1] are all the arcs into vertex v."""
    tail = np.concatenate([g.edge_i, g.edge_j]).astype(np.intp)
    head = np.concatenate([g.edge_j, g.edge_i]).astype(np.intp)
    order = np.argsort(head, kind="stable")
    tail, head = tail[order], head[order]
    w = np.concatenate([g.weights, g.weights])[order]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    into = np.searchsorted(head, np.arange(g.n + 2))
    return tail, w, head, starts, head[starts], into


def _full_round(d: np.ndarray, edges):
    """One Bellman round over every arc, in place: d[v] becomes the least of
    d[v] and fl(d[t] + w) over the arcs t -> v, every sum reading d from
    before the round. Returns the arcs' sums, or None if nothing changed."""
    tail, w, _, starts, heads, _ = edges
    cand = d[tail]
    cand += w
    best = np.minimum.reduceat(cand, starts)
    lower = best < d[heads]
    if not lower.any():
        return None
    d[heads[lower]] = best[lower]
    return cand


def _hop_rounds(n: int, edges, source: int, k: int, paths: bool = False):
    """(d, preds): d[v] is the cheapest walk source -> v of at most
    min(k, n - 1) edges (d[0] unused); edges comes from _arcs.

    With paths, preds holds one array per round run: preds[r][v] is the id of
    an arc into v that attains v's value after round r + 1, or -1 if v kept
    its value from round r. Stepping a finite d[v] back through
    reversed(preds) yields a path whose weights, summed from the source,
    give d[v] exactly. Rounds stop once nothing changes, so preds may be
    shorter than k."""
    head = edges[2]
    d = np.full(n + 1, np.inf)
    d[source] = 0.0
    preds = []
    if head.size == 0:
        return d, preds
    for _ in range(min(k, n - 1)):
        cand = _full_round(d, edges)
        if cand is None:
            break
        if paths:
            pred = np.full(n + 1, -1, dtype=np.intp)
            hit = np.flatnonzero(cand == d[head])
            pred[head[hit]] = hit
            preds.append(pred)
    return d, preds


def _open_targets(n: int, edges, source: int, k: int, first: int,
                  limit: np.ndarray) -> np.ndarray:
    """Sorted 1-based targets v >= first whose cheapest walk from source of
    at most min(k, n - 1) edges is longer than limit[v - first].

    A target is open while its best walk so far exceeds its limit; walks only
    get shorter, so a closed target stays closed. Round 1 scatters the
    source's own arcs, middle rounds run _full_round only while some target
    is open and stop once nothing changes, and the last round reads only the
    arcs into open targets. Every distance compared is the minimum of the
    same sums as in _hop_rounds, so the answer is exactly that of comparing
    _hop_rounds' d."""
    tail, w, into = edges[0], edges[1], edges[5]
    d = np.full(n + 1, np.inf)
    d[source] = 0.0
    a, b = into[source], into[source + 1]
    d[tail[a:b]] = w[a:b]  # RankGraph edges are distinct: one arc per target
    opened = np.flatnonzero(d[first:] > limit) + first
    if a == b:  # an isolated source reaches nothing more
        return opened
    rounds = min(k, n - 1)
    for _ in range(rounds - 2):
        if opened.size == 0 or _full_round(d, edges) is None:
            return opened
        opened = opened[d[opened] > limit[opened - first]]
    if rounds == 1 or opened.size == 0:
        return opened
    lo, hi = into[opened], into[opened + 1]
    fed = hi > lo  # a target without arcs keeps its distance
    if not fed.any():
        return opened
    lo, sizes = lo[fed], hi[fed] - lo[fed]
    offsets = np.cumsum(sizes) - sizes
    arcs = np.arange(offsets[-1] + sizes[-1]) + np.repeat(lo - offsets, sizes)
    cand = d[tail[arcs]]
    cand += w[arcs]
    still = np.ones(opened.size, dtype=bool)
    still[fed] = np.minimum.reduceat(cand, offsets) > limit[opened[fed] - first]
    return opened[still]


def _check_query(h: GeometricGraph, u: int, v: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"hop bound must be >= 1, got {k}")
    if not (1 <= u <= h.n and 1 <= v <= h.n):
        raise ValueError(f"vertices must be in [1, {h.n}], got {u} and {v}")


def bounded_hop_distance(h: GeometricGraph, u: int, v: int, k: int) -> float:
    """Minimum total weight over paths with at most k edges; inf if none."""
    _check_query(h, u, v, k)
    return float(_hop_rounds(h.n, h.arcs, u, k)[0][v])


def extract_bounded_path(h: GeometricGraph, u: int, v: int, k: int) -> list[int]:
    """A path u..v of at most k edges achieving bounded_hop_distance, found by
    backtracking the rounds' predecessor arcs. Raises if v is unreachable
    within k hops."""
    _check_query(h, u, v, k)
    d, preds = _hop_rounds(h.n, h.arcs, u, k, paths=True)
    if not np.isfinite(d[v]):
        raise ValueError(f"no path of at most {k} hops from {u} to {v}")
    path = [v]
    for pred in reversed(preds):
        arc = pred[path[-1]]
        if arc >= 0:
            path.append(int(h.arcs[0][arc]))
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# all-pairs stretch accounting

def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


def stretch_failure_row(h: GeometricGraph, u: int, eps: float,
                        k: int) -> np.ndarray:
    """Boolean vector over vertices 1..n: entry v - 1 is True where v has no
    <=k-hop path from u of length <= (1+eps)|uv| (normalized coordinates).

    Rounds stop early once every target meets its limit (_open_targets), so
    the row costs between one scatter of u's arcs and about min(k, n - 1)
    rounds over all 2m arcs; memory is O(n + m)."""
    _check_eps(eps)
    _check_query(h, u, u, k)
    coords = h.points.coords
    limit = (1.0 + eps) * np.linalg.norm(coords - coords[u - 1], axis=1)
    row = np.zeros(h.n, dtype=bool)
    row[_open_targets(h.n, h.arcs, u, k, 1, limit) - 1] = True
    return row


def count_stretch_failures(h: GeometricGraph, points: PointSet, eps: float,
                           k: int) -> int:
    """Number of unordered pairs whose best <=k-hop path exceeds
    (1+eps) times their Euclidean distance; exact over all pairs.

    Each source u asks _open_targets only about targets v > u, so its rounds
    stop as soon as those pairs all meet their limits; memory is O(n + m)."""
    if not np.array_equal(points.coords, h.points.coords):
        raise ValueError("point set does not match the graph")
    _check_eps(eps)
    _check_query(h, 1, 1, k)
    n, edges, coords = h.n, h.arcs, h.points.coords
    total = 0
    for u in range(1, n):
        limit = (1.0 + eps) * np.linalg.norm(coords[u:] - coords[u - 1], axis=1)
        total += _open_targets(n, edges, u, k, u + 1, limit).size
    return total
