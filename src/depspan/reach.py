"""Straight-path reachability and deficiency measurement.

A straight path is a path whose vertex ranks strictly increase, so the edges
of a RankGraph form a DAG when oriented low-to-high and reachability is a
single forward sweep. Two exact engines back the pair counts:

* unbounded reachability: a bitset closure over a set of sources (all n, or a
  sample), one row of source bits per target vertex, filled in one ascending
  pass (row i is ORed into the rows of its out-neighbors, which are one run
  of the canonical edge order, so no engine re-sorts edges) in
  (n + 1) * ceil(s / 64) words, checked against physical memory first;
* hop-bounded reachability: boolean powers of I + A by square-and-multiply,
  stored as float32 row panels that each hold their rows from the diagonal
  rightwards, and multiplied in place, panel by panel, with BLAS, for every
  n. The left factor enters BLAS with two 0/1 rows packed into one,
  a + 4096 * b, so each call has half the rows; path counts stay below
  4096 per field (clamped back to 1 between K-steps where they could pass
  it), so every sum is an integer below 2^24 and exact in float32. Before
  each product the engine counts the pairs its most advanced power B^h
  still misses. Once those, times the k - h hops still to take, are at most
  1/64 of all pairs, it lists them, packs B^h's rows into bits and settles
  them hop by hop with bit tests against I + A's column bits instead of
  multiplying pairs that are already connected. Memory is about
  2 * (n^2 / 2) * 4 bytes (half that when k is a power of two) plus one
  panel product's scratch, 2.5 panels of n columns; the bit finish adds two
  n^2 / 8-byte bit matrices and an n^2-byte scratch, allocated after the
  power it packs is released. The planned bytes are checked against
  physical memory before any allocation.

The test suite cross-checks both against brute-force path enumeration on
small graphs, the hop-bounded engine also at panel heights far below n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import RankGraph, _check_dense, filter_edges
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
    "failure_trials",
    "monte_carlo_deficiency",
]

# Rows per panel of the hop-bounded engine; at most _BASE - 2. Measured
# with packed products, k = 4 on the filtered default four-hop spanner (2
# cores, OpenBLAS; medians of 24 calls): 41.8, 42.5, 41.4, 45.3 and 53.5 ms
# at heights 192, 256, 320, 384 and 512 for n=2048; 7.8-8.4 ms at heights
# 128-384 for n=1024.
_TILE = 256

# Base of the two path-count fields a packed float32 entry holds (see
# _panel_product), a power of two: counts stay below it, so entries stay
# below _BASE^2 = 2^24, up to which float32 holds every integer exactly.
_BASE = 4096

# The hop-bounded engine stops its BLAS products once the missing pairs of
# its best power, times the hops still to take, are at most this share of
# all pairs (see _khop_missing). Measured crossover, k = 2 on filtered K_n,
# where every listed pair is tested once (2 cores, OpenBLAS): at a share of
# 0.02 the bit finish took 64 against 57 ms for the product at n=2048 and
# 361 against 351 ms at n=4096; at 0.01, 339 against 423 ms at n=4096.
_BIT_FINISH_SHARE = 1 / 64

# Bytes of row gathers per chunk of the bit finish.
_GATHER_BYTES = 4 << 20

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
    words = (s + 63) >> 6
    _check_dense((g.n + 1) * words * 8, f"the closure at n={g.n}, s={s}")
    rows = np.zeros((g.n + 1, words), dtype=np.uint64)
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
# hop-bounded engine: upper-triangular boolean matrix powers in row panels,
# finished by bit tests once few pairs are missing

def _unit_panels(g: RankGraph) -> list:
    """I + A as float32 row panels, A the adjacency of g's edges i < j:
    panel p holds rows s..s+h-1 and columns s..n-1, s = p * _TILE,
    h = min(_TILE, n - s), so its entry (a, b) is entry (s + a, s + b)
    (0-based) and b - a is the rank distance."""
    n, runs = g.n, _out_runs(g)
    panels = []
    for s in range(0, n, _TILE):
        h = min(_TILE, n - s)
        panel = np.zeros((h, n - s), dtype=np.float32)
        np.fill_diagonal(panel, 1.0)
        a, b = runs[s + 1], runs[s + h + 1]  # out-edges of ranks s+1..s+h
        # one flat intp index: a 2-D fancy index would convert both int32
        # slices to intp on its own
        flat = g.edge_i[a:b].astype(np.intp)
        flat -= s + 1
        flat *= n - s
        flat += g.edge_j[a:b]
        flat -= s + 1
        panel.ravel()[flat] = 1.0
        del flat  # freed before the next panel is allocated
        panels.append(panel)
    return panels


def _panel_product(x: list, y: list) -> None:
    """Replace x's panels by those of the boolean product (X @ Y) > 0.

    Panel I of the product is the sum over K >= I of X's panel I, columns of
    panel K's rows, @ Y's panel K. It reads only X's panel I and Y's panels
    K >= I, so x may be y (squaring). Each X panel of h rows enters BLAS as
    ceil(h / 2) packed rows: row r holds its own 0/1 entries times _BASE
    plus those of row r + ceil(h / 2), so every call has half the rows. An
    entry of the packed product is then hi * _BASE + lo, hi and lo the path
    counts of the two rows. Each K-step adds at most _TILE to a count, so
    after every `steps` K-steps the columns still to be summed are clamped
    back to one path per field, and no count passes _BASE - 1: every
    partial sum is an integer below _BASE^2 = 2^24, exact in float32 under
    any summation order or blocking. Panel I is replaced by a new array as
    soon as it is done, never written in place, since x and y may share
    panel arrays; its scratch is what _product_scratch plans."""
    if _TILE > _BASE - 2:
        raise ValueError(f"panel height {_TILE} exceeds {_BASE - 2}: "
                         f"path counts would overflow their {_BASE} base")
    steps = (_BASE - 2) // _TILE  # K-steps per count group
    base = np.float32(_BASE)
    for I, xp in enumerate(x):
        h = xp.shape[0]
        m = (h + 1) // 2  # packed rows: hi field rows :m, lo field rows m:
        packed = xp[:m] * base
        packed[:h - m] += xp[m:]
        acc = packed[:, :_TILE] @ y[I]
        for K in range(I + 1, len(y)):
            off = (K - I) * _TILE
            if (K - I) % steps == 0:
                _clamp_fields(acc[:, off:])
            acc[:, off:] += packed[:, off:off + _TILE] @ y[K]
        x[I] = _unpack(acc, packed.view(np.int32), h)


def _clamp_fields(acc: np.ndarray) -> None:
    """Clamp both count fields of packed entries to at most 1, in place."""
    hi = acc >= _BASE
    lo = acc.astype(np.int32)
    lo &= _BASE - 1
    acc[...] = lo != 0
    np.add(acc, _BASE, out=acc, where=hi)


def _unpack(acc: np.ndarray, scratch: np.ndarray, h: int) -> np.ndarray:
    """The h-row 0/1 float32 panel packed in acc (see _panel_product);
    scratch is an int32 array of acc's shape that may be overwritten."""
    m = acc.shape[0]
    out = np.empty((h, acc.shape[1]), dtype=np.float32)
    out[:m] = acc >= _BASE
    lo = scratch[:h - m]
    lo[...] = acc[:h - m]
    lo &= _BASE - 1
    out[m:] = lo != 0
    return out


def _product_scratch(n: int) -> int:
    """Bytes a _panel_product holds beyond its factors, at most: for the
    widest panel (h rows, n columns), the packed rows, their accumulator and
    the BLAS temporary, ceil(h / 2) rows each, and the unpacked panel."""
    h = min(_TILE, n)
    return 4 * (3 * ((h + 1) // 2) + h) * n


def _zeros_beyond(panels: list, d: int) -> int:
    """Number of zero entries (i, j) with j - i > d >= 0 of a panel list
    (in every panel, entry (a, b) has j - i = b - a)."""
    total = 0
    for p in panels:
        # counted on the int32 view, where +0.0 is the only zero an entry
        # can hold: about 10x faster than counting float32
        h = p.shape[0]
        if d == 0:  # entries left of the diagonal are 0, those on it 1
            total += p.size - np.count_nonzero(p.view(np.int32)) - h * (h - 1) // 2
            continue
        rest = p[:, h + d:]  # more than d right of every row's diagonal
        total += rest.size - np.count_nonzero(rest.view(np.int32))
        band = p[:, d + 1:h + d]  # column c is b = c + d + 1: needs c >= a
        total += np.count_nonzero(np.triu(band == 0))
    return int(total)


def _in_bits(g: RankGraph, width: int) -> np.ndarray:
    """Columns of I + A packed into width bytes per vertex: bit m of row j
    (byte m >> 3, bit m & 7) is set iff m == j or (m, j) is an edge, 0-based."""
    n = g.n
    bits = np.zeros((n, 8 * width), dtype=bool)
    flat = bits.reshape(-1)
    flat[np.arange(n) * (8 * width + 1)] = True
    chunk = 1 << 17  # edges per chunk: a 1 MB intp index
    for c in range(0, g.m, chunk):
        at = g.edge_j[c:c + chunk].astype(np.intp)  # (j-1)*8w + (i-1)
        at *= 8 * width
        at += g.edge_i[c:c + chunk]
        at -= 8 * width + 1
        flat[at] = True
    return np.packbits(bits, axis=1, bitorder="little")


def _bit_finish(g: RankGraph, panels: list, hops: int) -> np.ndarray:
    """Rank distances j - i of the pairs that a power B^h of I + A, given as
    panels, leaves unconnected and that `hops` more hops do not connect.

    B^h's rows are packed into bits and its zero pairs above the diagonal
    listed; each hop tests every listed pair as rows[i] & colsB[j] against
    I + A's column bits, then sets the row bits of the pairs it connected,
    so the rows stay B^(h+t) after hop t. A hop that connects nothing has
    reached the fixed point, and later hops would connect nothing either.
    The panels are released one by one while they are packed."""
    n = g.n
    width = ((n + 63) >> 6) << 3  # bytes per row, whole uint64 words
    rows = np.zeros((n, width), dtype=np.uint8)
    lower = np.tri(len(panels[0]), k=-1, dtype=bool)
    pi, pj = [], []
    for p in range(len(panels)):
        panel, panels[p] = panels[p], None
        s, h = p * _TILE, panel.shape[0]
        lead = s & 7  # panel starts need not sit on a byte boundary
        bits = np.zeros((h, lead + n - s), dtype=bool)
        nonzero = bits[:, lead:]
        np.not_equal(panel.view(np.int32), 0, out=nonzero)
        del panel
        packed = np.packbits(bits, axis=1, bitorder="little")
        rows[s:s + h, s >> 3:(s >> 3) + packed.shape[1]] = packed
        nonzero[:, :h] |= lower[:h, :h]  # no pairs left of the diagonal
        np.logical_not(nonzero, out=nonzero)
        a, b = np.divmod(np.flatnonzero(bits), bits.shape[1])
        pi.append(a + s)
        pj.append(b + (s - lead))
    i, j = np.concatenate(pi), np.concatenate(pj)
    if i.size == 0:
        return j - i
    cols = _in_bits(g, width)
    rows64, cols64 = rows.view(np.uint64), cols.view(np.uint64)
    chunk = max(1, _GATHER_BYTES // (2 * width))
    for _ in range(hops):
        hit = np.concatenate([
            (rows64[i[c:c + chunk]] & cols64[j[c:c + chunk]]).any(axis=1)
            for c in range(0, i.size, chunk)])
        if not hit.any():
            break
        hi, hj = i[hit], j[hit]
        np.bitwise_or.at(rows, (hi, hj >> 3),
                         np.left_shift(1, hj & 7).astype(np.uint8))
        i, j = i[~hit], j[~hit]
        if i.size == 0:
            break
    return j - i


def _khop_missing(g: RankGraph, k: int, radii: tuple) -> list:
    """For each d in radii, the number of pairs i < j with j - i > d and no
    straight path of at most k hops.

    A is strictly upper triangular, so every power of I + A is upper
    triangular, and a zero entry above the diagonal is exactly a missing
    <=k-hop path. Square-and-multiply runs BLAS panel products (in place, at
    most two powers alive); before each one, the power B^h with the most
    hops so far is checked. Once its zero pairs times the k - h hops still
    to take are at most _BIT_FINISH_SHARE of all pairs, _bit_finish settles
    those pairs instead, and the counts come from their list.
    """
    n = g.n
    pairs = n * (n - 1) // 2
    kk = min(k, max(1, n - 1))  # longer straight paths cannot exist
    matrix = 4 * sum(min(_TILE, n - s) * (n - s) for s in range(0, n, _TILE))
    powers = 1 if kk & (kk - 1) == 0 else 2
    _check_dense(powers * matrix + _product_scratch(n),
                 f"the {k}-hop engine at n={n}")
    # square-and-multiply: "sq" squares the power B^(2^t), "mul" multiplies
    # the accumulated power by it, "copy" starts the accumulated power
    plan, bits = [], kk
    while True:
        if bits & 1:
            plan.append("mul" if "copy" in plan else "copy")
        bits >>= 1
        if not bits:
            break
        plan.append("sq")
    power = [_unit_panels(g), 1, pairs - g.m]  # panels, hops, zero pairs
    acc = None
    for step in plan:
        if step == "copy":
            acc = [list(power[0]), power[1], power[2]]
            continue
        best = power if acc is None or power[1] >= acc[1] else acc
        if best[2] * (kk - best[1]) <= _BIT_FINISH_SHARE * pairs:
            gaps = _bit_finish(g, best[0], kk - best[1])
            return [int(np.count_nonzero(gaps > d)) for d in radii]
        target = power if step == "sq" else acc
        _panel_product(target[0], power[0])
        target[1] += power[1]
        target[2] = _zeros_beyond(target[0], 0)
    return [acc[2] if d == 0 else _zeros_beyond(acc[0], d) for d in radii]


def khop_deficiency(g: RankGraph, k: int) -> int:
    """Number of pairs i < j whose minimum straight hop count exceeds k."""
    if k < 1:
        raise ValueError(f"hop bound must be >= 1, got {k}")
    return _khop_missing(g, k, (0,))[0]


def khop_deficiency_split(g: RankGraph, k: int, radius: int) -> tuple[int, int]:
    """(short, long) k-hop failure counts, split at rank distance `radius`:
    a pair is long when j - i > radius."""
    if k < 1:
        raise ValueError(f"hop bound must be >= 1, got {k}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    total, long_fail = _khop_missing(g, k, (0, radius))
    return total - long_fail, long_fail


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


def failure_trials(g: RankGraph, psi: float, trials: int, master: int):
    """The one trial loop: for t in 0..trials-1, in order, yield the failed
    graph filter_edges(g, psi, stream) and the stream it was drawn from,
    stream = derive_stream(master, t), for any further draw of trial t.
    Consume it with itertools.starmap, which drops a trial before drawing
    the next; a for loop would hold two failed graphs at once."""
    for t in range(trials):
        stream = derive_stream(master, t)
        yield filter_edges(g, psi, stream), stream


def monte_carlo_deficiency(g: RankGraph, psi: float, trials: int,
                           hop_bound: int | None = None, master: int = 0,
                           jobs: int = 1,
                           source_sample: int | None = None) -> DeficiencyReport:
    """Estimate the expected deficiency of g under survival rate psi.

    Trial t is filter_edges(g, psi, derive_stream(master, t)), drawn by
    failure_trials, followed by the exact failed-pair count of the filtered
    graph, unless source_sample < n: then the same stream draws that many
    sources afterwards, and the count over them is scaled by
    n / source_sample (unbiased). Trials run in order, so the report is a
    pure function of the arguments. `jobs` is validated (>= 1) and
    otherwise ignored.
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

    def count(h: RankGraph, stream) -> float:
        if hop_bound is not None:
            return khop_deficiency(h, hop_bound)
        if not sampled:
            return deficiency(h)
        sources = np.sort(stream.choice_without_replacement(n, source_sample) + 1)
        missing = int((n - sources).sum()) - _closure_reachable_pairs(h, sources)
        return missing * n / source_sample

    counts = list(itertools.starmap(count, failure_trials(g, psi, trials, master)))
    return DeficiencyReport.from_counts(n, psi, hop_bound, master, counts)
