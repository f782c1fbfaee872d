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
  stored as bool row panels that each hold their rows from the diagonal
  rightwards, and multiplied in place, panel by panel, with BLAS, for every
  n. A product skips what adds nothing: the K-steps whose left tile is all
  zero, and the all-zero column tiles of the right panel, so each K-step
  makes one BLAS call per run of nonzero column tiles (a banded factor
  with a sparse block hierarchy, like a four-hop spanner's, has many zero
  tiles). Only the product sees float32: it copies a right panel to
  float32 when a K-step first needs it, and the left factor enters BLAS
  with two 0/1 rows packed into one, a + 4096 * b, so each call has half
  the rows; path counts stay below 4096 per field (clamped back to 1 after
  every so many performed K-steps), so every sum is an integer below 2^24
  and exact in float32, and each finished accumulator is decoded straight
  into a new bool panel. Before each product the engine counts the pairs its
  most advanced power B^h still misses. Once those, times the k - h hops
  still to take, are at most 1/64 of all pairs, it lists them, packs B^h's
  bool rows into bits and settles them hop by hop with bit tests against
  I + A's column bits (packed from its bool panels before the first
  product) instead of multiplying pairs that are already connected. Memory
  is about 2 * n^2 / 2 bytes of bool powers (half that when k is a power
  of two) and n^2 / 8 bytes of column bits, plus the larger of one panel
  product's scratch, mostly the float32 copy of its right factor, about
  4 * n^2 / 2 bytes, and the bit finish's: n^2 / 8 bytes of row bits, one
  panel's scratch and the listed pairs. The planned bytes are checked
  against physical memory before any allocation.

The test suite cross-checks both against brute-force path enumeration on
small graphs, the hop-bounded engine also at panel heights far below n.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import graphs
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
    # probed with int32, edge_i's dtype (an int64 probe casts all of edge_i);
    # ranks 0..n fit in int32, and no edge starts at n or n + 1
    runs = np.searchsorted(g.edge_i, np.arange(g.n + 1, dtype=np.int32)).tolist()
    runs.append(g.m)
    return runs


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

def _closure_bytes(n: int, s: int) -> int:
    """Planned bytes of one closure over s sources: n + 1 rows of
    ceil(s / 64) words."""
    return (n + 1) * ((s + 63) >> 6) * 8


def _closure_missing(g: RankGraph, sources: np.ndarray) -> int:
    """Number of pairs (src, j > src), src in the sorted `sources`, joined by
    no straight path src < ... < j.

    Row j of the bit matrix holds the sources that reach j, one bit per
    source. The ascending sweep ORs row i into its out-neighbors' rows; row i
    is final when reached because all its in-neighbors are smaller.
    """
    s = sources.size
    words = (s + 63) >> 6
    _check_dense(_closure_bytes(g.n, s), f"the closure at n={g.n}, s={s}")
    rows = np.zeros((g.n + 1, words), dtype=np.uint64)
    bit = np.arange(s)
    rows[sources, bit >> 6] = _ONE << (bit & 63).astype(np.uint64)
    runs, heads = _out_runs(g), g.edge_j.astype(np.intp)
    for i in range(int(sources[0]), g.n):
        nb = heads[runs[i]:runs[i + 1]]
        # take + assign: about 1.3x faster than rows[nb] |= rows[i]
        rows[nb] = rows.take(nb, axis=0) | rows[i]
    # source src's bit is set in row src and in the rows j > src it reaches
    return int((g.n + 1 - sources).sum()) - int(np.bitwise_count(rows[1:]).sum())


def deficiency(g: RankGraph) -> int:
    """Number of pairs i < j with no straight path in g."""
    return _closure_missing(g, np.arange(1, g.n + 1))


# ---------------------------------------------------------------------------
# hop-bounded engine: upper-triangular boolean matrix powers in row panels,
# finished by bit tests once few pairs are missing

def _unit_panels(g: RankGraph) -> list:
    """I + A as bool row panels, A the adjacency of g's edges i < j:
    panel p holds rows s..s+h-1 and columns s..n-1, s = p * _TILE,
    h = min(_TILE, n - s), so its entry (a, b) is entry (s + a, s + b)
    (0-based) and b - a is the rank distance."""
    n, runs = g.n, _out_runs(g)
    panels = []
    for s in range(0, n, _TILE):
        h = min(_TILE, n - s)
        panel = np.zeros((h, n - s), dtype=bool)
        np.fill_diagonal(panel, True)
        a, b = runs[s + 1], runs[s + h + 1]  # out-edges of ranks s+1..s+h
        # one flat intp index: a 2-D fancy index would convert both int32
        # slices to intp on its own
        flat = g.edge_i[a:b].astype(np.intp)
        flat -= s + 1
        flat *= n - s
        flat += g.edge_j[a:b]
        flat -= s + 1
        panel.ravel()[flat] = True
        del flat  # freed before the next panel is allocated
        panels.append(panel)
    return panels


def _power_entries(n: int) -> int:
    """Entries of a power's panels, one byte each as bool."""
    return sum(min(_TILE, n - s) * (n - s) for s in range(0, n, _TILE))


def _panel_product(x: list, y: list) -> None:
    """Replace x's bool panels by those of the boolean product X @ Y.

    Panel I of the product is the sum over K >= I of X's panel I, columns of
    panel K's rows (X's tile (I, K)), @ Y's panel K. It reads only X's panel
    I and Y's panels K >= I, so x may be y (squaring). Work that adds
    nothing is skipped: a K-step K > I whose X tile is all zero is not
    taken, and a K-step multiplies only the runs of Y's panel K's nonzero
    column tiles (_TILE columns each), one BLAS call per run. Every panel's
    tile occupancy is read before the product, once for a panel x shares
    with y. BLAS multiplies float32: Y's panel K is copied to float32 when a
    K-step first needs it, and copy I is dropped once panel I has used it.
    Each X panel of h rows enters BLAS as ceil(h / 2) packed rows: row r
    holds its own 0/1 entries times _BASE plus those of row r + ceil(h / 2),
    so every call has half the rows. An entry of the packed product is then
    hi * _BASE + lo, hi and lo the path counts of the two rows. Each K-step
    adds at most _TILE to a count, and a skipped one adds 0, so after every
    `steps` performed K-steps the columns still to be summed are clamped
    back to one path per field, and no count passes _BASE - 1: every
    partial sum is an integer below _BASE^2 = 2^24, exact in float32 under
    any summation order or blocking. Panel I is replaced by a new bool
    panel, decoded from the two fields (see _decode_fields), as soon as it
    is done, never written in place, since x and y may share panel arrays;
    its scratch is what _product_scratch plans."""
    if _TILE > _BASE - 2:
        raise ValueError(f"panel height {_TILE} exceeds {_BASE - 2}: "
                         f"path counts would overflow their {_BASE} base")
    steps = (_BASE - 2) // _TILE  # performed K-steps per count group
    base = np.float32(_BASE)
    y_tiles = [_occupied_tiles(p) for p in y]
    x_tiles = [y_tiles[I] if p is y[I] else _occupied_tiles(p)
               for I, p in enumerate(x)]
    runs = [_tile_runs(t, p.shape[1]) for t, p in zip(y_tiles, y)]
    right = [None] * len(y)
    for I, xp in enumerate(x):
        h = xp.shape[0]
        m = (h + 1) // 2  # packed rows: hi field rows :m, lo field rows m:
        packed = xp[:m] * base
        packed[:h - m] += xp[m:]
        if right[I] is None:
            right[I] = y[I].astype(np.float32)
        acc = packed[:, :_TILE] @ right[I]
        right[I] = None
        done = 1  # K-steps performed since the last clamp
        occupied = x_tiles[I]
        for K in range(I + 1, len(y)):
            if not (occupied[K - I] and runs[K]):
                continue
            if right[K] is None:
                right[K] = y[K].astype(np.float32)
            off = (K - I) * _TILE
            if done == steps:
                _clamp_fields(acc[:, off:])
                done = 0
            done += 1
            left = packed[:, off:off + _TILE]
            for a, b in runs[K]:
                acc[:, off + a:off + b] += left @ right[K][:, a:b]
        x[I] = _decode_fields(acc, h, packed.view(np.int32))
        del packed, acc  # freed before the next panel's are allocated


def _occupied_tiles(panel: np.ndarray) -> list:
    """For each column tile of a panel, _TILE columns from its first, whether
    it holds a nonzero entry."""
    starts = np.arange(0, panel.shape[1], _TILE)
    return np.logical_or.reduceat(panel.any(axis=0), starts).tolist()


def _tile_runs(occupied: list, width: int) -> list:
    """Column bounds (a, b) of the runs of occupied tiles in a panel of
    `width` columns, in order."""
    runs, t = [], 0
    for full, group in itertools.groupby(occupied):
        u = t + len(list(group))
        if full:
            runs.append((t * _TILE, min(u * _TILE, width)))
        t = u
    return runs


def _decode_fields(acc: np.ndarray, h: int, scratch: np.ndarray) -> np.ndarray:
    """The h-row bool panel packed in acc (see _panel_product): its rows :m
    are the hi fields, acc >= _BASE, and its rows m: the lo fields of acc's
    first h - m rows, int32(acc) & (_BASE - 1) != 0, m = acc's rows; scratch
    is an int32 array of acc's shape that may be overwritten."""
    m = acc.shape[0]
    out = np.empty((h, acc.shape[1]), dtype=bool)
    np.greater_equal(acc, _BASE, out=out[:m])
    lo = scratch[:h - m]
    np.copyto(lo, acc[:h - m], casting="unsafe")
    lo &= _BASE - 1
    np.not_equal(lo, 0, out=out[m:])
    return out


def _clamp_fields(acc: np.ndarray) -> None:
    """Clamp both count fields of packed entries to at most 1, in place."""
    m = acc.shape[0]
    fields = _decode_fields(acc, 2 * m, np.empty(acc.shape, dtype=np.int32))
    np.multiply(fields[:m], _BASE, out=acc)
    acc += fields[m:]


def _product_scratch(n: int) -> int:
    """Bytes a _panel_product holds beyond its factors, at most: the float32
    copies of the right factor's panels, either the first (h rows, n
    columns) or at most all the others, since copy 0 is made first and
    dropped before any other is made (the others only when a K-step first
    needs them, so a factor with zero tiles may hold fewer); and for that
    widest panel the packed rows, their accumulator and the BLAS temporary,
    ceil(h / 2) float32 rows each, and the new bool panel. The tile
    occupancy is read before any of these exist, in n bytes at most."""
    h = min(_TILE, n)
    rest = _power_entries(n) - h * n
    return 4 * max(h * n, rest) + (12 * ((h + 1) // 2) + h) * n


def _zeros_beyond(panels: list, d: int) -> int:
    """Number of zero entries (i, j) with j - i > d >= 0 of a panel list
    (in every panel, entry (a, b) has j - i = b - a)."""
    total = 0
    for p in panels:
        h = p.shape[0]
        if d == 0:  # entries left of the diagonal are 0, those on it 1
            total += p.size - np.count_nonzero(p) - h * (h - 1) // 2
            continue
        rest = p[:, h + d:]  # more than d right of every row's diagonal
        total += rest.size - np.count_nonzero(rest)
        band = p[:, d + 1:h + d]  # column c is b = c + d + 1: needs c >= a
        total += np.count_nonzero(np.triu(~band))
    return int(total)


def _row_bytes(n: int) -> int:
    """Bytes per vertex of the bit finish's rows and columns, whole uint64
    words."""
    return ((n + 63) >> 6) << 3


def _column_bits(panels: list, n: int) -> np.ndarray:
    """Columns of a power given as bool panels, packed into _row_bytes(n)
    bytes per vertex: bit m of row j (byte m >> 3, bit m & 7) is entry
    (m, j), 0-based. Built transposed, one byte row per 8 matrix rows: the
    panel rows at bit k of their byte are every 8th row, so each panel
    takes 8 shifted ORs and no bool transpose."""
    cols = np.zeros((_row_bytes(n), n), dtype=np.uint8)
    for p, panel in enumerate(panels):
        s = p * _TILE
        rows = panel.view(np.uint8)
        for k in range(8):
            a = (k - s) % 8  # first panel row at bit k of its byte
            sub = rows[a::8]
            b = (s + a) >> 3
            cols[b:b + len(sub), s:] |= sub << k
    return np.ascontiguousarray(cols.T)


def _finish_scratch(n: int, listed: int) -> int:
    """Bytes a _bit_finish with `listed` missing pairs allocates, at most: the
    power's bit rows, _row_bytes(n) per vertex; the larger of one panel's
    scratch while it is packed (its byte-aligned copy and zero mask, the
    panel's rows by n columns each) and one hop's row gathers (two chunks
    and their AND); and the pair lists, at most eight int32 per listed pair
    (i and j, and a hop's connected pairs with their byte and bit indices
    and bit values)."""
    width, h = _row_bytes(n), min(_TILE, n)
    chunk = min(listed, max(1, _GATHER_BYTES // (2 * width)))
    return n * width + max(2 * h * n, 3 * chunk * width) + 32 * listed


def _bit_finish(panels: list, cols: np.ndarray, hops: int) -> np.ndarray:
    """Rank distances j - i of the pairs that a power B^h of I + A, given as
    bool panels, leaves unconnected and that `hops` more hops do not
    connect; cols are I + A's column bits (see _column_bits).

    B^h's rows are packed into bits and its zero pairs above the diagonal
    listed; each hop tests every listed pair as rows[i] & cols[j], then sets
    the row bits of the pairs it connected, so the rows stay B^(h+t) after
    hop t. A hop that connects nothing has reached the fixed point, and
    later hops would connect nothing either. The panels are released one by
    one while they are packed; the scratch is what _finish_scratch plans."""
    n, width = cols.shape
    rows = np.zeros((n, width), dtype=np.uint8)
    upper = ~np.tri(len(panels[0]), k=-1, dtype=bool)
    pi, pj = [], []
    for p in range(len(panels)):
        panel, panels[p] = panels[p], None
        s, h = p * _TILE, panel.shape[0]
        lead = s & 7  # a panel start off a byte boundary is padded to one
        if lead:
            bits = np.zeros((h, lead + n - s), dtype=bool)
            bits[:, lead:] = panel
        else:
            bits = panel
        packed = np.packbits(bits, axis=1, bitorder="little")
        del bits
        rows[s:s + h, s >> 3:(s >> 3) + packed.shape[1]] = packed
        zero = np.logical_not(panel)
        del panel
        zero[:, :h] &= upper[:h, :h]  # no pairs left of the diagonal
        a, b = np.divmod(np.flatnonzero(zero), n - s)
        del zero
        # ranks are below 2^31: int32 halves the pair lists
        pi.append(np.add(a, s, dtype=np.int32))
        pj.append(np.add(b, s, dtype=np.int32))
        del a, b
    i, j = np.concatenate(pi), np.concatenate(pj)
    del pi, pj
    rows64, cols64 = rows.view(np.uint64), cols.view(np.uint64)
    chunk = max(1, _GATHER_BYTES // (2 * width))
    for _ in range(hops):
        if i.size == 0:
            break
        hit = np.concatenate([
            (rows64[i[c:c + chunk]] & cols64[j[c:c + chunk]]).any(axis=1)
            for c in range(0, i.size, chunk)])
        if not hit.any():
            break
        hi, hj = i[hit], j[hit]
        np.bitwise_or.at(rows, (hi, hj >> 3),
                         np.left_shift(1, hj & 7).astype(np.uint8))
        i, j = i[~hit], j[~hit]
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
    powers = 1 if kk & (kk - 1) == 0 else 2
    # the bit finish lists at most that share of all pairs; I + A's column
    # bits stay alive next to the powers
    listed = int(min(1, _BIT_FINISH_SHARE) * pairs)
    _check_dense(powers * _power_entries(n) + n * _row_bytes(n)
                 + max(_product_scratch(n), _finish_scratch(n, listed)),
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
    # the bit finish tests against I + A's columns, packed while its panels
    # exist; without a squaring there is no step that could finish
    cols = _column_bits(power[0], n) if "sq" in plan else None
    acc = None
    for step in plan:
        if step == "copy":
            acc = [list(power[0]), power[1], power[2]]
            continue
        best = power if acc is None or power[1] >= acc[1] else acc
        if best[2] * (kk - best[1]) <= _BIT_FINISH_SHARE * pairs:
            gaps = _bit_finish(best[0], cols, kk - best[1])
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


def _trial(g: RankGraph, psi: float, master: int, t: int):
    """Trial t: the failed graph filter_edges(g, psi, stream) and the stream
    it was drawn from, stream = derive_stream(master, t), for any further
    draw of trial t."""
    stream = derive_stream(master, t)
    return filter_edges(g, psi, stream), stream


def failure_trials(g: RankGraph, psi: float, trials: int, master: int):
    """The one trial loop: yield _trial(g, psi, master, t) for t in
    0..trials-1, in order. Consume it with itertools.starmap, which drops a
    trial before drawing the next; a for loop would hold two failed graphs
    at once."""
    for t in range(trials):
        yield _trial(g, psi, master, t)


def _unbounded_count(h: RankGraph, stream, sample: int | None):
    """The failed pairs of h: exact over all sources when sample is None,
    else over `sample` < n sources that stream draws, scaled by
    n / sample (unbiased)."""
    if sample is None:
        return deficiency(h)
    sources = np.sort(stream.choice_without_replacement(h.n, sample) + 1)
    return _closure_missing(h, sources) * h.n / sample


# What a pool worker of monte_carlo_deficiency counts: (g, psi, master,
# sample), set once per worker process by _start_worker.
_worker_args: tuple = ()


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker_count(t: int):
    g, psi, master, sample = _worker_args
    return _unbounded_count(*_trial(g, psi, master, t), sample)


# Below this many ranks swept, n * trials, a pool's start-up costs more than
# it saves. The closure's sweep spends at least about 3 us per rank and
# trial (the path graph, one edge per rank), so 2^14 is at least about 50 ms
# of trials in order, against 12-20 ms to fork, feed and join two workers
# (2 cores). On the path graph, 2 workers ran n=1024 x 16 trials at 0.97x
# the in-order speed and n=2048 x 16 at 1.2-1.3x; denser graphs gain more
# (the four-hop spanner at n=1024, 16 trials: 1.5x, 2.0x with 16 sampled
# sources).
_POOL_MIN_RANK_TRIALS = 1 << 14


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_counts(g: RankGraph, psi: float, trials: int, master: int,
                   sample: int | None) -> list | None:
    """The unbounded counts of trials 0..trials-1, in trial order, from one
    forked worker process per usable core and trial, as many as physical
    memory holds closures for; or None, to count them in order, when fewer
    than two workers would run, when n * trials is below
    _POOL_MIN_RANK_TRIALS, or in a daemonic process (a pool's own worker),
    which may not start any. Fork, not spawn: the workers inherit g and the
    imported numpy instead of importing and unpickling them, and the closure
    engine calls no BLAS, so no BLAS thread pool is used after the fork."""
    n = g.n
    if n * trials < _POOL_MIN_RANK_TRIALS:
        return None
    closure = _closure_bytes(n, n if sample is None else sample)
    workers = min(_usable_cores(), trials,
                  graphs._physical_memory() // closure)
    import multiprocessing
    if workers < 2 or multiprocessing.current_process().daemon:
        return None
    ctx = multiprocessing.get_context("fork")
    # on an error, leaving the with block terminates and reaps the workers
    with ctx.Pool(workers, _start_worker, (g, psi, master, sample)) as pool:
        counts = pool.map(_worker_count, range(trials))
        pool.close()
        pool.join()
    return counts


def monte_carlo_deficiency(g: RankGraph, psi: float, trials: int,
                           hop_bound: int | None = None, master: int = 0,
                           jobs: int = 1,
                           source_sample: int | None = None) -> DeficiencyReport:
    """Estimate the expected deficiency of g under survival rate psi.

    Trial t is filter_edges(g, psi, derive_stream(master, t)) (see _trial),
    followed by the exact failed-pair count of the filtered graph, unless
    source_sample < n: then the same stream draws that many sources
    afterwards, and the count over them is scaled by n / source_sample
    (unbiased). Every trial draws only from its own stream and the counts
    are kept in trial order, so the report is a pure function of the
    arguments, however many processes count it.

    Unbounded counts with n * trials >= _POOL_MIN_RANK_TRIALS run on one
    forked worker process per usable core (os.sched_getaffinity) and
    trial, as many as physical memory holds closures for (_pooled_counts);
    on 2 cores, 32 trials on a filtered four-hop spanner at n=1024 took 211
    instead of 350 ms. Smaller inputs, one usable core and hop-bounded
    counts run in order in this process. Hop-bounded products already use
    every core through BLAS, and two forked workers each running BLAS
    threads took 605 against 353 ms in order (k=4, 24 trials). `jobs` is
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
    sample = None if source_sample is None or source_sample >= n else source_sample
    counts = (None if hop_bound is not None
              else _pooled_counts(g, psi, trials, master, sample))
    if counts is None:
        def count(h: RankGraph, stream):
            if hop_bound is not None:
                return khop_deficiency(h, hop_bound)
            return _unbounded_count(h, stream, sample)

        counts = list(itertools.starmap(
            count, failure_trials(g, psi, trials, master)))
    return DeficiencyReport.from_counts(n, psi, hop_bound, master, counts)
