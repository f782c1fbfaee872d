"""Locality-sensitive ordering families on [0,1)^d.

An ordering here is a total order obtained by reading points through a
shifted hierarchical grid: coordinates are diagonally shifted, expressed in
fixed point, and split into base-G digits (G cells per axis per level, G a
power of two). The d per-axis digits at each level form a cell index in
[0, G^d), which is mapped through a Hamiltonian-path order of the complete
graph on the cells; orders compare lexicographically by the mapped digit
sequence, packed a few levels to an int64 key row (_sort_keys), the one key
the sort, compare_points and the witness all read. One family member uses
the identity cell order (for d = 1 this is the natural coordinate order);
the rest enumerate

    shift index  s in 0..m-1     diagonal shift s/m, m odd so grid lines of
                                 every scale move,
    offset       r in 0..h-1     which binary scales the G-ary levels sit at
                                 (h = log2 G),
    path index   p in 0..N/2-1   Walecki Hamiltonian-path decomposition of
                                 K_N over the N = G^d cells: every pair of
                                 cells is adjacent in exactly one path.

For a pair u, v the witness picks the (shift, offset) whose first differing
level has cells small relative to |uv| and the path making those two cells
adjacent; every point ordered strictly between u and v then lies in one of
the two cells, hence within eps*|uv| of an endpoint. The binding correctness
contract is the empirical locality gate in the test suite, not this sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ordering",
    "OrderingFamily",
    "build_lso_family",
    "compare_points",
    "locality_witness",
    "family_size_bound",
]

# Grid density: G is the power of two at or above GRID_FACTOR / eps.
GRID_FACTOR = 16.0
_FRAC_BITS = 52  # fixed-point fraction bits; shifted coords live in [0, 2)


def _shift_count(dim: int) -> int:
    # Diagonal shift count per dimension. Odd, so shifted grid lines of every
    # scale actually move; sized for headroom on the locality gate.
    return 4 * dim + 11


@dataclass(frozen=True)
class Ordering:
    """One member of a family; a pure comparator specification."""

    id: int
    dim: int
    grid: int          # G: cells per axis per level
    shift_index: int   # numerator of the diagonal shift
    shift_count: int   # denominator m
    offset: int        # binary scale offset r in [0, log2 G)
    path: int          # Walecki path index, or -1 for the identity cell order

    @property
    def levels(self) -> int:
        return 1 + int(_level_of_bit(0, self.offset, self.grid.bit_length() - 1))


def _low_bit(offset, h: int, level):
    """Lowest fixed-point bit of a level (h = log2 G bits per level). Level 0
    holds the bits from _FRAC_BITS + 1 - offset up (fewer than h of them, so
    still a valid digit); each later level the next h bits below."""
    return _FRAC_BITS + 1 - offset - level * h


def _level_of_bit(bit, offset, h: int):
    """The level holding fixed-point bit `bit` >= 0: the first whose lowest
    bit is at or below it."""
    return np.maximum(0, -((bit - _low_bit(offset, h, 0)) // h))


def _cells(y: np.ndarray, grid: int, pos) -> np.ndarray:
    """Cell index in [0, grid^d) of fixed-point points y (..., d) at the level
    whose lowest bit is pos: the base-grid digit of each axis, axis 0 least
    significant. pos broadcasts against y's leading axes; a negative pos
    zero-pads below bit 0."""
    pos = np.asarray(pos, dtype=np.int64)[..., None]
    up = np.maximum(-pos, 0).astype(np.uint64)
    down = np.maximum(pos, 0).astype(np.uint64)
    digits = (((y << up) >> down) & np.uint64(grid - 1)).astype(np.int64)
    cell = digits[..., -1]
    for ax in range(y.shape[-1] - 2, -1, -1):
        cell = cell * grid + digits[..., ax]
    return cell


def _walecki_positions(cells: np.ndarray, path: int, ncells: int) -> np.ndarray:
    """Position of each cell along Walecki path `path` of K_ncells (ncells a
    power of two, so mod N is a mask).

    Path p visits p, p+1, p-1, p+2, p-2, ... (mod N); closed form, so no
    permutation table is ever materialized.
    """
    if path < 0:
        return cells
    e = (cells - path) & (ncells - 1)
    half = ncells // 2
    return np.where(e == 0, 0, np.where(e <= half, 2 * e - 1, 2 * (ncells - e)))


def _walecki_path_of_pair(a, b, ncells: int):
    """The unique path index whose traversal makes cells a and b adjacent;
    elementwise over arrays of distinct cell pairs."""
    half, mask = ncells // 2, ncells - 1

    def start(x, y):  # the path on which y follows x, mod N
        delta = (y - x) & mask
        return (x + np.where(delta & 1, (delta - 1) // 2,
                             delta // 2 - half)) & mask

    p = start(a, b)
    return np.where(p < half, p, start(b, a))


def _fixed_point(coords: np.ndarray, shift) -> np.ndarray:
    """Coordinates -> uint64 fixed-point values of coord+shift (broadcast)."""
    return np.floor((coords + shift) * float(1 << _FRAC_BITS)).astype(np.uint64)


def _sort_keys(o: Ordering, coords: np.ndarray) -> np.ndarray:
    """(c, n) int64 sort keys, most significant row first; column-lex order
    is the ordering. A level key is below G^d, b = d log2(G) bits, so each
    row packs floor(63 / b) consecutive levels, the earliest in the highest
    bits, and zero fields pad the last row. Every point gets the same
    padding, so packing changes no comparison."""
    y = _fixed_point(coords, o.shift_index / o.shift_count)
    h = o.grid.bit_length() - 1
    bits = o.dim * h
    per = 63 // bits
    pos = _low_bit(o.offset, h, np.arange(o.levels))
    cells = _cells(y, o.grid, pos[:, None])  # (levels, n)
    keys = _walecki_positions(cells, o.path, o.grid ** o.dim)
    # field j of every row at once: 5x faster at n=4096 than one
    # bitwise_or.reduceat over variably shifted levels
    packed = keys[::per].copy()
    for j in range(1, per):
        packed <<= bits
        field = keys[j::per]
        packed[:len(field)] |= field
    return packed


def _sort_indices(o: Ordering, coords: np.ndarray) -> np.ndarray:
    """OrderingFamily.sort_indices on (n, d) float64 coordinates in [0, 1)
    that are already checked, as a PointSet's are."""
    return np.lexsort((*coords.T[::-1], *_sort_keys(o, coords)[::-1]))


def _lex_sign(keys: np.ndarray, coords: np.ndarray, ref: int) -> np.ndarray:
    """-1/0/+1 of every point against point `ref`, comparing their
    _sort_keys columns row by row first (exactly, as integers) and raw
    coordinates as the final tiebreak."""
    signs = np.concatenate([np.sign(keys - keys[:, ref, None]),
                            np.sign(coords.T - coords[ref, :, None]).astype(np.int64)])
    return signs[np.argmax(signs != 0, axis=0), np.arange(signs.shape[1])]


class OrderingFamily:
    """Lazy, deterministic sequence of orderings for one (eps, dim)."""

    def __init__(self, eps: float, dim: int):
        if not (0.0 < eps <= 0.5):
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.eps = float(eps)
        self.dim = int(dim)
        self.grid = max(4, 1 << math.ceil(math.log2(GRID_FACTOR / eps)))
        self.shifts = _shift_count(dim)
        self.offsets = self.grid.bit_length() - 1
        self.paths = (self.grid ** self.dim) // 2
        self._size = 1 + self.shifts * self.offsets * self.paths  # Python int
        if self._size >= 2 ** 63:  # ordering ids are int64
            raise ValueError(f"ordering family for eps={eps:g}, d={dim} has "
                             f"{self._size} members, too many for int64 ids")

    def __len__(self) -> int:
        return self._size

    def ordering(self, oid: int) -> Ordering:
        if not (0 <= oid < len(self)):
            raise ValueError(f"ordering id {oid} out of range [0, {len(self)})")
        if oid == 0:
            return Ordering(id=0, dim=self.dim, grid=self.grid, shift_index=0,
                            shift_count=self.shifts, offset=0, path=-1)
        rest = oid - 1
        s, rest = divmod(rest, self.offsets * self.paths)
        r, p = divmod(rest, self.paths)
        return Ordering(id=oid, dim=self.dim, grid=self.grid, shift_index=s,
                        shift_count=self.shifts, offset=r, path=p)

    def ordering_id(self, shift_index, offset, path):
        """Inverse of ordering(); elementwise over arrays of path >= 0."""
        if np.ndim(path) == 0 and path < 0:
            return 0
        return 1 + (shift_index * self.offsets + offset) * self.paths + path

    def sort_indices(self, o: Ordering, coords: np.ndarray) -> np.ndarray:
        """Point indices (0-based) in ascending order under o."""
        return _sort_indices(o, _as_coords(coords, self.dim))

    def __repr__(self) -> str:
        return (f"OrderingFamily(eps={self.eps}, dim={self.dim}, "
                f"grid={self.grid}, size={len(self)})")


def build_lso_family(eps: float, dim: int) -> OrderingFamily:
    """The ordering family for locality parameter eps in (0, 1/2] and
    dimension d >= 1. Pure function of its arguments."""
    return OrderingFamily(eps, dim)


def family_size_bound(eps: float, dim: int) -> int:
    """Documented size cap: c_lso * eps^-d * log2(2/eps), where
    c_lso(d) = ceil(m * log2(2 * GRID_FACTOR) * (2 * GRID_FACTOR)^d / 2) + 1."""
    c_lso = math.ceil(_shift_count(dim) * math.log2(2 * GRID_FACTOR)
                      * (2 * GRID_FACTOR) ** dim / 2) + 1
    return math.ceil(c_lso * eps ** (-dim) * math.log2(2.0 / eps))


def _as_coords(points, dim: int) -> np.ndarray:
    coords = getattr(points, "coords", points)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or coords.shape[1] != dim:
        raise ValueError(f"expected (n, {dim}) coordinates, got {coords.shape}")
    if coords.size and (coords.min() < 0.0 or coords.max() >= 1.0):
        raise ValueError("coordinates must lie in [0, 1)")
    return coords


def compare_points(o: Ordering, p, q) -> int:
    """-1, 0 or +1 as p sorts before, equal to, or after q under o.

    Equal only for identical coordinates; ties in every grid digit fall back
    to plain lexicographic coordinate comparison.
    """
    pq = _as_coords(np.asarray([p, q], dtype=np.float64), o.dim)
    return int(_lex_sign(_sort_keys(o, pq), pq, 1)[0])


def locality_witness(fam: OrderingFamily, points, u, v):
    """Some ordering id o such that every point of P strictly between u and v
    under o lies within eps*|uv| of u or of v; None if no candidate qualifies.

    Candidates are generated directly from the pair's geometry, one per
    (shift, offset) under which u and v differ in fixed point: the first level
    where their cells differ is the one holding the highest differing bit, and
    the path making those two cells adjacent gives the ordering. They are
    tried in order of locality margin; each is verified against the actual
    point set before being returned.
    """
    coords = _as_coords(points, fam.dim)
    u = np.asarray(u, dtype=np.float64).reshape(fam.dim)
    v = np.asarray(v, dtype=np.float64).reshape(fam.dim)
    iu = np.flatnonzero((coords == u).all(axis=1))
    iv = np.flatnonzero((coords == v).all(axis=1))
    if iu.size == 0 or iv.size == 0:
        raise ValueError("u and v must both be members of the point set")
    if np.array_equal(u, v):
        raise ValueError("u and v must be distinct")
    limit = fam.eps * float(np.linalg.norm(u - v))

    h = fam.offsets
    shifts = np.arange(fam.shifts) / fam.shifts
    y = _fixed_point(np.stack([u, v]), shifts[:, None, None])  # (shift, u|v, axis)
    # highest bit in which any axis differs, per shift (-1 where none does);
    # frexp reads it exactly, since the values are below 2^53
    diff = np.bitwise_or.reduce(y[:, 0] ^ y[:, 1], axis=1)
    top = np.frexp(diff.astype(np.float64))[1] - 1
    s, r = np.nonzero(np.broadcast_to((top >= 0)[:, None], (fam.shifts, h)))
    pos = _low_bit(r, h, _level_of_bit(top[s], r, h))
    cells = _cells(y[s], fam.grid, pos[:, None])
    path = _walecki_path_of_pair(cells[:, 0], cells[:, 1], fam.grid ** fam.dim)
    ids = fam.ordering_id(s, r, path)
    # margin < 1 means the two cells are provably small enough
    if limit > 0:
        margin = np.ldexp(math.sqrt(fam.dim), pos - _FRAC_BITS) / limit
    else:
        margin = np.full(ids.size, math.inf)
    # identity order first: qualifies whenever nothing sits between
    for oid in [0, *ids[np.lexsort((ids, margin))].tolist()]:
        keys = _sort_keys(fam.ordering(oid), coords)
        # strictly after one endpoint and before the other
        between = _lex_sign(keys, coords, iu[0]) * _lex_sign(keys, coords, iv[0]) < 0
        if not between.any():
            return oid
        w = coords[between]
        du = np.linalg.norm(w - u, axis=1)
        dv = np.linalg.norm(w - v, axis=1)
        if bool((np.minimum(du, dv) <= limit).all()):
            return oid
    return None
