"""Locality-sensitive ordering families on [0,1)^d.

An ordering here is a total order obtained by reading points through a
shifted hierarchical grid: coordinates are diagonally shifted, expressed in
fixed point, and split into base-G digits (G cells per axis per level, G a
power of two). The d per-axis digits at each level form a cell index in
[0, G^d), which is mapped through a Hamiltonian-path order of the complete
graph on the cells; orders compare lexicographically by the mapped digit
sequence. One family member uses the identity cell order (for d = 1 this is
the natural coordinate order); the rest enumerate

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
        # level 0 covers the `offset` bits above the first full digit boundary
        h = self.grid.bit_length() - 1
        return 1 + -((-(_FRAC_BITS + 1 - self.offset)) // h)


def _walecki_positions(cells: np.ndarray, path: int, ncells: int) -> np.ndarray:
    """Position of each cell along Walecki path `path` of K_ncells.

    Path p visits p, p+1, p-1, p+2, p-2, ... (mod N); closed form, so no
    permutation table is ever materialized.
    """
    if path < 0:
        return cells
    e = (cells - path) % ncells
    half = ncells // 2
    return np.where(e == 0, 0, np.where(e <= half, 2 * e - 1, 2 * (ncells - e)))


def _walecki_path_of_pair(a: int, b: int, ncells: int) -> int:
    """The unique path index whose traversal makes cells a and b adjacent."""
    half = ncells // 2
    for x, y in ((a, b), (b, a)):
        delta = (y - x) % ncells
        if delta % 2 == 1:
            p = (x + (delta - 1) // 2) % ncells
        else:
            p = (x + delta // 2 - half) % ncells
        if p < half:
            return p
    raise AssertionError("pair not covered; unreachable for even cell counts")


def _fixed_point(coords: np.ndarray, shift: float) -> np.ndarray:
    """(n, d) coordinates -> (n, d) uint64 fixed-point values of coord+shift."""
    return np.floor((coords + shift) * float(1 << _FRAC_BITS)).astype(np.uint64)


def _digit(y: np.ndarray, ordering: Ordering, level: int) -> np.ndarray:
    """Base-G digit of fixed-point values at a level of the shifted grid.

    Level 0 holds the bits above the first offset-aligned boundary (fewer
    than log2 G of them, so still a valid digit); level t >= 1 holds the t-th
    full group of log2 G bits below it, zero-padded at the bottom.
    """
    h = ordering.grid.bit_length() - 1
    mask = np.uint64(ordering.grid - 1)
    if level == 0:
        return ((y >> (_FRAC_BITS + 1 - ordering.offset)) & mask).astype(np.int64)
    pos = _FRAC_BITS + 1 - ordering.offset - level * h
    if pos >= 0:
        return ((y >> pos) & mask).astype(np.int64)
    return ((y << (-pos)) & mask).astype(np.int64)


def _key_matrix(ordering: Ordering, coords: np.ndarray) -> np.ndarray:
    """(n, levels) int64 sort keys; row-lex order is the ordering."""
    y = _fixed_point(coords, ordering.shift_index / ordering.shift_count)
    ncells = ordering.grid ** ordering.dim
    levels = ordering.levels
    out = np.empty((coords.shape[0], levels), dtype=np.int64)
    for t in range(levels):
        cell = _digit(y[:, 0], ordering, t).copy()
        scale = 1
        for ax in range(1, ordering.dim):
            scale *= ordering.grid
            cell += _digit(y[:, ax], ordering, t) * scale
        out[:, t] = _walecki_positions(cell, ordering.path, ncells)
    return out


def _row_compare(keys: np.ndarray, coords: np.ndarray,
                 ref_key: np.ndarray, ref_coord: np.ndarray) -> np.ndarray:
    """Vectorized -1/0/+1 of every row against one reference point, comparing
    digit keys first and raw coordinates as the final tiebreak."""
    full = np.concatenate([keys.astype(np.float64), coords], axis=1)
    ref = np.concatenate([ref_key.astype(np.float64), ref_coord])
    diff = full != ref[None, :]
    anydiff = diff.any(axis=1)
    first = np.argmax(diff, axis=1)
    picked = full[np.arange(full.shape[0]), first]
    out = np.sign(picked - ref[first]).astype(np.int8)
    out[~anydiff] = 0
    return out


class OrderingFamily:
    """Lazy, deterministic sequence of orderings for one (eps, dim)."""

    def __init__(self, eps: float, dim: int, grid_factor: float = GRID_FACTOR,
                 shift_count: int | None = None):
        if not (0.0 < eps <= 0.5):
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.eps = float(eps)
        self.dim = int(dim)
        self.grid = max(4, 1 << math.ceil(math.log2(grid_factor / eps)))
        self.grid_factor = grid_factor
        self.shifts = _shift_count(dim) if shift_count is None else shift_count
        if self.shifts % 2 == 0:
            raise ValueError("shift count must be odd")
        self.offsets = self.grid.bit_length() - 1
        self.paths = (self.grid ** self.dim) // 2

    def __len__(self) -> int:
        return 1 + self.shifts * self.offsets * self.paths

    @property
    def size(self) -> int:
        return len(self)

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

    def ordering_id(self, shift_index: int, offset: int, path: int) -> int:
        if path < 0:
            return 0
        return 1 + (shift_index * self.offsets + offset) * self.paths + path

    def __getitem__(self, oid: int) -> Ordering:
        return self.ordering(oid)

    def __iter__(self):
        return (self.ordering(i) for i in range(len(self)))

    def sort_indices(self, o: Ordering, coords: np.ndarray) -> np.ndarray:
        """Point indices (0-based) in ascending order under o."""
        coords = _as_coords(coords, self.dim)
        keys = _key_matrix(o, coords)
        cols = [coords[:, ax] for ax in range(self.dim - 1, -1, -1)]
        cols += [keys[:, t] for t in range(keys.shape[1] - 1, -1, -1)]
        return np.lexsort(tuple(cols))

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
    ncells = o.grid ** o.dim
    y = _fixed_point(pq, o.shift_index / o.shift_count)
    for t in range(o.levels):
        cell = _digit(y[:, 0], o, t).copy()
        scale = 1
        for ax in range(1, o.dim):
            scale *= o.grid
            cell += _digit(y[:, ax], o, t) * scale
        kp, kq = _walecki_positions(cell, o.path, ncells)
        if kp != kq:
            return -1 if kp < kq else 1
    for a, b in zip(pq[0], pq[1]):
        if a != b:
            return -1 if a < b else 1
    return 0


def _first_diff_cells(fam: OrderingFamily, yu: list, yv: list, offset: int):
    """First level where u and v occupy different cells under this offset:
    returns (level, cell_u, cell_v, cell_side) or None if never.

    yu/yv are per-axis fixed-point ints for an already applied shift.
    """
    h = fam.grid.bit_length() - 1
    grid = fam.grid
    mask = grid - 1
    levels = 1 + -((-(_FRAC_BITS + 1 - offset)) // h)
    for t in range(levels):
        if t == 0:
            pos = _FRAC_BITS + 1 - offset
        else:
            pos = _FRAC_BITS + 1 - offset - t * h
        cu = cv = 0
        scale = 1
        for ax in range(fam.dim):
            if pos >= 0:
                du = (yu[ax] >> pos) & mask
                dv = (yv[ax] >> pos) & mask
            else:
                du = (yu[ax] << (-pos)) & mask
                dv = (yv[ax] << (-pos)) & mask
            cu += du * scale
            cv += dv * scale
            scale *= grid
        if cu != cv:
            side = 2.0 ** (1 - offset - t * h)
            return t, cu, cv, side
    return None


def locality_witness(fam: OrderingFamily, points, u, v,
                     max_candidates: int | None = None):
    """Some ordering id o such that every point of P strictly between u and v
    under o lies within eps*|uv| of u or of v; None if no candidate qualifies.

    Candidates are generated directly from the pair's geometry (one per
    shift/offset whose differing-level cells are adjacent under some path),
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
    ell = float(np.linalg.norm(u - v))
    limit = fam.eps * ell
    sqrt_d = math.sqrt(fam.dim)

    candidates = [0]  # identity order first: qualifies whenever nothing sits between
    scored = []
    scale = float(1 << _FRAC_BITS)
    ncells = fam.grid ** fam.dim
    for s in range(fam.shifts):
        shift = s / fam.shifts
        yu = [int((u[ax] + shift) * scale) for ax in range(fam.dim)]
        yv = [int((v[ax] + shift) * scale) for ax in range(fam.dim)]
        for r in range(fam.offsets):
            hit = _first_diff_cells(fam, yu, yv, r)
            if hit is None:
                continue
            _, cu, cv, side = hit
            path = _walecki_path_of_pair(cu, cv, ncells)
            # margin < 1 means the two cells are provably small enough
            margin = (sqrt_d * side) / limit if limit > 0 else math.inf
            scored.append((margin, fam.ordering_id(s, r, path)))
    scored.sort()
    candidates.extend(oid for _, oid in scored)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]

    for oid in candidates:
        o = fam.ordering(oid)
        keys = _key_matrix(o, coords)
        cmp_u = _row_compare(keys, coords, keys[iu[0]], coords[iu[0]])
        cmp_v = _row_compare(keys, coords, keys[iv[0]], coords[iv[0]])
        between = (cmp_u * cmp_v) < 0  # strictly after one and before the other
        if not between.any():
            return oid
        w = coords[between]
        du = np.linalg.norm(w - u, axis=1)
        dv = np.linalg.norm(w - v, axis=1)
        if bool((np.minimum(du, dv) <= limit).all()):
            return oid
    return None
