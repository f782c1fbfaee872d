"""Text formats for graphs and point sets, ASCII decimal: "n m", then m
lines "i j" (rank graphs) or "i j w" (weighted), 1-based, i < j; or "n d",
then n lines of d raw coordinates (normalized elsewhere, so that
emit(parse(f)) == f). LF ends a line, other whitespace (CR included) splits
tokens, blank lines are skipped, and errors name the physical line. Checks
any RankGraph needs (duplicates, finite positive weights) are its own.
"""

from __future__ import annotations

import numpy as np

from .graphs import RankGraph, _EdgeError

__all__ = ["FormatError", "read_edge_list", "write_edge_list",
           "edge_list_text", "read_points", "write_points", "points_text"]

_SPACE = np.array([chr(c).isspace() for c in range(128)])  # as str.split()
_CHUNK_ROWS = 65536  # edges formatted per chunk of written text


class FormatError(ValueError):
    """Malformed graph or point file; message carries the line number."""


def _fail(lineno: int, msg: str, text: str | None = None):
    """Raise for a physical line; with text, quote that line."""
    if text is not None:
        msg += ", got " + repr(text.split("\n", lineno)[lineno - 1].rstrip("\r"))
    raise FormatError(f"line {lineno}: {msg}")


def _table(text: str, header: str):
    """(a, b, lines, counts, tokens): the two header integers, the physical
    line number and token count of each non-blank body line, and the body
    tokens in file order. Counts come from a byte scan that splits exactly
    where str.split() does, LF alone ending a line."""
    if not text:
        raise FormatError("line 1: missing header")
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = np.concatenate(([True], _SPACE[raw]))  # a token starts after space
    starts = np.flatnonzero(space[:-1] & ~space[1:])
    bounds = np.concatenate(([0], np.flatnonzero(raw == 10) + 1, [raw.size]))
    per_line = np.diff(np.searchsorted(starts, bounds))
    tokens = text.split()
    try:
        a, b = map(int, tokens[:per_line[0]])
    except ValueError:
        _fail(1, f"header must be two integers '{header}'", text)
    body = np.flatnonzero(per_line[1:]) + 1
    return a, b, body + 1, per_line[body], tokens[2:]


def _column(text, lines, tokens, width, convert, dtype, what) -> np.ndarray:
    """Bulk conversion; on failure, names the first rejected token's line."""
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        for idx, tok in enumerate(tokens):
            try:
                np.array(convert(tok), dtype)
            except (ValueError, OverflowError):
                _fail(lines[idx // width], what, text)


def read_edge_list(path) -> RankGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def parse_edge_list(text: str) -> RankGraph:
    n, m, lines, counts, tokens = _table(text, "n m")
    if n < 1:
        _fail(1, f"vertex count must be >= 1, got {n}")
    if lines.size != m:
        raise FormatError(f"header promises {m} edges, file has {lines.size}")
    width = counts[0] if m else 2
    bad = np.flatnonzero((counts != width) | (counts < 2) | (counts > 3))
    if bad.size:
        if counts[bad[0]] in (2, 3):
            _fail(lines[bad[0]], "mixed weighted and unweighted edge lines")
        _fail(lines[bad[0]], "expected 'i j' or 'i j w'", text)
    weights = None
    if width == 3:
        weights = _column(text, lines, tokens[2::3], 1, float, np.float64,
                          "weight must be a number")
        del tokens[2::3]
    ei, ej = _column(text, lines, tokens, 2, int, np.int64,
                     "endpoints must be integers").reshape(m, 2).T
    bad = np.flatnonzero((ei < 1) | (ei >= ej) | (ej > n))
    if bad.size:
        i, j = ei[bad[0]], ej[bad[0]]
        _fail(lines[bad[0]], f"need 1 <= i < j <= {n}, got ({i}, {j})")
    try:
        return RankGraph(n, ei, ej, weights)
    except _EdgeError as exc:
        _fail(lines[exc.row], str(exc))


def _edge_list_chunks(g: RankGraph):
    """The edge-list text as a sequence of chunks, each formatting at most
    _CHUNK_ROWS edges from Python ints and floats."""
    yield f"{g.n} {g.m}\n"
    for lo in range(0, g.m, _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        ei, ej = g.edge_i[rows].tolist(), g.edge_j[rows].tolist()
        if g.weights is None:
            yield "".join([f"{i} {j}\n" for i, j in zip(ei, ej)])
        else:
            yield "".join([f"{i} {j} {w!r}\n" for i, j, w
                           in zip(ei, ej, g.weights[rows].tolist())])


def edge_list_text(g: RankGraph) -> str:
    return "".join(_edge_list_chunks(g))


def write_edge_list(g: RankGraph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_edge_list_chunks(g))


def read_points(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_points(fh.read())


def parse_points(text: str) -> np.ndarray:
    n, d, lines, counts, tokens = _table(text, "n d")
    if n < 1 or d < 1:
        _fail(1, f"need n >= 1 and d >= 1, got n={n} d={d}")
    if lines.size != n:
        raise FormatError(f"header promises {n} points, file has {lines.size}")
    bad = np.flatnonzero(counts != d)
    if bad.size:
        _fail(lines[bad[0]], f"expected {d} coordinates, got {counts[bad[0]]}")
    out = _column(text, lines, tokens, d, float, np.float64,
                  "coordinates must be numbers").reshape(n, d)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        _fail(lines[bad[0]], "coordinates must be finite", text)
    return out


def points_text(coords: np.ndarray) -> str:
    coords = np.asarray(coords, dtype=np.float64)
    rows = (" ".join(map(repr, row)) for row in coords.tolist())
    return "\n".join([f"{coords.shape[0]} {coords.shape[1]}", *rows]) + "\n"


def write_points(coords: np.ndarray, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(points_text(coords))
