"""Text formats for graphs and point sets, ASCII: "n m", then m lines "i j"
(rank graphs) or "i j w" (weighted), 1-based, i < j; or "n d", then n lines
of d raw coordinates (normalized elsewhere, so that emit(parse(f)) == f).
numpy's reader parses the body (int64, float64, no "_" separators). LF ends
a line, other whitespace (CR included) splits tokens, blank lines are
skipped; a line scan runs only on a fault, so errors name the physical line.
Checks any RankGraph needs (duplicates, finite positive weights) are its own.
"""

from __future__ import annotations

import io
import re

import numpy as np

from .graphs import _MAX_N, RankGraph, _EdgeError

__all__ = ["FormatError", "read_edge_list", "write_edge_list",
           "edge_list_text", "read_points", "write_points", "points_text"]

_CHUNK_ROWS = 65536  # edges formatted per chunk of written text
_EDGES = {w: np.dtype([("i", "i8"), ("j", "i8"), ("w", "f8")][:w]) for w in (2, 3)}


class FormatError(ValueError):
    """Malformed graph or point file; message carries the line number."""


def _fail(lineno: int, msg: str, text: str | None = None):
    """Raise for a physical line; with text, quote that line."""
    if text is not None:
        msg += ", got " + repr(text.split("\n", lineno)[lineno - 1].rstrip("\r"))
    raise FormatError(f"line {lineno}: {msg}")


def _numbers(kind, tokens: list) -> bool:
    """Whether numpy's reader takes all tokens as kind (np.int64, np.float64)."""
    try:
        [kind(t) for t in tokens]
    except (ValueError, OverflowError):
        return False
    return not any("_" in t for t in tokens)


def _read(text: str, header: str, dtype_of, ndmin: int):
    """(a, b, rows): the header integers and the body by numpy's reader, in
    dtype_of(first body line's token count); rows None where it fails."""
    if not text:
        raise FormatError("line 1: missing header")
    raw = text.encode("ascii").replace(b"\r", b" ")  # CR splits tokens
    line = text.partition("\n")[0]
    if len(line.split()) != 2 or not _numbers(np.int64, line.split()):
        _fail(1, f"header must be two integers '{header}'", text)
    first = re.compile(r"\S[^\n]*").search(text, len(line) + 1)  # None: no body
    dtype = dtype_of(len(first[0].split()) if first else 0)
    try:
        rows = np.loadtxt(io.BytesIO(raw), dtype, comments=None, skiprows=1,
                          ndmin=ndmin) if first else np.empty((0,) * ndmin, dtype)
    except ValueError:
        rows = None
    return *map(int, line.split()), rows


def _scan(text: str, count: int, noun: str, *checks, row=-1, msg="unreadable"):
    """Raise for the first of: a line count other than count; a line failing
    a check (test(tokens, first line's tokens), message); else body row `row`."""
    body = [(k, tokens) for k, line in enumerate(text.split("\n")[1:], 2)
            if (tokens := line.split())]
    if len(body) != count:
        raise FormatError(f"header promises {count} {noun}, file has {len(body)}")
    for test, what in checks:
        for k, tokens in body:
            if not test(tokens, body[0][1]):
                _fail(k, what, text)
    _fail(body[row][0], msg, text)


def read_edge_list(path) -> RankGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def parse_edge_list(text: str) -> RankGraph:
    n, m, rows = _read(text, "n m", lambda w: _EDGES.get(w, _EDGES[2]), 1)
    if not 1 <= n <= _MAX_N:
        _fail(1, f"vertex count must be in [1, {_MAX_N}], got {n}")
    if rows is None or rows.size != m:
        _scan(text, m, "edges",
              (lambda t, _: 2 <= len(t) <= 3, "expected 'i j' or 'i j w'"),
              (lambda t, f: len(t) == len(f), "mixed weighted and unweighted edge lines"),
              (lambda t, _: _numbers(np.float64, t[2:]), "weight must be a number"),
              (lambda t, _: _numbers(np.int64, t[:2]), "endpoints must be integers"))
    ei, ej = rows["i"], rows["j"]
    bad = np.flatnonzero((ei < 1) | (ei >= ej) | (ej > n))
    try:
        if bad.size:
            raise _EdgeError(f"need 1 <= i < j <= {n}", bad[0])
        return RankGraph(n, ei, ej, rows["w"] if rows.dtype == _EDGES[3] else None)
    except _EdgeError as exc:
        _scan(text, m, "edges", row=exc.row, msg=str(exc))


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
    n, d, out = _read(text, "n d", lambda w: np.float64, 2)
    if n < 1 or d < 1:
        _fail(1, f"need n >= 1 and d >= 1, got n={n} d={d}")
    if out is None or out.shape != (n, d):
        _scan(text, n, "points", (lambda t, _: len(t) == d, f"expected {d} coordinates"),
              (lambda t, _: _numbers(np.float64, t), "coordinates must be numbers"))
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        _scan(text, n, "points", row=bad[0], msg="coordinates must be finite")
    return out


def points_text(coords: np.ndarray) -> str:
    coords = np.asarray(coords, dtype=np.float64)
    rows = (" ".join(map(repr, row)) for row in coords.tolist())
    return "\n".join([f"{coords.shape[0]} {coords.shape[1]}", *rows]) + "\n"


def write_points(coords: np.ndarray, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(points_text(coords))
