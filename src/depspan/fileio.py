"""Text formats for graphs and point sets, ASCII: "n m", then m lines "i j"
(rank graphs) or "i j w" (weighted), 1-based, i < j; or "n d", then n lines
of d raw coordinates (normalized elsewhere, so that emit(parse(f)) == f).
numpy's reader parses the body (int64, float64, no "_" separators); it opens
a file by its name unless the text has a CR, which numpy would take for a
line end, so that text goes through memory with each CR made a space. LF
ends a line, other whitespace (CR included) splits tokens, blank lines are
skipped; a line scan runs only on a fault, so errors name the physical line.
Checks any RankGraph needs (duplicates, finite positive weights) are its own.
Unweighted lines are emitted by one numpy kernel per chunk of edges: each id
as D digits (D those of n) by int32 arithmetic into a uint8 matrix, padded
on the left with NULs, which are deleted from the matrix's bytes.
"""

from __future__ import annotations

import io
import os
import re

import numpy as np

from .graphs import _MAX_N, RankGraph, _EdgeError

__all__ = ["FormatError", "read_edge_list", "write_edge_list",
           "edge_list_text", "read_points", "write_points", "points_text"]

_CHUNK_ROWS = 65536  # edges formatted per chunk of written text
_PACKED = (".bz2", ".gz", ".lzma", ".xz")  # numpy's reader unpacks these by name
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


def _read_file(path):
    """A file's text, and its name if numpy's reader may open the file: a
    regular file, named by a str without a packed suffix, with no CR in its
    text; else None, and the text is parsed from memory."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = fh.read()
    name = os.fspath(path)
    if (isinstance(name, str) and not name.endswith(_PACKED)
            and "\r" not in text and os.path.isfile(name)):
        return text, name
    return text, None


def _read(text: str, name, header: str, dtype_of, ndmin: int):
    """(a, b, rows): the header integers and the body by numpy's reader, in
    dtype_of(first body line's token count), from the file name if not None
    (see _read_file), else from text; rows None where the reader fails."""
    if not text:
        raise FormatError("line 1: missing header")
    source = name if name is not None else io.BytesIO(
        text.encode("ascii").replace(b"\r", b" "))  # CR splits tokens
    end = text.find("\n")  # partition would copy the whole body
    line = text if end < 0 else text[:end]
    if len(line.split()) != 2 or not _numbers(np.int64, line.split()):
        _fail(1, f"header must be two integers '{header}'", text)
    first = re.compile(r"\S[^\n]*").search(text, len(line) + 1)  # None: no body
    dtype = dtype_of(len(first[0].split()) if first else 0)
    try:
        rows = np.loadtxt(source, dtype, comments=None, skiprows=1, ndmin=ndmin,
                          encoding="ascii") if first else np.empty((0,) * ndmin, dtype)
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
    return _edge_list(*_read_file(path))


def parse_edge_list(text: str) -> RankGraph:
    return _edge_list(text, None)


def _edge_list(text: str, name) -> RankGraph:
    n, m, rows = _read(text, name, "n m", lambda w: _EDGES.get(w, _EDGES[2]), 1)
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


def _id_lines(ei: np.ndarray, ej: np.ndarray, buf: np.ndarray) -> bytes:
    """The lines "i j\n" of int32 ids 1 <= i, j < 10**D, formatted in buf, a
    uint8 (rows, 2D+2) matrix: i's D digits right-aligned after NUL padding,
    a space, j's likewise and LF; the padding is deleted from its bytes."""
    d = buf.shape[1] // 2 - 1
    for at, t in ((0, ei), (d + 1, ej)):
        for k in range(at + d - 1, at - 1, -1):
            q = t // 10  # t: the id's digits up to column k, 0 in the padding
            buf[:, k] = t - q * 10 + np.minimum(t, 1) * 48
            t = q
    buf[:, d], buf[:, -1] = 32, 10
    return buf.tobytes().translate(None, b"\0")


def _edge_list_chunks(g: RankGraph):
    """The edge-list text as a sequence of chunks of at most _CHUNK_ROWS
    edges, unweighted ones by _id_lines, weighted ones from Python floats."""
    yield f"{g.n} {g.m}\n"
    if g.weights is None:
        buf = np.empty((min(g.m, _CHUNK_ROWS), 2 * len(str(g.n)) + 2), np.uint8)
    for lo in range(0, g.m, _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        ei, ej = g.edge_i[rows], g.edge_j[rows]
        if g.weights is None:
            yield _id_lines(ei, ej, buf[:ei.size]).decode("ascii")
        else:
            yield "".join([f"{i} {j} {w!r}\n" for i, j, w in zip(
                ei.tolist(), ej.tolist(), g.weights[rows].tolist())])


def edge_list_text(g: RankGraph) -> str:
    return "".join(_edge_list_chunks(g))


def write_edge_list(g: RankGraph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_edge_list_chunks(g))


def read_points(path) -> np.ndarray:
    return _points(*_read_file(path))


def parse_points(text: str) -> np.ndarray:
    return _points(text, None)


def _points(text: str, name) -> np.ndarray:
    n, d, out = _read(text, name, "n d", lambda w: np.float64, 2)
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
