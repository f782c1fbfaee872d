import io
import os
import threading
import warnings

import numpy as np
import pytest

from depspan import fileio
from depspan.cli import main
from depspan.fileio import (FormatError, edge_list_text, parse_edge_list,
                            parse_points, points_text, read_edge_list,
                            read_points, write_edge_list, write_points)
from depspan.graphs import RankGraph, complete_graph, interval_graph
from depspan.spanners1d import four_hop_spanner


def test_edge_list_round_trip(tmp_path):
    g = complete_graph(7)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    # emit(parse(text)) reproduces the text exactly
    text = path.read_text()
    assert edge_list_text(parse_edge_list(text)) == text


def test_weighted_round_trip(tmp_path):
    g = RankGraph.from_edges(5, [(1, 4), (2, 3)], weights=[1.25, 0.7071067811865476])
    path = tmp_path / "w.edges"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g
    assert edge_list_text(back) == path.read_text()


def _formula(g: RankGraph) -> str:
    """The unweighted edge-list text, one f-string per line."""
    return "".join([f"{g.n} {g.m}\n"] + [
        f"{i} {j}\n" for i, j in zip(g.edge_i.tolist(), g.edge_j.tolist())])


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_edge_list_text_at_digit_boundaries(n):
    # every id width from 1 to that of n meets every other on some line
    g = complete_graph(n)
    assert edge_list_text(g) == _formula(g)
    far = interval_graph(n, 2)
    assert edge_list_text(far) == _formula(far)


def test_edge_list_text_of_the_largest_ids(tmp_path):
    top = 2**31 - 1
    ids = [1, 9, 10, 999_999_999, 10**9, top - 1, top]
    g = RankGraph.from_edges(top, [(a, b) for a in ids for b in ids if a < b])
    assert edge_list_text(g) == _formula(g)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


@pytest.mark.parametrize("n", [1, 5, 2**31 - 1])
def test_edge_list_text_without_edges(tmp_path, n):
    g = RankGraph(n, [], [])
    assert edge_list_text(g) == f"{n} 0\n"
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert path.read_bytes() == f"{n} 0\n".encode()
    assert read_edge_list(path) == g


@pytest.mark.parametrize("rows", [1, 2, 44, 45, 46, 1000])
def test_edge_list_chunk_boundaries(tmp_path, monkeypatch, capsys, rows):
    # K_10 has 45 edges: chunks of one edge, an uneven last chunk, a chunk
    # one short of the list, the list exactly, and one chunk larger than it
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", rows)
    g = complete_graph(10)
    want = _formula(g)
    assert edge_list_text(g) == want
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert path.read_bytes() == want.encode()
    assert main(["gen-clique", "--n", "10"]) == 0
    assert capsys.readouterr().out == want


def test_edge_list_written_in_chunks(tmp_path, monkeypatch):
    # chunk boundaries fall mid-list and on its end; the text is one line per
    # edge, the same from edge_list_text, write_edge_list and CLI stdout
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", 3)
    weighted = RankGraph.from_edges(6, [(1, 2), (1, 5), (2, 6), (3, 4), (4, 6), (5, 6)],
                                    weights=[0.5, 1 / 3, 2.0, 1e-300, 7.25, 0.1])
    for g in (complete_graph(4), complete_graph(5), weighted):
        rows = [f"{g.n} {g.m}"]
        for t, (i, j) in enumerate(zip(g.edge_i.tolist(), g.edge_j.tolist())):
            rows.append(f"{i} {j}" if g.weights is None
                        else f"{i} {j} {float(g.weights[t])!r}")
        want = "\n".join(rows) + "\n"
        assert edge_list_text(g) == want
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert path.read_bytes() == want.encode()
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["gen-clique", "--n", "5"]) == 0
    assert out.getvalue() == edge_list_text(complete_graph(5))


EDGE_LIST_ERRORS = [
    ("", "missing header"),
    ("3\n", "header"),
    ("3 1\n", "promises 1 edges"),
    ("3 1\n5 3\n", "line 2"),
    ("5 1\n3 3\n", "line 2"),
    ("5 2\n1 2\n1 2\n", "line 3: duplicate"),
    ("5 2\n1 2\n2 3 1.5\n", "line 3: mixed"),
    ("5 1\n1 2 0.0\n", "positive"),
    ("5 1\nx y\n", "integers"),
    # line numbers are physical: the blank line 2 still counts
    ("5 2\n\n1 2\n1 2\n", "line 4: duplicate"),
    ("5 1\n1\n", "line 2: expected 'i j'"),
    ("5 1\n1 2 3 4\n", "line 2: expected 'i j'"),
    ("5 1\n1 2 abc\n", "line 2: weight must be a number"),
    ("5 3\n1 2\n2 3\n3 x\n", "line 4: endpoints must be integers"),
    ("0 0\n", "line 1: vertex count"),
    ("5 1\n1 2 inf\n", "line 2: .*finite"),
    ("5 2\n1 2 1.0\n2 3 nan\n", "line 3: .*finite"),
    # numpy's number grammar: decimal int64 endpoints, no "_" separators
    ("5 1\n1 0x3\n", "line 2: endpoints must be integers"),
    ("5 1\n1.0 2\n", "line 2: endpoints must be integers"),
    ("5 1\n1 1e0\n", "line 2: endpoints must be integers"),
    ("5 1\n1 99999999999999999999\n", "line 2: endpoints must be integers"),
    ("20 1\n1 1_0\n", "line 2: endpoints must be integers"),
    ("5 1\n1 2 1_0\n", "line 2: weight must be a number"),
    ("1_0 0\n", "line 1: header"),
    # int32 edge storage holds vertex ids up to 2**31 - 1
    ("3000000000 1\n1 3000000000\n", "line 1: vertex count"),
    ("2147483648 0\n", "line 1: vertex count"),
]


@pytest.mark.parametrize("text,message", EDGE_LIST_ERRORS)
def test_edge_list_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_edge_list(text)


@pytest.mark.parametrize("text,message", EDGE_LIST_ERRORS)
def test_edge_list_file_errors(tmp_path, text, message):
    # numpy's reader opens these CR-free files by name; the line scan that
    # names the faulty line still reads the text
    path = tmp_path / "bad.edges"
    path.write_bytes(text.encode())
    assert fileio._read_file(path) == (text, str(path))
    with pytest.raises(FormatError, match=message):
        read_edge_list(path)


SPACED_TEXTS = [
    "5 2\r\n1 2\r\n2 4\r\n",                       # CRLF
    "5 2\n1\t2\n\t2\t 4\t\n",                      # tab-separated
    "5 2\n\n1\x0b2\x0c\n\r\n2\x1c\x1d\x1e\x1f4\n\n",  # every other separator
    "5 2\n1\r2\n2\r4\n",                           # a bare CR splits tokens
]


@pytest.mark.parametrize("text", SPACED_TEXTS)
def test_edge_list_whitespace_accepted(text):
    assert parse_edge_list(text) == RankGraph.from_edges(5, [(1, 2), (2, 4)])


@pytest.mark.parametrize("text", SPACED_TEXTS + [
    "5 2\n\n1\x0b2\x0c\n\n2\x1c\x1d\x1e\x1f4\n\n",  # no CR: numpy opens the file
])
def test_edge_list_file_whitespace_accepted(tmp_path, text):
    # a CR stays in the text read from the file (no newline translation) and
    # only splits tokens; numpy's reader, which would end a line there, gets
    # the text from memory instead of the file name
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode())
    assert fileio._read_file(path) == (text, None if "\r" in text else str(path))
    assert read_edge_list(path) == RankGraph.from_edges(5, [(1, 2), (2, 4)])


def test_edge_list_read_from_memory_when_numpy_would_reopen_it(tmp_path):
    # numpy's reader unpacks a file by its suffix and would read a pipe a
    # second time, so such files are parsed from the text already read
    g = complete_graph(6)
    packed = tmp_path / "g.edges.gz"
    write_edge_list(g, packed)
    assert fileio._read_file(packed)[1] is None
    assert read_edge_list(packed) == g
    if not hasattr(os, "mkfifo"):
        return
    pipe = tmp_path / "g.pipe"
    os.mkfifo(pipe)
    for read, check in ((fileio._read_file, lambda got: got[1] is None),
                        (read_edge_list, lambda got: got == g)):
        writer = threading.Thread(target=write_edge_list, args=(g, pipe))
        writer.start()
        got = read(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive() and check(got)


def test_edge_list_parse_round_trip():
    g = four_hop_spanner(2048, 0.5, seed=1301)
    assert parse_edge_list(edge_list_text(g)) == g


def test_edge_order_rejected_when_reversed():
    with pytest.raises(FormatError, match="1 <= i < j"):
        parse_edge_list("5 1\n4 2\n")


def test_points_round_trip(tmp_path):
    pts = np.random.default_rng(0).random((9, 3)) * 100 - 50
    path = tmp_path / "p.pts"
    write_points(pts, path)
    back = read_points(path)
    assert np.array_equal(back, pts)
    assert points_text(back) == path.read_text()


@pytest.mark.parametrize("text,message", [
    ("", "missing header"),
    ("2\n", "header"),
    ("2 2\n0.0 0.0\n", "promises 2 points"),
    ("1 2\n0.0\n", "line 2: expected 2"),
    ("1 2\n0.0 zz\n", "numbers"),
    ("2 1\n\n0.5\nzz\n", "line 4: coordinates must be numbers"),
    ("3 1\n0\nnan\n1\n", "line 3: coordinates must be finite"),
    ("2 2\n0 0\n-inf 1\n", "line 3: coordinates must be finite"),
    ("1 1\n0_5\n", "line 2: coordinates must be numbers"),
    ("1 1_0\n", "line 1: header"),
])
def test_points_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_points(text)


@pytest.mark.parametrize("parse,text,want", [
    (parse_edge_list, "5 1\n1\r2\n", RankGraph.from_edges(5, [(1, 2)])),
    (parse_edge_list, "5 0\n", RankGraph.from_edges(5, [])),
    (parse_points, "2 2\n0\r1\n0.5 0.5\n", np.array([[0.0, 1.0], [0.5, 0.5]])),
])
def test_text_accepted_without_warnings(parse, text, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = parse(text)
    assert np.array_equal(got, want) if parse is parse_points else got == want


@pytest.mark.parametrize("parse,text", [
    (parse_edge_list, "5 1\n1\xa02\n"),    # NBSP, which str.split() splits on
    (parse_points, "1 2\n0\xa00.5\n"),
    (parse_edge_list, "5\xa00\n"),
])
def test_non_ascii_text_rejected(parse, text):
    with pytest.raises(UnicodeEncodeError):
        parse(text)
