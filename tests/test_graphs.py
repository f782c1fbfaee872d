import tracemalloc

import numpy as np
import pytest

from depspan import graphs
from depspan.euclid import PointSet, euclidean_dependable_spanner
from depspan.fileio import FormatError, edge_list_text, parse_edge_list, read_edge_list
from depspan.graphs import (RankGraph, _canonicalize, _EdgeError, complete_graph,
                            filter_edges, graph_union, interval_graph)
from depspan.rng import derive_stream
from depspan.spanners1d import (biclique_block_spanner,
                                dependable_interval_spanner, four_hop_spanner,
                                khop_spanner)


@pytest.mark.parametrize("n,expected", [(1, 0), (4, 6), (10, 45)])
def test_complete_graph_sizes(n, expected):
    assert complete_graph(n).m == expected


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


@pytest.mark.parametrize("n,radius,expected", [
    (10, 3, 24),   # 9 + 8 + 7
    (5, 0, 0),
    (5, 4, 10),    # equals K_5
    (5, 99, 10),   # radius clamps at n-1
])
def test_interval_graph_sizes(n, radius, expected):
    g = interval_graph(n, radius)
    assert g.m == expected
    for i, j in zip(g.edge_i, g.edge_j):
        assert 0 < j - i <= max(radius, 0) or radius >= n - 1


def test_interval_graph_rejects_negative_radius():
    with pytest.raises(ValueError):
        interval_graph(5, -1)


def test_complete_graph_memory_stays_near_its_output():
    # The two int32 edge arrays are 8 bytes per edge; building them through
    # int64 temporaries of one entry per edge peaks at about 4x that.
    tracemalloc.start()
    try:
        g = complete_graph(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 2048 * 2047 // 2
    assert peak < 1.5 * 8 * g.m, peak


def test_edges_canonicalized():
    g = RankGraph.from_edges(5, [(4, 2), (1, 3), (2, 5)])
    assert g.edge_set() == {(2, 4), (1, 3), (2, 5)}
    assert list(g.edge_i) == sorted(g.edge_i)
    # empty endpoint lists carry no dtype worth checking
    assert RankGraph(3, [], []).m == RankGraph.from_edges(3, []).m == 0
    assert RankGraph(2**31 - 1, [], []).n == 2**31 - 1


def _argsorted(i, j):
    """Canonical (lo, hi) of the edges i, j by a full lexicographic sort."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


def test_canonical_input_skips_the_sort(monkeypatch, np_rng):
    # edges already in strictly increasing key order come back as given,
    # equal to what the sort makes of them shuffled, and never reach the sort
    g = filter_edges(interval_graph(300, 40), 0.5, derive_stream(3, 0))
    i, j = g.edge_i.astype(np.int64), g.edge_j.astype(np.int64)
    w = np_rng.random(g.m) + 0.5
    perm = np_rng.permutation(g.m)
    shuffled = RankGraph(g.n, j[perm], i[perm], w[perm])
    monkeypatch.setattr(graphs, "_key_order", None)
    lo, hi, weights = _canonicalize(g.n, i, j, w)
    assert [a.tolist() for a in (lo, hi)] == [a.tolist() for a in _argsorted(i, j)]
    assert np.array_equal(weights, w) and not np.shares_memory(weights, w)
    assert RankGraph(g.n, i, j, w) == shuffled
    assert w.flags.writeable  # the graph keeps a copy of the weight table


@pytest.mark.parametrize("edges,row", [
    ([(1, 2), (2, 3), (2, 3), (3, 4)], 2),    # sorted, adjacent duplicate
    ([(1, 2), (4, 5), (4, 5)], 2),
    ([(3, 4), (1, 2), (2, 1)], 2),            # unsorted, a reversed copy
    ([(2, 3), (1, 2), (3, 4), (1, 2)], 3),
])
def test_duplicate_named_by_its_second_copy(edges, row):
    i, j = np.array(edges).T
    with pytest.raises(_EdgeError, match="duplicate edge") as err:
        _canonicalize(5, i, j, None)
    assert err.value.row == row
    lo, hi = min(edges[row]), max(edges[row])
    with pytest.raises(ValueError, match=rf"duplicate edge \({lo}, {hi}\)"):
        RankGraph.from_edges(5, edges)
    if all(a < b for a, b in edges):
        text = "".join([f"5 {len(edges)}\n"] + [f"{a} {b}\n" for a, b in edges])
        with pytest.raises(FormatError, match=f"line {row + 2}: duplicate"):
            parse_edge_list(text)


@pytest.mark.parametrize("edges", [
    [(3, 4), (2, 5), (1, 2)],                 # reversed
    [(4, 5), (1, 3), (3, 4), (1, 2), (2, 5)],  # unsorted
    [(2, 1), (3, 1), (4, 3)],                 # sorted rows of swapped pairs
])
def test_noncanonical_input_sorted(edges):
    i, j = np.array(edges).T
    lo, hi, _ = _canonicalize(5, i, j, None)
    want = _argsorted(i, j)
    assert lo.tolist() == want[0].tolist() and hi.tolist() == want[1].tolist()


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_sorted_weighted_input_checks_weights(bad):
    i, j, w = [1, 1, 2, 3], [2, 3, 4, 5], [1.0, 2.0, bad, 0.5]
    with pytest.raises(_EdgeError, match="finite and positive") as err:
        _canonicalize(5, np.array(i), np.array(j), np.array(w))
    assert err.value.row == 2
    with pytest.raises(FormatError, match="line 4: .*finite and positive"):
        parse_edge_list("5 4\n" + "".join(f"{a} {b} {x!r}\n" for a, b, x in zip(i, j, w)))


@pytest.mark.parametrize("edges,err", [
    ([(1, 1)], "self-loop"),
    ([(0, 2)], "out of range"),
    ([(2, 6)], "out of range"),
    ([(1, 2), (2, 1)], "duplicate"),
    ([(1, 2**32 + 3)], "out of range"),  # (1, 3) after int32 wraparound
    ((np.array([1]), np.array([2**32 + 2])), "out of range"),
    # int32 storage would silently truncate these to the edge (1, 3)
    ((np.array([1.5, 2.0]), np.array([3.0, 4.0])), "integers"),
    ([(1.5, 3)], "integers"),
    ((np.array([True]), np.array([False])), "integers"),
    # a vertex count: ids above 2**31 - 1 would wrap in int32
    (2**31, "vertex count"),
])
def test_bad_edges_rejected(edges, err):
    with pytest.raises(ValueError, match=err):
        if isinstance(edges, int):
            RankGraph(edges, [], [])
        elif isinstance(edges, tuple):
            RankGraph(5, *edges)
        else:
            RankGraph.from_edges(5, edges)


def test_weight_table_must_match_edges():
    with pytest.raises(ValueError):
        RankGraph.from_edges(3, [(1, 2)], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        RankGraph.from_edges(3, [(1, 2)], weights=[0.0])
    with pytest.raises(ValueError, match="cover exactly"):
        RankGraph(3, [], [], [1.0, 2.0])
    for w in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            RankGraph.from_edges(3, [(1, 2)], weights=[w])


def test_graphs_are_immutable():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        g.edge_i[0] = 3


def test_filter_certain_survival_and_failure():
    g = complete_graph(20)
    kept = filter_edges(g, 1.0, derive_stream(4, 0))
    assert kept == g
    none = filter_edges(g, 0.0, derive_stream(4, 0))
    assert none.m == 0 and none.n == 20


def test_filter_rejects_bad_probability():
    g = complete_graph(4)
    for psi in (-0.1, 1.1):
        with pytest.raises(ValueError):
            filter_edges(g, psi, derive_stream(0, 0))


def test_filter_is_subgraph_and_deterministic():
    g = interval_graph(50, 7)
    a = filter_edges(g, 0.4, derive_stream(11, 2))
    b = filter_edges(g, 0.4, derive_stream(11, 2))
    assert a == b
    assert a.edge_set() <= g.edge_set()


def test_filter_binomial_mean():
    # mean kept edges over trials within 4 * sqrt(psi (1-psi) m / T)
    g = complete_graph(100)
    psi, trials = 0.5, 1000
    kept = [filter_edges(g, psi, derive_stream(77, t)).m for t in range(trials)]
    mean = np.mean(kept)
    tol = 4.0 * np.sqrt(psi * (1 - psi) * g.m / trials)
    assert abs(mean - psi * g.m) <= tol


def test_filter_preserves_weights():
    w = np.array([1.0, 2.0, 3.0])
    g = RankGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)], weights=w)
    h = filter_edges(g, 0.5, derive_stream(3, 0))
    expect = g.edge_weight_map()
    assert all(expect[e] == wt for e, wt in h.edge_weight_map().items())


def test_union_identity_and_idempotence():
    g = interval_graph(8, 2)
    empty = RankGraph.from_edges(8, [])
    assert graph_union(g, empty) == g
    assert graph_union(g, g) == g


def test_union_example():
    path = RankGraph.from_edges(3, [(1, 2), (2, 3)])
    chord = RankGraph.from_edges(3, [(1, 3)])
    u = graph_union(path, chord)
    assert u.edge_set() == {(1, 2), (2, 3), (1, 3)}


def test_union_rejects_mismatched_n():
    with pytest.raises(ValueError):
        graph_union(complete_graph(3), complete_graph(4))


def test_union_commutative_associative(np_rng):
    def random_graph():
        edges = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)
                 if np_rng.random() < 0.3]
        return RankGraph.from_edges(8, edges)

    for _ in range(20):
        a, b, c = random_graph(), random_graph(), random_graph()
        assert graph_union(a, b) == graph_union(b, a)
        assert graph_union(graph_union(a, b), c) == graph_union(a, graph_union(b, c))


def test_union_weighted():
    a = RankGraph.from_edges(4, [(1, 2), (1, 3)], weights=[1.0, 2.0])
    b = RankGraph.from_edges(4, [(1, 3), (3, 4)], weights=[2.0, 5.0])
    u = graph_union(a, b)
    assert u.edge_weight_map() == {(1, 2): 1.0, (1, 3): 2.0, (3, 4): 5.0}
    bad = RankGraph.from_edges(4, [(1, 3)], weights=[9.0])
    with pytest.raises(ValueError, match="disagree"):
        graph_union(a, bad)
    unweighted = RankGraph.from_edges(4, [(2, 3)])
    with pytest.raises(ValueError):
        graph_union(a, unweighted)


def test_every_producer_emits_canonical_edge_order(tmp_path, np_rng):
    # the reach engines read each vertex's out-edges as one run of this
    # order, and trusted producers skip the check that would enforce it
    graphs = {}
    for n in (1, 2, 7, 300):
        graphs[f"K_{n}"] = complete_graph(n)
        for radius in (0, 1, 5, n - 1, n + 3):
            graphs[f"interval({n}, {radius})"] = interval_graph(n, radius)
    base = interval_graph(300, 20)
    for psi in (0.0, 0.5, 1.0):
        graphs[f"filter psi={psi}"] = filter_edges(base, psi, derive_stream(6, 1))
    half = filter_edges(base, 0.5, derive_stream(6, 2))
    graphs["union"] = graph_union(graphs["filter psi=0.5"], half)
    weighted = [RankGraph(h.n, h.edge_i, h.edge_j, (h.edge_j - h.edge_i) * 1.5)
                for h in (graphs["filter psi=0.5"], half)]
    graphs["weighted union"] = graph_union(*weighted)
    # builder sizes chosen so that no build is the complete graph
    graphs["interval spanner"] = dependable_interval_spanner(1024, 0.5)
    graphs["biclique"] = biclique_block_spanner(1024, 0.5, 2.0)
    graphs["four-hop"] = four_hop_spanner(1024, 0.5, 2.0, seed=4)
    graphs["k-hop"] = khop_spanner(1024, 0.5, 5, 2.0, seed=4)
    pts = PointSet(np_rng.random((300, 2)) * 0.999)
    graphs["euclid"] = euclidean_dependable_spanner(
        pts, 0.25, 0.9, 1.0, seed=5, max_orderings=4).graph
    pairs = list(base.edge_set())
    np_rng.shuffle(pairs)
    graphs["from_edges"] = RankGraph.from_edges(300, [(j, i) for i, j in pairs])
    header, *lines = edge_list_text(half).splitlines()
    path = tmp_path / "reversed.edges"
    path.write_text("\n".join([header, *lines[::-1]]) + "\n")
    graphs["read_edge_list"] = read_edge_list(path)
    for name, g in graphs.items():
        i, j = g.edge_i.astype(np.int64), g.edge_j.astype(np.int64)
        assert np.all(i < j), name
        assert np.all(np.diff(i * (g.n + 1) + j) > 0), name
