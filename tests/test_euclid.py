import itertools
import math

import numpy as np
import pytest

from conftest import dense_distances, dense_hop_distances
from depspan.euclid import (GeometricGraph, PointSet, _arcs, _hop_rounds,
                            _spread_ids, bounded_hop_distance,
                            count_stretch_failures,
                            euclidean_dependable_spanner, extract_bounded_path,
                            normalize_points, stretch_failure_row)
from depspan import euclid, graphs, lso, spanners1d
from depspan.graphs import RankGraph, filter_edges, graph_union
from depspan.lso import Ordering, OrderingFamily, build_lso_family
from depspan.rng import derive_seed, derive_stream
from depspan.spanners1d import DerivedParams, four_hop_spanner


def _pointset(n, d, seed=0):
    return PointSet(np.random.default_rng(seed).random((n, d)) * 0.999)


def test_normalize_identity_when_already_in_box():
    raw = np.array([[0.0, 0.0], [0.9, 0.3], [0.2, 0.8]])
    ps = normalize_points(raw)
    assert ps.scale == 1.0
    assert np.array_equal(ps.coords, raw)


def test_normalize_scales_to_max_extent():
    ps = normalize_points(np.array([[0.0, 0.0], [10.0, 0.0]]))
    top = 1.0 - 2.0 ** -16
    assert ps.coords[1, 0] == pytest.approx(top)
    assert ps.scale == pytest.approx(10.0 / top)
    # relative distances survive up to the single factor
    assert ps.distance(1, 2) * ps.scale == pytest.approx(10.0)


def test_normalize_rejects_duplicates_listing_indices():
    raw = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        normalize_points(raw)
    with pytest.raises(ValueError, match="identical"):
        normalize_points(np.array([[2.0, 2.0], [2.0, 2.0]]))


def test_normalize_rejects_non_finite():
    # NaN slipped past the range checks; inf surfaced as a duplicate
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            normalize_points(np.array([[0.0], [bad], [1.0]]))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        PointSet(np.array([[0.5], [np.nan]]))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.5, 0.5]]))          # n < 2
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0], [1.0, 0.5]]))  # coordinate at 1.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            PointSet(np.array([[0.25, 0.25], [0.5, 0.5]]), scale=bad)


def test_geometric_graph_checks():
    ps = _pointset(4, 2)
    bare = RankGraph.from_edges(4, [(1, 2)])
    with pytest.raises(ValueError, match="weight"):
        GeometricGraph(bare, ps)


def test_spanner_two_points_single_edge():
    ps = normalize_points(np.array([[0.1, 0.4], [0.6, 0.2]]))
    h = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=1)
    assert h.graph.m == 1
    assert h.graph.weights[0] == pytest.approx(ps.distance(1, 2))


def test_spanner_contains_natural_order_construction_in_1d():
    from depspan.spanners1d import four_hop_spanner
    rng = np.random.default_rng(12)
    ps = PointSet(np.sort(rng.random(64))[:, None] * 0.999)
    h = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=9, max_orderings=4)
    # points are already sorted, so ordering 0 (the natural order) maps the
    # rank construction straight onto point indices
    from depspan.rng import derive_seed
    ranks = four_hop_spanner(64, 0.5, 4.0, seed=derive_seed(9, 0))
    assert ranks.edge_set() <= h.graph.edge_set()


def test_spanner_deterministic_and_seed_sensitive():
    ps = _pointset(96, 2, seed=5)
    a = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=3, max_orderings=16)
    b = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=3, max_orderings=16)
    assert a.graph == b.graph
    assert a.info == b.info


def test_spanner_mode_validation():
    ps = _pointset(8, 2)
    for mode in ("bogus", "log-hop"):
        with pytest.raises(ValueError, match="unknown mode"):
            euclidean_dependable_spanner(ps, 0.25, 0.5, mode=mode)
    with pytest.raises(ValueError):
        euclidean_dependable_spanner(ps, 1.5, 0.5)
    with pytest.raises(ValueError):
        euclidean_dependable_spanner(ps, 0.25, 1.5)
    # the union always includes the identity ordering, so at least one
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_orderings must be >= 1"):
            euclidean_dependable_spanner(ps, 0.25, 0.5, max_orderings=bad)
    # an int only: len(family) takes the whole family, None is no shorthand
    for bad in (None, 2.0):
        with pytest.raises(ValueError, match="max_orderings must be >= 1"):
            euclidean_dependable_spanner(ps, 0.25, 0.5, max_orderings=bad)


def test_geometric_weights_satisfy_triangle_inequality():
    ps = _pointset(32, 2, seed=2)
    h = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=0, max_orderings=8)
    w = h.graph.edge_weight_map()
    assert all(v > 0 for v in w.values())
    keys = list(w)[:50]
    for (a, b) in keys:
        for (c, d) in keys:
            if b == c:
                assert w.get((a, d), np.inf) <= w[(a, b)] + w[(c, d)] + 1e-12


def _triangle_graph():
    coords = np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 0.02]])
    ps = normalize_points(coords)
    g = RankGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)],
                             weights=[ps.distance(1, 2), ps.distance(1, 3),
                                      ps.distance(2, 3)])
    return GeometricGraph(g, ps)


def test_bounded_hop_distance_basics():
    h = _triangle_graph()
    assert bounded_hop_distance(h, 1, 2, 1) == pytest.approx(h.points.distance(1, 2))
    g2 = GeometricGraph(RankGraph.from_edges(3, [(1, 3), (2, 3)],
                                             weights=[1.0, 1.0]),
                        h.points)
    assert math.isinf(bounded_hop_distance(g2, 1, 2, 1))
    with pytest.raises(ValueError, match="no path"):
        extract_bounded_path(g2, 1, 2, 1)
    assert bounded_hop_distance(g2, 1, 2, 2) == pytest.approx(2.0)
    for bad in ((1, 2, 0), (0, 2, 1), (1, 4, 1), (1, 0, 1), (4, 1, 1)):
        for query in (bounded_hop_distance, extract_bounded_path):
            with pytest.raises(ValueError, match="must be"):
                query(h, *bad)
    for u, v in ((0, 2), (2, 4), (-1, 1)):
        with pytest.raises(ValueError, match="must be in"):
            h.points.distance(u, v)


def test_bounded_hop_direct_beats_detour():
    ps = PointSet(np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]))
    g = RankGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)],
                             weights=[1.0, 1.0, 1.9])
    h = GeometricGraph(g, ps)
    assert bounded_hop_distance(h, 1, 3, 2) == pytest.approx(1.9)


def _engine_matrix(h, k):
    edges = _arcs(h.graph)
    return np.array([_hop_rounds(h.n, edges, u, k)[0][1:]
                     for u in range(1, h.n + 1)])


def _failure_rows(h, eps, k):
    return np.array([stretch_failure_row(h, u, eps, k)
                     for u in range(1, h.n + 1)])


def _isolated_vertex_graph():
    # vertex 5 has no edges; 1-2-3-4 is a path with a costly chord
    ps = _pointset(5, 2, seed=3)
    g = RankGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)],
                             weights=[0.1, 0.2, 0.3, 0.9])
    return GeometricGraph(g, ps)


def test_hop_rounds_match_dense_reference():
    ps = _pointset(20, 2, seed=11)
    full = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=3, max_orderings=4)
    empty = GeometricGraph(RankGraph.from_edges(20, [], weights=[]), ps)
    graphs = [GeometricGraph(filter_edges(full.graph, 0.4, derive_stream(5, 0)),
                             ps), empty, _isolated_vertex_graph()]
    for h in graphs:
        for k in (1, 2, 3, 4, 6, h.n - 1):
            ref = dense_hop_distances(h.graph, k)
            assert np.array_equal(_engine_matrix(h, k), ref), k
            bad = ref > 1.25 * dense_distances(h.points.coords)
            assert np.array_equal(_failure_rows(h, 0.25, k), bad), k
            assert (count_stretch_failures(h, h.points, 0.25, k)
                    == np.triu(bad, k=1).sum())


def _reference_failures(h, eps, k):
    """Failed pairs from the round-by-round engine's full distance matrix."""
    return _engine_matrix(h, k) > (1.0 + eps) * dense_distances(h.points.coords)


def test_open_target_counts_match_round_by_round_engine():
    ps = _pointset(150, 2, seed=17)
    full = euclidean_dependable_spanner(ps, 0.25, 0.5, c7=1.0, seed=2,
                                        max_orderings=4)
    assert full.info["density"] < 1.0
    graphs = [GeometricGraph(filter_edges(full.graph, 0.5, derive_stream(4, 0)),
                             ps), full, _isolated_vertex_graph(),
              GeometricGraph(RankGraph.from_edges(150, [], weights=[]), ps)]
    for h in graphs:
        for k in (1, 2, 3, 4, 5, 6, h.n - 1, 10 ** 9):
            for eps in (0.0, 0.25):
                bad = _reference_failures(h, eps, k)
                assert np.array_equal(_failure_rows(h, eps, k), bad), (h, k)
                assert (count_stretch_failures(h, h.points, eps, k)
                        == np.triu(bad, k=1).sum()), (h, k)


def test_open_target_counts_keep_exact_ties():
    # collinear points at dyadic coordinates: every straight walk sums to
    # exactly |uv|, so at eps = 0 each such pair sits on its limit and a
    # target closed by "<=" in one engine must be closed in the other
    n = 96
    x = np.random.default_rng(6).permutation(n) / 128.0
    ps = PointSet(np.column_stack([x, np.full(n, 0.25)]))
    order = np.argsort(x) + 1
    path = RankGraph.from_edges(n, [(min(a, b), max(a, b)) for a, b
                                    in zip(order[:-1].tolist(), order[1:].tolist())])
    built = euclidean_dependable_spanner(ps, 0.25, 0.5, c7=1.0, seed=3,
                                         max_orderings=4)

    def exact(g):  # the same edges weighted by their endpoints' distances
        w = np.linalg.norm(ps.coords[g.edge_i - 1] - ps.coords[g.edge_j - 1],
                           axis=1)
        return GeometricGraph(RankGraph(n, g.edge_i, g.edge_j, w), ps)

    for g in (path, built.graph, filter_edges(built.graph, 0.5,
                                              derive_stream(9, 0))):
        h = exact(g)
        for k in (1, 2, 3, 4, 6):
            bad = dense_hop_distances(h.graph, k) > dense_distances(ps.coords)
            assert np.array_equal(_failure_rows(h, 0.0, k), bad), k
            assert count_stretch_failures(h, ps, 0.0, k) == np.triu(bad, 1).sum()
    # on the path a pair ties its limit exactly when it is at most k hops apart
    assert count_stretch_failures(exact(path), ps, 0.0, 3) == (n - 3) * (n - 4) // 2


def test_open_target_rounds_stop_when_no_target_is_open(monkeypatch):
    # a complete graph with exact weights meets every limit in round 1, so no
    # full round runs; a path leaves far targets open, so full rounds run
    calls = []
    full_round = euclid._full_round
    monkeypatch.setattr(euclid, "_full_round",
                        lambda *a: calls.append(1) or full_round(*a))
    n = 40
    ps = _pointset(n, 2, seed=12)
    iu = np.triu_indices(n, 1)
    w = np.linalg.norm(ps.coords[iu[0]] - ps.coords[iu[1]], axis=1)
    complete = GeometricGraph(RankGraph(n, iu[0] + 1, iu[1] + 1, w), ps)
    for eps in (0.0, 0.25):
        assert count_stretch_failures(complete, ps, eps, 4) == 0
        assert not _failure_rows(complete, eps, 4).any()
    assert calls == []
    order = np.argsort(ps.coords[:, 0]) + 1
    lo, hi = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
    path = RankGraph.from_edges(n, zip(lo.tolist(), hi.tolist()),
                                np.linalg.norm(ps.coords[lo - 1]
                                               - ps.coords[hi - 1], axis=1))
    h = GeometricGraph(path, ps)
    bad = _reference_failures(h, 0.25, 4)
    calls.clear()
    assert count_stretch_failures(h, ps, 0.25, 4) == np.triu(bad, 1).sum()
    assert len(calls) >= n - 1  # at least one full round per source


def test_bounded_hop_monotone_and_converges(np_rng):
    ps = _pointset(24, 2, seed=7)
    full = euclidean_dependable_spanner(ps, 0.5, 0.5, seed=4, max_orderings=4)
    h = GeometricGraph(filter_edges(full.graph, 0.6, derive_stream(1, 0)), ps)
    m_prev = None
    for k in (1, 2, 4, 8, 23):
        m = _engine_matrix(h, k)
        if m_prev is not None:
            assert (m <= m_prev).all()
        m_prev = m
    assert np.array_equal(m_prev, dense_hop_distances(h.graph, 60))
    # the hop bound is clamped to n - 1, so a huge k allocates nothing extra
    assert np.array_equal(_engine_matrix(h, 10 ** 9), m_prev)
    assert (count_stretch_failures(h, ps, 0.1, 10 ** 9)
            == count_stretch_failures(h, ps, 0.1, h.n - 1))
    u, v = 3, 17
    assert bounded_hop_distance(h, u, v, 4) == _engine_matrix(h, 4)[u - 1, v - 1]


def test_extract_bounded_path_resums():
    ps = _pointset(40, 2, seed=9)
    full = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=6, max_orderings=8)
    h = GeometricGraph(filter_edges(full.graph, 0.5, derive_stream(8, 0)), ps)
    wmap = h.graph.edge_weight_map()
    checked = 0
    for u in range(1, 11):
        for v in range(u + 1, 11):
            d = bounded_hop_distance(h, u, v, 4)
            if not math.isfinite(d):
                continue
            path = extract_bounded_path(h, u, v, 4)
            assert path[0] == u and path[-1] == v
            assert len(path) <= 5
            total = sum(wmap[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:]))
            assert total == pytest.approx(d, rel=1e-9)
            checked += 1
    assert checked > 10


def test_four_hop_paths_resum_to_dense_reference():
    ps = _pointset(48, 2, seed=13)
    full = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=5, max_orderings=8)
    h = GeometricGraph(filter_edges(full.graph, 0.5, derive_stream(2, 1)), ps)
    d4 = dense_hop_distances(h.graph, 4)
    wmap = h.graph.edge_weight_map()
    finite = 0
    for u in range(1, 49):
        for v in range(u + 1, 49):
            if not math.isfinite(d4[u - 1, v - 1]):
                continue
            path = extract_bounded_path(h, u, v, 4)
            assert path[0] == u and path[-1] == v and len(path) <= 5
            total = sum(wmap[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:]))
            assert total == d4[u - 1, v - 1]
            finite += 1
    assert finite > 0


def test_count_stretch_failures_extremes():
    ps = _pointset(16, 2, seed=4)
    dist = dense_distances(ps.coords)
    iu = np.triu_indices(16, 1)
    complete = RankGraph(16, (iu[0] + 1).astype(np.int32),
                         (iu[1] + 1).astype(np.int32), dist[iu])
    h = GeometricGraph(complete, ps)
    assert count_stretch_failures(h, ps, 0.25, 1) == 0
    empty = GeometricGraph(RankGraph(16, np.zeros(0, np.int32),
                                     np.zeros(0, np.int32),
                                     np.zeros(0, np.float64)), ps)
    assert count_stretch_failures(empty, ps, 0.25, 4) == 16 * 15 // 2
    for eps in (math.nan, math.inf, -math.inf, -0.01):
        with pytest.raises(ValueError, match="eps"):
            count_stretch_failures(h, ps, eps, 4)
        with pytest.raises(ValueError, match="eps"):
            stretch_failure_row(h, 1, eps, 4)
    for k in (0, -1):
        with pytest.raises(ValueError, match="hop bound must be >= 1"):
            count_stretch_failures(h, ps, 0.25, k)
        with pytest.raises(ValueError, match="hop bound must be >= 1"):
            stretch_failure_row(h, 1, 0.25, k)
    for u in (0, 17, -1):
        with pytest.raises(ValueError, match="vertices must be in"):
            stretch_failure_row(h, u, 0.25, 4)
    # a point set of the same size that the weights were not taken from
    other = _pointset(16, 2, seed=5)
    with pytest.raises(ValueError, match="does not match"):
        count_stretch_failures(h, other, 0.25, 4)


def test_stretch_failures_monotone_under_edge_removal():
    ps = _pointset(40, 2, seed=21)
    full = euclidean_dependable_spanner(ps, 0.25, 0.5, seed=7, max_orderings=8)
    sparse = GeometricGraph(filter_edges(full.graph, 0.5, derive_stream(3, 0)), ps)
    f_full = _failure_rows(full, 0.25, 4)
    f_sparse = _failure_rows(sparse, 0.25, 4)
    assert (f_full <= f_sparse).all()


def _union_recount(pts, eps, psi, seed, max_orderings):
    # independent recount: each ordering's rank edges mapped to point pairs,
    # unioned with a plain python set
    fam = build_lso_family(eps / 8.0, pts.dim)
    edges = set()
    for oid in _spread_ids(len(fam), max_orderings).tolist():
        order = fam.sort_indices(fam.ordering(oid), pts.coords) + 1
        sub = four_hop_spanner(pts.n, psi, seed=derive_seed(seed, oid))
        u, v = order[sub.edge_i - 1], order[sub.edge_j - 1]
        edges.update(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    return edges


def test_spanner_union_recount():
    n, eps, psi, seed = 256, 0.25, 1.0, 5
    pts = _pointset(n, 2, seed=5)
    h = euclidean_dependable_spanner(pts, eps, psi, seed=seed, max_orderings=4)
    edges = _union_recount(pts, eps, psi, seed, 4)
    assert h.graph.edge_set() == edges
    assert h.info["density"] == len(edges) / math.comb(n, 2) < 1.0


@pytest.mark.parametrize("n", [64, 256])
def test_spanner_union_recount_complete_interval_graph(n):
    # at the defaults the interval radius reaches n - 1, so the build takes
    # no ordering; its output is still the union over all 128
    pts = _pointset(n, 2, seed=5)
    h = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=5)
    edges = _union_recount(pts, 0.25, 0.5, 5, 128)
    assert h.graph.edge_set() == edges
    assert h.info["density"] == len(edges) / math.comb(n, 2) == 1.0
    assert h.info["orderings_used"] == 128


class _ShiftFamily(OrderingFamily):
    """The identity plus offset 0, path 0 of the first three shifts."""

    def __len__(self):
        return 4

    def ordering(self, oid):
        if oid == 0:
            return super().ordering(0)
        return Ordering(id=oid, dim=self.dim, grid=self.grid, shift_index=oid - 1,
                        shift_count=self.shifts, offset=0, path=0)


def test_spanner_whole_family_equals_graph_union(monkeypatch):
    # max_orderings=len(fam) unions every member. Real d=1 families have
    # thousands, whose union is K_n at any size a unit test can afford, so
    # the build runs on a 4-member sub-family and stays sparse. n = 300
    # leaves a short last block of rows in the mask's fold
    monkeypatch.setattr(euclid, "build_lso_family", _ShiftFamily)
    psi, c7, seed = 0.5, 0.5, 8
    fam = _ShiftFamily(0.25 / 8.0, 1)
    for n in (300, 512):
        pts = _pointset(n, 1, seed=8)
        h = euclidean_dependable_spanner(pts, 0.25, psi, c7, seed=seed,
                                         max_orderings=len(fam))
        assert h.info["orderings_used"] == len(fam) == 4
        union = RankGraph(n, [], [])
        for oid in range(len(fam)):
            at = fam.sort_indices(fam.ordering(oid), pts.coords) + 1
            sub = four_hop_spanner(n, psi, c7, seed=derive_seed(seed, oid))
            union = graph_union(union, RankGraph(n, at[sub.edge_i - 1],
                                                 at[sub.edge_j - 1]))
        assert np.array_equal(h.graph.edge_i, union.edge_i)
        assert np.array_equal(h.graph.edge_j, union.edge_j)
        assert h.info["density"] < 0.5


def test_queries_share_one_arc_build(monkeypatch):
    pts = _pointset(64, 2, seed=13)
    built = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=4, max_orderings=4)
    kept = filter_edges(built.graph, 0.5, derive_stream(14, 0))

    def queries(h):
        return ([bounded_hop_distance(h, 1, v, 4) for v in (2, 30, 64)],
                extract_bounded_path(h, 3, 40, 4),
                count_stretch_failures(h, pts, 0.25, 4),
                _failure_rows(h, 0.25, 4).tolist())

    expected = queries(GeometricGraph(kept, pts))
    calls = []
    build_arcs = euclid._arcs
    monkeypatch.setattr(euclid, "_arcs",
                        lambda g: calls.append(g) or build_arcs(g))
    h = GeometricGraph(kept, pts)
    assert queries(h) == expected
    assert queries(h) == expected
    assert len(calls) == 1


def test_build_sorts_without_rechecking_coordinates(monkeypatch):
    # the build sorts the PointSet's coordinates, checked when the PointSet
    # was made, once per ordering without checking them again; the public
    # sort_indices still checks what it is given
    pts = _pointset(64, 2, seed=3)
    expected = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=2,
                                            max_orderings=8)
    checks = []
    check = lso._as_coords
    monkeypatch.setattr(lso, "_as_coords",
                        lambda *a: checks.append(1) or check(*a))
    built = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=2, max_orderings=8)
    assert built.graph == expected.graph and checks == []
    fam = build_lso_family(0.25 / 8.0, 2)
    for bad in (pts.coords + 0.5, pts.coords[:, :1]):
        with pytest.raises(ValueError):
            fam.sort_indices(fam.ordering(0), bad)


def test_union_mask_refuses_more_than_physical_memory(monkeypatch):
    pts = _pointset(64, 2, seed=3)
    expected = euclidean_dependable_spanner(pts, 0.25, 0.5, max_orderings=2)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 64 * 64)
    assert euclidean_dependable_spanner(pts, 0.25, 0.5,
                                        max_orderings=2).graph == expected.graph
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 64 * 64 - 1)
    with pytest.raises(ValueError, match="physical memory"):
        euclidean_dependable_spanner(pts, 0.25, 0.5, max_orderings=2)


def test_union_of_a_complete_interval_graph_sorts_and_draws_nothing(
        monkeypatch):
    # radius >= n - 1 makes the interval graph K_n, so no ordering is sorted
    # and no connector drawn; at n=512 (radius 378) all 128 are sorted, and
    # that build has no far block pairs
    sorts, streams = [], []
    sort, stream = euclid._sort_indices, spanners1d.derive_stream
    monkeypatch.setattr(euclid, "_sort_indices",
                        lambda *a: sorts.append(1) or sort(*a))
    monkeypatch.setattr(spanners1d, "derive_stream",
                        lambda *a: streams.append(1) or stream(*a))
    for n, expected in ((64, (0, 0)), (256, (0, 0)), (512, (128, 0))):
        sorts.clear()
        streams.clear()
        h = euclidean_dependable_spanner(_pointset(n, 2, seed=1), 0.25, 0.5,
                                         seed=3)
        assert (len(sorts), len(streams)) == expected, n
        assert h.info["density"] == 1.0 and h.info["orderings_used"] == 128


def test_union_of_an_interval_graph_short_of_k_n_maps_its_orderings():
    # radius n - 2 leaves out the rank pair (1, n), so the union is K_n less
    # the pair of points the one ordering puts first and last
    n = 64
    pts = _pointset(n, 2, seed=1)
    fam = build_lso_family(0.25 / 8.0, 2)
    dp = DerivedParams(nu=1.0, block_size=8, radius=n - 2, connector_rate=0.0)
    ei, ej = euclid._mapped_union(n, pts.coords, fam, np.arange(1), dp, 0)
    at = fam.sort_indices(fam.ordering(0), pts.coords)
    expected = set(itertools.combinations(range(n), 2))
    expected.discard((min(at[0], at[-1]), max(at[0], at[-1])))
    assert set(zip(ei.tolist(), ej.tolist())) == expected


def test_complete_interval_graph_build_info_unchanged():
    # recorded from the build that sorted and drew all 128 orderings
    h = euclidean_dependable_spanner(_pointset(256, 2, seed=1), 0.25, 0.5,
                                     seed=3)
    assert h.info == {
        "mode": "four-hop", "eps": 0.25, "psi": 0.5, "c7": 4.0, "seed": 3,
        "hop_budget": 4, "family_eps": 0.03125, "family_size": 22413313,
        "orderings_used": 128, "density": 1.0, "nu": 1.2599210498948732,
        "block_size": 56, "radius": 255, "connector_rate": 0.7199548856542133}
