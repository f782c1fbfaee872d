import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from depspan import spanners1d
from depspan.euclid import PointSet, euclidean_dependable_spanner
from depspan.fileio import edge_list_text
from depspan.graphs import RankGraph, filter_edges, graph_union, interval_graph
from depspan.reach import deficiency, khop_deficiency, straight_hops
from depspan.rng import derive_stream
from depspan.spanners1d import (DerivedParams, _assemble, biclique_block_spanner,
                                bipartite_connector, block_partition,
                                dependable_interval_spanner, four_hop_spanner,
                                interval_radius, khop_spanner,
                                two_hop_hierarchy)


def test_derived_params_validation():
    # DerivedParams is the one check; every rank builder goes through it
    k_hop = (lambda n, psi, k=4, c7=4.0: DerivedParams.for_k_hop(n, psi, k, c7),
             lambda n, psi, k=4, c7=4.0: khop_spanner(n, psi, k, c7))
    four_hop = (lambda n, psi, c7=4.0: DerivedParams.for_four_hop(n, psi, c7),
                lambda n, psi, c7=4.0: four_hop_spanner(n, psi, c7),
                lambda n, psi, c7=4.0: biclique_block_spanner(n, psi, c7))
    DerivedParams.for_four_hop(10, 0.5, 4.0)
    DerivedParams.for_four_hop(10, 1.0, 4.0)  # no-failure edge case is allowed
    for build in (*k_hop, *four_hop):
        with pytest.raises(ValueError, match="need n >= 2"):
            build(1, 0.5)
        # a ValueError, not ZeroDivisionError (0) or complex arithmetic (-0.5)
        for psi in (1.5, 0.0, -0.5):
            with pytest.raises(ValueError, match="survival probability"):
                build(10, psi)
        # non-finite constants fail here, not as OverflowError from ceil()
        for bad in (0.0, math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="constant c7 must be finite"):
                build(10, 0.5, c7=bad)
    for build in k_hop:
        with pytest.raises(ValueError, match="hop budget must be >= 3"):
            build(10, 0.5, k=2)
    # checked in the order n, psi, k, c7
    with pytest.raises(ValueError, match="need n >= 2"):
        DerivedParams.for_k_hop(1, 1.5, 2, math.nan)
    with pytest.raises(ValueError, match="survival probability"):
        DerivedParams.for_k_hop(64, 1.5, 2, math.nan)
    with pytest.raises(ValueError, match="hop budget"):
        DerivedParams.for_k_hop(64, 0.5, -1, math.nan)
    for bad in (0.0, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="constant c6 must be finite"):
            interval_radius(64, 0.5, bad)
        with pytest.raises(ValueError, match="constant c6 must be finite"):
            dependable_interval_spanner(10, 0.5, bad)


def test_derived_params_four_hop():
    dp = DerivedParams.for_four_hop(4096, 0.5, 4.0)
    assert dp.nu == pytest.approx(0.5 ** (-1.0 / 3.0))
    assert dp.block_size == math.ceil((4.0 * dp.nu / 0.5) * math.log(4096))
    assert dp.radius == 6 * dp.block_size
    assert dp.connector_rate == pytest.approx(
        min(1.0, 16.0 * dp.nu / (0.5 * dp.block_size)))
    assert 0 < dp.connector_rate <= 1.0


def test_derived_params_k_hop_matches_four_hop_up_to_radius():
    a = DerivedParams.for_four_hop(2048, 0.3, 4.0)
    b = DerivedParams.for_k_hop(2048, 0.3, 4, 4.0)
    assert a.nu == b.nu
    assert a.block_size == b.block_size
    assert a.connector_rate == b.connector_rate
    assert b.radius == min(8 * b.block_size, 2047)


def test_derived_params_clamping_small_n():
    dp = DerivedParams.for_four_hop(8, 0.5, 4.0)
    assert dp.block_size == 8          # M clamps to n
    assert dp.radius == 7              # L clamps to n-1
    assert dp.connector_rate <= 1.0


def test_larger_hop_budget_means_sparser_connectors():
    lo = DerivedParams.for_k_hop(8192, 0.5, 4, 4.0)
    hi = DerivedParams.for_k_hop(8192, 0.5, 10, 4.0)
    assert hi.nu < lo.nu
    # expected connector degree tau * M is proportional to nu
    assert (hi.connector_rate * hi.block_size
            < lo.connector_rate * lo.block_size)


def test_interval_radius_example():
    assert interval_radius(1024, 0.5, 4.0) == 56
    assert interval_radius(2, 0.5, 4.0) == 1
    assert interval_radius(1, 0.5) == 0  # ln 1 = 0


def test_interval_spanner_edges():
    g = dependable_interval_spanner(2, 0.5)
    assert g.m == 1
    g = dependable_interval_spanner(1024, 0.5, 4.0)
    assert g.m <= 1024 * 56
    assert deficiency(g) == 0
    # psi small enough that the radius covers everything -> complete graph
    with pytest.warns(UserWarning):
        g = dependable_interval_spanner(16, 0.05, 4.0)
    assert g.m == 16 * 15 // 2


def test_interval_spanner_warns_below_one_over_n():
    with pytest.warns(UserWarning):
        dependable_interval_spanner(64, 0.01, 4.0)


@pytest.mark.parametrize("a,b,expected", [(1, 2, 1), (1, 3, 2), (1, 7, 10)])
def test_two_hop_hierarchy_sizes(a, b, expected):
    assert two_hop_hierarchy(a, b).shape[0] == expected


def test_two_hop_hierarchy_median_routing():
    edges = {tuple(e) for e in two_hop_hierarchy(1, 3)}
    assert edges == {(1, 2), (2, 3)}


@pytest.mark.parametrize("n", [2, 7, 33, 64, 100])
def test_two_hop_hierarchy_gives_two_hop_paths(n):
    arr = two_hop_hierarchy(1, n)
    g = RankGraph.from_edges(n, [tuple(e) for e in arr])
    assert g.m <= n * math.ceil(math.log2(n))
    assert khop_deficiency(g, 2) == 0


def test_two_hop_hierarchy_general_range():
    arr = two_hop_hierarchy(10, 16)
    assert arr.min() >= 10 and arr.max() <= 16
    assert arr.shape[0] == 10  # same shape as a size-7 range at the origin


def test_block_partition_examples():
    assert block_partition(10, 3) == ((1, 3), (4, 6), (7, 10))
    assert block_partition(9, 3) == ((1, 3), (4, 6), (7, 9))
    assert block_partition(5, 8) == ((1, 5),)


def test_block_partition_invariants():
    for n in (1, 5, 17, 100, 1023):
        for size in (1, 3, 7, 50):
            bounds = block_partition(n, size)
            ranks = [r for s, e in bounds for r in range(s, e + 1)]
            assert ranks == list(range(1, n + 1))
            sizes = [e - s + 1 for s, e in bounds]
            if len(bounds) > 1:
                assert all(sz == size for sz in sizes[:-1])
                assert size <= sizes[-1] < 2 * size


def test_connector_extremes():
    full = bipartite_connector((1, 5), (6, 10), 1.0, derive_stream(0, 0))
    assert full.shape[0] == 25
    empty = bipartite_connector((1, 5), (6, 10), 0.0, derive_stream(0, 0))
    assert empty.shape[0] == 0
    with pytest.raises(ValueError, match="overlap"):
        bipartite_connector((1, 5), (5, 9), 0.5, derive_stream(0, 0))
    # x_block must end before y_block starts: every caller orders them so
    with pytest.raises(ValueError, match="reversed"):
        bipartite_connector((6, 10), (1, 5), 1.0, derive_stream(0, 0))
    assert full.dtype == np.int64
    assert full.tolist() == [[x, y] for x in range(1, 6) for y in range(6, 11)]


def test_connector_binomial_mean():
    rates = [bipartite_connector((1, 50), (51, 100), 0.2,
                                 derive_stream(31, t)).shape[0]
             for t in range(500)]
    mean = np.mean(rates)
    stderr = np.std(rates, ddof=1) / math.sqrt(len(rates))
    assert abs(mean - 500.0) <= 3.0 * stderr


def test_connector_one_sided_reach_bound():
    # mean count of right vertices with an incoming edge is at least
    # |C| (1 - exp(-rate |B|)) minus sampling noise
    b, c, rate, trials = (1, 40), (41, 120), 0.03, 300
    counts = []
    for t in range(trials):
        edges = bipartite_connector(b, c, rate, derive_stream(12, t))
        counts.append(len({int(e[1]) for e in edges if e[1] >= 41}))
    mean = np.mean(counts)
    stderr = np.std(counts, ddof=1) / math.sqrt(trials)
    floor = 80 * (1.0 - math.exp(-rate * 40))
    assert mean >= floor - 3.0 * stderr


def test_biclique_block_spanner_degenerates_to_clique():
    g = biclique_block_spanner(16, 0.5, 4.0)  # block size >= n -> one block
    assert g.m == 16 * 15 // 2


def test_biclique_block_spanner_two_blocks_hand_trace():
    # force exactly two blocks by choosing parameters with 2M <= n < 3M
    dp = DerivedParams.for_four_hop(200, 0.5, 6.0)
    assert 2 <= 200 // dp.block_size < 3
    g = biclique_block_spanner(200, 0.5, 6.0)
    base = interval_graph(200, dp.radius)
    (xs, xe), (ys, ye) = block_partition(200, dp.block_size)[:2]
    expected = base.edge_set() | {(x, y) for x in range(xs, xe + 1)
                                  for y in range(ys, ye + 1)}
    assert g.edge_set() == expected


def test_biclique_block_spanner_recount():
    # independent recount: union of interval edges and per-hierarchy-edge
    # bicliques, assembled with plain python sets
    n, psi, c7 = 512, 0.35, 2.0
    dp = DerivedParams.for_four_hop(n, psi, c7)
    blocks = block_partition(n, dp.block_size)
    edges = {(i, j) for i in range(1, n + 1)
             for j in range(i + 1, min(i + dp.radius, n) + 1)}
    for bi, bj in two_hop_hierarchy(1, len(blocks)):
        (xs, xe), (ys, ye) = blocks[bi - 1], blocks[bj - 1]
        edges |= {(x, y) for x in range(xs, xe + 1) for y in range(ys, ye + 1)}
    g = biclique_block_spanner(n, psi, c7)
    assert g.m == len(edges)
    assert g.edge_set() == edges


def test_inner_block_pairs_draw_no_stream(monkeypatch):
    # a block pair whose widest cross pair (xs, ye) is within the radius
    # could draw only interval edges, so it gets no stream and no uniforms
    drawn = []

    def counting(master, index):
        drawn.append(index)
        return derive_stream(master, index)

    monkeypatch.setattr(spanners1d, "derive_stream", counting)
    assert DerivedParams.for_four_hop(256, 0.5, 4.0).radius == 255
    four_hop_spanner(256, 0.5)
    assert drawn == []
    n = 2048
    dp = DerivedParams.for_four_hop(n, 0.5, 4.0)
    blocks = block_partition(n, dp.block_size)
    nb = len(blocks)
    hierarchy = two_hop_hierarchy(1, nb).tolist()
    far = [(bi - 1) * nb + (bj - 1) for bi, bj in hierarchy
           if blocks[bj - 1][1] - blocks[bi - 1][0] > dp.radius]
    assert 0 < len(far) < len(hierarchy)
    four_hop_spanner(n, 0.5, seed=9)
    assert sorted(drawn) == sorted(far)


def _reference_build(n, dp, seed):
    # every drawn connector pair, band or not, through the generic union
    blocks = block_partition(n, dp.block_size)
    nb = len(blocks)
    pairs = np.concatenate([np.empty((0, 2), dtype=np.int64)] + [
        bipartite_connector(blocks[bi - 1], blocks[bj - 1], dp.connector_rate,
                            derive_stream(seed, (bi - 1) * nb + (bj - 1)))
        for bi, bj in two_hop_hierarchy(1, nb)])
    # RankGraph rejects a repeated pair, so this also checks they are distinct
    return graph_union(interval_graph(n, dp.radius),
                       RankGraph(n, pairs[:, 0], pairs[:, 1]))


@pytest.mark.parametrize("n", [16, 300, 700, 1024, 2048])
def test_assemble_equals_reference_union(n):
    # _assemble inserts only the connectors beyond the interval radius; the
    # grid includes K_n builds (no such connector) and full bicliques
    for psi, c7, seed in itertools.product((0.9, 0.5, 0.25), (0.5, 1.0, 4.0),
                                           (7, 8)):
        four = DerivedParams.for_four_hop(n, psi, c7)
        for dp in (four, replace(four, connector_rate=1.0),
                   DerivedParams.for_k_hop(n, psi, 3, c7),
                   DerivedParams.for_k_hop(n, psi, 6, c7)):
            assert _assemble(n, dp, seed) == _reference_build(n, dp, seed), (
                psi, c7, seed, dp)


def test_edge_lists_match_golden_hashes():
    # SHA-256 of edge_list_text for fixed-seed builds; pins edge order, dedup
    # and weights across versions (C13 only compares two runs of one version)
    band = RankGraph.from_edges(300, [(i, i + d) for i in range(1, 301)
                                      for d in (5, 10) if i + d <= 300])
    points = PointSet(np.random.default_rng(7).random((128, 2)) * 0.999)

    def uniform(n, seed):
        return PointSet(np.random.default_rng(seed).random((n, 2)) * 0.999)

    builds = {
        "four-hop": (lambda: four_hop_spanner(2048, 0.5, seed=1301),
                     "cce0cfc06b15c26339d27c998ab0a3bd04a440ecdd517af21a14410079ca28fe"),
        "k-hop": (lambda: khop_spanner(1024, 0.5, 6, seed=3),
                  "fd1c29192da6a3984c3ea3cb35150678a9dd958ec37a275a66a36ad57ad2fef6"),
        "biclique": (lambda: biclique_block_spanner(512, 0.35, 2.0),
                     "fd188a5798a9e12e77863c5201d11fd472fe95625fbac343b4b888a1ee28fef4"),
        "union": (lambda: graph_union(interval_graph(300, 7), band),
                  "6631366672155b1d4e4b4e66582b4c0b860cf28ae49d2fc36678b99d0900be49"),
        "euclid": (lambda: euclidean_dependable_spanner(
                       points, 0.25, 0.5, seed=3, max_orderings=32).graph,
                   "f8d69c4e7872dda7ba15d14e73f78d4d5332cccfa1268f066403f164e1f85f6a"),
        # "euclid" is K_n; this pins the order and dedup of a sparse union
        # (density 0.452)
        "euclid-four-hop-sparse": (lambda: euclidean_dependable_spanner(
                       uniform(2048, 11), 0.25, 0.5, seed=4, max_orderings=2).graph,
                   "b187bc658b1e03808cc03551828802c15d2c4939a3843fe4f7b37f7756e8b569"),
    }
    for name, (build, expected) in builds.items():
        digest = hashlib.sha256(edge_list_text(build()).encode()).hexdigest()
        assert digest == expected, name


def test_four_hop_spanner_contains_interval_and_is_exact():
    n, psi = 1024, 0.5
    g = four_hop_spanner(n, psi, 4.0, seed=5)
    dp = DerivedParams.for_four_hop(n, psi, 4.0)
    assert interval_graph(n, dp.radius).edge_set() <= g.edge_set()
    assert deficiency(g) == 0
    assert khop_deficiency(g, 4) == 0


def test_four_hop_spanner_deterministic():
    a = four_hop_spanner(4096, 0.5, 4.0, seed=42)
    b = four_hop_spanner(4096, 0.5, 4.0, seed=42)
    assert a == b
    c = four_hop_spanner(4096, 0.5, 4.0, seed=43)
    assert a != c


def test_khop_spanner_validation_and_shape():
    with pytest.raises(ValueError):
        khop_spanner(100, 0.5, 2)
    g = khop_spanner(1024, 0.5, 6, seed=3)
    dp = DerivedParams.for_k_hop(1024, 0.5, 6, 4.0)
    assert interval_graph(1024, dp.radius).edge_set() <= g.edge_set()
    assert deficiency(g) == 0


def test_khop_spanner_survives_with_budget_hops():
    # small-scale version of the survival law: long pairs keep <= k-hop
    # straight paths after filtering, in most trials
    n, psi, k = 2048, 0.5, 5
    g = khop_spanner(n, psi, k, seed=11)
    dp = DerivedParams.for_k_hop(n, psi, k, 4.0)
    bad_trials = 0
    for t in range(10):
        h = filter_edges(g, psi, derive_stream(100, t))
        hops = straight_hops(h, 1)
        long_fail = sum(1 for j in range(dp.radius + 2, n + 1, 97)
                        if hops[j] > k and j - 1 > dp.radius)
        bad_trials += int(long_fail > 0)
    assert bad_trials <= 1
