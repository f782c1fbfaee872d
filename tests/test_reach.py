import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import depspan.graphs as graphs
import depspan.reach as reach
from conftest import all_edge_subsets, brute_deficiency, random_edge_subset
from depspan.graphs import RankGraph, complete_graph, filter_edges, interval_graph
from depspan.reach import (DeficiencyReport, deficiency,
                           expected_two_hop_deficiency, khop_deficiency,
                           khop_deficiency_split, monte_carlo_deficiency,
                           no_two_hop_probability, straight_hops,
                           straight_reachable)
from depspan.rng import derive_stream
from depspan.spanners1d import four_hop_spanner


def test_straight_reachable_hand_traces():
    g = RankGraph.from_edges(4, [(1, 2), (2, 4)])
    r = straight_reachable(g, 1)
    assert (r[2], r[3], r[4]) == (True, False, True)

    g = RankGraph.from_edges(4, [(1, 2), (3, 4)])
    r = straight_reachable(g, 1)
    assert (r[2], r[3], r[4]) == (True, False, False)

    k = complete_graph(6)
    for i in range(1, 7):
        r = straight_reachable(k, i)
        assert all(r[j] for j in range(i + 1, 7))


def test_straight_reachable_rejects_bad_vertex():
    g = complete_graph(4)
    for v in (0, 5):
        with pytest.raises(ValueError):
            straight_reachable(g, v)


def test_out_runs_match_an_int64_probe():
    # the int32 probe stops at rank n and appends m for rank n + 1
    cases = (RankGraph.from_edges(1, []), RankGraph.from_edges(5, []),
             interval_graph(9, 2),
             filter_edges(four_hop_spanner(300, 0.5, 4.0, seed=3), 0.5,
                          derive_stream(3, 0)))
    for g in cases:
        expected = np.searchsorted(g.edge_i, np.arange(g.n + 2)).tolist()
        assert reach._out_runs(g) == expected, g


def test_straight_hops_hand_traces():
    k = complete_graph(5)
    h = straight_hops(k, 1)
    assert all(h[j] == 1 for j in range(2, 6))

    path = interval_graph(6, 1)
    h = straight_hops(path, 1)
    assert all(h[j] == j - 1 for j in range(2, 7))

    g = RankGraph.from_edges(6, [(1, 3), (3, 6), (1, 6)])
    h = straight_hops(g, 1)
    assert h[3] == 1 and h[6] == 1
    assert math.isinf(h[2]) and math.isinf(h[4]) and math.isinf(h[5])


def test_reachable_iff_finite_hops(np_rng):
    for _ in range(25):
        edges = random_edge_subset(7, np_rng)
        g = RankGraph.from_edges(7, sorted(edges))
        for i in range(1, 8):
            r = straight_reachable(g, i)
            h = straight_hops(g, i)
            for j in range(i + 1, 8):
                assert r[j] == (h[j] < np.inf)


def test_deficiency_examples():
    assert deficiency(complete_graph(9)) == 0
    assert deficiency(RankGraph.from_edges(5, [])) == 10
    assert deficiency(RankGraph.from_edges(3, [(1, 3)])) == 2


def test_deficiency_equals_per_source_counts(np_rng):
    for _ in range(10):
        edges = random_edge_subset(7, np_rng)
        g = RankGraph.from_edges(7, sorted(edges))
        per_source = sum((g.n - i) - int(straight_reachable(g, i)[i + 1:].sum())
                         for i in range(1, g.n + 1))
        assert deficiency(g) == per_source


def test_khop_examples():
    assert khop_deficiency(complete_graph(8), 1) == 0
    path4 = interval_graph(4, 1)
    assert khop_deficiency(path4, 1) == 3
    assert khop_deficiency(path4, 3) == 0
    with pytest.raises(ValueError):
        khop_deficiency(path4, 0)


def test_khop_matches_brute_force_exhaustive_n4():
    for edges in all_edge_subsets(4):
        g = RankGraph.from_edges(4, sorted(edges))
        assert deficiency(g) == brute_deficiency(4, edges)
        for k in (1, 2, 3):
            assert khop_deficiency(g, k) == brute_deficiency(4, edges, k)


# Rows per panel for the k-hop engine: the default (one panel at these
# sizes), small ones whose last panels are ragged and whose split masks cross
# panel borders, and one-row panels. Heights 7 and 1 start panels off byte
# boundaries, which the bit finish's row packing must handle.
_TILES = (reach._TILE, 4, 7, 1)

# (base, height) packings of the panel product: the default base at every
# height above, and small bases whose counts, at the sizes of the tests, pass
# the base unless the product clamps them back between K-steps.
_PACKINGS = tuple((reach._BASE, t) for t in _TILES) + ((4, 1), (4, 2), (8, 6))

# Shares for the bit finish: never (BLAS products until no pair is missing),
# the default, two that switch after some products on these small graphs, and
# always (from I + A itself, before any product).
_SHARES = (0.0, reach._BIT_FINISH_SHARE, 0.1, 0.5, math.inf)


def test_khop_engines_agree_with_brute_force_sampled(np_rng, monkeypatch):
    for n in (6, 7):
        for _ in range(40):
            edges = random_edge_subset(n, np_rng)
            g = RankGraph.from_edges(n, sorted(edges))
            assert deficiency(g) == brute_deficiency(n, edges)
            for k in range(1, 9):
                expected = brute_deficiency(n, edges, k)
                for base, tile in _PACKINGS:
                    monkeypatch.setattr(reach, "_BASE", base)
                    monkeypatch.setattr(reach, "_TILE", tile)
                    for share in _SHARES:
                        monkeypatch.setattr(reach, "_BIT_FINISH_SHARE", share)
                        assert khop_deficiency(g, k) == expected, (
                            k, base, tile, share)


def test_khop_split_engines_agree(monkeypatch):
    # a sparse graph whose powers keep many missing pairs (BLAS products to
    # the end at the default share) and a dense one whose B^2 misses few
    # (bit finish at the default share)
    cases = (filter_edges(interval_graph(60, 9), 0.5, derive_stream(5, 0)),
             filter_edges(complete_graph(60), 0.9, derive_stream(5, 1)))
    radii = (0, 5, 9, 20, 59)
    for g in cases:
        hops = {i: straight_hops(g, i) for i in range(1, g.n + 1)}
        for k in range(1, 9):
            brute = [sum(1 for i in range(1, g.n + 1)
                         for j in range(i + 1, g.n + 1)
                         if j - i > radius and hops[i][j] > k)
                     for radius in radii]
            radius = radii[k % len(radii)]
            for base, tile in _PACKINGS:
                monkeypatch.setattr(reach, "_BASE", base)
                monkeypatch.setattr(reach, "_TILE", tile)
                for share in (0.0, reach._BIT_FINISH_SHARE, math.inf):
                    monkeypatch.setattr(reach, "_BIT_FINISH_SHARE", share)
                    assert reach._khop_missing(g, k, radii) == brute
                    short, long_ = khop_deficiency_split(g, k, radius)
                    assert (short + long_, long_) == (
                        brute[0], brute[radii.index(radius)])
                    assert khop_deficiency(g, k) == brute[0]


def test_bit_finish_replaces_products_only_for_few_missing_pairs(monkeypatch):
    # k = 4 takes two squarings by BLAS; filtered K_n misses few pairs after
    # the first, so the bit finish settles the rest, while a path-like graph
    # still misses many and runs both
    products = []
    product = reach._panel_product
    monkeypatch.setattr(reach, "_panel_product",
                        lambda x, y: products.append(1) or product(x, y))
    dense = filter_edges(complete_graph(300), 0.9, derive_stream(4, 0))
    sparse = filter_edges(interval_graph(300, 3), 0.9, derive_stream(4, 0))
    for g, runs in ((dense, 1), (sparse, 2)):
        products.clear()
        count = khop_deficiency(g, 4)
        assert len(products) == runs
        with monkeypatch.context() as blas_only:
            blas_only.setattr(reach, "_BIT_FINISH_SHARE", 0.0)
            assert khop_deficiency(g, 4) == count


def _to_panels(dense: np.ndarray) -> list:
    """An upper-triangular n x n 0/1 matrix as the engine's bool row panels."""
    t = reach._TILE
    return [dense[s:s + t, s:].astype(bool) for s in range(0, len(dense), t)]


def _from_panels(panels: list, n: int) -> np.ndarray:
    dense = np.zeros((n, n), dtype=bool)
    for p, panel in enumerate(panels):
        s = p * reach._TILE
        dense[s:s + len(panel), s:] = panel
    return dense


def test_panel_product_matches_dense_boolean_product(np_rng, monkeypatch):
    # random upper-triangular 0/1 factors, dense enough that path counts
    # pass the small bases: exact only if the product clamps them in time
    for base, tile in _PACKINGS + ((8, 4), (16, 7)):
        monkeypatch.setattr(reach, "_BASE", base)
        monkeypatch.setattr(reach, "_TILE", tile)
        for n in (1, 2, 5, 23, 40):
            density = np_rng.uniform(0.3, 1.0)
            x = np.triu(np_rng.random((n, n)) < density).astype(np.float32)
            y = np.triu(np_rng.random((n, n)) < density).astype(np.float32)
            xp, yp = _to_panels(x), _to_panels(y)
            reach._panel_product(xp, yp)
            assert np.array_equal(_from_panels(xp, n), (x @ y) > 0), (base, tile, n)
            assert np.array_equal(_from_panels(yp, n), y)
            sq = _to_panels(y)
            reach._panel_product(sq, sq)
            assert np.array_equal(_from_panels(sq, n), (y @ y) > 0), (base, tile, n)
            # x sharing y's panel arrays, as after the engine's "copy" step
            shared = list(yp)
            reach._panel_product(shared, yp)
            assert np.array_equal(_from_panels(shared, n), (y @ y) > 0)
            assert np.array_equal(_from_panels(yp, n), y)


def _band_and_far_tiles(n: int, rng) -> np.ndarray:
    """An upper-triangular 0/1 matrix shaped like a four-hop spanner's I + A
    at panel height t = _TILE: a full band of radius 3t, whose path counts
    pass the small bases, and four random t x t tiles at least five tiles
    right of their panel's diagonal tile. Tile p + 4 of every panel p is
    then zero, and a panel with a far tile has two runs of nonzero column
    tiles. Needs n > 5t."""
    t = reach._TILE
    dense = np.triu(np.tri(n, k=3 * t, dtype=bool))
    tiles = -(-n // t)
    for _ in range(4):
        p = rng.integers(0, tiles - 5)
        q = rng.integers(p + 5, tiles)
        block = dense[p * t:(p + 1) * t, q * t:(q + 1) * t]
        block |= rng.random(block.shape) < 0.7
    return dense


def test_panel_product_skips_zero_tiles_exactly(np_rng, monkeypatch):
    # the product skips K-steps on all-zero X tiles and multiplies only the
    # runs of Y's nonzero column tiles; at the small bases the skipped steps
    # move the clamps, which must still come before a count reaches the base
    for base, tile in _PACKINGS:
        monkeypatch.setattr(reach, "_BASE", base)
        monkeypatch.setattr(reach, "_TILE", tile)
        n = tile * (6 if tile > 64 else 12) + (tile + 1) // 2
        x = _band_and_far_tiles(n, np_rng)
        y = _band_and_far_tiles(n, np_rng)
        expected = (x.astype(np.float32) @ y) > 0
        square = (y.astype(np.float32) @ y) > 0
        xp, yp = _to_panels(x), _to_panels(y)
        reach._panel_product(xp, yp)
        assert np.array_equal(_from_panels(xp, n), expected), (base, tile)
        assert np.array_equal(_from_panels(yp, n), y)
        shared = list(yp)  # x sharing y's panel arrays
        reach._panel_product(shared, yp)
        assert np.array_equal(_from_panels(shared, n), square), (base, tile)
        assert np.array_equal(_from_panels(yp, n), y)
        reach._panel_product(yp, yp)
        assert np.array_equal(_from_panels(yp, n), square), (base, tile)


def test_khop_on_a_spanner_with_zero_tiles_matches_brute_force(monkeypatch):
    # a small four-hop spanner whose band (radius 48) leaves whole tiles of
    # I + A zero at panel heights 8 and 16, and whose connectors split some
    # panels' nonzero column tiles into several runs
    g = filter_edges(four_hop_spanner(300, 0.5, 0.5, seed=3), 0.5,
                     derive_stream(3, 0))
    hops = {i: straight_hops(g, i)[i + 1:] for i in range(1, g.n + 1)}
    for tile in (8, 16):
        monkeypatch.setattr(reach, "_TILE", tile)
        runs = [reach._tile_runs(reach._occupied_tiles(p), p.shape[1])
                for p in reach._unit_panels(g)]
        assert max(len(r) for r in runs) > 1, tile
        for k in (2, 3, 4, 5):
            expected = sum(int((h > k).sum()) for h in hops.values())
            for share in (0.0, reach._BIT_FINISH_SHARE):
                monkeypatch.setattr(reach, "_BIT_FINISH_SHARE", share)
                assert khop_deficiency(g, k) == expected, (tile, k, share)


def test_column_bits_pack_the_columns(np_rng, monkeypatch):
    # panels starting on and off byte boundaries, ragged last panels
    for tile in _TILES + (64,):
        monkeypatch.setattr(reach, "_TILE", tile)
        for n in (1, 9, 70, 130):
            dense = np.triu(np_rng.random((n, n)) < 0.3)
            np.fill_diagonal(dense, True)
            width = reach._row_bytes(n)
            expected = np.zeros((n, width), dtype=np.uint8)
            packed = np.packbits(dense.T, axis=1, bitorder="little")
            expected[:, :packed.shape[1]] = packed
            got = reach._column_bits(_to_panels(dense), n)
            assert np.array_equal(got, expected), (tile, n)


def test_decode_fields_reads_both_count_fields(monkeypatch):
    # packed entries hi * base + lo at the field boundaries, both counts up
    # to base - 1; each decodes to (hi > 0, lo > 0)
    for base in sorted({b for b, _ in _PACKINGS}):
        monkeypatch.setattr(reach, "_BASE", base)
        values = (0, 1, base - 1, base, base + 1, 2 * base - 1,
                  (base - 1) * base + base - 1)
        acc = np.array([values], dtype=np.float32)
        scratch = np.full(acc.shape, -1, dtype=np.int32)
        out = reach._decode_fields(acc, 2, scratch)
        assert out.dtype == bool
        assert out.tolist() == [[v // base > 0 for v in values],
                                [v % base > 0 for v in values]], base
        # an odd panel height drops the last lo row
        assert reach._decode_fields(acc, 1, scratch).tolist() == out[:1].tolist()


def test_panel_height_above_base_fails_loudly(monkeypatch):
    monkeypatch.setattr(reach, "_BASE", 8)
    monkeypatch.setattr(reach, "_TILE", 7)
    with pytest.raises(ValueError, match="panel height 7"):
        khop_deficiency(interval_graph(20, 3), 2)


def test_panel_product_scratch_stays_within_plan(monkeypatch):
    # several panels, ragged last one; a small base also runs the clamping
    # between K-steps. Squaring replaces each panel by one of the same size,
    # so the peak above the factors is the product's scratch alone. The
    # factors are allocated under tracemalloc, so that their release counts.
    g = filter_edges(complete_graph(600), 0.3, derive_stream(6, 0))
    for base, tile in ((reach._BASE, reach._TILE), (reach._BASE, 64),
                       (reach._BASE, 37), (64, 62)):
        monkeypatch.setattr(reach, "_BASE", base)
        monkeypatch.setattr(reach, "_TILE", tile)
        tracemalloc.start()
        try:
            panels = reach._unit_panels(g)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reach._panel_product(panels, panels)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        plan = reach._product_scratch(g.n)
        assert plan / 2 < peak <= plan, (base, tile, peak, plan)


def test_bit_finish_stays_within_plan(monkeypatch):
    # few missing pairs (a panel's copy or the row gathers dominate) and many
    # (the pair lists dominate), at panel heights on and off byte
    # boundaries. The test keeps its own references to the panels, as the
    # engine's shared "copy" panels do, so their release hides no scratch.
    # The plan holds the pair lists at their size in a hop that connects
    # every pair; a hop that connects few needs about two thirds of that.
    cases = (filter_edges(complete_graph(600), 0.9, derive_stream(6, 0)),
             filter_edges(interval_graph(600, 5), 0.7, derive_stream(6, 0)),
             filter_edges(complete_graph(1100), 0.5, derive_stream(6, 1)))
    for g in cases:
        for tile in (reach._TILE, 64, 7):
            monkeypatch.setattr(reach, "_TILE", tile)
            for hops in (1, 3):
                tracemalloc.start()
                try:
                    panels = reach._unit_panels(g)
                    kept = list(panels)
                    cols = reach._column_bits(panels, g.n)
                    listed = reach._zeros_beyond(panels, 0)
                    held = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    reach._bit_finish(panels, cols, hops)
                    peak = tracemalloc.get_traced_memory()[1] - held
                finally:
                    tracemalloc.stop()
                del kept
                plan = reach._finish_scratch(g.n, listed)
                assert plan / 3 < peak <= plan, (g, tile, hops, peak, plan)


def test_khop_refuses_more_than_physical_memory(monkeypatch):
    # n = 64 is one panel: one 64 x 64 bool power, I + A's column bits (8
    # bytes per vertex) and one panel product's scratch for k = 2 (the right
    # factor's float32 copy; 32 packed rows, their accumulator and BLAS
    # temporary; the new 64-row bool panel), two powers for k = 3. With
    # every pair listed, the bit finish's scratch (8-byte bit rows, 2016 x 8
    # bytes of gathers, eight int32 per pair) outweighs the product's.
    g = interval_graph(64, 2)
    power, cols = 64 * 64, 64 * 8
    product = 4 * power + (12 * 32 + 64) * 64
    finish = 64 * 8 + 3 * 2016 * 8 + 32 * 2016
    planned = {(2, reach._BIT_FINISH_SHARE): power + cols + product,
               (3, reach._BIT_FINISH_SHARE): 2 * power + cols + product,
               (2, math.inf): power + cols + finish}
    for (k, share), nbytes in planned.items():
        monkeypatch.setattr(reach, "_BIT_FINISH_SHARE", share)
        expected = khop_deficiency(g, k)
        monkeypatch.setattr(graphs, "_physical_memory", lambda: nbytes)
        assert khop_deficiency(g, k) == expected
        monkeypatch.setattr(graphs, "_physical_memory", lambda: nbytes - 1)
        with pytest.raises(ValueError, match="physical memory"):
            khop_deficiency(g, k)
        with pytest.raises(ValueError, match="physical memory"):
            khop_deficiency_split(g, k, 3)
        monkeypatch.undo()


def test_khop_edge_cases(monkeypatch):
    for tile in _TILES:
        monkeypatch.setattr(reach, "_TILE", tile)
        one = RankGraph.from_edges(1, [])
        assert khop_deficiency(one, 1) == 0
        assert khop_deficiency_split(one, 3, 0) == (0, 0)
        assert khop_deficiency(RankGraph.from_edges(2, []), 1) == 1
        assert khop_deficiency_split(RankGraph.from_edges(2, []), 2, 0) == (0, 1)
        path = interval_graph(9, 1)
        for k in (8, 9, 50):  # k >= n - 1: the unbounded count
            assert khop_deficiency(path, k) == deficiency(path) == 0
        sparse = RankGraph.from_edges(9, [(1, 5), (5, 9), (2, 3)])
        for k in (9, 20):
            assert khop_deficiency(sparse, k) == deficiency(sparse) == 32


def test_khop_monotone_in_k_and_matches_unbounded(np_rng):
    for _ in range(10):
        edges = random_edge_subset(7, np_rng)
        g = RankGraph.from_edges(7, sorted(edges))
        prev = None
        for k in range(1, 8):
            cur = khop_deficiency(g, k)
            if prev is not None:
                assert cur <= prev
            prev = cur
        assert khop_deficiency(g, g.n - 1) == deficiency(g)


def test_adding_edges_never_hurts(np_rng):
    for _ in range(15):
        edges = random_edge_subset(6, np_rng)
        g = RankGraph.from_edges(6, sorted(edges))
        missing = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)
                   if (i, j) not in edges]
        if not missing:
            continue
        extra = missing[np_rng.integers(0, len(missing))]
        g2 = RankGraph.from_edges(6, sorted(edges | {extra}))
        assert deficiency(g2) <= deficiency(g)
        assert khop_deficiency(g2, 2) <= khop_deficiency(g, 2)


def test_no_two_hop_probability_values():
    assert no_two_hop_probability(1, 0.5) == 0.5
    assert no_two_hop_probability(2, 0.5) == pytest.approx(0.375)
    assert no_two_hop_probability(17, 1.0) == 0.0
    with pytest.raises(ValueError):
        no_two_hop_probability(0, 0.5)


def test_no_two_hop_probability_sandwich():
    psis = np.linspace(0.05, 0.95, 19)
    for delta in range(1, 65):
        for psi in psis:
            p = no_two_hop_probability(delta, float(psi))
            assert (1 - psi) ** delta <= p + 1e-15
            assert p == pytest.approx((1 - psi) * (1 - psi * psi) ** (delta - 1))


def test_expected_two_hop_deficiency_values():
    assert expected_two_hop_deficiency(2, 0.5) == pytest.approx(0.5)
    assert expected_two_hop_deficiency(3, 0.5) == pytest.approx(1.375)
    assert expected_two_hop_deficiency(100, 1.0) == 0.0
    for n in (10, 100, 317):
        for psi in (0.1, 0.3, 0.7):
            assert expected_two_hop_deficiency(n, psi) <= n / psi ** 2


def test_monte_carlo_certain_cases():
    rep = monte_carlo_deficiency(complete_graph(12), 1.0, 5, master=3)
    assert rep.mean_failed_pairs == 0.0 and rep.stderr == 0.0
    rep = monte_carlo_deficiency(complete_graph(10), 0.0, 4, master=3)
    assert rep.mean_failed_pairs == 45.0 and rep.stderr == 0.0


def test_monte_carlo_matches_filter_edges_coupling(monkeypatch):
    # each Monte Carlo trial is filter_edges with the trial's stream, then
    # the exact count; the counts must match filter_edges' graphs.
    g = interval_graph(40, 6)
    psi, master = 0.6, 91
    graphs = [filter_edges(g, psi, derive_stream(master, t)) for t in range(6)]
    for tile in _TILES:
        monkeypatch.setattr(reach, "_TILE", tile)
        for hop_bound in (None, 1, 2, 4):
            rep = monte_carlo_deficiency(g, psi, 6, hop_bound=hop_bound,
                                         master=master)
            expected = [deficiency(h) if hop_bound is None
                        else khop_deficiency(h, hop_bound) for h in graphs]
            assert list(rep.per_trial_counts) == expected


def test_khop_memory_stays_below_one_and_a_half_dense_matrices(monkeypatch):
    # Products run in place, so at most two upper-triangular powers plus one
    # panel product are alive, and the bit finish's bit rows and byte
    # scratch stay below that: about 0.7-1.35 dense float32 n x n matrices.
    # Three powers (about 1.6) fail, and so does an engine holding two dense
    # matrices.
    monkeypatch.setattr(reach, "_TILE", 64)
    sparse = filter_edges(interval_graph(1000, 8), 0.7, derive_stream(2, 0))
    dense = filter_edges(complete_graph(1000), 0.9, derive_stream(2, 0))
    for g in (sparse, dense):
        for k in (3, 4, 7):
            tracemalloc.start()
            try:
                khop_deficiency(g, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * g.n * g.n * 4, (g, k, peak)


def _no_processes(method=None):
    raise AssertionError("a process was started")


def _allow_pool(monkeypatch, cores):
    """Pool any unbounded input on `cores` usable cores; return the list
    the size of each pool started is appended to."""
    monkeypatch.setattr(reach, "_POOL_MIN_RANK_TRIALS", 0)
    monkeypatch.setattr(reach, "_usable_cores", lambda: cores)
    ctx = multiprocessing.get_context("fork")
    sizes, real = [], ctx.Pool
    monkeypatch.setattr(ctx, "Pool",
                        lambda workers, *a: sizes.append(workers) or real(workers, *a))
    return sizes


def test_monte_carlo_deterministic_and_thread_invariant(monkeypatch):
    # hop-bounded trials run in order in this process, even where an
    # unbounded count would start a pool
    g = complete_graph(60)
    a = monte_carlo_deficiency(g, 0.4, 8, hop_bound=2, master=17, jobs=1)
    _allow_pool(monkeypatch, 3)
    monkeypatch.setattr(multiprocessing, "get_context", _no_processes)
    b = monte_carlo_deficiency(g, 0.4, 8, hop_bound=2, master=17, jobs=3)
    assert a == b


def test_monte_carlo_pool_gives_the_in_order_report(monkeypatch):
    # unbounded trials on min(cores, trials) forked workers: the counts come
    # back in trial order, so the report is the in-order one for every core
    # count and every jobs, and every worker is reaped before the call
    # returns
    g = filter_edges(four_hop_spanner(256, 0.5, 4.0, seed=5), 0.8,
                     derive_stream(5, 0))
    trials = 5
    sizes = _allow_pool(monkeypatch, 1)
    for kw in ({}, {"source_sample": 40}):
        monkeypatch.setattr(reach, "_usable_cores", lambda: 1)
        want = monte_carlo_deficiency(g, 0.6, trials, master=11, **kw)
        assert want.mean_failed_pairs > 0
        for cores in (2, 3, trials + 2):
            monkeypatch.setattr(reach, "_usable_cores", lambda: cores)
            for jobs in (1, cores):
                rep = monte_carlo_deficiency(g, 0.6, trials, master=11,
                                             jobs=jobs, **kw)
                assert rep == want, (kw, cores, jobs)
                assert multiprocessing.active_children() == []
    assert sizes == [2, 2, 3, 3, trials, trials] * 2


def test_monte_carlo_pools_only_large_inputs_on_several_cores(monkeypatch):
    # n * trials = 2^14 ranks swept starts a pool; one trial less, one
    # usable core, or a daemonic caller (itself a pool's worker) counts in
    # order
    g = filter_edges(interval_graph(1024, 2), 0.9, derive_stream(2, 0))
    sizes = _allow_pool(monkeypatch, 1)
    want = monte_carlo_deficiency(g, 0.9, 16, master=4)
    monkeypatch.setattr(reach, "_usable_cores", lambda: 2)
    monkeypatch.setattr(reach, "_POOL_MIN_RANK_TRIALS", 1 << 14)
    assert monte_carlo_deficiency(g, 0.9, 16, master=4) == want
    assert sizes == [2]
    monte_carlo_deficiency(g, 0.9, 15, master=4)
    assert sizes == [2]
    monkeypatch.setattr(reach, "_usable_cores", lambda: 1)
    assert monte_carlo_deficiency(g, 0.9, 16, master=4) == want
    monkeypatch.setattr(reach, "_usable_cores", lambda: 2)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert monte_carlo_deficiency(g, 0.9, 16, master=4) == want
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_monte_carlo_pool_passes_worker_errors_on(monkeypatch):
    def fail(h):
        raise ValueError(f"trial failed in process {os.getpid()}")

    sizes = _allow_pool(monkeypatch, 2)
    monkeypatch.setattr(reach, "deficiency", fail)
    with pytest.raises(ValueError, match="trial failed in process") as err:
        monte_carlo_deficiency(interval_graph(40, 5), 0.5, 4)
    assert sizes == [2]
    assert int(str(err.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


def _sampled_recount(g, psi, trials, master, s):
    """Per-trial estimates rebuilt from the same streams: filter, draw the
    sorted source sample, sum per-source misses, scale by n/s."""
    counts = []
    for t in range(trials):
        stream = derive_stream(master, t)
        h = filter_edges(g, psi, stream)
        sources = np.sort(stream.choice_without_replacement(g.n, s) + 1)
        missing = sum((g.n - int(src))
                      - int(straight_reachable(h, int(src))[src + 1:].sum())
                      for src in sources)
        counts.append(missing * g.n / s)
    return counts


def test_monte_carlo_source_sampling_runs():
    # Golden per-trial estimates recorded before the sampled path was folded
    # into the closure engine; the estimator's output must not change.
    cases = [
        (complete_graph(64), 0.3, 4, 5, 16, [380.0, 284.0, 244.0, 276.0]),
        (interval_graph(150, 10), 0.5, 3, 11, 20, [202.5, 262.5, 225.0]),
    ]
    for g, psi, trials, master, s, golden in cases:
        rep = monte_carlo_deficiency(g, psi, trials, master=master,
                                     source_sample=s)
        assert list(rep.per_trial_counts) == golden
        assert _sampled_recount(g, psi, trials, master, s) == golden


def test_monte_carlo_source_sample_of_n_is_exact():
    g = interval_graph(40, 5)
    exact = monte_carlo_deficiency(g, 0.5, 3, master=2)
    for s in (40, 41):
        assert monte_carlo_deficiency(g, 0.5, 3, master=2,
                                      source_sample=s) == exact


def test_closure_refuses_more_than_physical_memory(monkeypatch):
    # the closure holds n + 1 rows of ceil(s / 64) words over s sources:
    # 151 * 3 * 8 bytes for all 150, 151 * 2 * 8 for a sample of 100
    g = interval_graph(150, 10)
    exact = deficiency(g)
    sampled = monte_carlo_deficiency(g, 0.5, 2, master=3, source_sample=100)
    for nbytes, count, expected in (
            (151 * 3 * 8, lambda: deficiency(g), exact),
            (151 * 2 * 8, lambda: monte_carlo_deficiency(
                g, 0.5, 2, master=3, source_sample=100), sampled)):
        monkeypatch.setattr(graphs, "_physical_memory", lambda: nbytes)
        assert count() == expected
        monkeypatch.setattr(graphs, "_physical_memory", lambda: nbytes - 1)
        with pytest.raises(ValueError, match="physical memory"):
            count()


def test_pool_starts_as_many_workers_as_closures_fit_in_memory(monkeypatch):
    # every worker holds one closure: 151 * 3 * 8 bytes over all 150
    # sources, 151 * 2 * 8 over a sample of 100. Memory for two of them
    # starts two of the three usable cores' workers; one byte less counts
    # in order, where one closure still fits.
    g = interval_graph(150, 10)
    for one, kw in ((151 * 3 * 8, {}), (151 * 2 * 8, {"source_sample": 100})):
        want = monte_carlo_deficiency(g, 0.5, 3, master=3, **kw)
        with monkeypatch.context() as m:
            sizes = _allow_pool(m, 3)
            m.setattr(graphs, "_physical_memory", lambda: 2 * one)
            assert monte_carlo_deficiency(g, 0.5, 3, master=3, **kw) == want
            m.setattr(graphs, "_physical_memory", lambda: 2 * one - 1)
            assert monte_carlo_deficiency(g, 0.5, 3, master=3, **kw) == want
            assert sizes == [2]


def test_monte_carlo_validation():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        monte_carlo_deficiency(g, 0.5, 0)
    with pytest.raises(ValueError):
        monte_carlo_deficiency(g, 0.5, 3, hop_bound=0)
    with pytest.raises(ValueError):
        monte_carlo_deficiency(g, 1.5, 3)
    for s in (0, -3):
        with pytest.raises(ValueError, match="source sample"):
            monte_carlo_deficiency(g, 0.5, 3, source_sample=s)
    with pytest.raises(ValueError, match="source sampling"):
        monte_carlo_deficiency(g, 0.5, 3, hop_bound=2, source_sample=2)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            monte_carlo_deficiency(g, 0.5, 3, jobs=jobs)


def test_report_invariants_and_csv():
    rep = DeficiencyReport.from_counts(10, 0.5, None, 7, [3, 5, 4, 4])
    assert rep.mean_failed_pairs == pytest.approx(4.0)
    assert rep.stderr == pytest.approx(np.std([3, 5, 4, 4], ddof=1) / 2.0)
    assert all(0 <= c <= 45 for c in rep.per_trial_counts)
    row = rep.csv_row()
    assert row.startswith("10,0.5,inf,4,4,")
    rep2 = DeficiencyReport.from_counts(10, 0.5, 2, 7, [3])
    assert rep2.stderr == 0.0
    assert ",2," in rep2.csv_row()
