"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Every tolerance is pinned here; seeds are fixed so the
whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import all_edge_subsets, brute_deficiency, dense_hop_distances
from depspan import (GeometricGraph, PointSet, RankGraph,
                     bipartite_connector, build_lso_family, complete_graph,
                     count_stretch_failures, deficiency, derive_seed,
                     derive_stream, expected_two_hop_deficiency,
                     extract_bounded_path, family_size_bound, filter_edges,
                     four_hop_spanner, khop_deficiency, locality_witness,
                     monte_carlo_deficiency, euclidean_dependable_spanner,
                     stretch_failure_row, two_hop_hierarchy)
from depspan.euclid import _arcs, _hop_rounds
from depspan.experiments import (ExperimentConfig, check_experiment,
                                 experiment_csv, run_experiment)


def _report(cid: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_c01_two_hop_oracle_agreement():
    # Monte Carlo 2-hop deficiency of K_200 vs the closed form, 2000 trials,
    # within 3 stderr; closed form stays below n/psi^2; under one minute.
    t0 = time.perf_counter()
    g = complete_graph(200)
    details = []
    ok = True
    for psi in (0.3, 0.5):
        rep = monte_carlo_deficiency(g, psi, 2000, hop_bound=2, master=20260808)
        oracle = expected_two_hop_deficiency(200, psi)
        dev = abs(rep.mean_failed_pairs - oracle)
        ok &= dev <= 3.0 * rep.stderr
        ok &= oracle <= 200 / psi ** 2
        details.append(f"psi={psi}: |{rep.mean_failed_pairs:.2f}-{oracle:.2f}|"
                       f"={dev:.2f} vs 3se={3 * rep.stderr:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    _report("C01", ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (<=60)")


def test_c02_brute_force_equivalence():
    # every edge subset of K_n for n <= 5: engine counts equal enumeration
    # of all increasing vertex sequences, zero tolerance
    checked = 0
    for n in (2, 3, 4, 5):
        for edges in all_edge_subsets(n):
            g = RankGraph.from_edges(n, sorted(edges))
            assert deficiency(g) == brute_deficiency(n, edges)
            for k in (1, 2, 3, 4):
                assert khop_deficiency(g, k) == brute_deficiency(n, edges, k)
            checked += 1
    _report("C02", True, f"{checked} graphs, hop bounds 1..4, exact match")


def test_c03_clique_scaling_theta_law():
    # lambda(n, psi) / ((n/psi) ln(1/psi)) flat within a factor of 4 across
    # psi in {1/2, 1/4, 1/8} with n = 512/psi; under ten minutes. Driven
    # through the clique-scaling experiment, one cell per psi so n tracks psi.
    t0 = time.perf_counter()
    ratios = {}
    for psi, trials in ((0.5, 40), (0.25, 40), (0.125, 24)):
        cfg = ExperimentConfig(name="clique-scaling", ns=(int(512 / psi),),
                               psis=(psi,), trials=trials, seed=31337)
        columns, rows = run_experiment(cfg)
        ratios[psi] = rows[0][columns.index("norm_ratio")]
    spread = max(ratios.values()) / min(ratios.values())
    elapsed = time.perf_counter() - t0
    ok = spread <= 4.0 and elapsed <= 600.0
    detail = ", ".join(f"psi={p}: {r:.3f}" for p, r in ratios.items())
    _report("C03", ok, f"ratios {detail}; spread {spread:.2f} (<=4); "
                       f"runtime {elapsed:.0f}s (<=600)")


def test_c04_interval_spanner_near_optimal():
    # 500-trial runs at n=1024, psi=0.5, c6=4, one per graph (same streams,
    # failures not coupled edge by edge): mean deficiency difference
    # (spanner - clique) within 3*combined stderr + 1
    cfg = ExperimentConfig(name="spanner-vs-clique", ns=(1024,), psis=(0.5,),
                           trials=500, seed=44001, c6=4.0)
    columns, rows = run_experiment(cfg)
    row = dict(zip(columns, rows[0]))
    limit = 3.0 * row["combined_stderr"] + 1.0
    ok = row["diff_mean"] <= limit and not check_experiment(cfg, columns, rows)
    _report("C04", ok,
            f"spanner {row['spanner_mean']:.2f} vs clique "
            f"{row['clique_mean']:.2f}; diff {row['diff_mean']:.2f} <= {limit:.2f}")


def test_c05_sparse_graph_lower_bound():
    # the path graph at n=256, psi=0.5 fails at least n^(3/2)/8 = 512 pairs
    cfg = ExperimentConfig(name="sparse-failure", ns=(256,), psis=(0.5,),
                           trials=200, seed=55002)
    columns, rows = run_experiment(cfg)
    row = dict(zip(columns, rows[0]))
    ok = row["mean"] >= row["threshold"] and not check_experiment(cfg, columns, rows)
    _report("C05", ok, f"mean {row['mean']:.0f} >= {row['threshold']:.0f}")


def test_c06_two_hop_hierarchy():
    # every pair gets a straight path of <= 2 hops (checked against the raw
    # edge set, not the reachability engine); edges <= n ceil(log2 n)
    ok = True
    details = []
    for n in (7, 64, 256):
        edges = {tuple(e) for e in two_hop_hierarchy(1, n)}
        two_hop_ok = all(
            (i, j) in edges or any((i, t) in edges and (t, j) in edges
                                   for t in range(i + 1, j))
            for i in range(1, n + 1) for j in range(i + 1, n + 1))
        cap = n * math.ceil(math.log2(n))
        ok &= two_hop_ok and len(edges) <= cap
        details.append(f"n={n}: {len(edges)} edges (cap {cap}), "
                       f"2-hop {'ok' if two_hop_ok else 'BROKEN'}")
    _report("C06", ok, "; ".join(details))


def test_c07_four_hop_survivability():
    # n=4096, psi=0.5, c7=4, 20 trials: long pairs (beyond the interval
    # radius) keep <=4-hop straight paths in >=19 trials; total <=4-hop
    # failures within 2(n/psi^2 + 1) in >=18 trials
    cfg = ExperimentConfig(name="hop-survival", ns=(4096,), psis=(0.5,),
                           ks=(4,), trials=20, seed=77003, c7=4.0)
    columns, rows = run_experiment(cfg)
    row = dict(zip(columns, rows[0]))
    bound = 2.0 * (row["reference_bound"] + 1.0)
    ok = (row["long_zero_trials"] >= 19 and row["total_within_2x_trials"] >= 18
          and not check_experiment(cfg, columns, rows))
    _report("C07", ok,
            f"long-pair zero in {row['long_zero_trials']}/20 (need 19); "
            f"total within {bound:.0f} in {row['total_within_2x_trials']}/20 "
            f"(need 18)")


def test_c08_connector_expansion():
    # a connector between two size-200 blocks, filtered at psi=0.5, clears
    # the three reach thresholds in >=95 of 100 trials each. c7=6 here: the
    # criterion does not pin c7, and with c7=4 the singleton stage's mean
    # reach c7^2 nu ~ 20 sits below the psi M/4 = 25 threshold by design.
    M, psi, c7 = 200, 0.5, 6.0
    nu = psi ** (-1.0 / 3.0)
    tau = min(1.0, c7 * c7 * nu / (psi * M))
    x_block, y_block = (1, M), (M + 1, 2 * M)
    stages = [  # (|S|, required reach)
        (1, psi * M / 4.0),
        (math.ceil(psi * M / 2.0), psi ** (2.0 / 3.0) * M / 4.0),
        (math.ceil(psi ** (2.0 / 3.0) * M), psi ** (1.0 / 3.0) * M / 4.0),
    ]
    hits = [0, 0, 0]
    trials = 100
    for t in range(trials):
        conn = bipartite_connector(x_block, y_block, tau,
                                   derive_stream(88001, 2 * t))
        g = RankGraph(2 * M, conn[:, 0], conn[:, 1])
        h = filter_edges(g, psi, derive_stream(88001, 2 * t + 1))
        for idx, (s_size, threshold) in enumerate(stages):
            mask = h.edge_i <= s_size
            reach = np.unique(h.edge_j[mask]).size
            hits[idx] += int(reach >= threshold)
    ok = all(h >= 95 for h in hits)
    _report("C08", ok,
            f"tau={tau:.3f}; stage passes {hits} of {trials} (need >=95); "
            f"thresholds {[f'{thr:.1f}' for _, thr in stages]}")


def test_c09_edge_count_scaling():
    # edges/(n ln n) at psi=0.5 varies by at most 2x over n in {2^10, 2^12,
    # 2^14}; the psi dependence is fitted freely and normalized under both
    # candidate exponents (4/3 and 3/2), reported but asserted against
    # neither (desk-scale radii saturate toward the complete graph, which
    # suppresses the measured exponent)
    ratios = {}
    for n in (2 ** 10, 2 ** 12, 2 ** 14):
        g = four_hop_spanner(n, 0.5, 4.0, seed=99001)
        ratios[n] = g.m / (n * math.log(n))
    spread = max(ratios.values()) / min(ratios.values())

    psis = (0.5, 0.25, 0.125)
    totals = [four_hop_spanner(8192, psi, 4.0, seed=99002).m for psi in psis]
    x = np.log([1.0 / p for p in psis])
    free_exp = float(np.polyfit(x, np.log(totals), 1)[0])

    def law_spread(exponent):
        normalized = [m * p ** exponent for m, p in zip(totals, psis)]
        return max(normalized) / min(normalized)

    _report("C09", spread <= 2.0,
            f"edges/(n ln n) spread {spread:.2f} (<=2); psi fit at n=8192: "
            f"free exponent {free_exp:.2f}, normalized spread under 4/3: "
            f"{law_spread(4.0 / 3.0):.2f}, under 3/2: {law_spread(1.5):.2f} "
            f"(reported, not asserted)")


def test_c10_lso_locality_gate():
    # d in {1,2}, eps in {0.5, 0.25}: 10^4 sampled pairs on 512 uniform
    # points all get a locality witness; family size within the documented
    # bound
    ok = True
    details = []
    for d in (1, 2):
        for eps in (0.5, 0.25):
            fam = build_lso_family(eps, d)
            coords = derive_stream(101010, d).uniforms(512 * d).reshape(512, d)
            pair_stream = derive_stream(101011, d * 10 + int(eps * 100))
            hits = 0
            pairs = 10_000
            for _ in range(pairs):
                i, j = pair_stream.choice_without_replacement(512, 2)
                if locality_witness(fam, coords, coords[i], coords[j]) is not None:
                    hits += 1
            size_ok = len(fam) <= family_size_bound(eps, d)
            ok &= (hits == pairs) and size_ok
            details.append(f"d={d},eps={eps}: {hits}/{pairs}"
                           f"{'' if size_ok else ' SIZE-BOUND-BROKEN'}")
    _report("C10", ok, "; ".join(details))


def _uniform_points(n: int, d: int, seed: int) -> PointSet:
    coords = derive_stream(seed, 0).uniforms(n * d).reshape(n, d)
    return PointSet(coords * (1.0 - 2.0 ** -16))


def test_c11_euclidean_unfiltered_guarantee():
    # n=256, d=2, eps=0.25, four-hop mode, no failures: zero pairs lack a
    # <=4-hop path within (1+eps) stretch; build is deterministic
    t0 = time.perf_counter()
    pts = _uniform_points(256, 2, 110001)
    h1 = euclidean_dependable_spanner(pts, 0.25, 1.0, seed=110002)
    h2 = euclidean_dependable_spanner(pts, 0.25, 1.0, seed=110002)
    failures = count_stretch_failures(h1, pts, 0.25, 4)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and h1.graph == h2.graph
    _report("C11", ok, f"stretch failures {failures} (need 0); "
                       f"deterministic rebuild {h1.graph == h2.graph}; "
                       f"runtime {elapsed:.1f}s")


def test_c12_euclidean_filtered_behavior():
    # n=512, d=2, eps=0.25, psi=0.5, 10 trials: failed fraction < 25%, and
    # every surviving pair's extracted <=4-hop path re-sums to its reported
    # length and stays within (1+eps)|uv| (1e-9 relative tolerance)
    t0 = time.perf_counter()
    eps, psi, n = 0.25, 0.5, 512
    pts = _uniform_points(n, 2, 120001)
    built = euclidean_dependable_spanner(pts, eps, psi, seed=120002)
    worst_frac = 0.0
    violations = 0
    for t in range(10):
        h = GeometricGraph(filter_edges(built.graph, psi,
                                        derive_stream(120003, t)), pts)
        edges = _arcs(h.graph)
        tail, w = edges[:2]
        failed = 0
        for u in range(1, n):
            d, preds = _hop_rounds(n, edges, u, 4, paths=True)
            dist = np.linalg.norm(pts.coords[u:] - pts.coords[u - 1], axis=1)
            bad = d[u + 1:] > (1.0 + eps) * dist
            failed += int(bad.sum())
            # walk each surviving pair's path back through the predecessor
            # arcs, summing its edge weights from the far end
            good = np.flatnonzero(~bad)
            targets = good + u + 1
            cur, total = targets.copy(), np.zeros(good.size)
            for pred in reversed(preds):
                arc = pred[cur]
                step = arc >= 0
                total[step] += w[arc[step]]
                cur[step] = tail[arc[step]]
            dd = d[targets]
            violations += int((cur != u).sum())
            violations += int((np.abs(total - dd) > 1e-9 * dd).sum())
            violations += int((total > (1.0 + eps) * dist[good]
                               * (1 + 1e-9)).sum())
        worst_frac = max(worst_frac, failed / math.comb(n, 2))
    elapsed = time.perf_counter() - t0
    ok = worst_frac < 0.25 and violations == 0
    _report("C12", ok, f"worst failed fraction {worst_frac:.4%} (<25%); "
                       f"path soundness violations {violations} (need 0); "
                       f"runtime {elapsed:.1f}s")


def test_c12b_single_pair_extraction_matches():
    # spot check the per-pair extractor against a dense min-plus reference
    # that shares no code with the library's engine
    pts = _uniform_points(96, 2, 121001)
    built = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=121002,
                                         max_orderings=16)
    h = GeometricGraph(filter_edges(built.graph, 0.5, derive_stream(121003, 0)),
                       pts)
    wmap = h.graph.edge_weight_map()
    d4 = dense_hop_distances(h.graph, 4)
    for u, v in ((1, 50), (3, 77), (20, 90)):
        expected = float(d4[u - 1, v - 1])
        if not math.isfinite(expected):
            continue
        path = extract_bounded_path(h, u, v, 4)
        total = sum(wmap[(min(a, b), max(a, b))]
                    for a, b in zip(path, path[1:]))
        assert total == pytest.approx(expected, rel=1e-9)
    _report("C12b", True, "per-pair extraction consistent with dense reference")


def test_c14_euclidean_ordering_beats_random_permutation():
    # n=4096, d=2, eps=0.25, psi=0.5, one ordering: the filtered LSO union
    # fails <= 1% of sampled (source, target) pairs at <=4 hops and
    # (1+eps) stretch, and at most a tenth of what the same rank build
    # fails when mapped through a random permutation instead of the ordering
    t0 = time.perf_counter()
    n, eps, psi, seed = 4096, 0.25, 0.5, 140002
    pts = _uniform_points(n, 2, 140001)
    sample = derive_stream(140003, 0).choice_without_replacement(n, 128)
    sources = np.sort(sample) + 1
    lso = euclidean_dependable_spanner(pts, eps, psi, seed=seed, max_orderings=1)
    ranks = four_hop_spanner(n, psi, seed=derive_seed(seed, 0))
    perm = derive_stream(140004, 0).choice_without_replacement(n, n) + 1
    ci, cj = perm[ranks.edge_i - 1], perm[ranks.edge_j - 1]
    control = RankGraph(n, ci, cj, np.linalg.norm(pts.coords[ci - 1]
                                                  - pts.coords[cj - 1], axis=1))
    fracs = {}
    for name, g in (("lso", lso.graph), ("control", control)):
        h = GeometricGraph(filter_edges(g, psi, derive_stream(140005, 0)), pts)
        failed = sum(int(stretch_failure_row(h, u, eps, 4).sum())
                     for u in sources.tolist())
        fracs[name] = failed / (sources.size * (n - 1))
    elapsed = time.perf_counter() - t0
    ok = (fracs["lso"] <= 0.01 and fracs["lso"] <= fracs["control"] / 10
          and elapsed <= 60.0)
    pairs = math.comb(n, 2)
    _report("C14", ok, f"density LSO {lso.graph.m / pairs:.3f}, random "
                       f"permutation {control.m / pairs:.3f}; failed fraction "
                       f"LSO {fracs['lso']:.4%} (<=1%) vs random permutation "
                       f"{fracs['control']:.4%} (need >= 10x); "
                       f"runtime {elapsed:.1f}s (<=60)")


def test_c16_euclidean_sparse_unfiltered_guarantee():
    # n=4096, d=2, eps=0.25, psi=1 (no failures), default c7, two orderings:
    # a build of density < 0.25 (so not K_n) leaves at most 0.01% of sampled
    # (source, target) pairs without a <=4-hop (1+eps)-path; the same build
    # at c7=1 with one ordering must fail more than 1%, so the sample can
    # see failures
    t0 = time.perf_counter()
    n, eps, seed = 4096, 0.25, 160002
    pts = _uniform_points(n, 2, 160001)
    sample = derive_stream(160003, 0).choice_without_replacement(n, 32)
    sources = np.sort(sample) + 1
    density, frac = {}, {}
    for name, c7, orderings in (("default", 4.0, 2), ("control", 1.0, 1)):
        h = euclidean_dependable_spanner(pts, eps, 1.0, c7, seed=seed,
                                         max_orderings=orderings)
        failed = sum(int(stretch_failure_row(h, u, eps, 4).sum())
                     for u in sources.tolist())
        density[name] = h.info["density"]
        frac[name] = failed / (sources.size * (n - 1))
    elapsed = time.perf_counter() - t0
    ok = (density["default"] < 0.25 and frac["default"] <= 1e-4
          and frac["control"] > 0.01 and elapsed <= 20.0)
    _report("C16", ok, f"density c7=4 x2 orderings {density['default']:.3f} "
                       f"(<0.25), c7=1 x1 {density['control']:.3f}; failed "
                       f"fraction {frac['default']:.4%} (<=0.01%) vs control "
                       f"{frac['control']:.4%} (need >1%); "
                       f"runtime {elapsed:.1f}s (<=20)")


def test_c13_reproducibility():
    # identical seeds give byte-identical artifacts: experiment CSVs, rank
    # constructions, Euclidean builds, and Monte Carlo reports for any jobs
    ok = True
    details = []

    cfg1 = ExperimentConfig(name="hop-survival", ns=(512,), psis=(0.5,),
                            ks=(4,), trials=6, seed=1300)
    cfg2 = ExperimentConfig(name="hop-survival", ns=(512,), psis=(0.5,),
                            ks=(4,), trials=6, seed=1300)
    same_csv = experiment_csv(cfg1) == experiment_csv(cfg2)
    ok &= same_csv
    details.append(f"experiment CSV identical: {same_csv}")

    a = four_hop_spanner(2048, 0.5, 4.0, seed=1301)
    b = four_hop_spanner(2048, 0.5, 4.0, seed=1301)
    ok &= a == b
    details.append(f"rank build identical: {a == b}")

    pts = _uniform_points(128, 2, 130002)
    e1 = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=1302,
                                      max_orderings=32)
    e2 = euclidean_dependable_spanner(pts, 0.25, 0.5, seed=1302,
                                      max_orderings=32)
    ok &= e1.graph == e2.graph and e1.info == e2.info
    details.append(f"euclidean build identical: {e1.graph == e2.graph}")

    mc1 = monte_carlo_deficiency(complete_graph(128), 0.5, 12, master=1303,
                                 jobs=1)
    mc2 = monte_carlo_deficiency(complete_graph(128), 0.5, 12, master=1303,
                                 jobs=3)
    ok &= mc1 == mc2
    details.append(f"Monte Carlo jobs-invariant: {mc1 == mc2}")

    _report("C13", ok, "; ".join(details))
