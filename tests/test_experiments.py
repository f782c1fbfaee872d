import pytest

from depspan import EXPERIMENT_NAMES, experiments
from depspan.experiments import (ExperimentConfig, check_experiment,
                                 experiment_csv, render_csv, run_experiment)
from depspan.reach import monte_carlo_deficiency
from depspan.rng import derive_seed
from depspan.spanners1d import khop_spanner


def _cfg(**kw):
    base = dict(name="clique-scaling", ns=(64,), psis=(0.5,), trials=20, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


def test_experiment_names_are_the_table_keys():
    # the package lists the names so the CLI parser needs no numpy
    assert set(experiments._EXPERIMENTS) == EXPERIMENT_NAMES


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        _cfg(name="nope")
    with pytest.raises(ValueError):
        _cfg(ns=())
    with pytest.raises(ValueError):
        _cfg(psis=(0.0,))
    with pytest.raises(ValueError):
        _cfg(trials=0)
    with pytest.raises(ValueError):
        _cfg(ks=(2,))
    for s in (0, -3):
        with pytest.raises(ValueError, match="source samples"):
            _cfg(source_samples=s)
    with pytest.raises(ValueError, match="source sampling"):
        _cfg(source_samples=8, hops=2)
    # hops and source samples are read only by clique-scaling
    for name in ("spanner-vs-clique", "sparse-failure", "hop-survival"):
        for kw in ({"hops": 2}, {"source_samples": 4}):
            with pytest.raises(ValueError, match="only to clique-scaling"):
                _cfg(name=name, **kw)
    # constants are checked for every experiment, used or not
    for name in ("clique-scaling", "spanner-vs-clique", "sparse-failure",
                 "hop-survival"):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            for const in ("c6", "c7"):
                with pytest.raises(ValueError,
                                   match=f"constant {const} must be finite"):
                    _cfg(name=name, **{const: bad})


def test_csv_is_deterministic_and_thread_invariant():
    a = experiment_csv(_cfg())
    b = experiment_csv(_cfg())
    assert a == b
    assert a != experiment_csv(_cfg(seed=10))


def test_clique_scaling_psi_one_rows_are_zero():
    cols, rows = run_experiment(_cfg(psis=(1.0,), trials=3))
    mean_i = cols.index("mean")
    assert rows[0][mean_i] == 0.0
    assert rows[0][cols.index("norm_ratio")] is None


def test_clique_scaling_two_hop_oracle_column():
    cfg = _cfg(hops=2, trials=200)
    cols, rows = run_experiment(cfg)
    oracle_i = cols.index("two_hop_expected")
    assert rows[0][oracle_i] is not None
    assert check_experiment(cfg, cols, rows) == []


def test_spanner_vs_clique_identical_under_full_radius():
    # with the radius at n-1 the spanner IS the clique, so shared per-trial
    # streams give identical per-trial counts and a zero difference
    cfg = _cfg(name="spanner-vs-clique", ns=(32,), psis=(0.4,), trials=12,
               c6=50.0)
    cols, rows = run_experiment(cfg)
    assert rows[0][cols.index("radius")] == 31
    assert rows[0][cols.index("diff_mean")] == 0.0
    assert rows[0][cols.index("spanner_mean")] == rows[0][cols.index("clique_mean")]


def test_spanner_vs_clique_clique_column_reproducible():
    cfg = _cfg(name="spanner-vs-clique", ns=(64,), psis=(0.5,), trials=10)
    cols, rows1 = run_experiment(cfg)
    _, rows2 = run_experiment(cfg)
    ci = cols.index("clique_mean")
    assert [r[ci] for r in rows1] == [r[ci] for r in rows2]


def test_sparse_failure_psi_one_is_exact_spanner():
    cfg = _cfg(name="sparse-failure", psis=(1.0,), trials=2)
    cols, rows = run_experiment(cfg)
    assert rows[0][cols.index("mean")] == 0.0
    assert check_experiment(cfg, cols, rows) == []


def test_sparse_failure_small_psi_explodes():
    cfg = _cfg(name="sparse-failure", ns=(64,), psis=(0.9,), trials=50)
    cols, rows = run_experiment(cfg)
    per_trial_positive = rows[0][cols.index("mean")]
    assert per_trial_positive > 0


def test_hop_survival_runs_and_checks():
    cfg = _cfg(name="hop-survival", ns=(512,), psis=(0.5,), ks=(4,), trials=5)
    cols, rows = run_experiment(cfg)
    row = dict(zip(cols, rows[0]))
    assert row["construction"] == "fourhop"
    assert row["short_mean"] + row["long_mean"] == pytest.approx(row["total_mean"])
    assert row["reference_bound"] == 512 / 0.25
    assert check_experiment(cfg, cols, rows) == []


def test_hop_survival_khop_row():
    cfg = _cfg(name="hop-survival", ns=(512,), psis=(0.5,), ks=(5,), trials=3)
    cols, rows = run_experiment(cfg)
    assert rows[0][cols.index("construction")] == "khop"


def test_hop_survival_bigger_budget_passes_builtin_check():
    # the k-hop construction holds its hop budget under failures
    cfg = _cfg(name="hop-survival", ns=(2048,), psis=(0.25,), ks=(6,),
               trials=10, seed=606)
    cols, rows = run_experiment(cfg)
    assert check_experiment(cfg, cols, rows) == []
    row = dict(zip(cols, rows[0]))
    assert row["long_zero_trials"] == 10


def test_hop_survival_no_failures_without_edge_loss():
    # the unfiltered construction provides its designed hop budget
    cfg = _cfg(name="hop-survival", ns=(512,), psis=(1.0,), ks=(4,), trials=2)
    cols, rows = run_experiment(cfg)
    assert rows[0][cols.index("total_mean")] == 0.0
    assert rows[0][cols.index("long_zero_trials")] == 2


_HOP_SMALL = dict(name="hop-survival", ns=(512,), ks=(4,), trials=5)


@pytest.mark.parametrize("kw,column,value,expected", [
    (dict(hops=2), "mean", 1000.0,
     "n=64 psi=0.5: mean 1000.000 vs oracle 120.000 beyond 3 stderr"),
    (dict(psis=(0.5, 0.3)), "norm_ratio", 100.0,
     "normalized ratios spread beyond 4x: 0.9747..100"),
    (dict(name="spanner-vs-clique", trials=10), "diff_mean", 1e6,
     "n=64 psi=0.5: diff 1000000.000 exceeds 3*stderr+1 = 24.058"),
    (dict(name="sparse-failure"), "exceeds_threshold", 0,
     "n=64 psi=0.5: mean 1948.8 below threshold 64.0"),
    (_HOP_SMALL, "long_zero_trials", 0,
     "n=512 psi=0.5 k=4: long-pair failures nonzero in 5/5 trials"),
    (_HOP_SMALL, "total_within_2x_trials", 0,
     "n=512 psi=0.5 k=4: total failures above 2(n/psi^2+1) in 5/5 trials"),
])
def test_check_reports_each_broken_rule(kw, column, value, expected):
    # each check reads the column it names: one broken cell, one message
    cfg = _cfg(**kw)
    cols, rows = run_experiment(cfg)
    assert check_experiment(cfg, cols, rows) == []
    rows[0][cols.index(column)] = value
    assert check_experiment(cfg, cols, rows) == [expected]


def test_hop_survival_seeds_match_monte_carlo():
    # cell 0 builds from derive_seed(cell, 0) and draws its trials from
    # derive_seed(cell, 1), exactly as monte_carlo_deficiency draws them
    cfg = _cfg(name="hop-survival", ns=(300,), psis=(0.4,), ks=(5,),
               trials=4, seed=12, c7=2.0)
    cols, rows = run_experiment(cfg)
    row = dict(zip(cols, rows[0]))
    cell = derive_seed(12, 0)
    g = khop_spanner(300, 0.4, 5, 2.0, seed=derive_seed(cell, 0))
    rep = monte_carlo_deficiency(g, 0.4, 4, hop_bound=5,
                                 master=derive_seed(cell, 1))
    assert row["seed"] == cell
    assert (row["total_mean"], row["total_stderr"]) == \
        (rep.mean_failed_pairs, rep.stderr)
    assert rep.mean_failed_pairs == 861.5
    assert rep.stderr == pytest.approx(29.4519, abs=1e-4)


def test_render_csv_formats():
    text = render_csv(["a", "b", "c"], [[1, 0.5, None], [2, 1.0 / 3.0, "x"]])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,"
    assert lines[2].startswith("2,0.333333333333,x")
