import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

_METRICS = [{"name": "trials_per_s", "better": "higher"},
            {"name": "peak_rss_mb", "better": "lower"}]


def _run(side, seed, pair, trials, rss, correct=True):
    metrics = {"trials_per_s": {"value": trials}, "peak_rss_mb": {"value": rss}}
    return {"side": side, "seed": seed, "pair": pair,
            "result": {"correct": correct, "metrics": metrics}}


def test_summary_counts_wins_in_each_metric_direction():
    runs = []
    for pair, (pt, ct, pr, cr) in enumerate(
            [(10, 12, 70, 68), (11, 11, 70, 70), (9, 8, 70, 71), (10, 15, 70, 60)], 1):
        runs += [_run("parent", 1, pair, pt, pr), _run("change", 1, pair, ct, cr)]
    cell = ab_bench.summarize(runs, _METRICS)["seed1"]
    # ties count for neither side
    assert cell["trials_per_s"]["change_wins"] == "2/4"
    assert cell["peak_rss_mb"]["change_wins"] == "2/4"
    assert cell["trials_per_s"]["parent"] == {"median": 10.0, "q1": 9.75, "q3": 10.25}
    assert cell["correct_runs"] == "8/8"


def test_summary_skips_pairs_with_a_failed_run():
    runs = [_run("parent", 7, 1, 10, 70), _run("change", 7, 1, 12, 68),
            _run("parent", 7, 2, 10, 70),
            {"side": "change", "seed": 7, "pair": 2, "result": None}]
    cell = ab_bench.summarize(runs, _METRICS)["seed7"]
    assert cell["trials_per_s"]["change_wins"] == "1/1"
    assert cell["trials_per_s"]["change"]["median"] == 12.0
    assert cell["correct_runs"] == "3/4"
