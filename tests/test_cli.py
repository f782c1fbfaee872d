import hashlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import depspan
import depspan.graphs as graphs
from depspan import __version__, euclid, experiments, spanners1d
from depspan.cli import build_parser, main
from depspan.fileio import read_edge_list, write_edge_list, write_points
from depspan.graphs import RankGraph, complete_graph, interval_graph
from depspan.reach import monte_carlo_deficiency
from depspan.spanners1d import DerivedParams


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_clique_stdout(capsys):
    code, out, _ = run(capsys, "gen-clique", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "4 6"


def test_build_fourhop_with_sidecar(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, _, _ = run(capsys, "build", "fourhop", "--n", "256", "--psi", "0.5",
                     "--seed", "3", "--out", str(out))
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 256
    sidecar = json.loads((tmp_path / "g.edges.json").read_text())
    assert sidecar["construction"] == "fourhop"
    assert {"nu", "block_size", "radius", "connector_rate", "seed"} <= set(sidecar)

    # byte-identical rebuild
    out2 = tmp_path / "g2.edges"
    run(capsys, "build", "fourhop", "--n", "256", "--psi", "0.5",
        "--seed", "3", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_rank_builds_and_hop_survival_match_golden_hashes(tmp_path, capsys):
    # SHA-256 of the sidecars and the CSV, whose parameter values must be the
    # ones the graph was built with
    flags = ["--n", "700", "--psi", "0.4", "--c7", "3", "--seed", "9"]
    # 600 points over 4 orderings: density 0.92, not K_n
    points = tmp_path / "points.txt"
    write_points(np.random.default_rng(0).random((600, 2)), points)
    for argv, expected in (
            (["build", "fourhop", *flags],
             "0f2ae59a9bd89d92565c43500c2f4aeba8c489753ca4a451606a258b7d12b612"),
            (["build", "khop", *flags, "--k", "5"],
             "05a6d48f09783c4e1b78aed0a2efdf3239fb163361fcb59be3bb38d2b331f42d"),
            (["build", "interval", "--n", "700", "--psi", "0.4", "--c6", "3"],
             "befd878953dd4a61e6c4e4f57f6b9fa0ce096281ecaa4247ec473073ac02d0be"),
            (["build", "euclid", "--points", str(points), "--eps", "0.25",
              "--psi", "0.4", "--c7", "3", "--seed", "9", "--max-orderings", "4"],
             "6d7fc1cf75ced33768cac60887b8f8d894223a63509a23d185e37f4121946fe0")):
        out = tmp_path / f"{argv[1]}.edges"
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        sidecar = (tmp_path / f"{argv[1]}.edges.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == expected, argv[1]
    csv = tmp_path / "hop.csv"
    code, _, _ = run(capsys, "experiment", "hop-survival", "--n", "300,500",
                     "--psi", "0.5,0.3", "--k", "3,4,6", "--trials", "3",
                     "--seed", "4", "--out", str(csv))
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
        "d8bcb5934555009447105470e9a856c1a63acf2f9ae8141cfc2c282da1892b62"


def test_filter_then_deficiency_pipeline(tmp_path, capsys):
    g = tmp_path / "k.edges"
    run(capsys, "gen-clique", "--n", "64", "--out", str(g))
    h = tmp_path / "h.edges"
    code, _, _ = run(capsys, "filter", "--graph", str(g), "--psi", "0.5",
                     "--seed", "1", "--out", str(h))
    assert code == 0
    code, out, _ = run(capsys, "deficiency", "--graph", str(h))
    assert code == 0
    assert int(out.strip()) >= 0

    code, out, _ = run(capsys, "deficiency", "--graph", str(g), "--psi", "0.5",
                       "--trials", "5", "--seed", "2", "--hops", "2")
    assert code == 0
    assert out.splitlines()[0] == "n,psi,hop_bound,trials,mean,stderr,seed"

    # --jobs is accepted and changes no row: the rows equal the in-process
    # report's, in every Monte Carlo mode
    k64 = complete_graph(64)
    for extra, kw in (([], {}), (["--hops", "4"], {"hop_bound": 4}),
                      (["--source-samples", "8"], {"source_sample": 8})):
        rep = monte_carlo_deficiency(k64, 0.5, 6, master=7, **kw)
        want = [rep.CSV_HEADER, rep.csv_row()]
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "deficiency", "--graph", str(g),
                               "--psi", "0.5", "--trials", "6", "--seed", "7",
                               "--jobs", jobs, *extra)
            assert code == 0 and out.splitlines() == want, (extra, jobs)

    # filter --stream-index t then deficiency is Monte Carlo trial t
    base = interval_graph(60, 6)
    write_edge_list(base, g)
    unbounded = monte_carlo_deficiency(base, 0.6, 4, master=91).per_trial_counts
    bounded = monte_carlo_deficiency(base, 0.6, 4, hop_bound=4,
                                     master=91).per_trial_counts
    for t in (0, 3):
        code, _, _ = run(capsys, "filter", "--graph", str(g), "--psi", "0.6",
                         "--seed", "91", "--stream-index", str(t),
                         "--out", str(h))
        assert code == 0
        code, out, _ = run(capsys, "deficiency", "--graph", str(h))
        assert code == 0 and int(out) == unbounded[t], t
        code, out, _ = run(capsys, "deficiency", "--graph", str(h), "--hops", "4")
        assert code == 0 and int(out) == bounded[t], t


def test_build_defaults_read_the_package_constants():
    # c6, c7 and the ordering cap have one home, depspan/__init__.py; `is`
    # tells the constant from an equal literal written elsewhere
    c6, c7 = depspan.DEFAULT_C6, depspan.DEFAULT_C7
    cap = depspan.DEFAULT_MAX_ORDERINGS

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default
    for fn in (spanners1d.interval_radius,
               spanners1d.dependable_interval_spanner):
        assert default(fn, "c6") is c6, fn
    for fn in (spanners1d.biclique_block_spanner, spanners1d.four_hop_spanner,
               spanners1d.khop_spanner, euclid.euclidean_dependable_spanner):
        assert default(fn, "c7") is c7, fn
    assert default(euclid.euclidean_dependable_spanner, "max_orderings") is cap
    assert euclid.DEFAULT_MAX_ORDERINGS is cap
    cfg = experiments.ExperimentConfig("clique-scaling", ns=(8,), psis=(0.5,))
    assert cfg.c6 is c6 and cfg.c7 is c7
    parse = build_parser().parse_args
    args = parse(["build", "interval", "--n", "8", "--psi", "0.5"])
    assert args.c6 is c6
    for construction, extra in (("fourhop", []), ("khop", ["--k", "5"])):
        args = parse(["build", construction, "--n", "8", "--psi", "0.5", *extra])
        assert args.c7 is c7, construction
    args = parse(["build", "euclid", "--points", "p", "--eps", "0.25",
                  "--psi", "0.5"])
    assert args.c7 is c7 and args.max_orderings is cap
    args = parse(["experiment", "clique-scaling", "--n", "8", "--psi", "0.5"])
    assert args.c6 is c6 and args.c7 is c7


def test_deficiency_refuses_more_than_physical_memory(tmp_path, capsys,
                                                      monkeypatch):
    # the closure over all 64 sources is 65 rows of one 8-byte word
    g = tmp_path / "k.edges"
    write_edge_list(interval_graph(64, 3), g)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 65 * 8)
    assert run(capsys, "deficiency", "--graph", str(g)) == (0, "0\n", "")
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 65 * 8 - 1)
    code, out, err = run(capsys, "deficiency", "--graph", str(g))
    assert code == 2 and "physical memory" in err and not out


@pytest.mark.filterwarnings("ignore:survival probability .* below 1/n")
def test_builds_past_float_range_are_the_clique(capsys):
    # tiny psi or a huge constant overflow the block size and radius to inf;
    # every such build is K_n, and hop-survival's reference n/psi^2 is inf
    clique = run(capsys, "gen-clique", "--n", "100")[1]
    for argv in (["fourhop", "--psi", "1e-300"],
                 ["interval", "--psi", "1e-320"],
                 ["fourhop", "--psi", "0.5", "--c7", "1e308"],
                 ["khop", "--psi", "1e-300", "--k", "3"]):
        assert run(capsys, "build", *argv, "--n", "100") == (0, clique, ""), argv
    code, out, _ = run(capsys, "experiment", "hop-survival", "--n", "64",
                       "--psi", "1e-300", "--trials", "1")
    assert code == 0 and out.splitlines()[1].split(",")[-3] == "inf"


def test_validation_errors_exit_2(tmp_path, capsys):
    g = tmp_path / "k.edges"
    run(capsys, "gen-clique", "--n", "8", "--out", str(g))
    code, _, err = run(capsys, "filter", "--graph", str(g), "--psi", "1.5",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "deficiency", "--graph", str(tmp_path / "nope"))
    assert code == 2
    big = tmp_path / "big.edges"
    big.write_text("3000000000 1\n1 3000000000\n")
    code, _, err = run(capsys, "filter", "--graph", str(big), "--psi", "1",
                       "--out", str(tmp_path / "h"))
    assert code == 2 and "line 1: vertex count" in err
    assert not (tmp_path / "h").exists()
    for bad in (["--source-samples", "0"], ["--source-samples", "-3"],
                ["--source-samples", "4", "--hops", "2"], ["--jobs", "0"],
                ["--jobs", "-1"]):
        code, _, err = run(capsys, "deficiency", "--graph", str(g),
                           "--psi", "0.5", "--trials", "2", *bad)
        assert code == 2 and "error" in err, bad
    # without --psi the count is exact, but bad values are still rejected
    for bad in (["--source-samples", "4"], ["--jobs", "0"], ["--trials", "0"]):
        code, out, err = run(capsys, "deficiency", "--graph", str(g), *bad)
        assert code == 2 and "error" in err and not out, bad
    code, _, err = run(capsys, "experiment", "sparse-failure", "--n", "16",
                       "--psi", "0.5", "--trials", "2", "--source-samples", "4")
    assert code == 2 and "clique-scaling" in err
    pfile = tmp_path / "pts.txt"
    write_points(np.random.default_rng(4).random((8, 2)), pfile)
    code, out, err = run(capsys, "build", "euclid", "--points", str(pfile),
                         "--eps", "0.25", "--psi", "0.5", "--max-orderings", "0")
    assert code == 2 and "max_orderings" in err and not out
    gfile = tmp_path / "e.edges"
    run(capsys, "build", "euclid", "--points", str(pfile), "--eps", "0.25",
        "--psi", "0.5", "--max-orderings", "1", "--out", str(gfile))
    for flag, bad, message in (("--eps", "nan", "eps"), ("--eps", "inf", "eps"),
                               ("--eps", "-0.5", "eps"),
                               ("--hops", "0", "hop bound must be >= 1")):
        code, out, err = run(capsys, "verify-stretch", "--graph", str(gfile),
                             "--points", str(pfile), "--eps", "0.25",
                             "--hops", "4", flag, bad, "--check")
        assert code == 2 and message in err and not out, (flag, bad)
    for bad in (["--pairs", "0"], ["--pairs", "-3", "--check"], ["--n", "1"]):
        code, out, err = run(capsys, "lso-check", "--d", "2", "--eps", "0.5", *bad)
        assert code == 2 and f"{bad[0]} must be" in err and not out, bad
    for kind, flag in (("fourhop", "--c7"), ("interval", "--c6")):
        for bad in ("inf", "nan"):
            code, out, err = run(capsys, "build", kind, "--n", "64", "--psi",
                                 "0.5", flag, bad)
            assert code == 2 and f"constant {flag[2:]} must be finite" in err \
                and not out, (kind, bad)
    # constants are checked before any parameter is derived from them
    for name, flag, bad in (("clique-scaling", "--c7", "-1"),
                            ("sparse-failure", "--c6", "0"),
                            ("hop-survival", "--c7", "inf"),
                            ("hop-survival", "--c7", "nan")):
        code, out, err = run(capsys, "experiment", name, "--n", "64", "--psi",
                             "0.5", "--trials", "1", flag, bad)
        assert code == 2 and f"constant {flag[2:]} must be finite" in err \
            and not out, (name, bad)
    # ordering families too large for int64 ids
    p7 = tmp_path / "pts7.txt"
    write_points(np.random.default_rng(4).random((8, 7)), p7)
    code, out, err = run(capsys, "build", "euclid", "--points", str(p7),
                         "--eps", "0.25", "--psi", "0.5")
    assert code == 2 and "d=7 has" in err and not out
    code, out, err = run(capsys, "lso-check", "--d", "13", "--eps", "0.5")
    assert code == 2 and "d=13 has" in err and not out


def test_build_euclid_and_verify_stretch(tmp_path, capsys):
    pts = np.random.default_rng(4).random((48, 2))
    pfile = tmp_path / "pts.txt"
    write_points(pts, pfile)
    gfile = tmp_path / "e.edges"
    code, _, _ = run(capsys, "build", "euclid", "--points", str(pfile),
                     "--eps", "0.25", "--psi", "0.5", "--seed", "5",
                     "--max-orderings", "8", "--out", str(gfile))
    assert code == 0
    sidecar = json.loads((tmp_path / "e.edges.json").read_text())
    assert sidecar["mode"] == "four-hop" and sidecar["hop_budget"] == 4
    assert sidecar["family_size"] >= sidecar["orderings_used"]
    # the sidecar carries the derived parameters the build used
    dp = asdict(DerivedParams.for_four_hop(48, 0.5, 4.0))
    assert {key: sidecar[key] for key in dp} == dp
    # the build has one construction and no --mode option; argparse exits 2
    for mode in ("log-hop", "four-hop"):
        with pytest.raises(SystemExit) as exc:
            main(["build", "euclid", "--points", str(pfile), "--eps", "0.25",
                  "--psi", "0.5", "--mode", mode])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err

    code, out, _ = run(capsys, "verify-stretch", "--graph", str(gfile),
                       "--points", str(pfile), "--eps", "0.25", "--hops", "4",
                       "--check")
    assert code in (0, 3)
    assert "stretch_failures=" in out
    # the hop bound is clamped to n - 1 before anything is allocated
    code, out, _ = run(capsys, "verify-stretch", "--graph", str(gfile),
                       "--points", str(pfile), "--eps", "0.25",
                       "--hops", "1000000")
    assert code == 0 and "stretch_failures=" in out


def test_verify_stretch_rejects_weights_that_are_not_distances(tmp_path, capsys):
    pts = np.random.default_rng(6).random((40, 2))
    pfile = tmp_path / "pts.txt"
    write_points(pts, pfile)
    # a star whose weights all say 1e-6: trusted, every pair would pass
    star = tmp_path / "star.edges"
    write_edge_list(RankGraph.from_edges(40, [(1, v) for v in range(2, 41)],
                                         weights=[1e-6] * 39), star)
    code, out, err = run(capsys, "verify-stretch", "--graph", str(star),
                         "--points", str(pfile), "--eps", "0.25", "--hops",
                         "4", "--check")
    assert code == 2 and "edge (1, 2)" in err and not out
    # a graph built from other points of the same size
    other = tmp_path / "other.txt"
    write_points(np.random.default_rng(7).random((40, 2)), other)
    gfile = tmp_path / "e.edges"
    assert run(capsys, "build", "euclid", "--points", str(other), "--eps",
               "0.25", "--psi", "0.5", "--max-orderings", "2",
               "--out", str(gfile))[0] == 0
    code, out, err = run(capsys, "verify-stretch", "--graph", str(gfile),
                         "--points", str(pfile), "--eps", "0.25", "--hops",
                         "4", "--check")
    assert code == 2 and "edge (" in err and not out
    code, out, _ = run(capsys, "verify-stretch", "--graph", str(gfile),
                       "--points", str(other), "--eps", "0.25", "--hops", "4")
    assert code == 0 and "stretch_failures=" in out


def test_lso_check_quick(capsys):
    code, out, _ = run(capsys, "lso-check", "--d", "1", "--eps", "0.5",
                       "--n", "64", "--pairs", "50", "--check")
    assert code == 0
    assert "pass_rate=100.0000%" in out


def test_experiment_csv_and_jobs_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["experiment", "sparse-failure", "--n", "64", "--psi", "0.5",
            "--trials", "10", "--seed", "3"]
    assert run(capsys, *base, "--out", str(a))[0] == 0
    assert run(capsys, *base, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    # experiments have no --jobs option; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main([*base, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_experiment_check_failure_exits_3(capsys):
    code, out, err = run(capsys, "experiment", "sparse-failure", "--n", "64",
                         "--psi", "0.999", "--trials", "5", "--seed", "3",
                         "--check")
    assert code == 3
    assert out.startswith("schema_version,")
    assert err == ("check failed: n=64 psi=0.999: mean 0.0 below threshold "
                   "64.0\n")


def test_experiment_check_flag(capsys):
    code, out, err = run(capsys, "experiment", "clique-scaling", "--n", "64",
                         "--psi", "0.5", "--trials", "50", "--seed", "1",
                         "--hops", "2", "--check")
    assert code == 0, err
    assert out.startswith("schema_version,")


def _imported(*argv):
    # the modules a CLI child imports, from python's -X importtime report
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "depspan.cli", *argv], capture_output=True,
                          text=True, env=env, check=True)
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return done.stdout, names


def test_version_and_help_import_no_numpy():
    for argv in (["--version"], ["--help"], ["experiment", "--help"],
                 ["build", "euclid", "--help"]):
        out, names = _imported(*argv)
        if argv == ["--version"]:
            assert out == f"{__version__}\n"
        else:
            assert out.startswith("usage: depspan"), argv
        assert not {m for m in names if m.split(".")[0] == "numpy"}, argv
        assert not {m for m in names if m.startswith("depspan.")}, argv


def test_commands_import_only_their_modules(tmp_path):
    _, names = _imported("gen-clique", "--n", "5", "--out",
                         str(tmp_path / "k.edges"))
    assert "numpy" in names
    assert {m for m in names if m.startswith("depspan.")} == \
        {"depspan.fileio", "depspan.graphs", "depspan.rng"}
