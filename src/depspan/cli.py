"""Command-line interface.

Exit codes: 0 on success, 2 on validation errors (bad flags, malformed
files), 3 when --check is passed and an acceptance threshold is violated.
"""

from __future__ import annotations

import argparse
import json
import sys

# each command imports the modules it runs, so --version and --help load no
# numpy and a command loads only its own modules
from . import (DEFAULT_C6, DEFAULT_C7, DEFAULT_MAX_ORDERINGS,
               EXPERIMENT_NAMES, __version__)

VALIDATION_ERROR = 2
CHECK_FAILED = 3


def _write_graph(g, out: str | None) -> None:
    from .fileio import _edge_list_chunks, write_edge_list
    if out is None:
        sys.stdout.writelines(_edge_list_chunks(g))
    else:
        write_edge_list(g, out)


def _write_sidecar(out: str | None, payload: dict) -> None:
    if out is None:
        return
    with open(out + ".json", "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen_clique(args) -> int:
    from .graphs import complete_graph
    _write_graph(complete_graph(args.n), args.out)
    return 0


def _cmd_build_interval(args) -> int:
    from .spanners1d import dependable_interval_spanner, interval_radius
    g = dependable_interval_spanner(args.n, args.psi, args.c6)
    _write_graph(g, args.out)
    _write_sidecar(args.out, {
        "construction": "interval", "n": args.n, "psi": args.psi,
        "c6": args.c6, "radius": interval_radius(args.n, args.psi, args.c6),
        "edges": g.m,
    })
    return 0


def _cmd_build_rank(args) -> int:
    """build fourhop|khop; the sidecar reports the very parameters the graph
    is built from."""
    from dataclasses import asdict

    from .spanners1d import DerivedParams, _assemble
    if args.construction == "fourhop":
        dp, extra = DerivedParams.for_four_hop(args.n, args.psi, args.c7), {}
    else:
        dp = DerivedParams.for_k_hop(args.n, args.psi, args.k, args.c7)
        extra = {"k": args.k}
    g = _assemble(args.n, dp, args.seed)
    _write_graph(g, args.out)
    _write_sidecar(args.out, {
        "construction": args.construction, "n": args.n, "psi": args.psi,
        "c7": args.c7, "seed": args.seed, "edges": g.m, **extra, **asdict(dp),
    })
    return 0


def _cmd_build_euclid(args) -> int:
    from .euclid import euclidean_dependable_spanner, normalize_points
    from .fileio import read_points
    pts = normalize_points(read_points(args.points))
    h = euclidean_dependable_spanner(pts, args.eps, args.psi, args.c7,
                                     seed=args.seed,
                                     max_orderings=args.max_orderings)
    _write_graph(h.graph, args.out)
    _write_sidecar(args.out, {
        "construction": "euclid", "n": pts.n, "d": pts.dim,
        "scale": pts.scale, "edges": h.graph.m, **h.info,
    })
    return 0


def _cmd_filter(args) -> int:
    from .fileio import read_edge_list
    from .graphs import filter_edges
    from .rng import derive_stream
    g = read_edge_list(args.graph)
    h = filter_edges(g, args.psi, derive_stream(args.seed, args.stream_index))
    _write_graph(h, args.out)
    return 0


def _cmd_deficiency(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    if args.trials < 1:
        raise ValueError(f"need at least one trial, got {args.trials}")
    if args.psi is None and args.source_samples is not None:
        raise ValueError("--source-samples needs --psi")
    from .fileio import read_edge_list
    from .reach import deficiency, khop_deficiency, monte_carlo_deficiency
    g = read_edge_list(args.graph)
    if args.psi is None:
        count = (deficiency(g) if args.hops is None
                 else khop_deficiency(g, args.hops))
        print(count)
        return 0
    rep = monte_carlo_deficiency(g, args.psi, args.trials, hop_bound=args.hops,
                                 master=args.seed,
                                 source_sample=args.source_samples)
    print(rep.CSV_HEADER)
    print(rep.csv_row())
    return 0


def _cmd_verify_stretch(args) -> int:
    import numpy as np

    from .euclid import GeometricGraph, count_stretch_failures, normalize_points
    from .fileio import read_edge_list, read_points
    g = read_edge_list(args.graph)
    if g.weights is None:
        print("error: verify-stretch needs a weighted graph", file=sys.stderr)
        return VALIDATION_ERROR
    pts = normalize_points(read_points(args.points))
    h = GeometricGraph(g, pts)
    # the count trusts the weights, so each must be its points' distance
    dist = np.linalg.norm(pts.coords[g.edge_i - 1] - pts.coords[g.edge_j - 1],
                          axis=1)
    off = np.flatnonzero(~(np.abs(g.weights - dist) <= 1e-9 * dist))
    if off.size:
        e = off[0]
        raise ValueError(f"edge ({g.edge_i[e]}, {g.edge_j[e]}) has weight "
                         f"{g.weights[e]:.17g}, not its distance {dist[e]:.17g}")
    failures = count_stretch_failures(h, pts, args.eps, args.hops)
    total = pts.n * (pts.n - 1) // 2
    print(f"pairs={total} hop_bound={args.hops} eps={args.eps:g} "
          f"stretch_failures={failures}")
    if args.check and failures > 0:
        return CHECK_FAILED
    return 0


def _cmd_lso_check(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    from .lso import build_lso_family, family_size_bound, locality_witness
    from .rng import derive_stream
    fam = build_lso_family(args.eps, args.d)
    stream = derive_stream(args.seed, 0)
    coords = stream.uniforms(args.n * args.d).reshape(args.n, args.d)
    pair_stream = derive_stream(args.seed, 1)
    hits = 0
    for _ in range(args.pairs):
        i, j = pair_stream.choice_without_replacement(args.n, 2)
        if locality_witness(fam, coords, coords[i], coords[j]) is not None:
            hits += 1
    bound = family_size_bound(args.eps, args.d)
    rate = hits / args.pairs
    print(f"d={args.d} eps={args.eps:g} n={args.n} pairs={args.pairs} "
          f"pass_rate={rate:.4%} family_size={len(fam)} size_bound={bound}")
    if args.check and (hits < args.pairs or len(fam) > bound):
        return CHECK_FAILED
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import (ExperimentConfig, check_experiment, render_csv,
                              run_experiment)
    cfg = ExperimentConfig(
        name=args.name,
        ns=tuple(args.n), psis=tuple(args.psi), ks=tuple(args.k),
        trials=args.trials, seed=args.seed, hops=args.hops,
        c6=args.c6, c7=args.c7,
        source_samples=args.source_samples,
    )
    columns, rows = run_experiment(cfg)
    text = render_csv(columns, rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    if args.check:
        problems = check_experiment(cfg, columns, rows)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if problems:
            return CHECK_FAILED
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="depspan",
        description="Dependable spanners under random edge failure: "
                    "constructions, deficiency measurement, experiments.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-clique", help="emit the complete graph K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_clique)

    build = sub.add_parser("build", help="construct a spanner").add_subparsers(
        dest="construction", required=True)

    p = build.add_parser("interval", help="interval dependable exact spanner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--c6", type=float, default=DEFAULT_C6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_interval)

    p = build.add_parser("fourhop", help="4-hop dependable exact spanner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--c7", type=float, default=DEFAULT_C7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_rank)

    p = build.add_parser("khop", help="k-hop dependable exact spanner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c7", type=float, default=DEFAULT_C7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_rank)

    p = build.add_parser("euclid", help="Euclidean dependable (1+eps)-spanner")
    p.add_argument("--points", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--c7", type=float, default=DEFAULT_C7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-orderings", type=int, default=DEFAULT_MAX_ORDERINGS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_euclid)

    p = sub.add_parser("filter", help="apply one random edge-failure draw")
    p.add_argument("--graph", required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream-index", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("deficiency",
                       help="count failed pairs, exactly or by Monte Carlo")
    p.add_argument("--graph", required=True)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--psi", type=float, default=None,
                   help="if given, Monte Carlo under edge survival psi")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="validated (>= 1) and ignored; trials run in order")
    p.add_argument("--source-samples", type=int, default=None)
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("verify-stretch",
                       help="count bounded-hop (1+eps)-stretch failures")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--hops", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_verify_stretch)

    p = sub.add_parser("lso-check",
                       help="run the ordering-family locality gate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_lso_check)

    p = sub.add_parser("experiment", help="run a named experiment to CSV")
    p.add_argument("name", choices=sorted(EXPERIMENT_NAMES))
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated vertex counts")
    p.add_argument("--psi", type=_float_list, required=True,
                   help="comma-separated survival probabilities")
    p.add_argument("--k", type=_int_list, default=[4])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--c6", type=float, default=DEFAULT_C6)
    p.add_argument("--c7", type=float, default=DEFAULT_C7)
    p.add_argument("--source-samples", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # fileio.FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
