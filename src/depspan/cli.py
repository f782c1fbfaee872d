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


def _cmd_gen_clique(args) -> int:
    from .graphs import complete_graph
    _write_graph(complete_graph(args.n), args.out)
    return 0


def _build_interval(args):
    from .spanners1d import dependable_interval_spanner, interval_radius
    return dependable_interval_spanner(args.n, args.psi, args.c6), {
        "n": args.n, "psi": args.psi, "c6": args.c6,
        "radius": interval_radius(args.n, args.psi, args.c6)}


def _build_rank(args):
    """build fourhop|khop; the sidecar reports the very parameters the graph
    is built from."""
    from dataclasses import asdict

    from .spanners1d import DerivedParams, _assemble
    if args.construction == "fourhop":
        dp, extra = DerivedParams.for_four_hop(args.n, args.psi, args.c7), {}
    else:
        dp = DerivedParams.for_k_hop(args.n, args.psi, args.k, args.c7)
        extra = {"k": args.k}
    return _assemble(args.n, dp, args.seed), {
        "n": args.n, "psi": args.psi, "c7": args.c7, "seed": args.seed,
        **extra, **asdict(dp)}


def _build_euclid(args):
    from .euclid import euclidean_dependable_spanner, normalize_points
    from .fileio import read_points
    pts = normalize_points(read_points(args.points))
    h = euclidean_dependable_spanner(pts, args.eps, args.psi, args.c7,
                                     seed=args.seed,
                                     max_orderings=args.max_orderings)
    return h.graph, {"n": pts.n, "d": pts.dim, "scale": pts.scale, **h.info}


def _cmd_build(args) -> int:
    """Every build: args.builder returns the graph and its sidecar fields;
    with --out the sidecar goes to OUT.json."""
    g, fields = args.builder(args)
    _write_graph(g, args.out)
    if args.out is not None:
        with open(args.out + ".json", "w", encoding="ascii") as fh:
            json.dump({"construction": args.construction, "edges": g.m,
                       **fields}, fh, indent=2, sort_keys=True)
            fh.write("\n")
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


# The flags several commands share, each declared once: dest -> keywords of
# add_argument. A command declares its own flags, and those it takes with
# another spec, where it lists them (see _command).
_SHARED = {
    "n": dict(type=int, required=True),
    "psi": dict(type=float, required=True),
    "c6": dict(type=float, default=DEFAULT_C6),
    "c7": dict(type=float, default=DEFAULT_C7),
    "seed": dict(type=int, default=0),
    "out": dict(),
    "graph": dict(required=True),
    "points": dict(required=True),
    "eps": dict(type=float, required=True),
    "hops": dict(type=int, default=None),
    "trials": dict(type=int, default=100),
    "source_samples": dict(type=int, default=None),
    "check": dict(action="store_true"),
}


def _command(sub, name: str, summary: str, func, flags: str, **own):
    """Add command `name` running func(args). `flags` lists its flags' dests
    in help order; each is declared by `own` if there, else by _SHARED."""
    p = sub.add_parser(name, help=summary)
    for dest in flags.split():
        p.add_argument("--" + dest.replace("_", "-"),
                       **(own[dest] if dest in own else _SHARED[dest]))
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="depspan",
        description="Dependable spanners under random edge failure: "
                    "constructions, deficiency measurement, experiments.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    _command(sub, "gen-clique", "emit the complete graph K_n", _cmd_gen_clique,
             "n out")

    build = sub.add_parser("build", help="construct a spanner").add_subparsers(
        dest="construction", required=True)
    # --k and --max-orderings each belong to one build
    own = dict(k=dict(type=int, required=True),
               max_orderings=dict(type=int, default=DEFAULT_MAX_ORDERINGS))
    for name, summary, builder, flags in (
            ("interval", "interval dependable exact spanner", _build_interval,
             "n psi c6 out"),
            ("fourhop", "4-hop dependable exact spanner", _build_rank,
             "n psi c7 seed out"),
            ("khop", "k-hop dependable exact spanner", _build_rank,
             "n psi k c7 seed out"),
            ("euclid", "Euclidean dependable (1+eps)-spanner", _build_euclid,
             "points eps psi c7 seed max_orderings out")):
        _command(build, name, summary, _cmd_build, flags, **own).set_defaults(
            builder=builder)

    _command(sub, "filter", "apply one random edge-failure draw", _cmd_filter,
             "graph psi seed stream_index out",
             stream_index=dict(type=int, default=0))
    _command(sub, "deficiency", "count failed pairs, exactly or by Monte Carlo",
             _cmd_deficiency, "graph hops psi trials seed jobs source_samples",
             psi=dict(type=float, default=None,
                      help="if given, Monte Carlo under edge survival psi"),
             jobs=dict(type=int, default=1,
                       help="validated (>= 1) and ignored; trials run in order"))
    _command(sub, "verify-stretch", "count bounded-hop (1+eps)-stretch failures",
             _cmd_verify_stretch, "graph points eps hops check",
             hops=dict(type=int, required=True))
    _command(sub, "lso-check", "run the ordering-family locality gate",
             _cmd_lso_check, "d eps n pairs seed check",
             d=dict(type=int, required=True), n=dict(type=int, default=512),
             pairs=dict(type=int, default=10000))
    p = _command(sub, "experiment", "run a named experiment to CSV",
                 _cmd_experiment,
                 "n psi k trials seed hops c6 c7 source_samples out check",
                 n=dict(type=_int_list, required=True,
                        help="comma-separated vertex counts"),
                 psi=dict(type=_float_list, required=True,
                          help="comma-separated survival probabilities"),
                 k=dict(type=_int_list, default=[4]))
    p.add_argument("name", choices=sorted(EXPERIMENT_NAMES))
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
