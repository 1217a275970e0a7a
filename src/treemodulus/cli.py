"""Command-line surface: vuln, modulus, generate, bench, stats, check.

Exit codes: 0 ok, 2 parse error, unreadable file or usage error,
3 disconnected or trivial input, 4 size guard / generator cap exceeded,
5 internal invariant violation, 1 any other package error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import generators, oracle
from .errors import (
    DisconnectedGraphError,
    GeneratorError,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeGuardExceeded,
)
from .graph import MultiGraph, bridges, parse_edge_list
from .modulus import ModulusResult, eta_histogram, spanning_tree_modulus
from .vulnerability import vulnerability

# categorical palette for DOT buckets, cycled when there are more values
PALETTE = [
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2df8a", "#fb9a99", "#cab2d6",
]

# each error's exit code, the first entry that it is an instance of
EXIT_CODES = (
    (ParseError, 2),
    (DisconnectedGraphError, 3),
    ((SizeGuardExceeded, GeneratorError), 4),
    (InvariantViolation, 5),
    (OSError, 2),
    (GraphError, 1),
)

MIN_FAMILY_SIZE = 2  # smallest size option every generator family accepts


@dataclass(frozen=True)
class Family:
    """A generator family as ``generate`` and ``bench`` use it."""

    build: Callable[[int, int | None], MultiGraph]  # (size, seed) -> graph
    size_option: str  # the generate option that sets the size
    seeded: bool  # generate requires --seed


FAMILIES = {
    "complete": Family(lambda size, _seed: generators.complete_graph(size), "n", False),
    "multipartite": Family(lambda size, _seed: generators.multipartite_graph(size), "k", False),
    "gnp": Family(generators.gnp_graph, "n", True),
    "geometric": Family(generators.geometric_graph, "n", True),
}


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load_graph(path: str) -> tuple[MultiGraph, list[str]]:
    with open(path, "rb") as handle:
        return parse_edge_list(handle.read())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _modulus_json(g: MultiGraph, result: ModulusResult) -> str:
    payload = {
        "vertices": g.vertex_count,
        "modulus": {"num": result.modulus.numerator, "den": result.modulus.denominator},
        "eta": [
            {
                "edge": [g.label_of(a), g.label_of(b)],
                "num": result.eta[eid].numerator,
                "den": result.eta[eid].denominator,
            }
            for eid, (a, b) in enumerate(g.edges)
        ],
        "trace": [
            {
                "parent": rec.parent,
                "vertices": rec.vertex_count,
                "edges": rec.edge_count,
                "theta": {"num": rec.theta.numerator, "den": rec.theta.denominator},
                "critical": list(rec.critical_edges),
            }
            for rec in result.trace
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _modulus_text(g: MultiGraph, result: ModulusResult) -> str:
    lines = [
        f"modulus = {_frac(result.modulus)} (~{float(result.modulus):.6g})",
        "eta histogram:",
    ]
    for value, count in eta_histogram(result):
        lines.append(f"  {_frac(value)} x {count}")
    lines.append("edges:")
    for eid, (a, b) in enumerate(g.edges):
        lines.append(
            f"  {eid}: {g.label_of(a)} -- {g.label_of(b)}"
            f"  eta={_frac(result.eta[eid])}  rho={_frac(result.rho[eid])}"
        )
    lines.append("peels:")
    for rec in result.trace:
        lines.append(
            f"  #{rec.index} parent={rec.parent} vertices={rec.vertex_count}"
            f" edges={rec.edge_count} theta={_frac(rec.theta)}"
            f" critical={len(rec.critical_edges)}"
        )
    return "\n".join(lines) + "\n"


def _modulus_csv(g: MultiGraph, result: ModulusResult) -> str:
    out = io.StringIO()
    out.write(f"# modulus={_frac(result.modulus)}\n")
    out.write("edge,endpoint_a,endpoint_b,eta_num,eta_den,rho_num,rho_den\n")
    writer = csv.writer(out, lineterminator="\n")  # quotes only the labels that need it
    for eid, (a, b) in enumerate(g.edges):
        eta, rho = result.eta[eid], result.rho[eid]
        writer.writerow(
            (eid, g.label_of(a), g.label_of(b),
             eta.numerator, eta.denominator, rho.numerator, rho.denominator)
        )
    return out.getvalue()


def _dot_id(label: str) -> str:
    """A label's text inside a quoted DOT id."""
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _modulus_dot(g: MultiGraph, result: ModulusResult) -> str:
    buckets = [value for value, _count in eta_histogram(result)]
    color_of = {value: PALETTE[i % len(PALETTE)] for i, value in enumerate(buckets)}
    lines = ["graph modulus {", "  edge [penwidth=2];"]
    for value in buckets:
        lines.append(f"  // eta={_frac(value)} color={color_of[value]}")
    for eid, (a, b) in enumerate(g.edges):
        value = result.eta[eid]
        lines.append(
            f'  "{_dot_id(g.label_of(a))}" -- "{_dot_id(g.label_of(b))}"'
            f' [color="{color_of[value]}", label="{_frac(value)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_vuln(args) -> int:
    g, _warnings = _load_graph(args.path)
    result = vulnerability(g)
    lines = [f"theta = {_frac(result.theta)}", f"critical edges = {len(result.critical)}"]
    for eid in sorted(result.critical):
        a, b = g.edges[eid]
        lines.append(f"  {eid}: {g.label_of(a)} -- {g.label_of(b)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_modulus(args) -> int:
    g, _warnings = _load_graph(args.path)
    result = spanning_tree_modulus(g)
    renderers = {
        "json": _modulus_json,
        "text": _modulus_text,
        "csv": _modulus_csv,
        "dot": _modulus_dot,
    }
    _emit(renderers[args.format](g, result), args.out)
    return 0


def _check_families(parser, names: list[str], sizes: list[int], option: str) -> None:
    """Usage error unless every family is known and every size suits it."""
    for name in names:
        if name not in FAMILIES:
            parser.error(f"unknown family {name!r} (choose from {', '.join(FAMILIES)})")
        for size in sizes:
            if size < MIN_FAMILY_SIZE:
                parser.error(f"{name} needs {option} >= {MIN_FAMILY_SIZE}, got {size}")


def cmd_generate(args) -> int:
    family = FAMILIES[args.family]
    size = getattr(args, family.size_option)
    _check_families(args.parser, [args.family], [size], f"--{family.size_option}")
    if family.seeded and args.seed is None:
        args.parser.error(f"{args.family} requires --seed")
    _emit(family.build(size, args.seed).to_edge_list_text(), args.out)
    return 0


def _instance_seed(base: int, family_index: int, size: int, rep: int) -> int:
    mix = generators.SplitMix64(
        (base * 1000003 + family_index * 9176 + size * 97 + rep) & ((1 << 64) - 1)
    )
    return mix.next_u64()


def fit_loglog_slope(points: list[tuple[int, int]]) -> float | None:
    """Least-squares slope of log(nanos) against log(edges)."""
    data = [(math.log(e), math.log(t)) for e, t in points if e > 0 and t > 0]
    if len(data) < 2:
        return None
    xs, ys = zip(*data)
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def cmd_bench(args) -> int:
    families = args.families.split(",") if args.families else list(FAMILIES)
    sizes = args.sizes or []
    _check_families(args.parser, families, sizes, "--sizes entries")
    if args.reps < 1:
        args.parser.error(f"--reps must be at least 1, got {args.reps}")
    rows = ["family,n,vertices,edges,nanos,result"]
    fits: list[str] = []
    for fidx, family in enumerate(families):
        points: list[tuple[int, int]] = []
        skipping = False
        for size in sizes:
            if skipping:
                print(f"# skipped {family} n={size} after timeout", file=sys.stderr)
                continue
            seed = _instance_seed(args.seed, fidx, size, 0)
            g = FAMILIES[family].build(size, seed)
            samples = []
            result = None
            for _rep in range(args.reps):
                start = time.perf_counter_ns()
                result = spanning_tree_modulus(g)
                samples.append(time.perf_counter_ns() - start)
            nanos = sorted(samples)[len(samples) // 2]
            if args.timeout_s is not None and nanos > args.timeout_s * 1e9:
                skipping = True
                print(f"# timeout on {family} n={size}", file=sys.stderr)
                continue
            rows.append(
                f"{family},{size},{g.vertex_count},{g.edge_count},{nanos},"
                f"{_frac(result.modulus)}"
            )
            points.append((g.edge_count, nanos))
        slope = fit_loglog_slope(points)
        fits.append(
            f"family={family} points={len(points)} "
            + (f"slope={slope:.3f}" if slope is not None else "slope=n/a")
        )
    _emit("\n".join(rows) + "\n", args.out)
    for line in fits:
        print(line, file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    g, warnings = _load_graph(args.path)
    count = oracle.count_spanning_trees(g)
    lines = [
        f"vertices = {g.vertex_count}",
        f"edges = {g.edge_count}",
        f"self_loops_dropped = {len(warnings)}",
        f"bridges = {len(bridges(g))}",
        f"spanning_trees = {count}",
        f"spanning_tree_digits = {len(str(count))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    g, _warnings = _load_graph(args.path)
    # first, so that the oracle's own size guard refuses a large graph up front
    reference = oracle.brute_modulus(g)
    result = spanning_tree_modulus(g)
    report = oracle.verify_modulus(g, result)
    lines = [f"modulus = {_frac(result.modulus)}"]
    ok = True
    for entry in report.entries:
        lines.append(f"{'PASS' if entry.passed else 'FAIL'} {entry.name}: {entry.detail}")
        ok = ok and entry.passed
    agree = reference.eta == result.eta
    lines.append(f"{'PASS' if agree else 'FAIL'} brute-force-eta: edge-for-edge comparison")
    ok = ok and agree
    theta, family = oracle.brute_theta(g)
    found = vulnerability(g)
    value_ok = found.theta == theta
    member_ok = found.critical in family
    lines.append(f"{'PASS' if value_ok else 'FAIL'} brute-force-theta: {_frac(found.theta)}")
    lines.append(f"{'PASS' if member_ok else 'FAIL'} critical-set-membership")
    ok = ok and value_ok and member_ok
    _emit("\n".join(lines) + "\n", args.out)
    if not ok:
        raise InvariantViolation("verification reported failures")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")] if text else []
    except ValueError:
        message = f"expected a comma list of integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemod",
        description="Exact graph vulnerability and spanning tree modulus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vuln = sub.add_parser("vuln", help="vulnerability and a critical edge set")
    p_vuln.add_argument("path")
    p_vuln.add_argument("--out")
    p_vuln.set_defaults(func=cmd_vuln)

    p_mod = sub.add_parser("modulus", help="spanning tree modulus, eta and rho")
    p_mod.add_argument("path")
    p_mod.add_argument("--format", choices=["text", "json", "csv", "dot"], default="text")
    p_mod.add_argument("--out")
    p_mod.set_defaults(func=cmd_modulus)

    p_gen = sub.add_parser("generate", help="emit an edge list for a graph family")
    p_gen.add_argument("family", choices=list(FAMILIES))
    p_gen.add_argument("--n", type=int, default=4, help="vertex count (complete/gnp/geometric)")
    p_gen.add_argument("--k", type=int, default=3, help="part count (multipartite)")
    p_gen.add_argument("--seed", type=int, help="required for gnp and geometric")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate, parser=p_gen)

    p_bench = sub.add_parser("bench", help="timing runs over the generator families")
    p_bench.add_argument("--families", help="comma list, default all four")
    p_bench.add_argument(
        "--sizes", type=_int_list, help="comma list of n (or k for multipartite)"
    )
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--timeout-s", type=float, default=None)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_stats = sub.add_parser("stats", help="vertex/edge/bridge/spanning-tree counts")
    p_stats.add_argument("path")
    p_stats.add_argument("--out")
    p_stats.set_defaults(func=cmd_stats)

    p_check = sub.add_parser("check", help="verify a modulus run against the oracles")
    p_check.add_argument("path")
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
