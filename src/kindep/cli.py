"""Command-line front end.

Subcommands: gen, bound, run, exact, verify, table, bench.  Machine-readable
output (json, csv) renders every rational as an exact "p/q" string and is
byte-identical across runs for a fixed configuration.

Exit codes: 0 success, 2 parse or configuration error, 3 guarantee
violation (an algorithm's output failed its own certified bound, which
signals an implementation bug rather than bad input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import algorithms, bounds, formats, generators, oracle
from .bounds import frac_str
from .graph import Graph, GraphError, verify_k_independent

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARANTEE = 3

BENCH_COLUMNS = [
    "instance",
    "n",
    "m",
    "k",
    "seed",
    "caro_tuza_sum",
    "first_approach_bound",
    "main_bound",
    "alg2_size",
    "alpha_k",
]


def _load_source(args: argparse.Namespace) -> Graph:
    if getattr(args, "file", None) and getattr(args, "family", None):
        raise GraphError("give either --file or --family, not both")
    if getattr(args, "file", None):
        return formats.load_graph(args.file)
    if getattr(args, "family", None):
        spec = generators.parse_family(args.family)
        return generators.make_graph(spec, default_seed=getattr(args, "seed", None))
    raise GraphError("a graph source is required (--file or --family)")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = generators.parse_family(args.family)
    g = generators.make_graph(spec, default_seed=args.seed)
    _emit(formats.dumps_edge_list(g), args.out)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    g = _load_source(args)
    report = bounds.bound_report(g, args.k)
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "ceil", "applicable", "note"])
        for r in report.rows:
            writer.writerow(
                [
                    r.name,
                    r.value_str(),
                    math.ceil(r.value) if r.value is not None else "",
                    int(r.applicable),
                    r.note,
                ]
            )
        _emit(buf.getvalue(), args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    return EXIT_OK


_ALGOS = ("greedy", "alg1", "alg2", "lovasz")


def _run_algo(g: Graph, k: int, algo: str):
    """Returns (witness, trace, guarantee Fraction, needed size, strict?)."""
    if algo == "greedy":
        witness, trace = algorithms.caro_tuza_greedy(g, k)
        guarantee = bounds.caro_tuza_sum(g, k)
        return witness, trace, guarantee, math.ceil(guarantee), False
    if algo == "alg1":
        witness, trace = algorithms.algorithm1(g, k)
        guarantee = bounds.thm_first_approach_bound(g, k) if g.n else Fraction(0)
        return witness, trace, guarantee, None, True
    if algo == "alg2":
        witness, trace = algorithms.algorithm2(g, k)
        guarantee = bounds.main_bound(g, k) if g.n else Fraction(0)
        return witness, trace, guarantee, math.ceil(guarantee), False
    if algo == "lovasz":
        witness, trace = algorithms.lovasz_largest_class(g, k)
        guarantee = bounds.hopkins_staton(g, k) if g.n else Fraction(0)
        return witness, trace, guarantee, math.ceil(guarantee), False
    raise GraphError(f"unknown algorithm '{algo}'")


def _cmd_run(args: argparse.Namespace) -> int:
    g = _load_source(args)
    witness, trace, guarantee, needed, strict = _run_algo(g, args.k, args.algo)
    ok_bound = (
        witness.size > guarantee if strict else witness.size >= (needed or 0)
    )
    ok_verify = verify_k_independent(g, witness.vertices, args.k)
    if args.trace:
        Path(args.trace).write_text(trace.to_log())
    if args.out:
        Path(args.out).write_text(
            " ".join(str(v) for v in witness.vertices) + "\n"
        )
    status = "PASS" if (ok_bound and ok_verify) else "FAIL"
    if args.format == "json":
        doc = {
            "algo": args.algo,
            "k": args.k,
            "size": witness.size,
            "guarantee": frac_str(guarantee),
            "guarantee_strict": strict,
            "needed": needed if not strict else None,
            "k_independent": ok_verify,
            "status": status,
            "vertices": list(witness.vertices),
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["algo", "k", "size", "guarantee", "status"])
        writer.writerow([args.algo, args.k, witness.size, frac_str(guarantee), status])
        sys.stdout.write(buf.getvalue())
    else:
        need = f">{frac_str(guarantee)}" if strict else f">={needed}"
        sys.stdout.write(
            f"algo={args.algo} k={args.k} size={witness.size} "
            f"guarantee={frac_str(guarantee)} need{need} verify={status}\n"
        )
    return EXIT_OK if status == "PASS" else EXIT_GUARANTEE


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_source(args)
    if args.chi:
        chi = oracle.chi_k_exact(g, args.k, limit=args.limit)
        if args.format == "json":
            sys.stdout.write(
                json.dumps({"chi": chi, "k": args.k, "n": g.n}, sort_keys=True) + "\n"
            )
        else:
            sys.stdout.write(f"{chi}\n")
        return EXIT_OK
    alpha, witness = oracle.alpha_k_exact(g, args.k, limit=args.limit)
    if args.out:
        Path(args.out).write_text(" ".join(str(v) for v in witness.vertices) + "\n")
    if args.format == "json":
        doc = {"alpha": alpha, "k": args.k, "n": g.n, "vertices": list(witness.vertices)}
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"{alpha}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_source(args)
    text = Path(args.set).read_text()
    try:
        vertices = [int(tok) for tok in text.split()]
    except ValueError:
        raise GraphError(f"set file {args.set} must contain integers") from None
    result = verify_k_independent(g, vertices, args.k)
    if args.format == "json":
        sys.stdout.write(json.dumps({"k_independent": result}) + "\n")
    else:
        sys.stdout.write(("true" if result else "false") + "\n")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    rows = bounds.table_f2(limit=args.limit)
    if args.format == "json":
        doc = [
            {
                "d": r.d,
                "lower": frac_str(r.lower),
                "upper": frac_str(r.upper),
                "witness": r.witness,
                "alpha": r.alpha,
                "n": r.n,
                "discrepancy": r.discrepancy,
            }
            for r in rows
        ]
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "lower", "upper", "witness", "alpha", "n", "discrepancy"])
        for r in rows:
            writer.writerow(
                [r.d, frac_str(r.lower), frac_str(r.upper), r.witness, r.alpha, r.n,
                 r.discrepancy or ""]
            )
        _emit(buf.getvalue(), args.out)
    else:
        lines = ["  d  lower   upper   witness (alpha_2/n)"]
        for r in rows:
            note = f"   ! {r.discrepancy}" if r.discrepancy else ""
            lines.append(
                f"{r.d:>3}  {frac_str(r.lower):<6}  {frac_str(r.upper):<6}  "
                f"{r.witness} ({r.alpha}/{r.n}){note}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _bench_rows(args: argparse.Namespace) -> tuple[list[list], dict]:
    spec = generators.parse_family(args.family)
    base_seed = spec.seed if spec.seed is not None else args.seed
    if spec.family == "gnm" and base_seed is None:
        raise GraphError("bench over gnm needs a base seed")
    rows = []
    ratios_alg2, ratios_ct, ratios_main = [], [], []
    for i in range(args.reps):
        if spec.family == "gnm":
            inst_seed = base_seed + i
            g = generators.random_gnm(spec.parameters[0], spec.parameters[1], inst_seed)
            seed_cell: int | str = inst_seed
        else:
            g = generators.make_graph(spec, default_seed=base_seed)
            seed_cell = ""
        ct = bounds.caro_tuza_sum(g, args.k)
        first = bounds.thm_first_approach_bound(g, args.k)
        main_b = bounds.main_bound(g, args.k)
        witness, _ = algorithms.algorithm2(g, args.k)
        limit = args.limit if args.limit is not None else oracle.DEFAULT_ALPHA_LIMIT
        if g.n <= limit:
            alpha, _ = oracle.alpha_k_exact(g, args.k, limit=limit)
            alpha_cell: int | str = alpha
            ratios_alg2.append(Fraction(witness.size, alpha))
            ratios_ct.append(ct / alpha)
            ratios_main.append(main_b / alpha)
        else:
            alpha_cell = ""
        rows.append(
            [
                i,
                g.n,
                g.edge_count(),
                args.k,
                seed_cell,
                frac_str(ct),
                frac_str(first),
                frac_str(main_b),
                witness.size,
                alpha_cell,
            ]
        )
    summary = {"instances": args.reps, "with_oracle": len(ratios_alg2)}
    if ratios_alg2:
        m = len(ratios_alg2)
        summary["mean_alg2_over_alpha"] = frac_str(sum(ratios_alg2) / m)
        summary["mean_caro_tuza_over_alpha"] = frac_str(sum(ratios_ct) / m)
        summary["mean_main_bound_over_alpha"] = frac_str(sum(ratios_main) / m)
    return rows, summary


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise GraphError(f"reps must be at least 1, got {args.reps}")
    rows, summary = _bench_rows(args)
    if args.format == "json":
        doc = {
            "columns": BENCH_COLUMNS,
            "rows": [[("" if c == "" else c) for c in row] for row in rows],
            "summary": summary,
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for row in rows:
            writer.writerow(row)
        for key in sorted(summary):
            buf.write(f"# {key}={summary[key]}\n")
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kindep",
        description="Bounds, algorithms and exact solving for k-independent sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, family_only: bool = False):
        if not family_only:
            p.add_argument("--file", help="graph file (edge list or DIMACS)")
        p.add_argument("--family", help="generator spec, e.g. j:6 or gnm:n=30,m=60,seed=7")
        p.add_argument("--seed", type=int, help="seed for random families")

    p_gen = sub.add_parser("gen", help="generate a graph file")
    add_source(p_gen, family_only=True)
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_gen, family_required=True)

    p_bound = sub.add_parser("bound", help="lower bounds on alpha_k")
    add_source(p_bound)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=_cmd_bound)

    p_run = sub.add_parser("run", help="run a certified algorithm")
    add_source(p_run)
    p_run.add_argument("--k", type=int, required=True)
    p_run.add_argument("--algo", choices=_ALGOS, required=True)
    p_run.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_run.add_argument("--out", help="write the witness set to this file")
    p_run.add_argument("--trace", help="write the run trace log to this file")
    p_run.set_defaults(func=_cmd_run)

    p_exact = sub.add_parser("exact", help="exact alpha_k by branch and bound")
    add_source(p_exact)
    p_exact.add_argument("--k", type=int, required=True)
    p_exact.add_argument("--limit", type=int, help="oracle vertex cap (default 40)")
    p_exact.add_argument(
        "--chi", action="store_true",
        help="compute the defective chromatic number instead (cap 20)",
    )
    p_exact.add_argument("--format", choices=("text", "json"), default="text")
    p_exact.add_argument("--out", help="write the witness set to this file")
    p_exact.set_defaults(func=_cmd_exact)

    p_verify = sub.add_parser("verify", help="check a vertex set for k-independence")
    add_source(p_verify)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--set", required=True, help="file with vertex indices")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="reproduce the f(2,d) bound table")
    p_table.add_argument("--limit", type=int, help="oracle vertex cap (default 40)")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--out")
    p_table.set_defaults(func=_cmd_table)

    p_bench = sub.add_parser("bench", help="benchmark sweep over an ensemble")
    p_bench.add_argument("--family", required=True, help="instance template, e.g. gnm:n=20,m=40")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--seed", type=int, help="base seed; instance i uses seed+i")
    p_bench.add_argument("--limit", type=int, help="oracle vertex cap for the alpha column")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, formats.GraphFormatError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
