"""Command-line front end.

Subcommands: gen, bound, run, exact, verify, table, bench.  Machine-readable
output (json, csv) renders every rational as an exact "p/q" string and is
byte-identical across runs for a fixed configuration.

Each subcommand imports the kindep modules beyond `graph` and `formats` when
it runs, so a call loads only what it uses, and calls their functions as
module attributes.

Exit codes: 0 success, 2 parse or configuration error or an input too large
for memory (only exact and bench, which search, suggest a lower --limit), 3
guarantee violation (an output failed its certified bound or a
CertificateError was raised, which signals an implementation bug rather than
bad input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import formats
from .graph import CertificateError, Graph, GraphError, verify_k_independent

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
        from . import generators

        spec = generators.parse_family(args.family)
        return generators.make_graph(spec, default_seed=getattr(args, "seed", None))
    raise GraphError("a graph source is required (--file or --family)")


def _write(args, doc, text, header=(), rows=(), footer="", out=None) -> None:
    """Write one result in args.format to `out` or stdout: json dumps `doc`,
    csv writes `header`, `rows` and then `footer`, and text writes `text`."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        body = json.dumps(doc, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        body = buf.getvalue() + footer
    else:
        body = text
    if out:
        Path(out).write_text(body)
    else:
        sys.stdout.write(body)


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _load_source(args)
    _write(args, None, formats.dumps_edge_list(g), out=args.out)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    g = _load_source(args)
    report = bounds.bound_report(g, args.k)
    doc = report.to_json_dict()
    rows = [[r["name"], r["value"], r["ceil"], int(r["applicable"]), r["note"]]
            for r in doc["rows"]]
    _write(args, doc, report.to_text() + "\n",
           ["name", "value", "ceil", "applicable", "note"], rows, out=args.out)
    return EXIT_OK


# algo -> (algorithms function, bounds function giving its guarantee, strict?).
# The functions are looked up by name at call time, so a wrapped module
# attribute (as in a traced benchmark run) sees the call.
_ALGOS = {
    "greedy": ("caro_tuza_greedy", "caro_tuza_sum", False),
    "alg1": ("algorithm1", "thm_first_approach_bound", True),
    "alg2": ("algorithm2", "main_bound", False),
    "lovasz": ("lovasz_largest_class", "hopkins_staton", False),
}


def _cmd_run(args: argparse.Namespace) -> int:
    from . import algorithms, bounds
    from .bounds import frac_str

    g = _load_source(args)
    algo_name, bound_name, strict = _ALGOS[args.algo]
    strict = strict and g.n > 0  # with no vertices every guarantee is >= 0
    witness, trace = getattr(algorithms, algo_name)(g, args.k)
    guarantee = getattr(bounds, bound_name)(g, args.k) if g.n else 0
    needed = None if strict else math.ceil(guarantee)
    ok_bound = witness.size > guarantee if strict else witness.size >= needed
    ok_verify = verify_k_independent(g, witness.vertices, args.k)
    if args.trace:
        Path(args.trace).write_text(trace.to_log())
    if args.out:
        Path(args.out).write_text(" ".join(str(v) for v in witness.vertices) + "\n")
    status = "PASS" if (ok_bound and ok_verify) else "FAIL"
    doc = {
        "algo": args.algo,
        "k": args.k,
        "size": witness.size,
        "guarantee": frac_str(guarantee),
        "guarantee_strict": strict,
        "needed": needed,
        "k_independent": ok_verify,
        "status": status,
        "vertices": list(witness.vertices),
    }
    need = f">{frac_str(guarantee)}" if strict else f">={needed}"
    text = (
        f"algo={args.algo} k={args.k} size={witness.size} "
        f"guarantee={frac_str(guarantee)} need{need} verify={status}\n"
    )
    _write(args, doc, text, ["algo", "k", "size", "guarantee", "status"],
           [[args.algo, args.k, witness.size, frac_str(guarantee), status]])
    return EXIT_OK if status == "PASS" else EXIT_GUARANTEE


def _cmd_exact(args: argparse.Namespace) -> int:
    from . import oracle

    g = _load_source(args)
    if args.chi:
        chi = oracle.chi_k_exact(g, args.k, limit=args.limit)
        _write(args, {"chi": chi, "k": args.k, "n": g.n}, f"{chi}\n")
        return EXIT_OK
    alpha, witness = oracle.alpha_k_exact(g, args.k, limit=args.limit)
    if args.out:
        Path(args.out).write_text(" ".join(str(v) for v in witness.vertices) + "\n")
    doc = {"alpha": alpha, "k": args.k, "n": g.n, "vertices": list(witness.vertices)}
    _write(args, doc, f"{alpha}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_source(args)
    text = Path(args.set).read_text()
    try:
        vertices = [int(tok) for tok in text.split()]
    except ValueError:
        raise GraphError(f"set file {args.set} must contain integers") from None
    result = verify_k_independent(g, vertices, args.k)
    _write(args, {"k_independent": result}, ("true" if result else "false") + "\n")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    from . import bounds
    from .bounds import frac_str

    header = ["d", "lower", "upper", "witness", "alpha", "n", "discrepancy"]
    rows, lines = [], ["  d  lower   upper   witness (alpha_2/n)"]
    for r in bounds.table_f2():
        # csv writes a None discrepancy as an empty cell, json as null.
        rows.append([r.d, frac_str(r.lower), frac_str(r.upper), r.witness, r.alpha,
                     r.n, r.discrepancy])
        note = f"   ! {r.discrepancy}" if r.discrepancy else ""
        lines.append(
            f"{r.d:>3}  {frac_str(r.lower):<6}  {frac_str(r.upper):<6}  "
            f"{r.witness} ({r.alpha}/{r.n}){note}"
        )
    _write(args, [dict(zip(header, row)) for row in rows], "\n".join(lines) + "\n",
           header, rows, out=args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import algorithms, bounds, generators, oracle
    from .bounds import frac_str

    if args.reps < 1:
        raise GraphError(f"reps must be at least 1, got {args.reps}")
    spec = generators.parse_family(args.family)
    base_seed = spec.seed if spec.seed is not None else args.seed
    if spec.family == "gnm" and base_seed is None:
        raise GraphError("bench over gnm needs a base seed")
    rows = []
    ratios = []  # (alg2 size, Caro-Tuza sum, main bound) over alpha_k
    for i in range(args.reps):
        if spec.family == "gnm":
            inst_seed = base_seed + i
            g = generators.make_graph(spec._replace(seed=inst_seed))
            seed_cell: int | str = inst_seed
        else:
            g = generators.make_graph(spec, default_seed=base_seed)
            seed_cell = ""
        ct = bounds.caro_tuza_sum(g, args.k)
        first = bounds.thm_first_approach_bound(g, args.k)
        main_b = bounds.main_bound(g, args.k)
        witness, _ = algorithms.algorithm2(g, args.k)
        try:
            alpha, _ = oracle.alpha_k_exact(g, args.k, limit=args.limit)
            ratios.append((Fraction(witness.size, alpha), ct / alpha, main_b / alpha))
        except oracle.OracleLimitError:
            alpha = ""  # past the oracle's cap: the alpha cell stays empty
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
                alpha,
            ]
        )
    summary = {"instances": args.reps, "with_oracle": len(ratios)}
    for name, column in zip(("alg2", "caro_tuza", "main_bound"), zip(*ratios)):
        summary[f"mean_{name}_over_alpha"] = frac_str(sum(column) / len(ratios))
    footer = "".join(f"# {key}={summary[key]}\n" for key in sorted(summary))
    doc = {"columns": BENCH_COLUMNS, "rows": rows, "summary": summary}
    _write(args, doc, "", BENCH_COLUMNS, rows, footer, out=args.out)
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
    p_gen.set_defaults(func=_cmd_gen)

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
    p_exact.add_argument("--limit", type=int,
                         help="oracle vertex cap (default 40, or 20 with --chi)")
    # chi_k has no witness set for --out to write.
    chi_or_out = p_exact.add_mutually_exclusive_group()
    chi_or_out.add_argument(
        "--chi", action="store_true",
        help="compute the defective chromatic number instead (cap 20)",
    )
    p_exact.add_argument("--format", choices=("text", "json"), default="text")
    chi_or_out.add_argument("--out", help="write the witness set to this file")
    p_exact.set_defaults(func=_cmd_exact)

    p_verify = sub.add_parser("verify", help="check a vertex set for k-independence")
    add_source(p_verify)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--set", required=True, help="file with vertex indices")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="reproduce the f(2,d) bound table")
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
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError:
        if hasattr(args, "limit"):  # exact and bench, the subcommands that search
            sys.stderr.write("error: the search ran out of memory (MemoryError);"
                             " use a smaller graph or a lower --limit\n")
        else:
            sys.stderr.write("error: ran out of memory (MemoryError); use a smaller graph\n")
        return EXIT_CONFIG
    except CertificateError as exc:
        sys.stderr.write(f"error: certificate check failed: {exc}\n")
        return EXIT_GUARANTEE


if __name__ == "__main__":
    sys.exit(main())
