"""The three workloads.  Each one generates its inputs from the run seed in
`setup`, reads them back with the benchmark's own parser in `prepare`, runs
one pass of its job per `run_pass` call and checks every output there, outside
the timed calls.  `finish` runs the networkx cross-checks once, after the
timed loop, so that networkx adds nothing to the measured time or memory."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from kindep import algorithms, bounds, cli, formats, generators, graph, oracle

import checks

class OpFailed(Exception):
    """An op raised; the rest of its pass depends on it and is skipped."""


class Recorder:
    """Times each op of each pass and records which ops failed their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.failures: dict[tuple[int, str], str] = {}
        self.attempted = 0
        self.passes = 0
        self.pass_walls: list[float] = []
        self.op = ""

    def call(self, name, fn, *args):
        self.op = name
        self.attempted += 1
        if self.tracer:
            self.tracer.op = f"{self.passes}:{name}"
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any exception is a failed op, reported below
            self.expect(False, f"raised {exc!r}")
            raise OpFailed from exc
        self.times.setdefault(name, []).append(perf_counter() - t0)
        return out

    def expect(self, ok: bool, why: str, op: str | None = None) -> None:
        if not ok:
            self.failures.setdefault((self.passes, op or self.op), why)

    def digest(self, text: str) -> None:
        """Outputs must repeat exactly from pass to pass."""
        h = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(self.op, h)
        self.expect(first == h, "output differs from the first pass")


def derive(seed: int, *parts) -> int:
    """Instance seed: a stable function of the run seed and the instance."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:6], "big")


def gnm(n: int, m: int, seed: int):
    return generators.make_graph(generators.parse_family(f"gnm:n={n},m={m},seed={seed}"))


def write_graph(path: Path, g, dimacs: bool = False) -> Path:
    text = formats.dumps_edge_list(g)
    path.write_text(checks.dimacs(text) if dimacs else text)
    return path


def set_text(vertices) -> str:
    return " ".join(map(str, vertices)) + "\n"


# -- peel_large ---------------------------------------------------------------

_ALGOS = (("greedy", "caro_tuza_greedy"), ("alg1", "algorithm1"), ("alg2", "algorithm2"))


def _run_logged(fname, g, k):
    witness, trace = getattr(algorithms, fname)(g, k)
    return witness, trace.to_log()


def _lovasz_logged(g, caps):
    part, trace = algorithms.lovasz_partition(g, caps)
    return part, trace.to_log()


def _verify_all(g, sets, k):
    return [graph.verify_k_independent(g, s, k) for s in sets]


class PeelLarge:
    """Large sparse graphs through every deletion algorithm; no oracle."""

    tail_pct = 100  # 16 ops a pass: no percentile below 100 has 10 beyond it
    SIZES = {"full": ((4000, 12000, 1), (2000, 20000, 2)),
             "tiny": ((300, 900, 1), (150, 1500, 2))}

    def setup(self, seed, workdir: Path, size):
        paths = [(write_graph(workdir / f"g{i}.txt", gnm(n, m, derive(seed, "peel", i))), k)
                 for i, (n, m, k) in enumerate(self.SIZES[size])]
        small = gnm(60, 180, derive(seed, "peel", "warm"))
        for _, fname in _ALGOS:
            _run_logged(fname, small, 1)
        _lovasz_logged(small, [1] * 10)
        graph.girth(small)
        bounds.bound_report(small, 1)
        return paths

    def prepare(self, paths):
        return [(f"g{i}", path, checks.parse_graph(path.read_text(), k))
                for i, (path, k) in enumerate(paths)]

    def run_pass(self, insts, rec: Recorder):
        for tag, path, exp in insts:
            k = exp.k
            g = rec.call(f"{tag}.load", formats.load_graph, path)
            rec.expect(g.n == exp.n and all(g.neighbor_set(v) == a for v, a in enumerate(exp.adj)),
                       "loaded graph differs from the file")
            report = rec.call(f"{tag}.bound_report", bounds.bound_report, g, k)
            got = {row.name: row.value for row in report.rows}
            rec.expect(all(got[name] == v for name, v in exp.bounds().items()),
                       "bound_report differs from the formulas")
            rec.digest(report.to_json())
            sets = []
            for algo, fname in _ALGOS:
                witness, log = rec.call(f"{tag}.{algo}", _run_logged, fname, g, k)
                rec.expect(checks.k_independent(exp, witness.vertices), "not k-independent")
                rec.expect(checks.certificate(algo, witness.size, exp.bounds()), "below its certificate")
                if algo == "greedy":
                    rec.expect(log.count("DEL ") == exp.n - witness.size, "DEL count != n - |B|")
                rec.digest(set_text(witness.vertices) + log)
                sets.append(witness.vertices)
            part, log = rec.call(f"{tag}.lovasz", _lovasz_logged, g, [k] * exp.lovasz_classes())
            rec.expect(sorted(v for c in part.classes for v in c) == list(range(exp.n))
                       and all(checks.k_independent(exp, c) for c in part.classes)
                       and checks.certificate("lovasz", len(part.largest_class()), exp.bounds()),
                       "Lovasz partition is not a certified k-partition")
            rec.digest(json.dumps(part.classes) + log)
            sets.append(part.largest_class())
            ok = rec.call(f"{tag}.verify", _verify_all, g, sets, k)
            rec.expect(ok == [True] * len(sets), "verify_k_independent rejected a witness")
            girth = rec.call(f"{tag}.girth", graph.girth, g)
            rec.digest(str(girth))
            exp.girth = girth

    def finish(self, insts, rec: Recorder):
        for tag, _, exp in insts:
            if exp.girth is not None:
                rec.expect(exp.girth == checks.girth_networkx(exp), "girth differs from networkx",
                           op=f"{tag}.girth")


# -- exact_ensemble -----------------------------------------------------------


def _solve_all(graphs, k):
    return [oracle.alpha_k_exact(g, k) for g in graphs]


class ExactEnsemble:
    """Seeded small gnm graphs through the exact oracle, in 45 cells: cell j
    has k = j mod 3, m = (2, 4, 6)[j // 3 mod 3] * n, n = base + j // 9.  An
    op solves the cell's graphs.  Per-graph times are heavy-tailed, so the
    tail of single graphs moves by a quarter between seeds; the tail of cells
    is set mostly by their (n, m, k) and stays put.  The graphs are handed over
    as Graph objects: writing hundreds of files made set-up time unsteady."""

    tail_pct = 75  # 45 ops a pass: 11 beyond p75
    SIZES = {"full": (45, 8, 16), "tiny": (9, 1, 14)}  # cells, graphs per cell, base n

    def setup(self, seed, workdir: Path, size):
        cells, per_cell, base = self.SIZES[size]
        insts = []
        for j in range(cells):
            n, k = base + j // 9, j % 3
            insts.append(([gnm(n, (2, 4, 6)[j // 3 % 3] * n, derive(seed, "exact", j, r))
                           for r in range(per_cell)], k))
        oracle.alpha_k_exact(gnm(16, 48, derive(seed, "exact", "warm")), 1)
        return insts

    def prepare(self, insts):
        return [(f"c{j}", graphs, [checks.parse_graph(formats.dumps_edge_list(g), k)
                                   for g in graphs])
                for j, (graphs, k) in enumerate(insts)]

    def run_pass(self, insts, rec: Recorder):
        for tag, graphs, exps in insts:
            results = rec.call(tag, _solve_all, graphs, exps[0].k)
            for exp, (alpha, witness) in zip(exps, results):
                rec.expect(alpha == witness.size and checks.k_independent(exp, witness.vertices),
                           "witness is not a k-independent set of size alpha")
                rec.expect(exp.n >= alpha >= checks.certificate_floor(exp), "alpha below Caro-Tuza")
                exp.alpha = alpha
            rec.digest("".join(f"{alpha} {set_text(w.vertices)}" for alpha, w in results))

    def finish(self, insts, rec: Recorder):
        for tag, _, exps in insts:
            for exp in exps:
                if exp.k == 0 and exp.alpha is not None:
                    rec.expect(exp.alpha == checks.alpha0_networkx(exp),
                               "alpha_0 differs from networkx", op=tag)


# -- cli_session --------------------------------------------------------------


# Subprocesses import the same kindep sources as this process.
_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def _subprocess(argv, workdir):
    done = subprocess.run([sys.executable, "-m", "kindep", *argv], cwd=workdir, env=_ENV,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def _in_process(argv, workdir):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def help_call(workdir):
    return _subprocess(["--help"], workdir)


class CliSession:
    """42 `kindep` calls covering every subcommand on files with n <= 2000.

    `inproc` replays the same argv list through `kindep.cli.main` in this
    process (the traced run); otherwise each call is a subprocess."""

    tail_pct = 75  # 42 ops a pass: 10 beyond p75
    SIZES = {
        "full": {"big": (2000, 6000), "dense": (1000, 6000), "mid": (300, 900), "ex0": (24, 48),
                 "ex1": (22, 66), "ex2": (20, 60), "chi": (14, 28), "reps": 60},
        "tiny": {"big": (200, 600), "dense": (100, 600), "mid": (60, 180), "ex0": (12, 24),
                 "ex1": (11, 33), "ex2": (10, 30), "chi": (8, 16), "reps": 5},
    }
    # file name -> (size key, k used with it, DIMACS?)
    FILES = {"big.txt": ("big", 1, False), "dense.dimacs": ("dense", 2, True),
             "mid.txt": ("mid", 1, False), "ex0.txt": ("ex0", 0, False),
             "ex1.dimacs": ("ex1", 1, True), "ex2.txt": ("ex2", 2, False),
             "chi.txt": ("chi", 1, False)}

    def __init__(self):
        self.inproc = False

    def setup(self, seed, workdir: Path, size):
        sizes = self.SIZES[size]
        for name, (key, _, dimacs) in self.FILES.items():
            write_graph(workdir / name, gnm(*sizes[key], derive(seed, "cli", key)), dimacs)
        help_call(workdir)
        return seed, workdir, size

    def prepare(self, st):
        seed, wd, size = st
        sizes = self.SIZES[size]
        exp = {name: checks.parse_graph((wd / name).read_text(), k)
               for name, (_, k, _) in self.FILES.items()}
        fam = f"gnm:n={sizes['ex2'][0]},m={2 * sizes['ex2'][0]},seed={derive(seed, 'cli', 'fam')}"
        exp["family"] = checks.parse_graph(formats.dumps_edge_list(
            generators.make_graph(generators.parse_family(fam))), 0)
        big_n, big_m = sizes["big"]
        calls = [
            ("gen.gnm", ["gen", "--family", f"gnm:n={big_n},m={big_m}",
                         "--seed", str(derive(seed, "cli", "big")), "--out", str(wd / "gen.txt")],
             lambda out: ((wd / "gen.txt").read_text() == (wd / "big.txt").read_text(),
                          "gen output differs from the generated input")),
        ]
        for fam_spec in ("j:6", "thm14_5:d=3,q=0", "blend:j:4+complete:3", "r8"):
            calls.append((f"gen.{fam_spec}", ["gen", "--family", fam_spec], _valid_graph))
        for name in ("big.txt", "dense.dimacs", "mid.txt"):
            for fmt in ("text", "json", "csv"):
                calls.append((f"bound.{name}.{fmt}",
                              ["bound", "--file", str(wd / name), "--k", str(exp[name].k),
                               "--format", fmt], _bound_check(exp[name], fmt)))
        for name, fmts in (("mid.txt", ("json",) * 4), ("dense.dimacs", ("text", "csv") * 2)):
            e = exp[name]
            for algo, fmt in zip(("greedy", "alg1", "alg2", "lovasz"), fmts):
                wit, log = wd / f"{name}.{algo}.set", wd / f"{name}.{algo}.log"
                calls.append((f"run.{name}.{algo}",
                              ["run", "--file", str(wd / name), "--k", str(e.k), "--algo", algo,
                               "--format", fmt, "--out", str(wit), "--trace", str(log)],
                              _run_check(e, algo, fmt, wit, log)))
                calls.append((f"verify.{name}.{algo}",
                              ["verify", "--file", str(wd / name), "--k", str(e.k), "--set",
                               str(wit)] + (["--format", "json"] if fmt != "json" else []),
                              _verify_check))
        self.alpha0 = {}  # op name -> (Expected, alpha) to cross-check with networkx
        for name, k, fmt in (("ex0.txt", 0, "json"), ("ex0.txt", 1, "text"),
                             ("ex1.dimacs", 1, "json"), ("ex2.txt", 2, "json"),
                             ("family", 0, "json")):
            op, wit = f"exact.{name}.{k}", wd / f"{name}.{k}.alpha"
            source = ["--family", fam] if name == "family" else ["--file", str(wd / name)]
            calls.append((op, ["exact", *source, "--k", str(k), "--format", fmt, "--out", str(wit)],
                          _exact_check(exp[name], k, wit, self.alpha0, op)))
        for k, fmt in ((1, "text"), (0, "json")):
            calls.append((f"exact.chi.{k}", ["exact", "--chi", "--file", str(wd / "chi.txt"),
                                             "--k", str(k), "--format", fmt],
                          _chi_check(exp["chi.txt"], k, fmt)))
        for fmt in ("text", "csv", "json"):
            calls.append((f"table.{fmt}", ["table", "--format", fmt], _table_check(fmt)))
        reps = sizes["reps"]
        for fam_spec, k, n_reps, fmt in (("gnm:n=20,m=40", 1, reps, "csv"),
                                         ("gnm:n=16,m=32", 0, reps // 3, "json")):
            calls.append((f"bench.{k}", ["bench", "--family", fam_spec, "--k", str(k), "--reps",
                                         str(n_reps), "--seed", str(derive(seed, "cli", k) % 10**6),
                                         "--format", fmt], _bench_check(n_reps, fmt)))
        return wd, exp, calls

    def run_pass(self, st, rec: Recorder):
        wd, exp, calls = st
        invoke = _in_process if self.inproc else _subprocess
        for name, argv, check in calls:
            code, out = rec.call(name, invoke, argv, wd)
            if code != 0:
                rec.expect(False, f"exit code {code}")
                continue
            try:
                ok, why = check(out)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                ok, why = False, f"unreadable output: {exc!r}"
            rec.expect(ok, why)
            extra = "".join((wd / a).read_text() for a in argv if a.endswith((".set", ".log", ".alpha")))
            rec.digest(out + extra)

    def finish(self, st, rec: Recorder):
        for name, (exp, alpha) in self.alpha0.items():
            rec.expect(alpha == checks.alpha0_networkx(exp), "alpha_0 differs from networkx", op=name)


def _valid_graph(out):
    try:
        checks.parse_graph(out, 0)
    except (ValueError, IndexError) as exc:
        return False, f"gen wrote an invalid graph: {exc}"
    return True, ""


def _bound_check(exp, fmt):
    want = {name: f"{v.numerator}/{v.denominator}" for name, v in exp.bounds().items()}

    def check(out):
        if fmt == "json":
            got = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
        elif fmt == "csv":
            got = {r["name"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
        else:
            got = {ln.split()[0]: ln.split()[1] for ln in out.splitlines()[1:] if ln.split()}
        return all(got.get(k) == v for k, v in want.items()), "bounds differ from the formulas"

    return check


def _run_check(exp, algo, fmt, wit, log):
    def check(out):
        if fmt == "json":
            status = json.loads(out)["status"]
        elif fmt == "csv":
            status = list(csv.DictReader(io.StringIO(out)))[0]["status"]
        else:
            status = out.split("verify=")[1].strip()
        vertices = [int(t) for t in wit.read_text().split()]
        ok = (status == "PASS" and checks.k_independent(exp, vertices)
              and checks.certificate(algo, len(vertices), exp.bounds()))
        if algo == "greedy":
            ok = ok and log.read_text().count("DEL ") == exp.n - len(vertices)
        return ok, "run output fails its independent check"

    return check


def _verify_check(out):
    return out.strip() in ("true", '{"k_independent": true}'), "verify did not answer true"


def _exact_check(exp, k, wit, alpha0, op):
    def check(out):
        alpha = json.loads(out)["alpha"] if out.startswith("{") else int(out)
        vertices = [int(t) for t in wit.read_text().split()]
        if k == 0:
            alpha0[op] = (exp, alpha)
        ok = (alpha == len(vertices) and checks.k_independent(exp, vertices, k)
              and alpha >= checks.certificate_floor(exp, k))
        return ok, "exact witness fails its check"

    return check


def _chi_check(exp, k, fmt):
    def check(out):
        chi = json.loads(out)["chi"] if fmt == "json" else int(out)
        return 1 <= chi <= exp.lovasz_classes(k), "chi_k outside [1, Lovasz bound]"

    return check


def _table_check(fmt):
    def check(out):
        if fmt == "json":
            rows = [(r["d"], r["lower"], r["upper"]) for r in json.loads(out)]
        elif fmt == "csv":
            rows = [(int(r["d"]), r["lower"], r["upper"]) for r in csv.DictReader(io.StringIO(out))]
        else:
            rows = [(int(ln.split()[0]), ln.split()[1], ln.split()[2])
                    for ln in out.splitlines()[1:]]
        ok = ([d for d, _, _ in rows] == list(range(11))
              and all(Fraction(lo) <= Fraction(up) for _, lo, up in rows))
        return ok, "f(2,d) table rows out of order or lower > upper"

    return check


def _bench_check(reps, fmt):
    def check(out):
        if fmt == "json":
            doc = json.loads(out)
            rows = [dict(zip(doc["columns"], r)) for r in doc["rows"]]
        else:
            rows = list(csv.DictReader(io.StringIO(
                "".join(ln for ln in out.splitlines(True) if not ln.startswith("#")))))
        ok = len(rows) == reps and all(
            int(r["alpha_k"]) >= int(r["alg2_size"]) >= -(-Fraction(r["main_bound"]) // 1)
            and int(r["alpha_k"]) >= -(-Fraction(r["caro_tuza_sum"]) // 1) for r in rows)
        return ok, "bench rows violate alpha >= alg2 >= ceil(main bound)"

    return check


WORKLOADS = {"peel_large": PeelLarge, "exact_ensemble": ExactEnsemble, "cli_session": CliSession}
