"""kindep benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload peel_large --seed 1 --seconds 30 --trace 0

The run imports kindep from ``src/`` next to this directory, generates the
workload's inputs from --seed, repeats the workload's pass for --seconds
(at least three passes), checks every output and prints a summary followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time on
untraced passes and half on traced ones, and reports the per-layer metrics
(see tracing.py) plus the tracing overhead.  README.md in this directory
describes the workloads, the metrics and their expected movements.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPS = 5
CLI_SUBCOMMANDS = ("gen", "bound", "run", "exact", "verify", "table", "bench")


def import_kindep() -> float:
    """Import kindep from this checkout's sources; returns the import time."""
    if not (SRC / "kindep" / "__init__.py").is_file():
        sys.exit(f"bench: no kindep sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import kindep.cli  # noqa: F401  (imports every kindep module)

    elapsed = perf_counter() - t0
    if Path(kindep.cli.__file__).resolve().parent != SRC / "kindep":
        sys.exit(f"bench: imported kindep from {kindep.cli.__file__}, not from {SRC}")
    return elapsed


def percentile(values: list[float], pct: int) -> float:
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, state, rec, seconds: float) -> None:
    """Closed loop, one client: repeat passes until `seconds` have passed."""
    from workloads import OpFailed

    start = perf_counter()
    while rec.passes < MIN_PASSES or perf_counter() - start < seconds:
        t0 = perf_counter()
        try:
            workload.run_pass(state, rec)
        except OpFailed:
            pass
        rec.pass_walls.append(perf_counter() - t0)
        rec.passes += 1


def op_times(rec) -> list[float]:
    """Each op's mean time over the passes, leaving out its slowest pass.

    The machine's speed flips between a fast and a slow state many times a
    second, so a median of a few passes jumps between the two; the mean moves
    smoothly, and dropping the slowest pass keeps a single stall out of it."""
    return [statistics.fmean(sorted(ts)[:-1] if len(ts) > 2 else ts)
            for ts in rec.times.values()]


def fresh_dir(work: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=work))


def end_to_end(workload, args, import_s: float, work: Path, recs: list) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        state = workload.setup(args.seed, fresh_dir(work), args.size)
        setups.append(perf_counter() - t0)
    state = workload.prepare(state)
    rec = workload_recorder(recs)
    measure(workload, state, rec, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    workload.finish(state, rec)
    ops = op_times(rec)
    print(f"# setup runs (s): {setups}; first import {import_s:.4f} s")
    print(f"# passes={rec.passes} ops/pass={len(ops)} op_tail_s=p{workload.tail_pct} "
          f"of {len(ops)} ops ({len(ops) * (100 - workload.tail_pct) // 100} beyond)")
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (sum(ops), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (percentile(ops, workload.tail_pct), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, args, work: Path, recs: list) -> dict:
    from tracing import LAYERS, Tracer
    from workloads import help_call

    state = workload.prepare(workload.setup(args.seed, fresh_dir(work), args.size))
    metrics: dict[str, tuple[float, str]] = {}
    share = args.seconds / 2
    cli_metrics = {f"cli.{sub}.wall_s": 0.0 for sub in CLI_SUBCOMMANDS}
    cli_metrics["cli.startup_s"] = 0.0
    if args.workload == "cli_session":
        # Subprocess timings per subcommand, then in-process replays of the same argv.
        share = args.seconds / 3
        sub = workload_recorder(recs)
        measure(workload, state, sub, share)
        workload.finish(state, sub)
        for name in CLI_SUBCOMMANDS:
            cli_metrics[f"cli.{name}.wall_s"] = statistics.median(
                t for op, ts in sub.times.items() if op.split(".")[0] == name for t in ts)
        starts = []
        for _ in range(5):
            t0 = perf_counter()
            help_call(state[0])
            starts.append(perf_counter() - t0)
        cli_metrics["cli.startup_s"] = statistics.median(starts)
        workload.inproc = True
    plain = workload_recorder(recs)
    measure(workload, state, plain, share)
    workload.finish(state, plain)

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    t0 = perf_counter()
    raw = workload.setup(args.seed, fresh_dir(work), args.size)
    setup_traced = perf_counter() - t0
    tracer.uninstall()
    state = workload.prepare(raw)
    traced = workload_recorder(recs, tracer)
    tracer.install()
    try:
        measure(workload, state, traced, share)
    finally:
        tracer.uninstall()
    workload.finish(state, traced)

    layers = tracer.layer_metrics(traced.passes)
    wall = setup_traced + statistics.fmean(traced.pass_walls)
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "1" if name.endswith("ratio") else "count"
        metrics[name] = (value, unit)
    metrics.update({name: (v, "s") for name, v in cli_metrics.items()})
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (sum(op_times(traced)) - sum(op_times(plain)), "s")
    metrics["bench.self_s"] = (wall - sum(layers[f"{layer}.self_s"] for layer in LAYERS), "s")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)
    print(f"# traced passes={traced.passes} untraced passes={plain.passes}; "
          f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return metrics


def workload_recorder(recs: list, tracer=None):
    from workloads import Recorder

    rec = Recorder(tracer)
    recs.append(rec)
    return rec


def check_reference(args, recs: list) -> None:
    """For the default seed, every output digest must match the stored one."""
    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    if args.record_reference:
        refs.setdefault(args.workload, {})[args.size] = dict(sorted(recs[0].digests.items()))
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return
    ref = refs.get(args.workload, {}).get(args.size)
    if ref is None:
        print(f"# no reference digests for {args.workload}/{args.size}", file=sys.stderr)
        return
    for rec in recs:
        for op, digest in rec.digests.items():
            rec.expect(ref.get(op) == digest, "output differs from the stored reference", op=op)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("peel_large", "exact_ensemble", "cli_session"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests as the reference "
                             "(default seed only)")
    args = parser.parse_args()
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("references are stored for the default seed only")

    import_s = import_kindep()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    recs: list = []
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics = per_layer(workload, args, work, recs)
        else:
            metrics = end_to_end(workload, args, import_s, work, recs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.seed == DEFAULT_SEED:
        check_reference(args, recs)

    attempted = sum(r.attempted for r in recs)
    failures = {f"{i}:{p}:{op}": why for i, r in enumerate(recs)
                for (p, op), why in r.failures.items()}
    for key, why in list(failures.items())[:20]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    print(f"# attempted={attempted} failed={len(failures)} "
          f"failed_ratio={len(failures) / max(attempted, 1)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
