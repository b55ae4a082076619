"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with ``--size tiny``, and
checks that each run is correct, fails no op, and reports every metric that
BENCHMARK.json names, with its unit.  Then checks that a copy holding only
BENCHMARK.json and this directory, without kindep's sources, exits non-zero
without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(ROOT, w["name"], trace)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{w['name']} trace={trace}: no result line\n{done.stderr}")
                continue
            if done.returncode or not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{w['name']} trace={trace}: {done.returncode=} "
                                f"{ {k: result[k] for k in ('correct', 'attempted', 'failed')} }"
                                f"\n{done.stderr}")
            got = result["metrics"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{w['name']} trace={trace}: metric {m['name']} missing "
                                    f"or not in {m['unit']}")
            print(f"{w['name']} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(got)}")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(Path(bare), spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("without kindep's sources the benchmark did not fail")
        print(f"bare directory: exit code {done.returncode}")
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
