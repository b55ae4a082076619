"""Spans around calls into kindep's public functions, recorded from outside.

The tracer replaces selected module attributes (``kindep.algorithms.algorithm2``
and so on) with wrappers that record one span per call: name, start, end,
parent span and op id.  Spans stay in memory until the run ends.

Limit: a caller that bound a function with ``from x import y`` when its module
was imported keeps the unwrapped function, so that call is not seen and its
time counts toward the caller's self time.  Examples: ``algorithms`` calling
``graph.induced_subgraph``, ``oracle`` and ``cli`` calling
``graph.verify_k_independent``.  Calls through a module attribute, or through a
``from x import y`` executed at call time (``oracle`` -> ``caro_tuza_greedy``,
``bounds.witness_ratio`` -> ``alpha_k_exact``), are seen.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# layer (kindep module) -> public functions wrapped in a traced run.
LAYERS = {
    "graph": ("girth", "verify_k_independent"),
    "formats": ("load_graph", "dumps_edge_list"),
    "generators": ("random_gnm", "make_graph"),
    "bounds": ("bound_report", "caro_tuza_sum", "table_f2"),
    "algorithms": ("caro_tuza_greedy", "algorithm1", "algorithm2", "lovasz_partition"),
    "oracle": ("alpha_k_exact", "chi_k_exact"),
    "cli": ("main",),
}


class Tracer:
    """Records spans of wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, DEL steps, MOVE steps, n]
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"kindep.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                self._saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.op, 0, 0, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name.startswith("algorithms.") and not (
                parent >= 0 and self.spans[parent][0].startswith("algorithms.")
            ):
                # Work counters, read from the RunTrace an outermost algorithm
                # returns (an inner partition's steps are already merged in it).
                steps = out[1].steps
                span[5] = sum(1 for s in steps if s[0] == "DEL")
                span[6] = sum(1 for s in steps if s[0] == "MOVE")
                span[7] = args[0].n
            return out

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, *_) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-function calls, busy and self time, per-layer self time and the
        algorithm step counters, for one set-up plus one pass: spans of op
        "setup" count once, the other spans are averaged over `passes`.

        A span's self time is its duration minus its direct children's; the
        wrapped functions never nest into themselves, so busy time is a plain
        sum.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        keys = [f"{layer}.{fn}.{kind}" for layer, fns in LAYERS.items() for fn in fns
                for kind in ("calls", "busy_s", "self_s")]
        keys += [f"{layer}.self_s" for layer in LAYERS]
        keys += ["algorithms.del_steps", "algorithms.move_steps", "alg2_dels", "alg2_n"]
        acc = {True: dict.fromkeys(keys, 0), False: dict.fromkeys(keys, 0)}
        for i, (name, start, end, parent, op, dels, moves, n) in enumerate(self.spans):
            a = acc[op == "setup"]
            own = end - start - child[i]
            a[f"{name}.calls"] += 1
            a[f"{name}.busy_s"] += end - start
            a[f"{name}.self_s"] += own
            a[f"{name.split('.')[0]}.self_s"] += own
            a["algorithms.del_steps"] += dels
            a["algorithms.move_steps"] += moves
            if name == "algorithms.algorithm2":
                a["alg2_dels"] += dels
                a["alg2_n"] += n
        out = {key: acc[True][key] + acc[False][key] / passes for key in keys}
        alg2_dels, alg2_n = out.pop("alg2_dels"), out.pop("alg2_n")
        out["algorithms.algorithm2.replay_ratio"] = alg2_dels / alg2_n if alg2_n else 0.0
        return out
