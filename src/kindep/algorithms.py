"""Constructive procedures that output certified k-independent sets.

Every entry point is deterministic: ties in vertex selection always
break toward the smallest index, move targets toward the smallest class
index, so identical inputs give identical outputs and traces.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import potential_f, residue_t
from .graph import CertificateError, Graph, GraphError, WitnessSet, induced_subgraph


@dataclass
class RunTrace:
    """Step log plus exact potential snapshots for one algorithm run."""

    steps: list[tuple] = field(default_factory=list)
    potential_values: list[Fraction] = field(default_factory=list)

    def to_log(self) -> str:
        lines = []
        for step in self.steps:
            tag = step[0]
            if tag == "DEL":
                lines.append(f"DEL {step[1]} deg={step[2]}")
            elif tag == "MOVE":
                phi = step[4]
                lines.append(
                    f"MOVE {step[1]} {step[2]}->{step[3]} "
                    f"phi={phi.numerator}/{phi.denominator}"
                )
            elif tag == "RESTART":
                lines.append(f"RESTART d={step[1]} t={step[2]} q={step[3]}")
            elif tag == "PARTITION":
                lines.append(f"PARTITION t={step[1]}")
            else:
                raise ValueError(f"unknown trace step {step!r}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex classes covering V(G), each with a degree capacity."""

    classes: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def largest_class(self) -> tuple[int, ...]:
        best = max(range(len(self.classes)), key=lambda i: (len(self.classes[i]), -i))
        return self.classes[best]


def _peel(g: Graph):
    """The max-degree deletion order of G, smallest index on ties.

    For the state just before each deletion, yields (v, deg, n_alive,
    sum_deg, live_deg): the vertex deleted next, its live degree, the live
    vertex count and degree sum, and the live degree list.  live_deg is
    updated in place; deleted vertices read -1 in it.

    The heap holds one entry (-d, v) per live vertex, with d at least v's
    live degree.  An entry whose d is stale is re-keyed when it reaches the
    top; an exact entry on top has the maximum degree and, among those, the
    smallest index.  The whole order costs O(m log n).
    """
    deg = g.degrees()
    n_alive, sum_deg = g.n, sum(deg)
    heap = [(-d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while heap:
        neg_d, v = heap[0]
        if deg[v] != -neg_d:
            heapq.heapreplace(heap, (-deg[v], v))
            continue
        heapq.heappop(heap)
        yield v, deg[v], n_alive, sum_deg, deg
        n_alive -= 1
        sum_deg -= 2 * deg[v]
        deg[v] = -1
        for u in g.neighbors(v):
            if deg[u] >= 0:
                deg[u] -= 1


def lovasz_partition(
    g: Graph, capacities: list[int] | tuple[int, ...]
) -> tuple[Partition, RunTrace]:
    """Partition V(G) into classes with induced max degree <= capacity.

    Requires sum(k_i + 1) >= max_degree + 1.  Local search: start from the
    round-robin assignment by vertex index; while some vertex exceeds its
    class capacity, move the smallest such vertex to the class minimizing
    deg_class(v)/(k_class + 1).  The potential sum of e(class)/(k_class+1)
    drops by at least 1/lcm(k_i+1) per move, so the loop terminates.
    """
    caps = tuple(int(c) for c in capacities)
    if any(c < 0 for c in caps) or not caps:
        raise GraphError(f"capacities must be nonnegative and nonempty: {caps}")
    if sum(c + 1 for c in caps) < g.max_degree() + 1:
        raise GraphError(
            f"capacity sum {sum(c + 1 for c in caps)} below max degree + 1 "
            f"= {g.max_degree() + 1}"
        )
    t = len(caps)
    cls = [v % t for v in range(g.n)]
    deg_in = [[0] * t for _ in range(g.n)]
    for v in range(g.n):
        row = deg_in[v]
        for u in g.neighbors(v):
            row[cls[u]] += 1
    scale = math.lcm(*(c + 1 for c in caps))
    weight = [scale // (c + 1) for c in caps]
    phi = sum(deg_in[v][cls[v]] * weight[cls[v]] for v in range(g.n)) // 2

    trace = RunTrace()
    trace.potential_values.append(Fraction(phi, scale))
    violating = {v for v in range(g.n) if deg_in[v][cls[v]] > caps[cls[v]]}
    while violating:
        v = min(violating)
        i = cls[v]
        j = min(range(t), key=lambda c: (deg_in[v][c] * weight[c], c))
        # Pigeonhole step: a strictly better class always exists.
        if deg_in[v][j] * weight[j] >= deg_in[v][i] * weight[i]:
            raise CertificateError(f"no strictly better class for vertex {v}")
        phi += deg_in[v][j] * weight[j] - deg_in[v][i] * weight[i]
        cls[v] = j
        for u in g.neighbors(v):
            deg_in[u][i] -= 1
            deg_in[u][j] += 1
            if deg_in[u][cls[u]] > caps[cls[u]]:
                violating.add(u)
            else:
                violating.discard(u)
        if deg_in[v][j] > caps[j]:
            violating.add(v)
        else:
            violating.discard(v)
        trace.steps.append(("MOVE", v, i, j, Fraction(phi, scale)))
        trace.potential_values.append(Fraction(phi, scale))

    classes = [[] for _ in range(t)]
    for v in range(g.n):
        classes[cls[v]].append(v)
    part = Partition(tuple(tuple(c) for c in classes), caps)
    for c, cap in zip(part.classes, part.capacities):
        members = set(c)
        if not all(
            sum(1 for u in g.neighbor_set(v) if u in members) <= cap for v in c
        ):
            raise CertificateError(f"a partition class exceeds its capacity {cap}")
    return part, trace


def lovasz_equal(g: Graph, k: int) -> Partition:
    """Equal-capacity partition into ceil((max_degree+1)/(k+1)) classes."""
    part, _ = _lovasz_equal_traced(g, k)
    return part


def _lovasz_equal_traced(g: Graph, k: int) -> tuple[Partition, RunTrace]:
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    t = -((g.max_degree() + 1) // -(k + 1))
    return lovasz_partition(g, [k] * t)


def _partition_step(
    g: Graph, deleted: list[int], k: int, trace: RunTrace
) -> WitnessSet:
    """Run the equal-capacity partition on the subgraph left after
    `deleted`, merge its trace, and return the largest class mapped back to
    original indices."""
    gone = set(deleted)
    sub, mapping = induced_subgraph(g, (v for v in range(g.n) if v not in gone))
    part, sub_trace = _lovasz_equal_traced(sub, k)
    trace.steps.extend(sub_trace.steps)
    trace.potential_values.extend(sub_trace.potential_values)
    trace.steps.append(("PARTITION", len(part.classes)))
    chosen = part.largest_class()
    return WitnessSet(tuple(sorted(mapping[v] for v in chosen)), k)


def lovasz_largest_class(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Largest class of the equal-capacity partition of G, which holds at
    least n / ceil((max_degree+1)/(k+1)) vertices.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace
    return _partition_step(g, [], k, trace), trace


def caro_tuza_greedy(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until the rest induces max degree <= k.

    The returned set B satisfies |B| >= ceil(sum of f_k over the degree
    sequence); the trace records s(B) after every deletion and the run
    checks it never drops.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    # Exact potential tracking over a common denominator: w[d] = f_k(d)*scale.
    values = [potential_f(k, d) for d in range(g.max_degree() + 1)]
    scale = math.lcm(*(v.denominator for v in values))
    w = [int(v * scale) for v in values]
    s = sum(w[d] for d in g.degrees())
    trace.potential_values.append(Fraction(s, scale))

    for v, d, _, _, deg in _peel(g):
        if d <= k:
            break
        s_new = s - w[d]
        for u in g.neighbors(v):
            if deg[u] >= 0:
                s_new += w[deg[u] - 1] - w[deg[u]]
        if s_new < s:
            raise CertificateError("deletion potential decreased")
        s = s_new
        trace.steps.append(("DEL", v, d))
        trace.potential_values.append(Fraction(s, scale))
    return WitnessSet(tuple(u for u, du in enumerate(deg) if du >= 0), k), trace


def algorithm1(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until max degree <= ceil(avg degree) + k,
    then partition and keep the largest class.

    The output size strictly exceeds (k+1) n / (d(G) + 2k + 2).
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace
    deleted = []
    for v, d, n_alive, sum_deg, _ in _peel(g):
        if d <= -(-sum_deg // n_alive) + k:
            break
        trace.steps.append(("DEL", v, d))
        deleted.append(v)
    return _partition_step(g, deleted, k, trace), trace


def algorithm2(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Max-degree deletion trajectory, partitioned at its best state.

    One pass over the deletion order (repeatedly removing the max-degree
    vertex, smallest index on ties) records every intermediate graph and
    predicts there the class size ceil(n'/t') that the equal-capacity
    partition guarantees, with t' = ceil((max_degree'+1)/(k+1)).  The
    earliest state with the best prediction is partitioned; the deletions
    before it are logged.  Restart records are emitted whenever ceil(avg
    degree) drops below the value frozen at the previous record, so at most
    ceil(d(G))+1 rounds appear in the trace.

    The output size is at least ceil((k+1) n / (ceil(d(G))+k+1)).  It also
    never falls below the deletion greedy's certificate: the greedy's
    stopping state lies on the same trajectory and predicts exactly its
    own set size there.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    states = [(v, d, n_alive, sum_deg) for v, d, n_alive, sum_deg, _ in _peel(g)]
    predicted = [-(-n_alive // -((d + 1) // -(k + 1))) for _, d, n_alive, _ in states]
    best = predicted.index(max(predicted))
    round_d: int | None = None
    for i, (v, deg, n_alive, sum_deg) in enumerate(states[: best + 1]):
        d = -(-sum_deg // n_alive)
        if round_d is None or d < round_d:
            round_d = d
            t = residue_t(k, d)
            trace.steps.append(("RESTART", d, t, -(-n_alive // (d + 2 * t + 1))))
        if i < best:
            trace.steps.append(("DEL", v, deg))
    return _partition_step(g, [v for v, *_ in states[:best]], k, trace), trace
